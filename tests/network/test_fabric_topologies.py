"""Contended fabric over the non-mesh topologies."""

from __future__ import annotations

import pytest

from repro.network.fabric import WormholeNetwork
from repro.network.packet import protocol_packet
from repro.network.topology import Crossbar, Omega, Torus2D


def deliver_all(sim, net, sends):
    arrivals = {}
    for dst in {d for _, d in sends}:
        net.attach(dst, lambda p, d=dst: arrivals.setdefault(d, []).append(sim.now))
    for src, dst in sends:
        sim.post(0, lambda s=src, d=dst: net.send(protocol_packet(s, d, "RREQ", 0)))
    sim.run()
    return arrivals


class TestOmegaFabric:
    def test_hotspot_serializes_final_stage(self, sim):
        """All-to-one traffic through an Omega network funnels into the
        destination's final-stage link: arrivals must spread out."""
        net = WormholeNetwork(sim, Omega(8))
        arrivals = deliver_all(sim, net, [(s, 7) for s in range(7)])
        times = sorted(arrivals[7])
        assert len(times) == 7
        assert times[-1] - times[0] > 10  # serialized, not simultaneous
        assert net.stats.contention_cycles > 0

    def test_disjoint_omega_routes_parallel(self, sim):
        net = WormholeNetwork(sim, Omega(8))
        # a permutation the Omega can route without conflicts: identity
        arrivals = deliver_all(sim, net, [(i, i ^ 1) for i in range(8)])
        spread = {t for times in arrivals.values() for t in times}
        assert len(spread) <= 2  # everyone lands together (no contention)


class TestTorusFabric:
    def test_wraparound_is_faster_than_mesh_path(self, sim):
        net = WormholeNetwork(sim, Torus2D(4, 4))
        arrivals = deliver_all(sim, net, [(0, 3)])
        # one wrap hop instead of three mesh hops
        assert arrivals[3][0] <= 8


class TestCrossbarFabric:
    def test_pairwise_links_never_contend(self, sim):
        net = WormholeNetwork(sim, Crossbar(6))
        sends = [(s, (s + 1) % 6) for s in range(6)]
        deliver_all(sim, net, sends)
        assert net.stats.contention_cycles == 0

    def test_same_pair_still_serializes(self, sim):
        net = WormholeNetwork(sim, Crossbar(6))
        deliver_all(sim, net, [(0, 1), (0, 1), (0, 1)])
        assert net.stats.contention_cycles > 0


class TestMachineOnTopologies:
    @pytest.mark.parametrize("topology", ["torus", "omega", "crossbar"])
    def test_weather_runs_and_audits(self, topology):
        from repro.machine import AlewifeConfig, run_experiment
        from repro.workloads import WeatherWorkload

        stats = run_experiment(
            AlewifeConfig(
                n_procs=16,
                protocol="limitless",
                pointers=2,
                topology=topology,
                cache_lines=512,
                segment_bytes=1 << 17,
                max_cycles=8_000_000,
            ),
            WeatherWorkload(iterations=2),
        )
        assert stats.cycles > 0

    def test_torus_beats_mesh_on_wrap_heavy_traffic(self):
        """Neighbour exchange across the 0/N-1 seam favours the torus."""
        from repro.machine import AlewifeConfig, run_experiment
        from repro.workloads import MultigridWorkload

        def run(topology):
            return run_experiment(
                AlewifeConfig(
                    n_procs=16,
                    protocol="fullmap",
                    topology=topology,
                    cache_lines=512,
                    segment_bytes=1 << 17,
                    max_cycles=8_000_000,
                ),
                MultigridWorkload(levels=(2,)),
            ).network.hops

        assert run("torus") <= run("mesh")

"""Tests for machine configuration and assembly."""

from __future__ import annotations

import gc

import pytest

from repro.backend import backend_names, equivalence_fingerprint
from repro.backend.soa import SoaCacheArray
from repro.machine import AlewifeConfig, AlewifeMachine, Node, run_experiment
from repro.proc import ops
from repro.proc.processor import Processor
from repro.sim.kernel import SimulationError
from repro.verify.diagnose import LivenessError
from repro.workloads import HotSpotWorkload
from repro.workloads.base import Workload


class TestConfig:
    def test_defaults_model_alewife(self):
        config = AlewifeConfig()
        assert config.n_procs == 64
        assert config.switch_cycles == 11
        assert config.max_contexts == 4
        assert config.block_bytes == 16
        assert config.cache_lines * config.block_bytes == 64 * 1024

    def test_unknown_protocol_rejected(self):
        with pytest.raises(ValueError):
            AlewifeConfig(protocol="msi")

    def test_limited_needs_pointers(self):
        with pytest.raises(ValueError):
            AlewifeConfig(protocol="limited", pointers=0)

    @pytest.mark.parametrize(
        "field",
        [
            "ts",
            "ts_per_invalidation",
            "hop_latency",
            "cycles_per_word",
            "injection_latency",
            "ideal_latency",
            "cache_hit_latency",
            "dir_occupancy",
            "switch_cycles",
            # these three used to fail inside the run: a program
            # generator's think(), and the cache's randrange() backoff
            "spin_poll_interval",
            "retry_base",
            "retry_cap",
        ],
    )
    def test_negative_latency_rejected(self, field):
        """``ts=-5`` used to validate and die 223 cycles into the run."""
        with pytest.raises(ValueError, match=f"{field} must be >= 0"):
            AlewifeConfig(**{field: -1})
        assert getattr(AlewifeConfig(**{field: 0}), field) == 0

    @pytest.mark.parametrize(
        "field, overrides",
        [
            # "out of hardware contexts" at the first add_thread
            ("max_contexts", {}),
            # a LivenessError: the first buffered store never finds a slot
            ("store_buffer", {"memory_model": "wo"}),
        ],
    )
    def test_zero_capacity_rejected(self, field, overrides):
        with pytest.raises(ValueError, match=f"{field} must be >= 1, got 0"):
            AlewifeConfig(**{field: 0}, **overrides)
        assert getattr(AlewifeConfig(**{field: 1}, **overrides), field) == 1

    def test_removed_sharding_fields_are_unknown(self):
        with pytest.raises(TypeError, match="shards"):
            AlewifeConfig(shards=2)

    def test_removed_victim_policy_is_unknown(self):
        with pytest.raises(TypeError, match="victim_policy"):
            AlewifeConfig(protocol="limited", victim_policy="fifo")

    def test_with_returns_modified_copy(self):
        base = AlewifeConfig(n_procs=16)
        other = base.with_(ts=125)
        assert other.ts == 125
        assert other.n_procs == 16
        assert base.ts != 125 or base.ts == 50

    @pytest.mark.parametrize(
        "protocol,pointers,expected",
        [
            ("fullmap", 0, "Full-Map"),
            ("limited", 4, "Dir4NB"),
            ("limitless", 2, "LimitLESS2 (Ts=50)"),
            ("chained", 0, "Chained"),
        ],
    )
    def test_labels_use_paper_notation(self, protocol, pointers, expected):
        config = AlewifeConfig(protocol=protocol, pointers=pointers, ts=50)
        assert config.label() == expected


class TestMachineAssembly:
    def make(self, **overrides):
        defaults = dict(
            n_procs=4,
            cache_lines=128,
            segment_bytes=1 << 16,
            max_cycles=2_000_000,
        )
        defaults.update(overrides)
        return AlewifeMachine(AlewifeConfig(**defaults))

    def test_one_node_per_processor(self):
        machine = self.make()
        assert len(machine.nodes) == 4
        assert [n.node_id for n in machine.nodes] == [0, 1, 2, 3]

    def test_software_attached_only_for_software_protocols(self):
        assert self.make(protocol="fullmap").nodes[0].software is None
        assert self.make(protocol="limitless").nodes[0].software is not None
        assert self.make(protocol="trap_always").nodes[0].software is not None

    def test_approx_wires_trap_engine_to_processor(self):
        machine = self.make(protocol="limitless_approx")
        node = machine.nodes[0]
        assert node.directory_controller.trap_engine is node.processor

    def test_limitless_traps_run_on_local_processor(self):
        machine = self.make(protocol="limitless")
        node = machine.nodes[2]
        assert node.software.engine is node.processor

    def test_empty_workload_rejected(self):
        class Empty(Workload):
            name = "empty"

            def build(self, machine):
                return {}

        with pytest.raises(SimulationError):
            self.make().run(Empty())

    def test_deadlock_reported_with_unfinished_processors(self):
        from repro.proc import ops

        class Stuck(Workload):
            name = "stuck"

            def build(self, machine):
                flag = machine.allocator.alloc_scalar("never", home=0)

                def spin(p):
                    while True:
                        value = yield ops.load(flag.base)
                        if value:
                            break
                        yield ops.think(10)

                return {p: [spin(p)] for p in range(machine.config.n_procs)}

        machine = self.make(max_cycles=5_000)
        with pytest.raises(SimulationError, match="unfinished"):
            machine.run(Stuck())


class TestStatsCollection:
    def test_summary_mentions_key_metrics(self):
        stats = run_experiment(
            AlewifeConfig(
                n_procs=4, cache_lines=128, segment_bytes=1 << 16,
                max_cycles=2_000_000,
            ),
            HotSpotWorkload(rounds=2),
        )
        text = stats.summary()
        assert "cycles" in text
        assert "Full-Map" in text or "LimitLESS" in text

    def test_cycles_is_slowest_processor(self):
        machine = AlewifeMachine(
            AlewifeConfig(
                n_procs=4, cache_lines=128, segment_bytes=1 << 16,
                max_cycles=2_000_000,
            )
        )
        stats = machine.run(HotSpotWorkload(rounds=2))
        assert stats.cycles == max(stats.per_proc_finish)

    def test_determinism_cycle_for_cycle(self):
        def once():
            return run_experiment(
                AlewifeConfig(
                    n_procs=8,
                    protocol="limitless",
                    pointers=2,
                    cache_lines=256,
                    segment_bytes=1 << 16,
                    seed=99,
                    max_cycles=4_000_000,
                ),
                HotSpotWorkload(rounds=3),
            )

        a, b = once(), once()
        assert a.cycles == b.cycles
        assert a.network.packets == b.network.packets
        assert a.traps_taken == b.traps_taken

    def test_mcycles_conversion(self):
        stats = run_experiment(
            AlewifeConfig(
                n_procs=2, cache_lines=128, segment_bytes=1 << 16,
                max_cycles=2_000_000,
            ),
            HotSpotWorkload(rounds=1),
        )
        assert stats.mcycles() == pytest.approx(stats.cycles / 1e6)


class TestOneShotRunFreesItsMachine:
    """``run_experiment`` hands back stats, not a machine: the machine
    must be gone by reference counting alone (on soa/native each dead
    machine pins a 128 KB word slab per node until a cyclic collection
    happens to reach it)."""

    CONFIG = dict(
        n_procs=4, protocol="limitless", pointers=2, cache_lines=256,
        segment_bytes=1 << 16, max_cycles=2_000_000,
    )

    @pytest.mark.parametrize("backend", backend_names())
    def test_nothing_of_the_machine_is_left_with_gc_disabled(self, backend):
        config = AlewifeConfig(**self.CONFIG, backend=backend)
        gc.collect()  # earlier tests' garbage must not be counted here
        was_enabled = gc.isenabled()
        gc.disable()
        try:
            stats = run_experiment(config, HotSpotWorkload(rounds=2))
            leftovers = [
                type(obj).__name__
                for obj in gc.get_objects()
                if isinstance(
                    obj, (AlewifeMachine, Node, Processor, SoaCacheArray)
                )
            ]
        finally:
            if was_enabled:
                gc.enable()
        assert leftovers == []
        # ... and what was returned is whole, and what a kept machine gives.
        kept = AlewifeMachine(config).run(HotSpotWorkload(rounds=2))
        assert stats.network.packets > 0
        assert equivalence_fingerprint(stats) == equivalence_fingerprint(kept)

    def test_a_machine_run_directly_stays_inspectable(self):
        machine = AlewifeMachine(AlewifeConfig(**self.CONFIG))
        machine.run(HotSpotWorkload(rounds=2))
        assert all(node.processor.done for node in machine.nodes)
        assert machine.sim.pending_events == 0


class TestOneShotRunFreezesItsMachine:
    """The built machine sits in the collector's permanent generation for
    the run, and nothing is left frozen however the run ends."""

    CONFIG = TestOneShotRunFreesItsMachine.CONFIG

    def test_the_run_is_frozen_and_the_freeze_lifted(self):
        during = []

        class Probe(HotSpotWorkload):
            def build(self, machine):
                during.append(gc.get_freeze_count())
                return super().build(machine)

        assert gc.get_freeze_count() == 0
        run_experiment(AlewifeConfig(**self.CONFIG), Probe(rounds=2))
        assert during[0] > 0
        assert gc.get_freeze_count() == 0

    def test_the_freeze_is_lifted_when_the_run_raises(self):
        class Stuck(Workload):
            name = "stuck"

            def build(self, machine):
                flag = machine.allocator.alloc_scalar("never", home=0)
                backoff = ops.burst(ops.think(10), ops.switch_hint())

                def spin():
                    yield ops.spin_until(flag.base, ops.GE, 1, backoff)

                return {p: [spin()] for p in range(machine.config.n_procs)}

        config = AlewifeConfig(**{**self.CONFIG, "max_cycles": 5_000})
        with pytest.raises(LivenessError):
            run_experiment(config, Stuck())
        assert gc.get_freeze_count() == 0

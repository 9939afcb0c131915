"""Ablation: the network model behind the Weather results.

§5.2 notes that the hot-spot effect "was not evident in previous
evaluations of directory-based cache coherence, because the network model
did not account for hot-spot behavior".  We rerun Figure 8's key comparison
on an ideal (uncontended) network: the Dir4NB penalty must shrink
substantially, confirming that contention — not just message counts — is
what the paper's hot-spot is made of.
"""

from __future__ import annotations

import pytest

from repro.machine import AlewifeConfig, run_experiment
from repro.workloads import WeatherWorkload

from common import BENCH_PROCS, FigureCollector, measure, shape_check

collector = FigureCollector("Ablation: contended mesh vs ideal network (Weather)")

DIR4NB = dict(protocol="limited", pointers=4)
FULL_MAP = dict(protocol="fullmap")

CASES = [
    ("Dir4NB-mesh", DIR4NB, {}),
    ("FullMap-mesh", FULL_MAP, {}),
    ("Dir4NB-ideal", DIR4NB, {"topology": "ideal"}),
    ("FullMap-ideal", FULL_MAP, {"topology": "ideal"}),
]


def config(scheme, **overrides):
    return AlewifeConfig(n_procs=BENCH_PROCS, **scheme, **overrides)


def workload():
    return WeatherWorkload(iterations=5)


@pytest.mark.parametrize("label,scheme,overrides", CASES, ids=[c[0] for c in CASES])
def test_network_case(benchmark, label, scheme, overrides):
    stats = measure(benchmark, config(scheme, **overrides), workload())
    collector.add(label, stats)
    assert stats.cycles > 0


def test_contention_is_part_of_the_hotspot_story(benchmark):
    def check():
        if len(collector.rows) < len(CASES):
            pytest.skip("runs did not all execute")
        mesh_penalty = collector.cycles("Dir4NB-mesh") / collector.cycles(
            "FullMap-mesh"
        )
        ideal_penalty = collector.cycles("Dir4NB-ideal") / collector.cycles(
            "FullMap-ideal"
        )
        # The limited directory still pays for its evictions without
        # contention, but the penalty must be visibly smaller.
        assert ideal_penalty < mesh_penalty
        assert mesh_penalty > 1.5
        print(collector.report())
        print(
            f"Dir4NB/Full-Map penalty: {mesh_penalty:.2f}x on the mesh, "
            f"{ideal_penalty:.2f}x on an ideal network"
        )

    shape_check(benchmark, check)


def test_omega_network_also_exhibits_hotspot(benchmark):
    """ASIM modelled mesh and Omega interconnects; the effect is topology-
    independent as long as the fabric models contention."""
    stats = measure(benchmark, config(DIR4NB, topology="omega"), workload())
    full = run_experiment(config(FULL_MAP, topology="omega"), workload())
    assert stats.cycles > 1.3 * full.cycles

"""Ablation: the paper's §5.1 simulation technique vs the real protocol.

The published figures were produced with an approximation — ASIM ran a
full-map protocol and stalled the memory controller and local processor for
Ts on every emulated pointer overflow.  We implemented both that technique
(``limitless_approx``) and the message-accurate LimitLESS protocol
(``limitless``).  Their agreement is evidence that the paper's evaluation
methodology was sound; their residual gap is the price of the protocol's
real interlocks (queued packets during TRANS_IN_PROGRESS).

Weather's comparison is a figure of its own, "Ablation: exact vs
approximation" in ``repro.sweep.figure_grids`` (``test_figures.py``);
this module holds Multigrid to that figure's claim.
"""

from __future__ import annotations

import pytest

from repro.machine import AlewifeConfig
from repro.sweep import check_claims
from repro.workloads import MultigridWorkload

from common import BENCH_PROCS, FigureCollector, measure, shape_check

collector = FigureCollector("Ablation: exact LimitLESS vs the §5.1 approximation")

CASES = [
    ("LimitLESS4 exact", "limitless"),
    ("LimitLESS4 approx", "limitless_approx"),
]


@pytest.mark.parametrize(
    "label,protocol", CASES, ids=["multigrid-exact", "multigrid-approx"]
)
def test_ablation_case(benchmark, label, protocol):
    config = AlewifeConfig(n_procs=BENCH_PROCS, protocol=protocol, pointers=4, ts=50)
    workload = MultigridWorkload(levels=(2, 2), points_per_proc=48)
    stats = measure(benchmark, config, workload)
    collector.add(label, stats)
    assert stats.cycles > 0


def test_approximation_agrees_with_exact_protocol(benchmark):
    def check():
        if len(collector.rows) < len(CASES):
            pytest.skip("ablation runs did not all execute")
        # The paper's methodology is sound in this regime only if the
        # approximation tracks the exact protocol here as on Weather.
        rows = dict(collector.rows)
        verdicts = check_claims("Ablation: exact vs approximation", rows)
        assert all(verdicts.values()), verdicts
        print(collector.report())

    shape_check(benchmark, check)

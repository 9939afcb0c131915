"""Ablation: chained-directory write latency (the §1 comparison).

"Chained directories are forced to transmit invalidations sequentially
through a linked-list structure, and thus incur high write latencies for
very large machines."  We sweep the worker-set size of a single variable
and compare the chained directory's execution time against LimitLESS and
full-map, which fan invalidations out in parallel.
"""

from __future__ import annotations

import pytest

from repro.machine import AlewifeConfig
from repro.workloads import SyntheticSharingWorkload

from common import BENCH_PROCS, FigureCollector, measure, shape_check

collector = FigureCollector(
    "Ablation: serial (chained) vs fan-out invalidation, widening worker-sets"
)

WORKER_SETS = [4, 16, min(48, max(4, BENCH_PROCS - 2))]
SCHEMES = {
    "Chained": dict(protocol="chained"),
    "LimitLESS4-Ts50": dict(protocol="limitless", pointers=4, ts=50),
    "Full-Map": dict(protocol="fullmap"),
}


def workload(ws):
    return SyntheticSharingWorkload(
        worker_sets=[(ws, 1)], rounds=4, write_period=1, think_per_round=60
    )


@pytest.mark.parametrize("ws", WORKER_SETS)
@pytest.mark.parametrize("scheme", SCHEMES)
def test_chained_case(benchmark, scheme, ws):
    config = AlewifeConfig(n_procs=BENCH_PROCS, **SCHEMES[scheme])
    stats = measure(benchmark, config, workload(ws))
    collector.add(f"{scheme}-ws{ws}", stats)
    assert stats.cycles > 0


def test_chained_write_latency_grows_with_worker_set(benchmark):
    def check():
        if len(collector.rows) < len(WORKER_SETS) * len(SCHEMES):
            pytest.skip("runs did not all execute")
        big = WORKER_SETS[-1]
        # At wide sharing the chained walk is visibly slower than fan-out.
        chained = collector.cycles(f"Chained-ws{big}")
        fullmap = collector.cycles(f"Full-Map-ws{big}")
        assert chained > 1.1 * fullmap, "serial invalidation should cost more"
        # And the chained penalty grows with the worker-set size.
        penalties = [
            collector.cycles(f"Chained-ws{ws}") / collector.cycles(f"Full-Map-ws{ws}")
            for ws in WORKER_SETS
        ]
        assert penalties[-1] > penalties[0]
        print(collector.report())

    shape_check(benchmark, check)

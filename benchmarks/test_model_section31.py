"""§3.1: the analytical latency model, validated against simulation.

The paper's model: LimitLESS average remote latency = Th + m * Ts.  Worked
example: Th = 35, Ts = 100, m = 3 % -> 10 % slower remote accesses than
full-map.  We (a) regenerate the model's numbers exactly, and (b) check the
simulator agrees with the model's *inputs*: the measured Th on a 64-node
machine is in the paper's ballpark, and the measured overflow fraction of
the optimized Weather run is a few percent.
"""

from __future__ import annotations

import pytest

from repro.machine import AlewifeConfig
from repro.model.analytical import (
    directory_overhead,
    limitless_remote_latency,
    slowdown_vs_fullmap,
)
from repro.stats.report import format_table
from repro.workloads import WeatherWorkload

from common import BENCH_PROCS, measure


def test_section31_worked_example(benchmark):
    def model_table():
        rows = []
        for m in (0.0, 0.01, 0.03, 0.05, 0.10, 1.0):
            for ts in (25, 50, 100, 150):
                rows.append(
                    (
                        m,
                        ts,
                        limitless_remote_latency(35, ts, m),
                        slowdown_vs_fullmap(35, ts, m),
                    )
                )
        return rows

    rows = benchmark.pedantic(model_table, rounds=1, iterations=1)
    claim = [r for r in rows if r[0] == 0.03 and r[1] == 100][0]
    assert claim[3] == pytest.approx(0.10, abs=0.015)
    print(
        "\n"
        + format_table(
            ["m", "Ts", "remote latency (cycles)", "slowdown vs full-map"],
            [(m, ts, f"{lat:.1f}", f"{sd:.1%}") for m, ts, lat, sd in rows[:12]],
        )
    )


def test_measured_th_matches_papers_ballpark(benchmark):
    """The paper measured Th ~ 35 cycles for Weather on 64 nodes."""
    config = AlewifeConfig(n_procs=BENCH_PROCS, protocol="fullmap")
    stats = measure(benchmark, config, WeatherWorkload(iterations=4))
    if BENCH_PROCS != 64:
        pytest.skip("Th calibration is specific to the 64-node geometry")
    assert 15 <= stats.mean_miss_latency <= 80, (
        f"measured Th={stats.mean_miss_latency:.1f} is out of the paper's ballpark"
    )


def test_measured_overflow_fraction_small_when_optimized(benchmark):
    """'97% of accesses to remote data locations hit in the limited
    directory' for the optimized Weather program (§3.1)."""
    config = AlewifeConfig(n_procs=BENCH_PROCS, protocol="limitless", pointers=4, ts=50)
    stats = measure(benchmark, config, WeatherWorkload(iterations=4, optimized=True))
    c = stats.counters
    remote = c.get("cache.remote_requests")
    overflows = c.get("limitless.overflow_diverts") + c.get(
        "dir.diverted"
    )
    m = overflows / remote if remote else 0.0
    assert m < 0.10, f"optimized Weather overflow fraction m={m:.3f}"


def test_directory_memory_overhead_table(benchmark):
    """§1's scaling argument: full-map O(N^2) vs LimitLESS O(N)."""

    def table():
        rows = []
        for n in (16, 64, 256, 1024):
            full = directory_overhead("fullmap", n)
            lless = directory_overhead("limitless", n)
            rows.append(
                (
                    n,
                    full.directory_bits,
                    lless.directory_bits,
                    f"{full.directory_bits / lless.directory_bits:.1f}x",
                )
            )
        return rows

    rows = benchmark.pedantic(table, rounds=1, iterations=1)
    # the full-map:LimitLESS ratio must widen with machine size
    ratios = [full / lless for _, full, lless, _ in rows]
    assert ratios == sorted(ratios)
    assert ratios[-1] > 10
    print(
        "\n"
        + format_table(
            ["N", "full-map bits", "LimitLESS4 bits", "ratio"], rows
        )
    )

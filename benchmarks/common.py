"""Shared infrastructure for the benchmark modules.

``test_figures.py`` runs the paper's figure grids (§5) exactly as
``repro sweep`` does — ``figure_grids`` at 64 processors and 8 Weather
iterations — and checks each figure's claims.  The other modules are
the §3.1 model and ablations beyond the paper's figures; each asserts
the *shape* of its result (which scheme wins, by roughly what factor).
Absolute cycle counts are reported in EXPERIMENTS.md.

Set ``REPRO_BENCH_PROCS`` to run the suite on a smaller machine.
"""

from __future__ import annotations

import os

from repro.machine import AlewifeConfig, MachineStats, run_experiment
from repro.stats.report import bar_chart, comparison_table
from repro.sweep import ResultCache

BENCH_PROCS = int(os.environ.get("REPRO_BENCH_PROCS", "64"))

#: Shared result cache for the figure grids: a point already simulated
#: (by a previous benchmark run or by ``repro sweep``) is reused as long
#: as ``src/repro`` is unchanged.  Set ``REPRO_BENCH_CACHE=0`` to bypass.
BENCH_CACHE = ResultCache(enabled=os.environ.get("REPRO_BENCH_CACHE", "1") != "0")


def measure(benchmark, config: AlewifeConfig, workload) -> MachineStats:
    """Run one machine under pytest-benchmark (single round: the metric
    of interest is simulated cycles, not wall-clock jitter)."""
    stats = benchmark.pedantic(
        run_experiment, args=(config, workload), rounds=1, iterations=1
    )
    benchmark.extra_info["scheme"] = config.label
    benchmark.extra_info["cycles"] = stats.cycles
    benchmark.extra_info["mcycles"] = round(stats.mcycles(), 4)
    benchmark.extra_info["traps"] = stats.traps_taken
    return stats


def shape_check(benchmark, check) -> None:
    """Run a figure-shape assertion under the benchmark fixture so it is
    included in ``--benchmark-only`` runs (the figure is only meaningful
    when its shape holds)."""
    benchmark.pedantic(check, rounds=1, iterations=1)


class FigureCollector:
    """Accumulates (label, stats) rows and prints a paper-style figure."""

    def __init__(self, title: str):
        self.title = title
        self.rows: list[tuple[str, MachineStats]] = []

    def add(self, label: str, stats: MachineStats) -> None:
        self.rows.append((label, stats))

    def cycles(self, label: str) -> int:
        for row_label, stats in self.rows:
            if row_label == label:
                return stats.cycles
        raise KeyError(label)

    def report(self) -> str:
        chart = bar_chart(
            self.title,
            [(label, stats.mcycles()) for label, stats in self.rows],
        )
        table = comparison_table([stats for _, stats in self.rows])
        return f"\n{chart}\n\n{table}\n"

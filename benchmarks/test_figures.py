"""The paper's evaluation figures (§5 Figures 7–10, §5.2's optimized
Weather, the §5.1 approximation ablation), checked against their claims.

The grids and the claims are the ones ``repro sweep`` runs and prints:
``repro.sweep.figure_grids`` and ``repro.sweep.FIGURE_CLAIMS``.  The
claims are about the paper's 64-processor machine, so at any other
``REPRO_BENCH_PROCS`` the grid still runs but the checks skip.
"""

from __future__ import annotations

import pytest

from repro.sweep import CLAIMS_PROCS, check_claims, figure_grids, run_jobs

from common import BENCH_CACHE, BENCH_PROCS

GRIDS = figure_grids(BENCH_PROCS)


@pytest.fixture(scope="module")
def figure_rows():
    """Every figure's ``{label: stats}``; one sweep, so shared baselines
    simulate once."""
    results = iter(
        run_jobs([job for jobs in GRIDS.values() for job in jobs], cache=BENCH_CACHE)
    )
    return {
        title: {job.label: next(results).stats for job in jobs}
        for title, jobs in GRIDS.items()
    }


@pytest.mark.parametrize("title", list(GRIDS), ids=[t.split(":")[0] for t in GRIDS])
def test_figure_claims(benchmark, figure_rows, title):
    rows = figure_rows[title]
    benchmark.extra_info["cycles"] = {label: s.cycles for label, s in rows.items()}
    benchmark.extra_info["traps"] = {label: s.traps_taken for label, s in rows.items()}
    if BENCH_PROCS != CLAIMS_PROCS:
        pytest.skip(f"the claims are about {CLAIMS_PROCS} processors")
    verdicts = benchmark.pedantic(
        check_claims, args=(title, rows), rounds=1, iterations=1
    )
    assert all(verdicts.values()), verdicts

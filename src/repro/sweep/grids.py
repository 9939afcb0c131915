"""The paper's figure grids as declarative job lists, the claims each
figure makes, and the suite runner behind ``repro sweep``.

:func:`figure_grids` is the one definition of the evaluation's figures
(§5 Figures 7–10, the §5.2 optimized Weather and the approximation
ablation): the CLI, the benchmark suite and the ladder all run these
job lists.  :data:`FIGURE_CLAIMS` states once what each figure shows
(e.g. Figure 9: every LimitLESS point beats Dir4NB, and cycles are
monotone in Ts).  :func:`run_figure_suite` flattens the grids, runs the
whole set through :func:`~repro.sweep.runner.run_jobs` (shared baselines
like Full-Map/Weather simulate once), reassembles per-figure reports in
paper order and, on the paper's 64-processor machine, checks every
claim; its ``only=`` filter picks figures by title, e.g.
``run_figure_suite(only=["Figure 8"])``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable

from ..machine import AlewifeConfig, MachineStats
from ..stats.report import bar_chart, format_table
from .cache import ResultCache
from .manifest import CampaignManifest
from .runner import JobResult, ProgressPrinter, run_jobs
from .spec import Job, WorkloadSpec


def figure_grids(procs: int = 64, iters: int = 8) -> dict[str, list[Job]]:
    """Ordered figure-title -> jobs mapping for the full evaluation."""

    def weather(**kw) -> WorkloadSpec:
        return WorkloadSpec("weather", {"iterations": iters, **kw})

    multigrid = WorkloadSpec(
        "multigrid", {"levels": (3, 3, 2), "points_per_proc": 48}
    )

    def cfg(protocol: str, **extras) -> AlewifeConfig:
        return AlewifeConfig(n_procs=procs, protocol=protocol, **extras)

    grids: dict[str, list[Job]] = {}
    grids["Figure 7: Static Multigrid"] = [
        Job("Dir4NB", cfg("limited", pointers=4), multigrid),
        Job("LimitLESS4 Ts=100", cfg("limitless", pointers=4, ts=100), multigrid),
        Job("LimitLESS4 Ts=50", cfg("limitless", pointers=4, ts=50), multigrid),
        Job("Full-Map", cfg("fullmap"), multigrid),
    ]
    grids["Figure 8: Weather, limited and full-map"] = [
        Job("Dir1NB", cfg("limited", pointers=1), weather()),
        Job("Dir2NB", cfg("limited", pointers=2), weather()),
        Job("Dir4NB", cfg("limited", pointers=4), weather()),
        Job("Full-Map", cfg("fullmap"), weather()),
    ]
    grids["§5.2: optimized Weather"] = [
        Job("Dir4NB (optimized)", cfg("limited", pointers=4), weather(optimized=True)),
        Job("Full-Map (optimized)", cfg("fullmap"), weather(optimized=True)),
    ]
    grids["Figure 9: Weather, LimitLESS Ts sweep"] = [
        Job("Dir4NB", cfg("limited", pointers=4), weather()),
        *[
            Job(f"LimitLESS4 Ts={ts}", cfg("limitless", pointers=4, ts=ts), weather())
            for ts in (150, 100, 50, 25)
        ],
        Job("Full-Map", cfg("fullmap"), weather()),
    ]
    grids["Figure 10: Weather, pointer sweep"] = [
        Job("Dir4NB", cfg("limited", pointers=4), weather()),
        *[
            Job(f"LimitLESS{p} Ts=50", cfg("limitless", pointers=p, ts=50), weather())
            for p in (1, 2, 4)
        ],
        Job("Full-Map", cfg("fullmap"), weather()),
    ]
    grids["Ablation: exact vs approximation"] = [
        Job("LimitLESS4 exact", cfg("limitless", pointers=4, ts=50), weather()),
        Job("LimitLESS4 approx", cfg("limitless_approx", pointers=4, ts=50), weather()),
        Job("Full-Map", cfg("fullmap"), weather()),
    ]
    return grids


#: The machine size the paper's claims are about.  At other sizes they
#: need not hold (on ``figure_grids(16, 8)`` Dir4NB is only 1.22x
#: Full-Map), so :func:`run_figure_suite` checks them only here.
CLAIMS_PROCS = 64

Rows = dict[str, MachineStats]


def _cycles(rows: Rows, *labels: str) -> list[int]:
    return [rows[label].cycles for label in labels]


def _ordered(values: list[int]) -> bool:
    return values == sorted(values)


_TS_SWEEP = [f"LimitLESS4 Ts={ts}" for ts in (25, 50, 100, 150)]
_POINTER_SWEEP = [f"LimitLESS{p} Ts=50" for p in (4, 2, 1)]

#: What each figure of :func:`figure_grids` shows, keyed by its title:
#: ``(claim, predicate)`` pairs over the figure's ``{label: stats}`` rows.
FIGURE_CLAIMS: dict[str, list[tuple[str, Callable[[Rows], bool]]]] = {
    "Figure 7: Static Multigrid": [
        (
            "every scheme within 1.35x of every other",
            lambda r: max(_cycles(r, *r)) / min(_cycles(r, *r)) < 1.35,
        ),
    ],
    "Figure 8: Weather, limited and full-map": [
        (
            "Dir1NB >= Dir2NB >= Dir4NB > 1.5x Full-Map",
            lambda r: _ordered(_cycles(r, "Dir4NB", "Dir2NB", "Dir1NB"))
            and r["Dir4NB"].cycles > 1.5 * r["Full-Map"].cycles,
        ),
    ],
    "§5.2: optimized Weather": [
        (
            "optimized Dir4NB < 1.15x Full-Map",
            lambda r: r["Dir4NB (optimized)"].cycles
            < 1.15 * r["Full-Map (optimized)"].cycles,
        ),
    ],
    "Figure 9: Weather, LimitLESS Ts sweep": [
        (
            "every LimitLESS4 point below Dir4NB",
            lambda r: max(_cycles(r, *_TS_SWEEP)) < r["Dir4NB"].cycles,
        ),
        (
            "LimitLESS4 Ts=25 < 1.25x Full-Map",
            lambda r: r["LimitLESS4 Ts=25"].cycles < 1.25 * r["Full-Map"].cycles,
        ),
        (
            "LimitLESS4 Ts=50 < 1.40x Full-Map",
            lambda r: r["LimitLESS4 Ts=50"].cycles < 1.40 * r["Full-Map"].cycles,
        ),
        (
            "cycles monotone in Ts",
            lambda r: _ordered(_cycles(r, *_TS_SWEEP)),
        ),
    ],
    "Figure 10: Weather, pointer sweep": [
        (
            "Full-Map <= LimitLESS4 <= LimitLESS2 <= LimitLESS1 < Dir4NB",
            lambda r: _ordered(_cycles(r, "Full-Map", *_POINTER_SWEEP))
            and r["LimitLESS1 Ts=50"].cycles < r["Dir4NB"].cycles,
        ),
        (
            "LimitLESS1 > 1.15x LimitLESS2",
            lambda r: r["LimitLESS1 Ts=50"].cycles
            > 1.15 * r["LimitLESS2 Ts=50"].cycles,
        ),
        (
            "traps LimitLESS1 > LimitLESS2 > LimitLESS4",
            lambda r: r["LimitLESS1 Ts=50"].traps_taken
            > r["LimitLESS2 Ts=50"].traps_taken
            > r["LimitLESS4 Ts=50"].traps_taken,
        ),
    ],
    "Ablation: exact vs approximation": [
        (
            "0.8 < approx / exact < 1.25",
            lambda r: 0.8
            < r["LimitLESS4 approx"].cycles / r["LimitLESS4 exact"].cycles
            < 1.25,
        ),
    ],
}


def check_claims(title: str, rows: Rows) -> dict[str, bool]:
    """Each of figure ``title``'s claims -> whether ``rows`` bear it out."""
    return {claim: holds(rows) for claim, holds in FIGURE_CLAIMS[title]}


def _figure_report(title: str, results: list[JobResult]) -> str:
    # Failed/quarantined points have no stats; chart what succeeded and
    # name the rest so a degraded sweep still renders every figure.
    rows = [(r.job.label, r.stats) for r in results if r.stats is not None]
    failed = [r.job.label for r in results if r.stats is None]
    out = []
    if rows:
        out.append(bar_chart(title, [(label, s.mcycles()) for label, s in rows]))
    else:
        out.append(f"{title}: no successful points")
    if failed:
        out.append("  failed/quarantined: " + ", ".join(failed))
    # The §5.2 baseline is "Full-Map (optimized)".
    baseline = next((s for label, s in rows if label.startswith("Full-Map")), None)
    if baseline:
        table = [
            (label, f"{s.cycles:,}", f"{s.cycles / baseline.cycles:.2f}x")
            for label, s in rows
        ]
        out.append(format_table(["scheme", "cycles", "vs Full-Map"], table))
    return "\n\n".join(out)


def _verdict_line(verdicts: dict[str, bool] | None) -> str:
    if verdicts is None:
        return "claims: not checked, a point failed"
    held = sum(verdicts.values())
    failing = "".join(f"; FAILS: {c}" for c, holds in verdicts.items() if not holds)
    return f"claims: {held} of {len(verdicts)} hold{failing}"


def run_figure_suite(
    procs: int = 64,
    iters: int = 8,
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    only: list[str] | None = None,
    out: Path | str | None = None,
    echo: Callable[[str], None] = print,
    timeout: float | None = None,
    manifest: CampaignManifest | None = None,
    resume: bool = False,
    retries: int = 0,
    retry_backoff: float = 0.5,
) -> dict:
    """Run the figure grids and return the ``BENCH_figures.json`` record.

    ``only`` filters figures by substring match on their titles (e.g.
    ``["Figure 9"]``).  ``timeout`` bounds each grid point's wall clock
    (a hung point fails loudly instead of wedging the sweep).  The
    artifact records per-job wall-clock, cache hits, and cycle counts —
    the trajectory of the whole run.

    At ``procs == CLAIMS_PROCS`` each figure's :data:`FIGURE_CLAIMS`
    are checked: one verdict line per figure, and ``claims`` in the
    artifact maps each claim to whether it held (``None`` when not
    checked: another machine size, or a point of the figure failed).

    ``manifest``/``resume``/``retries`` make the campaign crash-safe
    (see :func:`repro.sweep.runner.run_jobs`): a resumed sweep skips
    completed points via the cache, re-queues points that were in
    flight when the process died, and quarantines points that keep
    failing instead of aborting the campaign.  Failed points are
    recorded (``on_error="record"``), so they surface in the report and
    the artifact rather than as an exception.
    """
    grids = figure_grids(procs, iters)
    if only:
        grids = {
            title: jobs
            for title, jobs in grids.items()
            if any(sel.lower() in title.lower() for sel in only)
        }
        if not grids:
            raise ValueError(f"no figure matches {only!r}")
    flat: list[Job] = [job for jobs in grids.values() for job in jobs]
    bounds: list[tuple[str, int, int]] = []
    offset = 0
    for title, jobs in grids.items():
        bounds.append((title, offset, offset + len(jobs)))
        offset += len(jobs)

    echo(
        f"repro sweep: {len(flat)} grid points, {procs} processors, "
        f"{workers} worker(s)"
    )
    start = time.perf_counter()
    results = run_jobs(
        flat,
        workers=workers,
        cache=cache,
        progress=ProgressPrinter(),
        timeout=timeout,
        on_error="record",
        manifest=manifest,
        resume=resume,
        retries=retries,
        retry_backoff=retry_backoff,
    )
    wall = time.perf_counter() - start

    checking = procs == CLAIMS_PROCS
    verdicts: dict[str, dict[str, bool] | None] = {}
    for title, lo, hi in bounds:
        rows = {r.job.label: r.stats for r in results[lo:hi] if r.ok}
        complete = checking and len(rows) == hi - lo
        verdicts[title] = check_claims(title, rows) if complete else None
        echo("")
        echo(_figure_report(title, results[lo:hi]))
        if checking:
            echo(_verdict_line(verdicts[title]))
    if not checking:
        echo(
            f"\nclaims not checked: they are about the paper's "
            f"{CLAIMS_PROCS}-processor machine, this run has {procs}"
        )
    executed = sum(1 for r in results if not r.cached)
    failed = sum(1 for r in results if not r.ok)
    quarantined = sum(
        1 for r in results if r.error and r.error.startswith("quarantined")
    )
    echo(
        f"\n{len(results)} grid points in {wall:.1f}s wall "
        f"({executed} simulated, {len(results) - executed} from cache/dedup)"
    )
    if failed:
        echo(
            f"  {failed} point(s) FAILED"
            + (f", {quarantined} of them quarantined" if quarantined else "")
        )
    if cache is not None:
        echo(cache.summary())

    artifact = {
        "suite": "figures",
        "procs": procs,
        "iters": iters,
        "workers": workers,
        "wall_seconds": round(wall, 3),
        "simulated": executed,
        "reused": len(results) - executed,
        "failed": failed,
        "quarantined": quarantined,
        "resumed": resume,
        "cache": {
            "enabled": bool(cache and cache.enabled),
            "dir": str(cache.directory) if cache else None,
            "hits": cache.hits if cache else 0,
            "misses": cache.misses if cache else 0,
            "write_errors": cache.write_errors if cache else 0,
        },
        "figures": [
            {
                "title": title,
                "claims": verdicts[title],
                "rows": [
                    {
                        "label": r.job.label,
                        "key": r.key,
                        "cycles": r.stats.cycles if r.stats else None,
                        "traps": r.stats.traps_taken if r.stats else None,
                        "packets": r.stats.network.packets if r.stats else None,
                        "cached": r.cached,
                        "wall_seconds": round(r.wall_seconds, 3),
                        "error": r.error,
                    }
                    for r in results[lo:hi]
                ],
            }
            for title, lo, hi in bounds
        ],
    }
    if out:
        Path(out).write_text(json.dumps(artifact, indent=2))
        echo(f"wrote {out}")
    return artifact

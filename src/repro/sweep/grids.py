"""The paper's figure grids as declarative job lists, plus the suite
driver shared by ``repro sweep`` and ``benchmarks/run_figures.py``.

Each grid mirrors one figure of §5 / §6 exactly as the serial harness ran
it; the driver flattens them, runs the whole set through the parallel
cached runner (shared baselines like Full-Map/Weather simulate once), and
reassembles per-figure reports in paper order.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable

from ..machine import AlewifeConfig
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
    baseline = dict(rows).get("Full-Map")
    if baseline:
        table = [
            (label, f"{s.cycles:,}", f"{s.cycles / baseline.cycles:.2f}x")
            for label, s in rows
        ]
        out.append(format_table(["scheme", "cycles", "vs Full-Map"], table))
    return "\n\n".join(out)


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

    ``manifest``/``resume``/``retries`` make the campaign crash-safe
    (see :func:`repro.sweep.runner.run_jobs`): a resumed sweep skips
    completed points via the cache, re-queues points that were in
    flight when the process died, and quarantines points that keep
    failing instead of aborting the campaign — so the suite runs with
    ``on_error="record"`` when a manifest is present, and failed points
    surface in the report and the artifact rather than as an exception.
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
        on_error="record" if manifest is not None else "raise",
        manifest=manifest,
        resume=resume,
        retries=retries,
        retry_backoff=retry_backoff,
    )
    wall = time.perf_counter() - start

    for title, lo, hi in bounds:
        echo("")
        echo(_figure_report(title, results[lo:hi]))
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

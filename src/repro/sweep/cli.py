"""The ``repro sweep`` subcommand: parallel cached figure sweeps.

Examples::

    python -m repro sweep                        # full grid, serial, cached
    python -m repro sweep --workers 4            # cold cache, 4 processes
    python -m repro sweep --figures "Figure 9"   # one figure only
    python -m repro sweep --no-cache --procs 16  # small fresh run
    python -m repro sweep --resume               # pick up a crashed campaign
    python -m repro sweep --clear-cache          # drop every cached result
"""

from __future__ import annotations

import argparse

from .cache import ResultCache, default_cache_dir
from .grids import figure_grids, run_figure_suite
from .manifest import CampaignManifest


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--procs", type=int, default=64, help="simulated processors")
    parser.add_argument("--iters", type=int, default=8, help="Weather iterations")
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (default serial)"
    )
    parser.add_argument(
        "--figures",
        nargs="+",
        metavar="MATCH",
        help="only figures whose title contains MATCH (case-insensitive)",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=None,
        metavar="SECONDS",
        help="wall-clock budget per grid point (default: unlimited)",
    )
    parser.add_argument(
        "--no-cache", action="store_true", help="ignore and bypass the result cache"
    )
    parser.add_argument(
        "--resume",
        action="store_true",
        help="resume a crashed campaign: completed points come back from "
        "the cache, points that were in flight when the process died are "
        "re-queued, and points past the retry budget are quarantined",
    )
    parser.add_argument(
        "--retries",
        type=int,
        default=1,
        metavar="N",
        help="retry budget per grid point, counted across resumes "
        "(default 1; a point is quarantined once its crashed/failed "
        "attempts exceed it)",
    )
    parser.add_argument(
        "--retry-backoff",
        type=float,
        default=0.5,
        metavar="SECONDS",
        help="linear backoff between in-run retry rounds (default 0.5)",
    )
    parser.add_argument(
        "--cache-dir",
        default=None,
        help=f"cache location (default $REPRO_SWEEP_CACHE or {default_cache_dir()})",
    )
    parser.add_argument(
        "--out",
        default="BENCH_figures.json",
        help="trajectory artifact path ('' to skip writing)",
    )
    parser.add_argument(
        "--list", action="store_true", help="list the figure grids and exit"
    )
    parser.add_argument(
        "--clear-cache", action="store_true", help="delete cached results and exit"
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro sweep",
        description=(
            "Reproduce the paper's evaluation figures through the parallel "
            "sweep runner with content-addressed result caching."
        ),
    )
    add_arguments(parser)
    return parser


def run_from_args(args: argparse.Namespace) -> int:
    cache = ResultCache(args.cache_dir, enabled=not args.no_cache)
    if args.clear_cache:
        removed = cache.clear()
        print(f"removed {removed} cached results from {cache.directory}")
        return 0
    if args.list:
        for title, jobs in figure_grids(args.procs, args.iters).items():
            print(f"{title} ({len(jobs)} points)")
            for job in jobs:
                print(f"  {job.label:28s} {job.workload.describe()}")
        return 0
    if args.resume and args.no_cache:
        print("error: --resume replays the result cache; drop --no-cache")
        return 2
    # The write-ahead manifest lives next to the cached results so a
    # crashed campaign can be resumed with `repro sweep --resume`; a run
    # that bypasses the cache writes nothing into it.  Failed points are
    # recorded, and the exit code reports them.
    manifest = (
        CampaignManifest(cache.directory / "sweep-manifest.ndjson")
        if cache.enabled
        else None
    )
    try:
        artifact = run_figure_suite(
            args.procs,
            args.iters,
            workers=args.workers,
            cache=cache,
            only=args.figures,
            out=args.out or None,
            timeout=args.timeout,
            manifest=manifest,
            resume=args.resume,
            retries=args.retries,
            retry_backoff=args.retry_backoff,
        )
    except ValueError as exc:
        print(f"error: {exc}")
        return 2
    finally:
        if manifest is not None:
            manifest.close()
    return 0 if artifact["failed"] == 0 else 1


def main(argv: list[str] | None = None) -> int:
    return run_from_args(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

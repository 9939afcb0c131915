"""The ``repro faults`` subcommand: seeded chaos campaigns.

Examples::

    python -m repro faults                       # default grid, 90 points
    python -m repro faults --rates 1e-3 1e-2     # sweep the fault rate
    python -m repro faults --workers 4 --timeout 60
    python -m repro faults --protocols limited --workloads weather \
        --rates 1e-3 --seeds 3                   # replay one grid cell
"""

from __future__ import annotations

import argparse

from ..coherence.registry import protocol_names
from .campaign import DEFAULT_PROTOCOLS, DEFAULT_WORKLOADS, run_campaign

DESCRIPTION = (
    "Run seeded fault-injection campaigns (drop + duplicate + delay at the "
    "given per-packet rates) across protocols, workloads and seeds, with "
    "the coherence-invariant auditor and liveness watchdog as oracle; "
    "writes a survival report with per-point recovery-overhead counters."
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--procs", type=int, default=16, help="simulated processors")
    parser.add_argument(
        "--protocols",
        nargs="+",
        default=list(DEFAULT_PROTOCOLS),
        choices=protocol_names(),
        metavar="PROTOCOL",
        help=f"protocols to stress (default: {' '.join(DEFAULT_PROTOCOLS)})",
    )
    parser.add_argument(
        "--workloads",
        nargs="+",
        default=list(DEFAULT_WORKLOADS),
        metavar="WORKLOAD",
        help=f"workloads to stress (default: {' '.join(DEFAULT_WORKLOADS)})",
    )
    parser.add_argument(
        "--rates",
        nargs="+",
        type=float,
        default=[1e-3],
        metavar="RATE",
        help="per-packet drop=dup=delay probabilities (default: 1e-3)",
    )
    parser.add_argument(
        "--seeds",
        nargs="+",
        type=int,
        default=[0, 1, 2, 3, 4],
        metavar="SEED",
        help="seeds to run per grid cell (default: 0 1 2 3 4)",
    )
    parser.add_argument("--iters", type=int, default=2, help="workload iterations")
    parser.add_argument("--pointers", type=int, default=4)
    parser.add_argument("--ts", type=int, default=50)
    parser.add_argument(
        "--corrupt-rate",
        type=float,
        default=0.0,
        help="per-packet payload-corruption probability (CRC catches these)",
    )
    parser.add_argument(
        "--stall-rate",
        type=float,
        default=0.0,
        help="per-trap stall probability (LimitLESS software handler)",
    )
    parser.add_argument(
        "--workers", type=int, default=1, help="worker processes (default serial)"
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=120.0,
        metavar="SECONDS",
        help="wall-clock budget per grid point (default: 120)",
    )
    parser.add_argument(
        "--out",
        default="BENCH_faults.json",
        help="survival report path ('' to skip writing)",
    )
    chaos = parser.add_argument_group(
        "process-level chaos (repro.recover)",
        "SIGKILL simulation processes at seeded times and require "
        "checkpoint resume to converge bit-identically to a zero-chaos "
        "baseline",
    )
    chaos.add_argument(
        "--process-chaos",
        action="store_true",
        help="run the process-chaos campaign instead of the packet-fault grid",
    )
    chaos.add_argument(
        "--kills", type=int, default=2, help="kills per chaos point (default 2)"
    )
    chaos.add_argument(
        "--kill-window",
        nargs=2,
        type=float,
        default=[0.05, 0.4],
        metavar=("LO", "HI"),
        help="seeded kill delay range in wall seconds (default 0.05 0.4)",
    )
    chaos.add_argument(
        "--chaos-every",
        type=int,
        default=400,
        metavar="CYCLES",
        help="checkpoint interval for process-kill recovery (default 400)",
    )
    chaos.add_argument(
        "--chaos-dir",
        default=None,
        metavar="DIR",
        help="work directory for snapshots/results (default: a temp dir)",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro faults", description=DESCRIPTION)
    add_arguments(parser)
    return parser


def run_from_args(args: argparse.Namespace) -> int:
    if args.process_chaos:
        import tempfile

        from ..recover.chaos import chaos_points, run_chaos_campaign

        points = chaos_points(
            procs=args.procs,
            protocols=args.protocols,
            workloads=args.workloads,
            iters=args.iters,
            pointers=args.pointers,
            ts=args.ts,
        )
        out = args.out
        if out == "BENCH_faults.json":  # keep the two reports apart
            out = "BENCH_process_chaos.json"
        workdir = args.chaos_dir or tempfile.mkdtemp(prefix="repro-chaos-")
        report = run_chaos_campaign(
            points,
            kills=args.kills,
            seed=args.seeds[0],
            every=args.chaos_every,
            kill_window=tuple(args.kill_window),
            workdir=workdir,
            out=out or None,
        )
        return 0 if report["summary"]["failed"] == 0 else 1
    report = run_campaign(
        procs=args.procs,
        protocols=args.protocols,
        workloads=args.workloads,
        rates=args.rates,
        seeds=args.seeds,
        iters=args.iters,
        pointers=args.pointers,
        ts=args.ts,
        corrupt_rate=args.corrupt_rate,
        stall_rate=args.stall_rate,
        workers=args.workers,
        timeout=args.timeout,
        out=args.out or None,
    )
    return 0 if report["summary"]["failed"] == 0 else 1


def main(argv: list[str] | None = None) -> int:
    return run_from_args(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

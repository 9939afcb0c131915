"""The ``repro profile`` subcommand: one profiling layer for everything.

Examples::

    python -m repro profile --workload weather --protocol limitless
    python -m repro profile --workload hotspot --procs 16 --sort tottime
    python -m repro profile --folded /tmp/stacks.folded   # flamegraph input
    python -m repro profile --worker-sets                 # §6 feedback
"""

from __future__ import annotations

import argparse
import json
import sys

from ..cli import _config, add_experiment_arguments
from ..sweep.spec import scaled_workload

DESCRIPTION = (
    "Run one experiment under cProfile + tracemalloc and report hot "
    "functions, allocation sites, simulated-cycle attribution per machine "
    "component, and packet-pool recycling; optionally dump folded stacks "
    "for a flamegraph and the paper's §6 overflow worker-set feedback."
)


def add_arguments(parser: argparse.ArgumentParser) -> None:
    add_experiment_arguments(parser)
    parser.add_argument(
        "--no-pool",
        action="store_true",
        help="disable the packet pool (profile the allocation baseline)",
    )
    parser.add_argument(
        "--top", type=int, default=15, help="hot functions to show (default: 15)"
    )
    parser.add_argument(
        "--sort",
        default="cumulative",
        choices=["cumulative", "tottime"],
        help="hot-function ranking (default: cumulative)",
    )
    parser.add_argument(
        "--alloc-top",
        type=int,
        default=10,
        metavar="N",
        help="tracemalloc allocation sites to show; 0 disables tracemalloc "
        "(default: 10)",
    )
    parser.add_argument(
        "--folded",
        default=None,
        metavar="FILE",
        help="write flamegraph-format folded stacks to FILE",
    )
    parser.add_argument(
        "--worker-sets",
        action="store_true",
        help="report peak worker-sets of blocks that overflowed into "
        "software (limitless/trap_always only)",
    )
    parser.add_argument(
        "--trap-address",
        type=lambda s: int(s, 0),
        nargs="+",
        default=None,
        metavar="ADDR",
        help="place these addresses in Trap-Always mode and profile every "
        "transaction to them through the software handler (§6)",
    )
    parser.add_argument(
        "--out",
        default=None,
        metavar="FILE",
        help="also write the report as JSON to FILE",
    )


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="repro profile", description=DESCRIPTION)
    add_arguments(parser)
    return parser


def run_from_args(args: argparse.Namespace) -> int:
    from .harness import profile_run

    try:
        config = _config(args, args.protocol, packet_pool=not args.no_pool)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    report = profile_run(
        config,
        scaled_workload(args.workload, args.procs, args.iterations).build(),
        top=args.top,
        sort=args.sort,
        alloc_top=args.alloc_top,
        folded=bool(args.folded),
        worker_sets=args.worker_sets,
        trap_addresses=args.trap_address,
    )
    print(report.render())
    if args.folded:
        with open(args.folded, "w") as fh:
            fh.write("\n".join(report.folded) + "\n")
        print(f"\nwrote {len(report.folded)} folded stacks to {args.folded}")
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(report.to_dict(), fh, indent=2)
        print(f"wrote {args.out}")
    return 0


def main(argv: list[str] | None = None) -> int:
    return run_from_args(build_parser().parse_args(argv))


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

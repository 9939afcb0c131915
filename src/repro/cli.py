"""Command-line entry point: experiments, model checking, sweeps.

One top-level parser hosts every subcommand (``repro --help`` lists them
all); bare experiment flags still work as an implicit ``run`` for
backward compatibility.  ``repro run`` and ``repro profile`` share one
set of experiment flags (:func:`add_experiment_arguments`) and one
config builder (:func:`_config`); every named workload is scaled to
``--procs``/``--iterations`` by :func:`repro.sweep.spec.scaled_workload`,
the table ``repro faults`` reads too.

Examples::

    python -m repro --protocol limitless --pointers 4 --ts 50 \
        --workload weather --procs 64
    python -m repro run --workload multigrid --compare fullmap limited limitless
    python -m repro --list
    python -m repro modelcheck --protocol limitless --caches 3
    python -m repro sweep --workers 4 --out BENCH_figures.json
    python -m repro faults --rates 1e-3 --seeds 0 1 2 3 4
"""

from __future__ import annotations

import argparse
import sys

from .backend import backend_names, get_backend
from .coherence.registry import protocol_names
from .machine import AlewifeConfig, run_experiment
from .stats.machine_report import machine_report
from .stats.report import bar_chart, comparison_table
from .sweep.spec import SCALED_WORKLOADS, scaled_workload


def add_experiment_arguments(parser: argparse.ArgumentParser) -> None:
    """The flags that describe one experiment (``repro run``/``profile``)."""
    parser.add_argument("--protocol", default="limitless", choices=protocol_names())
    parser.add_argument("--workload", default="weather", choices=SCALED_WORKLOADS)
    parser.add_argument("--procs", type=int, default=64)
    parser.add_argument("--pointers", type=int, default=4)
    parser.add_argument("--ts", type=int, default=50)
    parser.add_argument("--iterations", type=int, default=5)
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument(
        "--topology",
        default="mesh",
        choices=["mesh", "torus", "omega", "crossbar", "ideal"],
    )
    parser.add_argument("--memory-model", default="sc", choices=["sc", "wo"])
    parser.add_argument(
        "--backend",
        default="reference",
        choices=list(backend_names()),
        help="simulation backend: 'reference' is the pure-Python golden "
        "object model, 'soa' the same engine over structure-of-arrays "
        "storage, 'native' the compiled C kernels (falls back to reference "
        "when the extension is not built; bit-identical results either "
        "way, see docs/BACKENDS.md)",
    )


def _add_run_arguments(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--list", action="store_true", help="list protocols and workloads")
    parser.add_argument(
        "--compare",
        nargs="+",
        metavar="PROTOCOL",
        help="run several protocols on the same workload and chart them",
    )
    add_experiment_arguments(parser)
    parser.add_argument(
        "--checkpoint-every",
        type=int,
        default=None,
        metavar="CYCLES",
        help="write a resume snapshot every N simulated cycles",
    )
    parser.add_argument(
        "--checkpoint-dir",
        default=None,
        metavar="DIR",
        help="snapshot directory (default: ./checkpoints)",
    )
    parser.add_argument(
        "--resume",
        default=None,
        metavar="SNAPSHOT",
        help="resume from a snapshot file: replays the run it records "
        "(its own config + workload; other experiment flags are ignored) "
        "and verifies the state digest at the marker",
    )
    parser.add_argument("--verbose", action="store_true", help="print counters")


def build_parser() -> argparse.ArgumentParser:
    """The single-experiment (``run``) flag parser."""
    parser = argparse.ArgumentParser(
        prog="repro",
        description="LimitLESS directories reproduction: run one experiment.",
    )
    _add_run_arguments(parser)
    return parser


#: Subcommands hosted by the top-level parser.
COMMANDS = ("run", "modelcheck", "sweep", "faults", "profile", "serve")


def build_top_parser() -> argparse.ArgumentParser:
    """Top-level parser: ``repro --help`` lists every subcommand."""
    from .faults import cli as faults_cli
    from .modelcheck import cli as modelcheck_cli
    from .profiling import cli as profiling_cli
    from .serve import cli as serve_cli
    from .sweep import cli as sweep_cli

    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "LimitLESS directories reproduction. Bare experiment flags "
            "(e.g. `repro --protocol limitless`) run as an implicit `run`."
        ),
    )
    sub = parser.add_subparsers(
        dest="command", metavar="{run,modelcheck,sweep,faults,profile,serve}"
    )
    run_parser = sub.add_parser(
        "run", help="run one experiment (the default subcommand)"
    )
    _add_run_arguments(run_parser)
    run_parser.set_defaults(func=_run_from_args)
    mc_parser = sub.add_parser(
        "modelcheck",
        help="exhaustively model-check the coherence protocols",
        description=modelcheck_cli.DESCRIPTION,
    )
    modelcheck_cli.add_arguments(mc_parser)
    mc_parser.set_defaults(func=modelcheck_cli.run_from_args)
    sweep_parser = sub.add_parser(
        "sweep",
        help="parallel cached sweep of the paper's figure grids",
    )
    sweep_cli.add_arguments(sweep_parser)
    sweep_parser.set_defaults(func=sweep_cli.run_from_args)
    faults_parser = sub.add_parser(
        "faults",
        help="seeded chaos campaigns with the invariant auditor as oracle",
        description=faults_cli.DESCRIPTION,
    )
    faults_cli.add_arguments(faults_parser)
    faults_parser.set_defaults(func=faults_cli.run_from_args)
    profile_parser = sub.add_parser(
        "profile",
        help="profile one run: hot functions, allocations, cycle attribution",
        description=profiling_cli.DESCRIPTION,
    )
    profiling_cli.add_arguments(profile_parser)
    profile_parser.set_defaults(func=profiling_cli.run_from_args)
    serve_parser = sub.add_parser(
        "serve",
        help="long-running simulation-as-a-service HTTP job server",
        description=serve_cli.DESCRIPTION,
    )
    serve_cli.add_arguments(serve_parser)
    serve_parser.set_defaults(func=serve_cli.run_from_args)
    return parser


def _config(args: argparse.Namespace, protocol: str, **extras) -> AlewifeConfig:
    """The machine the experiment flags describe; raises ``ValueError`` on
    an invalid value, which the callers report as exit status 2."""
    return AlewifeConfig(
        n_procs=args.procs,
        protocol=protocol,
        pointers=args.pointers,
        ts=args.ts,
        topology=args.topology,
        memory_model=args.memory_model,
        seed=args.seed,
        backend=args.backend,
        **extras,
    )


def main(argv: list[str] | None = None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] in COMMANDS or argv[:1] in (["-h"], ["--help"]):
        args = build_top_parser().parse_args(argv)
        return args.func(args)
    # Bare experiment flags: implicit `run`.
    return _run_from_args(build_parser().parse_args(argv))


def _run_from_args(args: argparse.Namespace) -> int:
    if args.list:
        print("protocols: " + ", ".join(protocol_names()))
        print("workloads: " + ", ".join(SCALED_WORKLOADS))
        return 0

    # A checkpointed run gets the spec, not the live workload: snapshots
    # must record a rebuildable description.
    spec = scaled_workload(args.workload, args.procs, args.iterations)
    workload = spec.build()
    protocols = args.compare or [args.protocol]
    for name in protocols:
        if name not in protocol_names():
            print(f"unknown protocol {name!r}", file=sys.stderr)
            return 2

    try:
        configs = [_config(args, name) for name in protocols]
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2

    checkpointing = args.resume or args.checkpoint_every
    if checkpointing and args.compare:
        print(
            "--compare cannot be combined with --checkpoint-every/--resume "
            "(snapshots record exactly one run)",
            file=sys.stderr,
        )
        return 2

    runs = []
    for config in configs:
        if checkpointing:
            from .recover import CheckpointError, resume_run, run_with_checkpoints

            try:
                if args.resume:
                    stats = resume_run(
                        args.resume,
                        every=args.checkpoint_every,
                        out_dir=args.checkpoint_dir,
                    )
                else:
                    stats = run_with_checkpoints(
                        config,
                        spec,
                        every=args.checkpoint_every,
                        out_dir=args.checkpoint_dir or "checkpoints",
                    )
            except (CheckpointError, ValueError, OSError) as exc:
                # CheckpointError covers drift; ValueError/OSError cover an
                # unreadable or wrong-version snapshot file.
                print(f"checkpoint error: {exc}", file=sys.stderr)
                return 3
        else:
            stats = run_experiment(config, workload)
        runs.append(stats)
        print(stats.summary())
        backend_notes = get_backend(stats.config.backend).notes
        if backend_notes:
            print(f"  backend: {backend_notes}")
        if args.verbose:
            print()
            print(machine_report(stats))
            print()

    if len(runs) > 1:
        print()
        print(comparison_table(runs))
        print()
        print(
            bar_chart(
                f"{workload.describe()} on {args.procs} processors",
                [(s.label, s.mcycles()) for s in runs],
            )
        )
    return 0


if __name__ == "__main__":  # pragma: no cover
    raise SystemExit(main())

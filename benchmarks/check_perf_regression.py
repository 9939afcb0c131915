#!/usr/bin/env python3
"""Perf-regression gate: fail when a fresh benchmark run regresses.

Compares a freshly measured benchmark report against the committed
baseline (same JSON shape: ``{"scenarios": {name: {metric: value}}}``,
as written by ``bench_scaling.py`` and ``bench_serve.py``) and exits
nonzero when any scenario's gated metric — ``events_per_sec`` throughput
or the shard driver's deterministic ``cycles_per_window`` — falls more
than ``--tolerance`` below the baseline.  The simulator's own speed is
not gated here: that is ``benchmarks/ladder/run.py compare`` between two
runs on one host.

The tolerance band absorbs runner-to-runner jitter; it can be widened for
noisy environments via ``--tolerance`` or ``REPRO_PERF_TOLERANCE``.

``--update`` turns the gate into a ratchet: after the (unchanged) check,
any scenario whose fresh gated metric beats the committed baseline has
its baseline raised to the fresh value, and the baseline file is
rewritten in place.  Baselines only move up — a run inside the tolerance
band never lowers them — so the committed numbers track the best honest
measurement instead of decaying with runner noise.  Scenarios new in the
fresh report are adopted wholesale.

Run:  python benchmarks/check_perf_regression.py \
          --fresh BENCH_serve.json --baseline benchmarks/BENCH_serve.json
"""

from __future__ import annotations

import argparse
import json
import os
import sys


def load_scenarios(path: str) -> dict[str, dict]:
    with open(path) as fh:
        report = json.load(fh)
    return report.get("scenarios", report)


#: gated higher-is-better metrics and their display units.  events/s is
#: wall-clock throughput; cycles/window is the (deterministic) width of
#: the shard driver's synchronization windows — a lookahead regression
#: shrinks it long before it shows up in noisy wall-clock numbers.
_METRICS = (("events_per_sec", "ev/s"), ("cycles_per_window", "cyc/win"))


def check(
    fresh: dict[str, dict], baseline: dict[str, dict], tolerance: float
) -> list[str]:
    """Regression messages (empty when the fresh run passes the gate)."""
    problems = []
    for name, base in sorted(baseline.items()):
        gated = [(m, u) for m, u in _METRICS if base.get(m)]
        if not gated:
            continue
        if name not in fresh:
            problems.append(f"{name}: scenario missing from fresh run")
            continue
        for metric, unit in gated:
            base_rate = base[metric]
            rate = fresh[name].get(metric) or 0
            floor = base_rate * (1.0 - tolerance)
            verdict = "ok" if rate >= floor else "REGRESSION"
            # cycles/window sits near 1.0; keep decimals for small values.
            fmt = ",.0f" if base_rate >= 100 else ",.3f"
            print(
                f"{name:18s} fresh {rate:>12{fmt}} {unit:7s} "
                f"baseline {base_rate:>12{fmt}}   floor {floor:>12{fmt}}   "
                f"{verdict}"
            )
            if rate < floor:
                problems.append(
                    f"{name}: {rate:{fmt}} {unit} is "
                    f"{1 - rate / base_rate:.1%} below the committed baseline "
                    f"{base_rate:{fmt}} (tolerance {tolerance:.0%})"
                )
    return problems


def ratchet(
    fresh: dict[str, dict], baseline: dict[str, dict]
) -> tuple[dict[str, dict], list[str]]:
    """Raise baseline gated metrics to any better fresh value.

    Returns the updated scenario mapping and a list of human-readable
    change descriptions (empty when nothing improved).  Non-gated keys in
    improved scenarios (event counts, wall times) are refreshed alongside
    so the committed record stays one coherent measurement.
    """
    updated = {name: dict(values) for name, values in baseline.items()}
    changes = []
    for name, values in sorted(fresh.items()):
        base = updated.get(name)
        if base is None:
            updated[name] = dict(values)
            changes.append(f"{name}: adopted new scenario")
            continue
        improved = [
            (metric, unit)
            for metric, unit in _METRICS
            if values.get(metric) and values[metric] > (base.get(metric) or 0)
        ]
        if not improved:
            continue
        gain = ", ".join(
            f"{metric} {base.get(metric) or 0:,.0f} -> {values[metric]:,.0f} {unit}"
            for metric, unit in improved
        )
        updated[name] = dict(values)
        changes.append(f"{name}: {gain}")
    return updated, changes


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--fresh", required=True, help="just-measured report")
    parser.add_argument(
        "--baseline", required=True, help="committed baseline report"
    )
    parser.add_argument(
        "--tolerance",
        type=float,
        default=float(os.environ.get("REPRO_PERF_TOLERANCE", "0.20")),
        help="allowed fractional slowdown before failing (default: 0.20)",
    )
    parser.add_argument(
        "--update",
        action="store_true",
        help="after the gate, ratchet the baseline file up to any better "
        "fresh numbers (baselines never move down)",
    )
    args = parser.parse_args()

    fresh = load_scenarios(args.fresh)
    baseline = load_scenarios(args.baseline)
    problems = check(fresh, baseline, args.tolerance)

    if args.update:
        updated, changes = ratchet(fresh, baseline)
        if changes:
            with open(args.baseline) as fh:
                report = json.load(fh)
            if "scenarios" in report:
                report["scenarios"] = updated
            else:
                report = updated
            with open(args.baseline, "w") as fh:
                fh.write(json.dumps(report, indent=2) + "\n")
            print(f"\nratcheted {args.baseline}:")
            for change in changes:
                print(f"  {change}")
        else:
            print("\nratchet: no scenario beat the committed baseline")

    if problems:
        print(f"\nperf gate FAILED ({len(problems)} regression(s)):", file=sys.stderr)
        for problem in problems:
            print(f"  {problem}", file=sys.stderr)
        return 1
    print("\nperf gate passed")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())

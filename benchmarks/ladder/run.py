#!/usr/bin/env python3
"""The ladder: one benchmark from the event kernel to HTTP.

The benchmark driver calls this file once per measurement:

    python3 benchmarks/ladder/run.py --workload W --seed N --seconds S --trace 0|1

and reads the JSON object on the last line of standard output.  People
call it with a command instead:

    run       every workload, tracing off: the end-to-end metrics
    trace     every workload, traced: the per-layer metrics
    check     two back-to-back ``run`` sets; fails when they disagree
    compare   A.json B.json: rows with each ratio's base
    selftest  tiny sizes of every workload; names, spans, layer map

Names, units and bounds come from ``BENCHMARK.json``; results go to
``benchmarks/ladder/out/``.  This process never imports ``repro``: each
workload runs in a child of its own (``child.py``), after a forced
rebuild of the native extension when the workload needs it.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"
NATIVE_DIR = ROOT / "src" / "repro" / "backend" / "native"

#: workloads that run on the compiled engine (the child reports the same
#: flag; the selftest compares the two)
NATIVE = {"figures64_native", "hitstorm64", "packetstorm", "readshare64", "writeshare64"}
#: set-ups per measurement; ``setup_s`` uses their median
SETUPS = 3
CHILD_TIMEOUT = 170
#: ``check`` and ``compare`` hold the serve latencies to these on
#: ``serve_mix`` although BENCHMARK.json must list them per layer
SERVE_BOUNDS = {
    "serve.cold_p50_ms": 0.20,
    "serve.warm_p50_ms": 0.20,
    "serve.cold_p95_ms": 0.25,
    "serve.warm_p99_ms": 0.25,
}
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")


def load_spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
    )
    env.pop("REPRO_NATIVE", None)  # =0 would refuse the extension just built
    return env


def rebuild_native() -> tuple[float, str | None]:
    """Force-rebuild the extension; ``(seconds, error or None)``.

    The old shared object is removed first, so neither an edited
    ``_native.c`` nor a failed build is ever measured through a stale one.
    """
    for stale in NATIVE_DIR.glob("_native*.so"):
        stale.unlink()
    start = time.perf_counter()
    done = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace", "--force"],
        cwd=ROOT,
        env={**os.environ, "REPRO_NATIVE_REQUIRE": "1"},
        capture_output=True,
        text=True,
        timeout=600,
    )
    seconds = time.perf_counter() - start
    if done.returncode == 0 and any(NATIVE_DIR.glob("_native*.so")):
        return seconds, None
    tail = (done.stderr or done.stdout).strip().splitlines()[-5:]
    return seconds, "build_ext failed: " + " | ".join(tail)


def run_child(workload, seed, seconds, trace, scale, *, setup_only=False) -> dict:
    command = [
        sys.executable, str(HERE / "child.py"),
        "--workload", workload, "--seed", str(seed), "--seconds", str(seconds),
        "--trace", str(trace), "--scale", scale, "--spawned-at", repr(time.time()),
    ] + (["--setup-only"] if setup_only else [])
    # A session of its own, so that a child that overruns is stopped
    # together with the pool workers it started.
    child = subprocess.Popen(
        command, cwd=ROOT, env=child_env(), text=True, start_new_session=True,
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    try:
        out, err = child.communicate(timeout=CHILD_TIMEOUT)
    except subprocess.TimeoutExpired:
        os.killpg(child.pid, signal.SIGKILL)
        child.communicate()
        raise RuntimeError(f"{workload}: child overran {CHILD_TIMEOUT} s") from None
    if child.returncode != 0:
        raise RuntimeError(
            f"{workload}: child exited {child.returncode}\n{err[-2000:]}"
        )
    return json.loads(out.strip().splitlines()[-1])


def measure(
    workload: str, seed: int, seconds: float, trace: int,
    scale: str = "full", *, setups: int = SETUPS, rebuild: bool = True,
) -> dict:
    """One measurement of one workload: rebuild, set up, run, check."""
    native = rebuild and workload in NATIVE
    build_s, build_error = rebuild_native() if native else (0.0, None)
    probes = [
        run_child(workload, seed, seconds, trace, scale, setup_only=True)
        for _ in range(setups - 1)
    ]
    result = run_child(workload, seed, seconds, trace, scale)
    result["end_to_end"]["setup_s"] = build_s + statistics.median(
        s["setup_child_s"] for s in probes + [result]
    )
    if result["per_layer"] is not None:
        result["per_layer"]["backend.native.build_s"] = build_s
    if build_error:
        result["failed"] = result["attempted"]
        result["errors"] = [build_error]
    result["host"]["commit"] = git_commit()
    return result


def git_commit() -> str:
    try:
        done = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT,
            capture_output=True, text=True, timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return done.stdout.strip() if done.returncode == 0 else "unknown"


def driver_line(result: dict, trace: int, spec: dict) -> dict:
    """The object the benchmark driver reads: exactly the listed metrics."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    values = result["per_layer"] if trace else result["end_to_end"]
    return {
        "correct": result["failed"] == 0,
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {
            m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in listed
        },
    }


# ----------------------------------------------------------------------
# Commands for people
# ----------------------------------------------------------------------


def run_set(spec: dict, seed: int, seconds: float, trace: int, label: str) -> dict:
    """Every workload, one after the other; prints as it goes."""
    listed = spec["per_layer"] if trace else spec["end_to_end"]
    units = {m["name"]: m["unit"] for m in listed}
    results = {}
    for entry in spec["workloads"]:
        name = entry["name"]
        result = results[name] = measure(name, seed, seconds, trace)
        values = result["per_layer"] if trace else result["end_to_end"]
        print(f"\n{name}  (seed {seed}, {result['repeats']} repeat(s), "
              f"{result['failed']}/{result['attempted']} operations failed)")
        for metric, value in values.items():
            if trace and not value:
                continue  # a layer this workload does not reach
            print(f"  {metric:28s} {value:16.6g} {units[metric]}")
        for metric in SERVE_BOUNDS if result["client"] and not trace else ():
            print(f"  {metric:28s} {result['client'][metric]:16.6g} ms")
        for error in result["errors"]:
            print(f"  FAILED: {error}")
    record = {
        "kind": "trace" if trace else "run",
        "seed": seed,
        "seconds": seconds,
        # the last child ran after every rebuild; the set counts as native
        # only if each native child found the extension active
        "host": {
            **result["host"],
            "native_active": all(
                r["host"]["native_active"] for n, r in results.items() if n in NATIVE
            ),
        },
        "workloads": results,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"{label}.json"
    path.write_text(json.dumps(record, indent=1))
    print(f"\nwrote {path.relative_to(ROOT)}")
    return record


def failed_operations(record: dict) -> int:
    return sum(r["failed"] for r in record["workloads"].values())


def bounded_metrics(spec: dict, result: dict) -> dict[str, tuple]:
    """metric -> (value, better, bound) for everything held to a bound."""
    rows = {
        m["name"]: (result["end_to_end"][m["name"]], m["better"], m["bound"])
        for m in spec["end_to_end"]
    }
    if result["client"]:
        for metric, bound in SERVE_BOUNDS.items():
            rows[metric] = (result["client"][metric], "lower", bound)
    return rows


def host_identity(record: dict) -> dict:
    """What must match before two results may be compared."""
    host = record["host"]
    return {k: host[k] for k in ("cpu", "nproc", "python", "numpy", "native_active")}


def compare(spec: dict, base: dict, other: dict, *, exact: bool) -> int:
    """Print per-workload rows; return how many are out of bounds.

    With ``exact`` (two runs of one commit) digests and counts must be
    equal too, and set-up time is held to its bound in both directions.
    """
    if host_identity(base) != host_identity(other):
        print("refusing to compare: host fingerprints differ")
        print(f"  base : {host_identity(base)}")
        print(f"  other: {host_identity(other)}")
        return 1
    bad = 0
    print(f"base {base['host']['commit']} -> other {other['host']['commit']} "
          f"on {base['host']['cpu']} x{base['host']['nproc']}")
    print(f"{'workload':18s} {'metric':20s} {'base':>12s} {'other':>12s} "
          f"{'other/base':>10s} {'bound':>6s}")
    for entry in spec["workloads"]:
        name = entry["name"]
        a, b = base["workloads"][name], other["workloads"][name]
        rows_b = bounded_metrics(spec, b)
        for metric, (va, better, bound) in bounded_metrics(spec, a).items():
            vb = rows_b[metric][0]
            ratio = vb / va
            worse = ratio - 1 if better == "lower" else 1 - ratio
            moved = abs(ratio - 1) if exact else worse
            flag = ""
            if moved > bound:
                # between two runs of one commit this is the demotion rule:
                # a metric that does not repeat is not an end-to-end metric
                flag = "  DOES NOT REPEAT" if exact else "  REGRESSION"
                bad += 1
            print(f"{name:18s} {metric:20s} {va:12.5g} {vb:12.5g} "
                  f"{ratio:9.3f}x {bound:6.0%}{flag}")
        if exact and a["exact"] != b["exact"]:
            print(f"{name:18s} exact counts differ: {a['exact']} != {b['exact']}")
            bad += 1
        if b["failed"] > a["failed"]:
            print(f"{name:18s} failed operations {a['failed']} -> {b['failed']}")
            bad += 1
    return bad


def command_check(spec: dict, seed: int, seconds: float) -> int:
    first = run_set(spec, seed, seconds, 0, "check-1")
    second = run_set(spec, seed, seconds, 0, "check-2")
    print("\nspread between two sets of the same code:")
    bad = compare(spec, first, second, exact=True)
    bad += failed_operations(first) + failed_operations(second)
    print("check: " + ("ok" if not bad else f"{bad} problem(s)"))
    return 1 if bad else 0


def command_selftest(spec: dict) -> int:
    """Tiny sizes of all seven workloads, traced, plus the static checks."""
    problems = []
    names = [w["name"] for w in spec["workloads"]]
    metrics = [m["name"] for m in spec["end_to_end"] + spec["per_layer"]]
    for name in names + metrics:
        if not NAME.fullmatch(name):
            problems.append(f"bad name {name!r}")
    if len(set(names + metrics)) != len(names + metrics):
        problems.append("a name is used twice")

    sys.path.insert(0, str(HERE))
    from tracing import LAYERS, PACKAGE_LAYER, malformed_spans

    packages = {
        p.name for p in (ROOT / "src" / "repro").iterdir()
        if p.is_dir() and (p / "__init__.py").exists()
    }
    if packages != set(PACKAGE_LAYER):
        problems.append(
            f"path->layer map out of date: unmapped {sorted(packages - set(PACKAGE_LAYER))}, "
            f"gone {sorted(set(PACKAGE_LAYER) - packages)}"
        )
    if not set(PACKAGE_LAYER.values()) <= set(LAYERS):
        problems.append("path->layer map names a layer that is not reported")

    _, build_error = rebuild_native()
    if build_error:
        problems.append(build_error)
    for name in names:
        result = measure(name, 7, 0.0, 1, "tiny", setups=1, rebuild=False)
        if result["native"] != (name in NATIVE):
            problems.append(f"{name}: NATIVE in run.py disagrees with the workload")
        if result["failed"]:
            problems.append(f"{name}: {result['failed']} failed: {result['errors'][:3]}")
        for trace in (0, 1):
            line = driver_line(result, trace, spec)  # KeyError = unlisted/missing
            if sorted(line) != ["attempted", "correct", "failed", "metrics"]:
                problems.append(f"{name}: malformed result line")
        if any(not v for v in result["end_to_end"].values()):
            problems.append(f"{name}: an end-to-end metric is zero")
        spans = json.loads((OUT / f"trace-{name}.json").read_text())["spans"]
        problems += [f"{name}: {p}" for p in malformed_spans(spans)]
        print(f"selftest {name}: {len(spans)} spans, "
              f"{result['attempted']} operations")

    # the paper's shape claims, at a seed the sizes were not chosen on
    shapes = run_child("figures64_native", 7, 0.0, 0, "shapes")
    if shapes["failed"]:
        problems.append(f"shape checks at seed 7: {shapes['errors']}")
    print(f"selftest shapes at seed 7: {shapes['attempted']} operations")

    for problem in problems:
        print(f"PROBLEM: {problem}")
    print("selftest: " + ("ok" if not problems else f"{len(problems)} problem(s)"))
    return 1 if problems else 0


def main() -> int:
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter
    )
    parser.add_argument("command", nargs="?",
                        choices=("run", "trace", "check", "compare", "selftest"))
    parser.add_argument("files", nargs="*", help="compare: two result files")
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=42)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "repro" / "__init__.py").exists() or not (
        ROOT / "setup.py"
    ).exists():
        print(f"no simulator to measure under {ROOT}", file=sys.stderr)
        return 2
    spec = load_spec()
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds

    if args.command is None:
        if args.workload not in {w["name"] for w in spec["workloads"]}:
            parser.error("--workload must name a workload of BENCHMARK.json")
        result = measure(args.workload, args.seed, seconds, args.trace)
        for error in result["errors"]:
            print(f"FAILED: {error}", file=sys.stderr)
        print(json.dumps(driver_line(result, args.trace, spec)))
        return 0
    if args.command in ("run", "trace"):
        trace = int(args.command == "trace")
        record = run_set(spec, args.seed, seconds, trace, args.command)
        return 1 if failed_operations(record) else 0
    if args.command == "check":
        return command_check(spec, args.seed, seconds)
    if args.command == "compare":
        if len(args.files) != 2:
            parser.error("compare takes two result files")
        base, other = (json.loads(Path(f).read_text()) for f in args.files)
        return 1 if compare(spec, base, other, exact=False) else 0
    return command_selftest(spec)


if __name__ == "__main__":
    raise SystemExit(main())

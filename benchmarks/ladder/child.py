"""One workload in one process: set up, repeat, check, report.

``run.py`` starts this file once per measurement (and twice more with
``--setup-only``, so set-up time is a median).  It is the only part of
the benchmark that imports ``repro``; the last line it prints is one
JSON object for the parent.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]
OUT = HERE / "out"


def host_fingerprint(nproc: int) -> dict:
    from repro.backend import HAS_NUMPY, get_backend
    from repro.backend.native import load_status

    cpu = "unknown"
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    active, reason = load_status()
    return {
        "cpu": cpu,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": HAS_NUMPY,
        "native_active": active,
        "backend_notes": get_backend("native").notes if active else reason,
    }


def clean_repeat(form):
    """Run one repeat from a collected heap, so that garbage left by the
    previous machine counts neither in its time nor in peak RSS."""
    gc.collect()
    return form()


def measure(workload, seconds: float):
    """Untraced repeats until ``seconds`` of timed region have run (at
    least two, so there is a digest to compare)."""
    repeats = [clean_repeat(workload.repeat)]
    while len(repeats) < 2 or sum(r.wall_s for r in repeats) < seconds:
        repeats.append(clean_repeat(workload.repeat))
    return repeats


def trace(workload, untraced, per_layer: dict) -> list:
    """The traced forms of one repeat; fills ``per_layer`` and returns
    the extra repeats so their digests are checked like any other."""
    from tracing import LAYERS, Tracer, malformed_spans, profiled

    tracer = Tracer()
    with tracer.span("workload", workload=workload.name, seed=workload.seed):
        spanned = clean_repeat(lambda: workload.traced_repeat(tracer))
    repeats = [spanned]
    root = next(s["id"] for s in tracer.spans if s["name"] == "repeat")
    by_name, uncovered = tracer.durations(root)
    for name, seconds in by_name.items():
        if f"{name}_s" in per_layer:  # request/submit/stream report as serve.*
            per_layer[f"{name}_s"] = seconds
    per_layer["trace.residual_frac"] = uncovered / spanned.wall_s
    per_layer.update(workload.warm_pass())

    traced_wall = spanned.wall_s
    if workload.profiled:
        profile: dict = {}
        gc.collect()
        with profiled(profile):
            repeats.append(workload.traced_repeat(Tracer()))
        traced_wall = profile["wall_s"]
        for layer in LAYERS:
            per_layer[f"{layer}.self_s"] = profile["self_s"][layer]
            per_layer[f"{layer}.calls"] = profile["calls"][layer]
        per_layer["trace.profile_gap_frac"] = (
            1.0 - sum(profile["self_s"].values()) / profile["wall_s"]
        )
    per_layer["trace.overhead_ratio"] = traced_wall / untraced.wall_s

    counts = dict(spanned.counts)
    busy, slots = counts.pop("proc.busy_cycles", 0), counts.pop("proc.cycle_slots", 0)
    per_layer.update(counts)
    if slots:
        per_layer["proc.utilization"] = busy / slots
    accesses = counts.get("cache.hits", 0) + counts.get("cache.misses", 0)
    if accesses:
        per_layer["cache.hit_ratio"] = counts["cache.hits"] / accesses
    if counts.get("sim.events"):
        per_layer["sim.ns_per_event"] = untraced.wall_s * 1e9 / counts["sim.events"]

    OUT.mkdir(exist_ok=True)
    trace_file = OUT / f"trace-{workload.name}.json"
    trace_file.write_text(
        json.dumps({"workload": workload.name, "seed": workload.seed,
                    "spans": tracer.spans}, indent=1)
    )
    problems = malformed_spans(tracer.spans)
    if problems:
        spanned.errors.extend(f"trace: {p}" for p in problems)
    return repeats


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--scale", choices=("full", "tiny", "shapes"), default="full")
    parser.add_argument("--spawned-at", type=float, required=True,
                        help="time.time() when the parent started this process")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    sys.path.insert(0, str(HERE))
    nproc = len(os.sched_getaffinity(0))  # before a set-up narrows it
    from repro.backend.native import load_status
    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed, args.scale)
    try:
        workload.setup()
        result = {"setup_child_s": time.time() - args.spawned_at}
        if args.setup_only:
            print(json.dumps(result))
            return 0

        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        per_layer = {m["name"]: 0.0 for m in spec["per_layer"]}
        if args.trace:
            repeats = [clean_repeat(workload.repeat)]
            end_to_end = repeats[0:1]
            repeats += trace(workload, repeats[0], per_layer)
        else:
            repeats = end_to_end = measure(workload, args.seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        # Operations: everything each repeat attempted, one digest
        # comparison per repeat, then the after-the-fact output checks.
        first = repeats[0]
        best = min(end_to_end, key=lambda r: r.wall_s)
        attempted = sum(r.attempted for r in repeats) + len(repeats)
        errors = [e for r in repeats for e in r.errors]
        errors += [
            f"repeat {n}: digest differs from the first repeat's"
            for n, r in enumerate(repeats) if r.digest != first.digest
        ]
        checked, failures = workload.checks(first)
        attempted += checked
        errors += failures
        native_ok, reason = load_status()
        if workload.native and not native_ok:
            # a soa-fallback number must never pass as native
            errors = [f"native extension not active: {reason}"] * attempted

        client = workload.client_metrics(repeats)
        per_layer.update(client)
        unknown = sorted(set(per_layer) - {m["name"] for m in spec["per_layer"]})
        if unknown:
            raise SystemExit(f"per-layer metrics missing from BENCHMARK.json: {unknown}")

        result.update(
            workload=workload.name,
            native=workload.native,
            seed=args.seed,
            scale=args.scale,
            host=host_fingerprint(nproc),
            repeats=len(end_to_end),
            repeat_wall_s=[r.wall_s for r in end_to_end],
            attempted=attempted,
            failed=len(errors),
            errors=errors[:10],
            # The fastest repeat: on a shared host interference only ever
            # adds time, so the minimum repeats where the median does not.
            end_to_end={
                "wall_s": best.wall_s,
                "sim_kcycles_per_s": best.sim_cycles / 1e3 / best.wall_s,
                "peak_rss_mb": peak_rss_mb,
            },
            exact={"digest": first.digest, "sim_cycles": first.sim_cycles,
                   "attempted": attempted},
            client=client,
            per_layer=per_layer if args.trace else None,
        )
        print(json.dumps(result))
        return 0
    finally:
        workload.close()


if __name__ == "__main__":
    raise SystemExit(main())

"""Chaos campaigns: fault-rate × workload grids with the auditor as oracle.

A campaign sweeps seeded fault injection (drop + duplicate + delay at the
same per-packet rate, optionally corruption and trap stalls) across
protocols, workloads and seeds, running every grid point through the
parallel sweep runner with a wall-clock budget.  The oracle is the
machine itself: :func:`repro.machine.run_experiment` audits every
directory entry against the coherence invariants after completion, the
liveness watchdog converts silent wedges into structured
:class:`~repro.verify.diagnose.LivenessError` diagnoses, and the runner's
SIGALRM budget reclaims anything that out-waits even the watchdog.  Each
point therefore ends in exactly one of: survival (with recovery-overhead
counters), a coherence violation, a liveness failure, a wall-clock
timeout, or a crash — and the survival report records which.

Every point replays bit-identically from its row in the report: build the
same :class:`~repro.machine.AlewifeConfig` (protocol, seed, rates) and
run the same workload, e.g.::

    python -m repro faults --protocols limited --workloads weather \
        --rates 1e-3 --seeds 3

which re-runs just that cell of the grid.  Workloads are scaled by
:func:`repro.sweep.spec.scaled_workload`, the table ``repro run`` reads,
so ``--iters`` plays the role of ``repro run --iterations``.
"""

from __future__ import annotations

import json
import time
from pathlib import Path
from typing import Callable, Sequence

from ..machine import AlewifeConfig
from ..sweep.cache import ResultCache
from ..sweep.runner import JobResult, ProgressPrinter, run_jobs
from ..sweep.spec import Job, scaled_workload

DEFAULT_PROTOCOLS = ("fullmap", "limited", "limitless")
DEFAULT_WORKLOADS = ("weather", "synthetic")

#: Recovery and fault-activity counters surfaced per grid point: how much
#: protocol-level retry machinery each survival actually cost.
RECOVERY_COUNTERS = (
    "cache.request_retx",
    "cache.writeback_retx",
    "cache.wb_reanswers",
    "cache.stray_fills",
    "cache.stray_dacks",
    "dir.inv_retx",
    "dir.broadcast_reconstructs",
    "dir.ownerless_reads",
    "nic.crc_drops",
    "faults.dropped",
    "faults.duplicated",
    "faults.delayed",
    "faults.corrupted",
    "faults.trap_stalls",
)


def campaign_jobs(
    *,
    procs: int = 16,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    rates: Sequence[float] = (1e-3,),
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    iters: int = 2,
    pointers: int = 4,
    ts: int = 50,
    corrupt_rate: float = 0.0,
    stall_rate: float = 0.0,
) -> list[Job]:
    """The full campaign grid: rate × workload × protocol × seed."""
    jobs: list[Job] = []
    for rate in rates:
        for wname in workloads:
            spec = scaled_workload(wname, procs, iters)
            for protocol in protocols:
                for seed in seeds:
                    config = AlewifeConfig(
                        n_procs=procs,
                        protocol=protocol,
                        pointers=pointers,
                        ts=ts,
                        seed=seed,
                        fault_drop_rate=rate,
                        fault_dup_rate=rate,
                        fault_delay_rate=rate,
                        fault_corrupt_rate=corrupt_rate,
                        fault_stall_rate=stall_rate,
                    )
                    label = f"{protocol}/{wname}@{rate:g}#s{seed}"
                    jobs.append(Job(label, config, spec))
    return jobs


def classify_error(error: str | None) -> str:
    """Bucket a grid point's outcome for the survival summary."""
    if error is None:
        return "survived"
    if "CoherenceViolation" in error:
        return "violation"
    if "LivenessError" in error:
        return "liveness"
    if "JobTimeout" in error:
        return "timeout"
    return "crash"


def _point_record(result: JobResult) -> dict:
    cfg = result.job.config
    record = {
        "label": result.job.label,
        "protocol": cfg.protocol,
        "workload": result.job.workload.name,
        "rate": cfg.fault_drop_rate,
        "seed": cfg.seed,
        "outcome": classify_error(result.error),
        "error": result.error,
        "wall_seconds": round(result.wall_seconds, 3),
    }
    if result.stats is not None:
        counters = result.stats.counters
        retx = (
            counters.get("cache.request_retx")
            + counters.get("cache.writeback_retx")
            + counters.get("dir.inv_retx")
        )
        record.update(
            cycles=result.stats.cycles,
            traps=result.stats.traps_taken,
            packets=result.stats.network.packets,
            entries_audited=result.stats.entries_audited,
            retransmissions=retx,
            recovery={
                name: counters.get(name)
                for name in RECOVERY_COUNTERS
                if counters.get(name)
            },
        )
    return record


def run_campaign(
    *,
    procs: int = 16,
    protocols: Sequence[str] = DEFAULT_PROTOCOLS,
    workloads: Sequence[str] = DEFAULT_WORKLOADS,
    rates: Sequence[float] = (1e-3,),
    seeds: Sequence[int] = (0, 1, 2, 3, 4),
    iters: int = 2,
    pointers: int = 4,
    ts: int = 50,
    corrupt_rate: float = 0.0,
    stall_rate: float = 0.0,
    workers: int = 1,
    timeout: float | None = 120.0,
    cache: ResultCache | None = None,
    out: Path | str | None = "BENCH_faults.json",
    echo: Callable[[str], None] = print,
) -> dict:
    """Run the chaos grid and return the ``BENCH_faults.json`` record."""
    jobs = campaign_jobs(
        procs=procs,
        protocols=protocols,
        workloads=workloads,
        rates=rates,
        seeds=seeds,
        iters=iters,
        pointers=pointers,
        ts=ts,
        corrupt_rate=corrupt_rate,
        stall_rate=stall_rate,
    )
    echo(
        f"repro faults: chaos campaign, {len(jobs)} grid points on "
        f"{procs} processors ({len(list(protocols))} protocols x "
        f"{len(list(workloads))} workloads x {len(list(rates))} rates x "
        f"{len(list(seeds))} seeds), {workers} worker(s)"
    )
    start = time.perf_counter()
    results = run_jobs(
        jobs,
        workers=workers,
        cache=cache,
        progress=ProgressPrinter(),
        timeout=timeout,
        on_error="record",
    )
    wall = time.perf_counter() - start

    points = [_point_record(r) for r in results]
    outcomes = {"survived": 0, "violation": 0, "liveness": 0, "timeout": 0, "crash": 0}
    for point in points:
        outcomes[point["outcome"]] += 1
    survived = outcomes["survived"]
    failed = len(points) - survived

    by_protocol: dict[str, dict[str, int]] = {}
    for point in points:
        row = by_protocol.setdefault(point["protocol"], {"points": 0, "survived": 0})
        row["points"] += 1
        row["survived"] += point["outcome"] == "survived"

    echo("")
    for protocol, row in by_protocol.items():
        echo(f"  {protocol:12s} {row['survived']}/{row['points']} survived")
    echo(
        f"\n{survived}/{len(points)} grid points survived in {wall:.1f}s wall "
        f"(violations {outcomes['violation']}, liveness {outcomes['liveness']}, "
        f"timeouts {outcomes['timeout']}, crashes {outcomes['crash']})"
    )
    for point in points:
        if point["outcome"] != "survived":
            echo(f"  FAILED {point['label']}: {point['error']}")

    artifact = {
        "suite": "faults",
        "procs": procs,
        "protocols": list(protocols),
        "workloads": list(workloads),
        "rates": list(rates),
        "seeds": list(seeds),
        "iters": iters,
        "corrupt_rate": corrupt_rate,
        "stall_rate": stall_rate,
        "timeout": timeout,
        "workers": workers,
        "wall_seconds": round(wall, 3),
        "summary": {
            "points": len(points),
            "survived": survived,
            "failed": failed,
            "outcomes": outcomes,
            "by_protocol": by_protocol,
        },
        "points": points,
    }
    if out:
        Path(out).write_text(json.dumps(artifact, indent=2))
        echo(f"wrote {out}")
    return artifact

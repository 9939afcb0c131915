"""Process-level chaos: SIGKILL the simulation at seeded times, recover.

The whole simulation process is killed mid-run.  Recovery is the
checkpoint layer: every attempt resumes from the latest snapshot on disk
(verifying its digest on the way through) — or starts fresh if the kill
landed before the first checkpoint.

The oracle is total: the recovered run's full
``MachineStats.to_dict()`` must equal a zero-chaos baseline computed in
the supervising process, so any divergence — one counter, one packet —
fails the point.  Kill times are drawn from a seeded RNG, so a campaign
replays exactly.
"""

from __future__ import annotations

import json
import os
import random
import time
from dataclasses import asdict
from multiprocessing import get_all_start_methods, get_context
from pathlib import Path
from typing import Callable, Optional, Sequence

from ..machine.config import AlewifeConfig
from ..machine.machine import run_experiment
from ..sweep.spec import WorkloadSpec, scaled_workload
from .checkpoint import latest_snapshot, resume_run, run_with_checkpoints


def _write_result(result_path: Path, payload: dict) -> None:
    tmp = result_path.with_suffix(".tmp")
    tmp.write_text(json.dumps(payload))
    tmp.replace(result_path)


def _checkpoint_child(
    config_dict: dict, workload: dict, out_dir: str, every: int, result: str
) -> None:
    """Chaos child: run (or resume) with checkpoints."""
    config = AlewifeConfig(**config_dict)
    spec = WorkloadSpec(workload["name"], dict(workload.get("params", {})))
    marker = latest_snapshot(out_dir)
    if marker is not None:
        stats = resume_run(marker, every=every, out_dir=out_dir)
    else:
        stats = run_with_checkpoints(config, spec, every=every, out_dir=out_dir)
    _write_result(Path(result), stats.to_dict())


def run_chaos_point(
    label: str,
    config: AlewifeConfig,
    spec: WorkloadSpec,
    *,
    kills: int,
    seed: int,
    workdir: Path,
    every: int = 400,
    kill_window: tuple[float, float] = (0.05, 0.4),
    grace: float = 120.0,
) -> dict:
    """One chaos point: kill ``kills`` times at seeded delays, recover,
    and return a record with the recovered stats (or the failure)."""
    rng = random.Random(f"{seed}:{label}")
    delays = [rng.uniform(*kill_window) for _ in range(kills)]
    slug = label.replace("/", "_").replace(" ", "_")
    point_dir = Path(workdir) / slug
    snap_dir = point_dir / "snaps"
    result_path = point_dir / "result.json"
    point_dir.mkdir(parents=True, exist_ok=True)
    ctx = get_context("fork")
    workload = spec.key_dict()

    attempts: list[dict] = []
    killed = 0
    stats_dict: Optional[dict] = None
    error: Optional[str] = None
    # Every kill costs at most one attempt, plus one clean attempt to
    # finish; anything beyond that is a real failure, not chaos.
    for attempt in range(1, kills + 2):
        proc = ctx.Process(
            target=_checkpoint_child,
            args=(
                asdict(config),
                workload,
                str(snap_dir),
                every,
                str(result_path),
            ),
        )
        proc.start()
        record = {"attempt": attempt, "killed": False}
        if killed < kills:
            time.sleep(delays[killed])
            try:
                os.kill(proc.pid, 9)  # SIGKILL: no cleanup, the real thing
                record["killed"] = True
                killed += 1
            except ProcessLookupError:
                pass  # finished before the kill landed
        proc.join(grace)
        if proc.is_alive():
            proc.kill()
            proc.join(5.0)
            record["exitcode"] = "hung"
            attempts.append(record)
            error = f"attempt {attempt} hung past {grace:g}s and was killed"
            break
        record["exitcode"] = proc.exitcode
        attempts.append(record)
        if result_path.exists():
            stats_dict = json.loads(result_path.read_text())
            break
        if not record["killed"]:
            # A clean (unkilled) checkpoint attempt must succeed.
            error = f"attempt {attempt} failed (exit {proc.exitcode}) without a kill"
            break
    else:
        error = f"no attempt completed within {kills + 1} tries"
    if stats_dict is None and error is None:
        error = "run never produced a result"
    return {
        "label": label,
        "kills_requested": kills,
        "kills_delivered": killed,
        "delays": [round(d, 4) for d in delays],
        "attempts": attempts,
        "snapshots": [p.name for p in sorted(snap_dir.glob("snap-*.json"))],
        "stats": stats_dict,
        "error": error,
    }


def chaos_points(
    *,
    procs: int = 16,
    protocols: Sequence[str] = ("fullmap", "limitless"),
    workloads: Sequence[str] = ("weather",),
    iters: int = 2,
    pointers: int = 4,
    ts: int = 50,
) -> list[tuple[str, AlewifeConfig, WorkloadSpec]]:
    """The default campaign grid: workload × protocol."""
    points = []
    for wname in workloads:
        spec = scaled_workload(wname, procs, iters)
        for protocol in protocols:
            config = AlewifeConfig(
                n_procs=procs, protocol=protocol, pointers=pointers, ts=ts
            )
            points.append((f"{protocol}/{wname}", config, spec))
    return points


def run_chaos_campaign(
    points: Sequence[tuple[str, AlewifeConfig, WorkloadSpec]],
    *,
    kills: int = 2,
    seed: int = 0,
    every: int = 400,
    workdir: Path | str,
    kill_window: tuple[float, float] = (0.05, 0.4),
    out: Path | str | None = "BENCH_process_chaos.json",
    echo: Callable[[str], None] = print,
) -> dict:
    """Run the process-chaos grid; every point must recover to a
    zero-chaos baseline computed fresh in this process (total equality
    of ``MachineStats.to_dict()``)."""
    if "fork" not in get_all_start_methods():  # pragma: no cover
        raise RuntimeError("process chaos needs the fork start method")
    echo(
        f"repro faults --process-chaos: {len(points)} points, "
        f"{kills} kill(s) each at seeded times (seed {seed})"
    )
    start = time.perf_counter()
    rows: list[dict] = []
    for label, config, spec in points:
        # JSON round-trip the baseline so tuple-vs-list artifacts of the
        # result file cannot mask (or fake) a real divergence.
        golden = json.loads(
            json.dumps(run_experiment(config, spec.build()).to_dict())
        )
        row = run_chaos_point(
            label,
            config,
            spec,
            kills=kills,
            seed=seed,
            workdir=Path(workdir),
            every=every,
            kill_window=kill_window,
        )
        row["golden_cycles"] = golden["cycles"]
        row["recovered"] = row["stats"] == golden
        if row["stats"] is not None and not row["recovered"]:
            row["error"] = row["error"] or (
                "recovered stats differ from the zero-chaos baseline"
            )
        status = "recovered" if row["recovered"] else f"FAILED ({row['error']})"
        echo(
            f"  {label:28s} {row['kills_delivered']} kill(s), "
            f"{len(row['attempts'])} attempt(s): {status}"
        )
        row.pop("stats", None)  # full stats are bulky; the verdict remains
        rows.append(row)
    wall = time.perf_counter() - start
    survived = sum(r["recovered"] for r in rows)
    echo(
        f"\n{survived}/{len(rows)} chaos points recovered bit-identically "
        f"in {wall:.1f}s wall"
    )
    artifact = {
        "suite": "process_chaos",
        "kills": kills,
        "seed": seed,
        "every": every,
        "wall_seconds": round(wall, 3),
        "summary": {
            "points": len(rows),
            "recovered": survived,
            "failed": len(rows) - survived,
        },
        "points": rows,
    }
    if out:
        Path(out).write_text(json.dumps(artifact, indent=2))
        echo(f"wrote {out}")
    return artifact

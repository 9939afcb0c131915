#!/usr/bin/env python3
"""Crash-recovery smoke: the CI acceptance script for ``repro.recover``.

Real kills against real subprocesses, with bit-identical oracles:

1. **Run kill/resume** — boot the CLI with ``--checkpoint-every``, SIGKILL
   it after the first snapshot lands, resume from the latest snapshot, and
   require the final statistics to be *bit-identical* to an uninterrupted
   run of the same experiment.
2. **Sweep kill/resume** — boot ``repro sweep``, SIGKILL it after the
   write-ahead manifest records its first completed point, rerun with
   ``--resume``, and require a clean exit with zero failed points and the
   previously completed work served from the cache.

Exits nonzero on the first violated expectation.

Run:  PYTHONPATH=src python benchmarks/recovery_smoke.py
"""

from __future__ import annotations

import json
import os
import signal
import subprocess
import sys
import tempfile
import time

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from repro.machine import AlewifeConfig, run_experiment  # noqa: E402
from repro.recover import latest_snapshot, read_snapshot, resume_run  # noqa: E402
from repro.workloads import WeatherWorkload  # noqa: E402

PYTHON = sys.executable
ENV = {**os.environ, "PYTHONPATH": "src"}


def check(condition: bool, message: str) -> None:
    if not condition:
        raise AssertionError(message)


def wait_for(predicate, timeout: float, what: str) -> None:
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if predicate():
            return
        time.sleep(0.005)
    raise AssertionError(f"timed out after {timeout}s waiting for {what}")


def kill_resume_run() -> None:
    label = "run kill/resume"
    with tempfile.TemporaryDirectory(prefix="repro-recover-") as tmp:
        ckpt = os.path.join(tmp, "checkpoints")
        proc = subprocess.Popen(
            [
                PYTHON, "-m", "repro",
                "--workload", "weather", "--iterations", "8",
                "--procs", "64", "--protocol", "limitless",
                "--checkpoint-every", "1000", "--checkpoint-dir", ckpt,
            ],
            env=ENV,
            stdout=subprocess.DEVNULL,
            stderr=subprocess.DEVNULL,
        )
        try:
            wait_for(
                lambda: latest_snapshot(ckpt) is not None
                or proc.poll() is not None,
                60.0,
                "the first snapshot",
            )
            check(
                proc.poll() is None,
                f"{label}: run finished before a snapshot could be taken "
                f"(rc={proc.returncode})",
            )
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
            check(
                proc.returncode == -signal.SIGKILL,
                f"{label}: expected death by SIGKILL, got rc={proc.returncode}",
            )
        finally:
            if proc.poll() is None:
                proc.kill()

        snap_path = latest_snapshot(ckpt)
        check(snap_path is not None, f"{label}: no snapshot survived the kill")
        marker = read_snapshot(snap_path)
        config = AlewifeConfig(n_procs=64, protocol="limitless", pointers=4, ts=50)
        golden = run_experiment(config, WeatherWorkload(iterations=8))
        check(
            marker.cycle < golden.cycles,
            f"{label}: snapshot at cycle {marker.cycle} is not mid-run",
        )
        resumed = resume_run(snap_path, every=1000)
        check(
            resumed.to_dict() == golden.to_dict(),
            f"{label}: resumed stats diverge from the uninterrupted golden",
        )
        print(
            f"PASS {label}: killed at snapshot cycle {marker.cycle}, "
            f"resumed to {resumed.cycles} cycles, bit-identical to golden"
        )


def kill_resume_sweep() -> None:
    label = "sweep kill/resume"
    with tempfile.TemporaryDirectory(prefix="repro-sweep-") as tmp:
        cache_dir = os.path.join(tmp, "cache")
        manifest = os.path.join(cache_dir, "sweep-manifest.ndjson")
        out = os.path.join(tmp, "figures.json")
        argv = [
            PYTHON, "-m", "repro", "sweep",
            "--procs", "16", "--iters", "2", "--figures", "Figure 8",
            "--workers", "2", "--cache-dir", cache_dir, "--out", out,
        ]

        def done_records() -> int:
            try:
                with open(manifest) as fh:
                    return sum(
                        1 for line in fh if '"event": "done"' in line
                        or '"event":"done"' in line
                    )
            except OSError:
                return 0

        proc = subprocess.Popen(
            argv, env=ENV,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        )
        try:
            wait_for(
                lambda: done_records() > 0 or proc.poll() is not None,
                120.0,
                "the first completed sweep point",
            )
            check(
                proc.poll() is None,
                f"{label}: sweep finished before it could be killed "
                f"(rc={proc.returncode})",
            )
            proc.send_signal(signal.SIGKILL)
            proc.wait(timeout=30)
        finally:
            if proc.poll() is None:
                proc.kill()
        completed_before = done_records()
        check(completed_before > 0, f"{label}: no point completed before kill")

        rc = subprocess.run(
            argv + ["--resume"], env=ENV,
            stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
        ).returncode
        check(rc == 0, f"{label}: resumed sweep exited {rc}")
        artifact = json.load(open(out))
        check(artifact["resumed"] is True, f"{label}: artifact not marked resumed")
        check(
            artifact["failed"] == 0 and artifact["quarantined"] == 0,
            f"{label}: {artifact['failed']} failed, "
            f"{artifact['quarantined']} quarantined",
        )
        rows = [
            row
            for fig in artifact["figures"]
            for row in fig["rows"]
        ]
        cached = sum(1 for row in rows if row["cached"])
        check(
            cached >= completed_before,
            f"{label}: only {cached} cache hits for {completed_before} "
            "points completed before the kill",
        )
        print(
            f"PASS {label}: {completed_before} point(s) survived the kill, "
            f"{cached}/{len(rows)} served from cache on resume"
        )


def main() -> int:
    started = time.monotonic()
    kill_resume_run()
    kill_resume_sweep()
    print(f"recovery smoke passed in {time.monotonic() - started:.1f}s")
    return 0


if __name__ == "__main__":
    sys.exit(main())

"""Deterministic checkpoint/resume: the crash-safety oracle.

The contract under test: a run that is checkpointed, killed, and resumed
from its latest snapshot produces final statistics *bit-identical* to the
same run executed without interruption — across workloads and protocols
— and the cycle counts match the committed resume goldens,
so a semantic drift in either the simulator or the snapshot layer fails
loudly here.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from pathlib import Path

import pytest

from repro.machine import AlewifeConfig, run_experiment
from repro.recover import (
    CheckpointError,
    CheckpointInterrupted,
    SnapshotDrift,
    latest_snapshot,
    read_snapshot,
    resume_run,
    run_with_checkpoints,
)
from repro.recover.snapshot import list_snapshots
from repro.sweep.spec import WorkloadSpec

GOLDENS = json.loads(
    (Path(__file__).parent / "resume_goldens.json").read_text()
)

WORKLOADS = {
    "weather": WorkloadSpec("weather", {"iterations": 2}),
    "multigrid": WorkloadSpec(
        "multigrid", {"levels": [2, 2], "points_per_proc": 8}
    ),
}


def _config(protocol: str) -> AlewifeConfig:
    return AlewifeConfig(n_procs=16, protocol=protocol, pointers=4, ts=50)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
@pytest.mark.parametrize("protocol", ["fullmap", "limitless"])
def test_interrupted_resume_is_bit_identical(tmp_path, workload, protocol):
    config = _config(protocol)
    spec = WORKLOADS[workload]
    golden = run_experiment(config, spec.build())

    with pytest.raises(CheckpointInterrupted):
        run_with_checkpoints(
            config, spec, every=300, out_dir=tmp_path, stop_after=1
        )
    snap_path = latest_snapshot(tmp_path)
    assert snap_path is not None
    assert read_snapshot(snap_path).cycle < golden.cycles
    resumed = resume_run(snap_path, every=300)

    assert resumed.to_dict() == golden.to_dict()
    assert resumed.cycles == GOLDENS[f"{workload}/{protocol}/k1"]


def test_uninterrupted_checkpointed_run_matches_plain(tmp_path):
    config = _config("limitless")
    spec = WORKLOADS["weather"]
    golden = run_experiment(config, spec.build())
    stats = run_with_checkpoints(config, spec, every=300, out_dir=tmp_path)
    assert stats.to_dict() == golden.to_dict()
    # Snapshots land on exact multiples of the interval.
    cycles = [s.cycle for s in map(read_snapshot, list_snapshots(tmp_path))]
    assert cycles and all(c % 300 == 0 for c in cycles)


def test_repeated_interruptions_converge(tmp_path):
    """Kill after every snapshot; each resume still reaches the golden."""
    config = _config("limitless")
    spec = WORKLOADS["weather"]
    golden = run_experiment(config, spec.build())
    try:
        run_with_checkpoints(
            config, spec, every=300, out_dir=tmp_path, stop_after=1
        )
        pytest.fail("expected an interruption")
    except CheckpointInterrupted:
        pass
    stats = None
    for _ in range(20):
        try:
            stats = resume_run(
                latest_snapshot(tmp_path), every=300, stop_after=1
            )
            break
        except CheckpointInterrupted:
            continue
    assert stats is not None, "never converged"
    assert stats.to_dict() == golden.to_dict()


def test_digest_mismatch_is_drift(tmp_path):
    config = _config("fullmap")
    spec = WORKLOADS["weather"]
    with pytest.raises(CheckpointInterrupted):
        run_with_checkpoints(
            config, spec, every=300, out_dir=tmp_path, stop_after=1
        )
    snap = read_snapshot(latest_snapshot(tmp_path))
    forged = replace(snap, digest="0" * 64)
    with pytest.raises(SnapshotDrift):
        resume_run(forged, out_dir=tmp_path)


def test_config_mismatch_is_drift(tmp_path):
    """A tampered config diverges the replay; the digest check refuses it.

    (The config swap has to actually change the simulated state by the
    marker's cycle — a different RNG seed diverges from cycle zero.)
    """
    config = _config("fullmap")
    spec = WORKLOADS["weather"]
    with pytest.raises(CheckpointInterrupted):
        run_with_checkpoints(
            config, spec, every=300, out_dir=tmp_path, stop_after=1
        )
    snap = read_snapshot(latest_snapshot(tmp_path))
    other = replace(
        snap, config=asdict(replace(config, seed=config.seed + 1))
    )
    with pytest.raises(SnapshotDrift):
        resume_run(other, out_dir=tmp_path)


def test_source_fingerprint_mismatch_is_drift(tmp_path):
    config = _config("fullmap")
    spec = WORKLOADS["weather"]
    with pytest.raises(CheckpointInterrupted):
        run_with_checkpoints(
            config, spec, every=300, out_dir=tmp_path, stop_after=1
        )
    snap = replace(
        read_snapshot(latest_snapshot(tmp_path)), fingerprint="deadbeef"
    )
    with pytest.raises(SnapshotDrift):
        resume_run(snap, out_dir=tmp_path)
    # ... unless the caller explicitly opts out of the source check.
    stats = resume_run(snap, out_dir=tmp_path, check_source=False)
    assert stats.cycles == GOLDENS["weather/fullmap/k1"]


def test_unknown_snapshot_version_rejected(tmp_path):
    config = _config("fullmap")
    spec = WORKLOADS["weather"]
    with pytest.raises(CheckpointInterrupted):
        run_with_checkpoints(
            config, spec, every=300, out_dir=tmp_path, stop_after=1
        )
    path = list_snapshots(tmp_path)[-1]
    blob = json.loads(path.read_text())
    blob["version"] = 999
    path.write_text(json.dumps(blob))
    with pytest.raises(ValueError):
        read_snapshot(path)


def test_checkpoint_requires_interval_or_snapshot(tmp_path):
    with pytest.raises(CheckpointError):
        run_with_checkpoints(
            _config("fullmap"), WORKLOADS["weather"], out_dir=tmp_path
        )
    with pytest.raises(CheckpointError):
        run_with_checkpoints(
            _config("fullmap"),
            WORKLOADS["weather"],
            every=0,
            out_dir=tmp_path,
        )

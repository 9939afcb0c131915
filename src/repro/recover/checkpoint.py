"""Checkpointed runs and verified resume.

The driver pauses the simulation only at consistent instants — between
events at an exact cycle — writes a replay marker there, and continues.
Resume replays the run from cycle zero (generator-based workload
programs cannot be serialized), verifies the state digest when it passes
the marker, and runs to completion; the final stats are therefore
bit-identical to an uninterrupted run, and the digest check turns
"should be identical" into "verified identical".
"""

from __future__ import annotations

from dataclasses import asdict
from pathlib import Path
from typing import Optional

from ..machine.config import AlewifeConfig
from ..machine.machine import AlewifeMachine, MachineStats
from ..sweep.cache import SourceFingerprint
from ..sweep.spec import WorkloadSpec
from .snapshot import (
    Snapshot,
    list_snapshots,
    make_snapshot,
    read_snapshot,
    snapshot_path,
    state_digest,
)


class CheckpointError(Exception):
    """A checkpoint/resume request that cannot be honored."""


class SnapshotDrift(CheckpointError):
    """The replay diverged from the snapshot — nondeterminism or a
    changed source tree/config.  The resume refuses to continue rather
    than silently produce different numbers."""


class CheckpointInterrupted(Exception):
    """Control-flow exception for the ``stop_after`` crash-emulation hook
    (tests and the chaos supervisor's in-process mode): the run stopped
    cleanly right after writing ``snapshot``."""

    def __init__(self, snapshot: Path, cycle: int):
        super().__init__(
            f"run interrupted at cycle {cycle} after writing {snapshot}"
        )
        self.snapshot = snapshot
        self.cycle = cycle


def latest_snapshot(directory: Path | str) -> Optional[Path]:
    """The most recent snapshot in a checkpoint directory, or None."""
    snaps = list_snapshots(directory)
    return snaps[-1] if snaps else None


class _Checkpointer:
    """Boundary logic of the checkpoint driver: verify-then-write.

    While a resume marker is pending, every boundary below its cycle is
    skipped, the boundary *at* its cycle must reproduce its digest, and
    overshooting it is drift (the replay no longer visits the instant the
    snapshot was taken at).  Once verified — or from the start of a fresh
    run — a snapshot is written at the first boundary at or past each
    ``every``-cycle deadline.
    """

    def __init__(
        self,
        config: AlewifeConfig,
        spec: WorkloadSpec,
        *,
        every: Optional[int],
        out_dir: Path,
        fingerprint: str,
        stop_after: Optional[int] = None,
        resume_from: Optional[Snapshot] = None,
    ):
        self.config = config
        self.spec = spec
        self.every = every
        self.out_dir = Path(out_dir)
        self.fingerprint = fingerprint
        self.stop_after = stop_after
        self.resume_from = resume_from
        self.verified = resume_from is None
        self.written = 0
        if resume_from is not None:
            self.next_due = resume_from.cycle + (every or 0)
        else:
            self.next_due = every or 0

    @property
    def resume_cycle(self) -> Optional[int]:
        return None if self.resume_from is None else self.resume_from.cycle

    def boundary(self, cycle: int, machine: AlewifeMachine) -> None:
        """Called at every consistent instant with work still remaining."""
        if not self.verified:
            snap = self.resume_from
            assert snap is not None
            if cycle < snap.cycle:
                return
            if cycle > snap.cycle:
                raise SnapshotDrift(
                    f"replay reached boundary {cycle} without passing the "
                    f"snapshot's cycle {snap.cycle} — the run no longer "
                    f"visits the instant the snapshot was taken at"
                )
            digest = state_digest(machine)
            if digest != snap.digest:
                raise SnapshotDrift(
                    f"state digest mismatch at cycle {cycle}: snapshot "
                    f"{snap.digest[:16]}…, replay {digest[:16]}… — the "
                    f"simulation did not reproduce the checkpointed state"
                )
            self.verified = True
            return
        if self.every is None or cycle < self.next_due:
            return
        snap = make_snapshot(
            self.config,
            self.spec.key_dict(),
            machine,
            cycle,
            fingerprint=self.fingerprint,
        )
        path = snap.write(snapshot_path(self.out_dir, cycle))
        self.written += 1
        self.next_due = cycle + self.every
        if self.stop_after is not None and self.written >= self.stop_after:
            raise CheckpointInterrupted(path, cycle)

    def finish(self) -> None:
        """Sanity hook after the run drains: an unverified resume means
        the replay finished before ever reaching the marker."""
        if not self.verified:
            snap = self.resume_from
            assert snap is not None
            raise SnapshotDrift(
                f"replay completed without reaching snapshot cycle "
                f"{snap.cycle} — source tree or configuration drift"
            )


def _checkpoint_driver(machine: AlewifeMachine, cp: _Checkpointer) -> None:
    """Checkpoint-aware replacement for ``sim.run()``.

    Pausing ``run(until=...)`` at exact cycles never reorders events, so
    the executed event sequence — and every statistic — is identical to
    an unpaused run.
    """
    sim = machine.sim
    max_cycles = machine.config.max_cycles
    target = cp.resume_cycle
    if target is not None and target > sim.now:
        sim.run(until=min(target, max_cycles))
        cp.boundary(sim.now, machine)
    while True:
        if cp.every is None:
            sim.run()
            return
        limit = min(((sim.now // cp.every) + 1) * cp.every, max_cycles)
        sim.run(until=limit)
        if not sim.pending_events or limit >= max_cycles:
            # Drained (done) or budget exhausted (the caller's laggard
            # check reports it) — either way, no more boundaries.
            return
        cp.boundary(limit, machine)


def _resolve_spec(workload: dict) -> WorkloadSpec:
    return WorkloadSpec(workload["name"], dict(workload.get("params", {})))


def run_with_checkpoints(
    config: AlewifeConfig,
    spec: WorkloadSpec,
    *,
    every: Optional[int] = None,
    out_dir: Path | str,
    stop_after: Optional[int] = None,
    resume_from: Snapshot | Path | str | None = None,
    check_source: bool = True,
) -> MachineStats:
    """Run one experiment, writing a snapshot every ``every`` cycles.

    ``resume_from`` (a :class:`Snapshot` or a path to one) replays the
    run and verifies the marker's digest on the way through; drift raises
    :class:`SnapshotDrift` instead of continuing.  ``stop_after=N``
    emulates a crash by raising :class:`CheckpointInterrupted` right
    after the N-th snapshot is written.  ``every=None`` with a resume
    marker verifies without writing further snapshots.
    """
    if every is not None and every <= 0:
        raise CheckpointError("checkpoint interval must be a positive cycle count")
    if every is None and resume_from is None:
        raise CheckpointError("nothing to do: no interval and no resume marker")
    snap: Optional[Snapshot] = None
    if resume_from is not None:
        snap = (
            resume_from
            if isinstance(resume_from, Snapshot)
            else read_snapshot(resume_from)
        )
        if snap.config != asdict(config):
            raise CheckpointError(
                "snapshot was taken under a different machine configuration; "
                "resume with the snapshot's own config (repro run --resume "
                "does this automatically)"
            )
        if snap.workload != spec.key_dict():
            raise CheckpointError(
                f"snapshot records workload {snap.workload!r}, "
                f"not {spec.key_dict()!r}"
            )
    fingerprint = SourceFingerprint().value()
    if snap is not None and check_source and snap.fingerprint != fingerprint:
        raise SnapshotDrift(
            "the simulator source tree changed since the snapshot was "
            "written; its digest is no longer comparable (re-run from "
            "scratch, or pass check_source=False to gamble)"
        )

    cp = _Checkpointer(
        config,
        spec,
        every=every,
        out_dir=Path(out_dir),
        fingerprint=fingerprint,
        stop_after=stop_after,
        resume_from=snap,
    )
    stats = AlewifeMachine(config).run(
        spec.build(), driver=lambda machine: _checkpoint_driver(machine, cp)
    )
    cp.finish()
    return stats


def resume_run(
    snapshot: Path | str | Snapshot,
    *,
    every: Optional[int] = None,
    out_dir: Path | str | None = None,
    stop_after: Optional[int] = None,
    check_source: bool = True,
) -> MachineStats:
    """Resume a run from a snapshot file; config and workload come from
    the marker itself, so the caller cannot accidentally diverge."""
    path: Optional[Path] = None
    if isinstance(snapshot, Snapshot):
        snap = snapshot
    else:
        path = Path(snapshot)
        snap = read_snapshot(path)
    if out_dir is None:
        out_dir = path.parent if path is not None else Path(".")
    config = AlewifeConfig(**snap.config)
    spec = _resolve_spec(snap.workload)
    return run_with_checkpoints(
        config,
        spec,
        every=every,
        out_dir=out_dir,
        stop_after=stop_after,
        resume_from=snap,
        check_source=check_source,
    )

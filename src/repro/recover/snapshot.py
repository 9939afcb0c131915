"""Versioned on-disk snapshot format + the machine-state digest.

A snapshot file is one JSON object (write-then-rename, so a crash never
leaves a torn file) recording everything needed to *reproduce* the run —
the full machine configuration, the workload spec, the source
fingerprint — plus the cycle it was taken at and a SHA-256 digest of the
live machine state at that cycle.  The digest folds in the kernel clock
and event-queue accounting, every node's counters, the machine-wide
cache-holdings map, directory-entry worker sets, network stats, and the
positions of every RNG substream: any divergence between the original
run and its replay perturbs at least one of these with overwhelming
probability, so the resume path can *verify* determinism rather than
assume it.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import TYPE_CHECKING, Any

from ..verify.invariants import cache_holdings

if TYPE_CHECKING:  # pragma: no cover
    from ..machine.machine import AlewifeMachine

#: Snapshot format version; bump when the schema or digest recipe changes
#: (a digest from another recipe must never be compared against ours).
SNAPSHOT_VERSION = 2


def _machine_state(machine: "AlewifeMachine") -> dict:
    """The digestible state of one machine."""
    sim = machine.sim
    counters = {
        node.node_id: node.counters.as_dict() for node in machine.nodes
    }
    worker_sets: dict[int, list] = {
        node.node_id: sorted(
            node.directory_controller.worker_sets.counts.items()
        )
        for node in machine.nodes
    }
    procs = {
        node.node_id: [
            node.processor.done,
            node.processor.busy_cycles,
            node.processor.traps_taken,
            node.processor.trap_cycles,
        ]
        for node in machine.nodes
    }
    rng = hashlib.sha256()
    for name in sorted(machine.rng._streams):
        rng.update(name.encode())
        rng.update(repr(machine.rng._streams[name].getstate()).encode())
    return {
        "sim": [
            sim.now,
            sim._seq,
            sim.events_executed,
            sim.pending_events,
        ],
        "counters": counters,
        "worker_sets": worker_sets,
        "procs": procs,
        "holdings": cache_holdings(machine.nodes),
        "network": asdict(machine.network.stats),
        "rng": rng.hexdigest(),
    }


def state_digest(machine: "AlewifeMachine") -> str:
    """SHA-256 over the canonical state of one machine.

    The machine must sit at a consistent instant: between events, as the
    checkpoint driver leaves it when ``run(until=...)`` returns.
    """
    blob = json.dumps(
        _machine_state(machine), sort_keys=True, separators=(",", ":")
    )
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


@dataclass
class Snapshot:
    """One replay marker: run identity + consistent-instant digest."""

    config: dict
    workload: dict  # {"name": ..., "params": {...}} (WorkloadSpec shape)
    cycle: int
    digest: str
    fingerprint: str
    version: int = SNAPSHOT_VERSION

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=1)

    @classmethod
    def from_json(cls, text: str) -> "Snapshot":
        data = json.loads(text)
        version = data.get("version")
        if version != SNAPSHOT_VERSION:
            raise ValueError(
                f"snapshot version {version!r} is not supported "
                f"(this build reads version {SNAPSHOT_VERSION})"
            )
        return cls(**data)

    def write(self, path: Path | str) -> Path:
        """Atomic write (tmp + rename) so a crash never leaves a torn file."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(".tmp")
        tmp.write_text(self.to_json())
        tmp.replace(path)
        return path


def read_snapshot(path: Path | str) -> Snapshot:
    return Snapshot.from_json(Path(path).read_text())


def snapshot_path(directory: Path | str, cycle: int) -> Path:
    return Path(directory) / f"snap-{cycle:012d}.json"


def list_snapshots(directory: Path | str) -> list[Path]:
    """Snapshot files in a checkpoint directory, oldest first."""
    directory = Path(directory)
    if not directory.is_dir():
        return []
    return sorted(directory.glob("snap-*.json"))


def make_snapshot(
    config: Any,
    workload: dict,
    machine: "AlewifeMachine",
    cycle: int,
    *,
    fingerprint: str,
) -> Snapshot:
    return Snapshot(
        config=asdict(config),
        workload=workload,
        cycle=cycle,
        digest=state_digest(machine),
        fingerprint=fingerprint,
    )

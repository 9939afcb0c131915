"""Declarative experiment jobs: config + workload *description*.

The parallel runner ships jobs to worker processes and keys the result
cache on job content, so a job cannot hold a live :class:`Workload`
instance (generator state is neither picklable nor hashable).  Instead a
:class:`WorkloadSpec` names a registered workload class plus its
constructor parameters; ``build()`` instantiates a fresh workload in
whatever process runs the job.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import asdict, dataclass, field
from typing import Any, Callable

from ..machine import AlewifeConfig
from ..workloads import (
    ButterflyWorkload,
    HotSpotWorkload,
    LatencyToleranceWorkload,
    MatmulWorkload,
    MigratoryWorkload,
    MultigridWorkload,
    ProducerConsumerWorkload,
    SyntheticSharingWorkload,
    WeatherWorkload,
    Workload,
)

#: Workload classes constructible from JSON-serializable keyword params.
WORKLOAD_REGISTRY: dict[str, type] = {
    "weather": WeatherWorkload,
    "multigrid": MultigridWorkload,
    "hotspot": HotSpotWorkload,
    "migratory": MigratoryWorkload,
    "producer-consumer": ProducerConsumerWorkload,
    "matmul": MatmulWorkload,
    "synthetic": SyntheticSharingWorkload,
    "butterfly": ButterflyWorkload,
    "latency": LatencyToleranceWorkload,
}


@dataclass
class WorkloadSpec:
    """A picklable, hashable-by-content description of one workload."""

    name: str
    params: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.name not in WORKLOAD_REGISTRY:
            raise ValueError(
                f"unknown workload {self.name!r}; choose from "
                f"{sorted(WORKLOAD_REGISTRY)}"
            )

    def build(self) -> Workload:
        """Instantiate a fresh workload (call once per run)."""
        return WORKLOAD_REGISTRY[self.name](**self.params)

    def key_dict(self) -> dict[str, Any]:
        """Canonical content for cache-key hashing (tuples -> lists)."""
        return json.loads(json.dumps({"name": self.name, "params": self.params}))

    def describe(self) -> str:
        params = ", ".join(f"{k}={v}" for k, v in sorted(self.params.items()))
        return f"{self.name}({params})"


#: How each named workload of the CLIs scales with ``procs`` processors and
#: ``iters`` iterations: name -> (registry name, params).  ``repro run``,
#: ``repro profile``, ``repro faults`` and process chaos all read this one
#: table, so a campaign cell re-runs as the same workload under ``repro run``.
_SCALING: dict[str, tuple[str, Callable[[int, int], dict[str, Any]]]] = {
    "weather": ("weather", lambda procs, iters: {"iterations": iters}),
    "weather-optimized": (
        "weather",
        lambda procs, iters: {"iterations": iters, "optimized": True},
    ),
    "multigrid": ("multigrid", lambda procs, iters: {}),
    "hotspot": ("hotspot", lambda procs, iters: {"rounds": iters}),
    "migratory": ("migratory", lambda procs, iters: {"rounds": max(1, iters // 2)}),
    "producer-consumer": (
        "producer-consumer",
        lambda procs, iters: {"epochs": iters},
    ),
    "matmul": ("matmul", lambda procs, iters: {"sweeps": max(1, iters // 2)}),
    "synthetic": (
        "synthetic",
        lambda procs, iters: {
            "worker_sets": [[2, 4], [max(2, procs // 2), 1]],
            "rounds": iters,
        },
    ),
    "butterfly": ("butterfly", lambda procs, iters: {"sweeps": max(1, iters // 2)}),
    "latency": (
        "latency",
        lambda procs, iters: {"total_accesses_per_proc": 12 * iters},
    ),
}

#: Every name :func:`scaled_workload` accepts (the CLIs' workload choices).
SCALED_WORKLOADS: tuple[str, ...] = tuple(sorted(_SCALING))


def scaled_workload(name: str, procs: int, iters: int) -> WorkloadSpec:
    """The named workload scaled to ``procs`` processors and ``iters``
    iterations (the CLIs' ``--procs`` and ``--iterations``/``--iters``)."""
    if name not in _SCALING:
        raise ValueError(
            f"unknown workload {name!r}; choose from {list(SCALED_WORKLOADS)}"
        )
    registry_name, params = _SCALING[name]
    return WorkloadSpec(registry_name, params(procs, iters))


@dataclass
class Job:
    """One grid point: a machine configuration running one workload."""

    label: str
    config: AlewifeConfig
    workload: WorkloadSpec


def job_key(config: AlewifeConfig, workload: WorkloadSpec, fingerprint: str) -> str:
    """Content-addressed cache key for one job.

    Hashes the full machine configuration, the workload spec, and a
    fingerprint of the simulator's own source tree — any change to
    ``src/repro`` invalidates every cached result, which is the only safe
    policy for a simulator whose timing model is the thing under study.
    """
    payload = {
        "config": asdict(config),
        "workload": workload.key_dict(),
        "source": fingerprint,
    }
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()

"""Machine configuration.

Defaults model the Alewife node of §2: a 33 MHz SPARCLE with four hardware
contexts and an 11-cycle context switch, 64 KB direct-mapped cache with
16-byte lines, 4 MB of globally shared memory per node, a wormhole-routed
2-D mesh, and a single-chip cache/memory controller.  ``ts`` is the paper's
T_s — the LimitLESS full-map-emulation latency, estimated at 50–100 cycles
for Alewife and swept 25–150 in the evaluation.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Any

from ..coherence.registry import protocol_names


@dataclass(frozen=True)
class AlewifeConfig:
    """Complete description of one simulated machine."""

    n_procs: int = 64
    protocol: str = "limitless"
    #: hardware pointers per directory entry (the i of Dir_iNB, the p of
    #: LimitLESS_p); ignored by fullmap/chained
    pointers: int = 4
    #: LimitLESS software emulation latency per trap (cycles)
    ts: int = 50
    #: optional additional software cost per invalidation launched by the
    #: write-termination trap handler (0 = the paper's flat-T_s model)
    ts_per_invalidation: int = 0

    # Network
    topology: str = "mesh"  # mesh | torus | omega | crossbar | ideal
    hop_latency: int = 1
    cycles_per_word: int = 1
    injection_latency: int = 1
    ideal_latency: int = 8

    # Memory system
    block_bytes: int = 16
    segment_bytes: int = 1 << 22
    cache_lines: int = 4096
    cache_hit_latency: int = 1
    dir_occupancy: int = 3
    retry_base: int = 12
    retry_cap: int = 400

    # Processor
    switch_cycles: int = 11
    max_contexts: int = 4
    spin_poll_interval: int = 12
    #: "sc" = sequentially consistent (stores block, as in Alewife);
    #: "wo" = weakly ordered (stores buffered, fences/atomics order) — the
    #: §2 note that LimitLESS also works under weak ordering
    memory_model: str = "sc"
    #: outstanding-store capacity per context under "wo"
    store_buffer: int = 8

    # Fault injection (per-packet probabilities; all zero = faults off and
    # the machine is wired exactly as before, bit-identical to the goldens)
    fault_drop_rate: float = 0.0
    fault_dup_rate: float = 0.0
    fault_delay_rate: float = 0.0
    #: extra delivery delay drawn uniformly from [1, fault_delay_max] cycles
    fault_delay_max: int = 64
    fault_corrupt_rate: float = 0.0
    #: probability a LimitLESS trap-handler invocation is stalled
    fault_stall_rate: float = 0.0
    #: extra cycles added to a stalled trap invocation
    fault_stall_cycles: int = 500

    # Protocol fault tolerance (0 = derive a default when faults are on)
    #: cycles a cache waits on an outstanding RREQ/WREQ (or buffered
    #: writeback) before retransmitting
    request_timeout: int = 0
    #: cycles the directory waits on outstanding invalidation acks before
    #: retransmitting the INV round
    inv_timeout: int = 0
    #: invalidation retransmission rounds before a write transaction falls
    #: back to broadcast-invalidate directory reconstruction
    inv_retx_broadcast: int = 3
    #: liveness watchdog check period (0 = derive when faults are on)
    watchdog_interval: int = 0

    # Simulation
    #: simulation backend: "reference" is the pure-Python golden object
    #: model; "soa" stores cache/directory state in structure-of-arrays
    #: slabs; "native" runs compiled kernels over them — bit-identical
    #: results (see repro.backend / docs/BACKENDS.md)
    backend: str = "reference"
    seed: int = 42
    max_cycles: int = 50_000_000
    ipi_capacity: int = 4096
    #: recycle protocol packets through a machine-wide free list.  An
    #: allocator choice only — results are bit-identical either way; the
    #: off switch exists for debugging packet-lifetime bugs.
    packet_pool: bool = True

    @property
    def faults_enabled(self) -> bool:
        """True when any fault-injection rate is non-zero."""
        return (
            self.fault_drop_rate > 0
            or self.fault_dup_rate > 0
            or self.fault_delay_rate > 0
            or self.fault_corrupt_rate > 0
            or self.fault_stall_rate > 0
        )

    def __post_init__(self) -> None:
        if self.n_procs < 1:
            raise ValueError("need at least one processor")
        if self.protocol not in protocol_names():
            raise ValueError(
                f"unknown protocol {self.protocol!r}; choose from {protocol_names()}"
            )
        if self.pointers < 0:
            raise ValueError("pointer count must be >= 0")
        if self.protocol in ("limited", "limited_broadcast") and self.pointers < 1:
            raise ValueError("limited directories need at least one pointer")
        if self.memory_model not in ("sc", "wo"):
            raise ValueError("memory_model must be 'sc' or 'wo'")
        from ..backend import backend_names  # local import: avoids a cycle

        if self.backend not in backend_names():
            raise ValueError(
                f"unknown backend {self.backend!r}; "
                f"choose from {backend_names()}"
            )
        for latency_field in (
            "ts",
            "ts_per_invalidation",
            "hop_latency",
            "cycles_per_word",
            "injection_latency",
            "ideal_latency",
            "cache_hit_latency",
            "dir_occupancy",
            "switch_cycles",
            "spin_poll_interval",
            "retry_base",
            "retry_cap",
        ):
            latency = getattr(self, latency_field)
            if latency < 0:
                raise ValueError(f"{latency_field} must be >= 0, got {latency}")
        for capacity_field in ("max_contexts", "store_buffer"):
            capacity = getattr(self, capacity_field)
            if capacity < 1:
                raise ValueError(f"{capacity_field} must be >= 1, got {capacity}")
        for rate_field in (
            "fault_drop_rate",
            "fault_dup_rate",
            "fault_delay_rate",
            "fault_corrupt_rate",
            "fault_stall_rate",
        ):
            rate = getattr(self, rate_field)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{rate_field} must be in [0, 1], got {rate}")
        if self.fault_delay_max < 1:
            raise ValueError("fault_delay_max must be >= 1")
        if self.inv_retx_broadcast < 1:
            raise ValueError("inv_retx_broadcast must be >= 1")

    def with_(self, **changes: Any) -> "AlewifeConfig":
        """A copy with the given fields replaced."""
        return replace(self, **changes)

    def label(self) -> str:
        """Short protocol label in the paper's notation."""
        if self.protocol == "fullmap":
            return "Full-Map"
        if self.protocol == "limited":
            return f"Dir{self.pointers}NB"
        if self.protocol == "limited_broadcast":
            return f"Dir{self.pointers}B"
        if self.protocol == "limitless":
            return f"LimitLESS{self.pointers} (Ts={self.ts})"
        if self.protocol == "limitless_approx":
            return f"LimitLESS{self.pointers}~approx (Ts={self.ts})"
        if self.protocol == "chained":
            return "Chained"
        if self.protocol == "trap_always":
            return f"Software-only (Ts={self.ts})"
        return self.protocol

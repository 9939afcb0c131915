"""Host-side profiling harness behind ``repro profile``.

Runs one experiment under :mod:`cProfile` (where does the *wall clock* go?)
and optionally :mod:`tracemalloc` (where do the *allocations* come from?),
then attributes the *simulated* cycles to machine components from the run's
own counters.  The three views together answer the zero-allocation
questions: which Python frames dominate an event, which call sites still
allocate, and whether the simulated machine is processor-, trap- or
network-bound.

The cProfile data can also be dumped as folded stacks (one
``frame;frame;frame count`` line per hot function, dominant-caller chain)
for any flamegraph renderer.
"""

from __future__ import annotations

import cProfile
import os
import time
import tracemalloc
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Optional

from ..backend import get_backend, native as native_backend
from ..machine import AlewifeConfig, AlewifeMachine

if TYPE_CHECKING:  # pragma: no cover
    from ..machine import MachineStats
    from ..workloads.base import Workload

#: (file, line, name) triple as cProfile keys functions.
FuncKey = tuple

# ----------------------------------------------------------------------
# cProfile helpers
# ----------------------------------------------------------------------


def _func_label(func: FuncKey) -> str:
    filename, line, name = func
    if filename == "~":  # C builtins have no source location
        return name
    return f"{os.path.basename(filename)}:{line}:{name}"


def hot_functions(raw: dict, *, top: int, sort: str = "cumulative") -> list[dict]:
    """Top functions from a cProfile stats dict, as plain records."""
    key = (lambda item: item[1][3]) if sort == "cumulative" else (
        lambda item: item[1][2]
    )
    rows = []
    for func, (cc, nc, tt, ct, _callers) in sorted(
        raw.items(), key=key, reverse=True
    )[:top]:
        rows.append(
            {
                "function": _func_label(func),
                "calls": nc,
                "tottime": round(tt, 4),
                "cumtime": round(ct, 4),
            }
        )
    return rows


def native_component(raw: dict) -> Optional[dict]:
    """One merged row for every compiled ``repro._native`` frame.

    cProfile records the extension's exported builtins (``Core.run``,
    ``Pool.protocol``, ...) as location-less C entries, and it cannot see
    the vectorcall kernel objects (StepKernel, NetSend, RxChain,
    DirKernel) at all — their time is charged to the nearest profiled
    frame, which for a native run is ``Core.run``'s own time.  Summing
    the builtins' tottime therefore *is* the time spent inside the
    extension, and reporting it as one ``backend.native`` component keeps
    compiled time visible in the profile instead of scattering or
    vanishing.  Returns ``None`` when no extension frame ran.
    """
    calls = 0
    tottime = 0.0
    found = False
    for (filename, _line, name), (_cc, nc, tt, _ct, _callers) in raw.items():
        if filename == "~" and "repro._native" in name:
            found = True
            calls += nc
            tottime += tt
    if not found:
        return None
    return {
        "function": "backend.native (compiled kernels)",
        "calls": calls,
        "tottime": round(tottime, 4),
        "cumtime": round(tottime, 4),
    }


def folded_stacks(raw: dict) -> list[str]:
    """Approximate folded stacks (flamegraph input) from cProfile data.

    cProfile keeps a caller *graph*, not full stacks, so each function is
    attributed one stack: its dominant-caller chain (walk up through the
    caller contributing the most cumulative time).  Weights are the
    function's own time in microseconds — the flamegraph's leaf widths are
    exact, the paths are the most likely ones.
    """
    lines: list[str] = []
    for func, (_cc, _nc, tt, _ct, callers) in raw.items():
        if tt <= 0:
            continue
        stack = [func]
        seen = {func}
        up = callers
        while up:
            caller = max(up, key=lambda k: up[k][3])
            if caller in seen:
                break
            stack.append(caller)
            seen.add(caller)
            up = raw.get(caller, (0, 0, 0.0, 0.0, {}))[4]
        lines.append(
            ";".join(_func_label(f) for f in reversed(stack))
            + f" {max(1, int(tt * 1_000_000))}"
        )
    lines.sort()
    return lines


def _allocation_sites(snapshot, *, top: int) -> list[dict]:
    rows = []
    for stat in snapshot.statistics("lineno")[:top]:
        frame = stat.traceback[0]
        rows.append(
            {
                "site": f"{os.path.basename(frame.filename)}:{frame.lineno}",
                "size_kib": round(stat.size / 1024, 1),
                "count": stat.count,
            }
        )
    return rows


# ----------------------------------------------------------------------
# The profiled run
# ----------------------------------------------------------------------


@dataclass
class ProfileReport:
    """Everything one profiled run learned, renderable or JSON-able."""

    stats: "MachineStats"
    wall_seconds: float
    events_executed: int
    hot: list[dict]
    allocations: list[dict]
    attribution: dict[str, int]
    pool: dict[str, int]
    folded: list[str] = field(default_factory=list)
    worker_sets: dict[int, int] | None = None
    #: which simulation backend executed the run — throughput numbers are
    #: only comparable within one backend
    backend: str = "reference"
    #: merged cProfile row for the compiled extension (None when no
    #: ``repro._native`` frame ran, i.e. every non-native run)
    native: Optional[dict] = None
    #: the backend bundle's status note (e.g. the native backend's
    #: compiled/fallback state) — surfaced so a profile of the reference
    #: fallback can never be mistaken for a compiled measurement
    backend_notes: Optional[str] = None
    #: what the compiled kernels handed back to Python, summed over
    #: processors (None: no compiled step ran): ``"op"`` counts ops given
    #: to ``_execute_op``, every other key is a reason a step of the miss
    #: transaction (the cache side's issue, fill, invalidate; the
    #: directory's receive and process, whose own reasons start ``dir_``)
    #: ran its Python method — ``repro.backend.native.fallthroughs(machine)``.
    #: All zero means neither layer left C.
    native_fallthroughs: Optional[dict] = None

    @property
    def events_per_sec(self) -> float:
        return self.events_executed / self.wall_seconds if self.wall_seconds else 0.0

    def to_dict(self) -> dict:
        return {
            "label": self.stats.label,
            "backend": self.backend,
            "cycles": self.stats.cycles,
            "wall_seconds": round(self.wall_seconds, 4),
            "events_executed": self.events_executed,
            "events_per_sec": round(self.events_per_sec),
            "backend_notes": self.backend_notes,
            "native_fallthroughs": self.native_fallthroughs,
            "hot_functions": self.hot,
            "backend_native": self.native,
            "allocation_sites": self.allocations,
            "cycle_attribution": self.attribution,
            "packet_pool": self.pool,
            "worker_sets": self.worker_sets,
        }

    def render(self) -> str:
        lines = [
            f"{self.stats.label}: {self.stats.cycles:,} simulated cycles in "
            f"{self.wall_seconds:.3f}s wall "
            f"({self.events_executed:,} events, {self.events_per_sec:,.0f}/s, "
            f"{self.backend} backend)",
        ]
        if self.backend_notes:
            lines.append(f"backend: {self.backend_notes}")
        if self.native_fallthroughs is not None:
            reasons = dict(self.native_fallthroughs)
            lines.append(
                f"processor-step fall-throughs to Python: {reasons.pop('op'):,}"
            )
            counters = self.stats.counters
            directory = {
                reason: reasons.pop(reason)
                for reason in list(reasons)
                if reason.startswith("dir_")
            }
            steps = sum(
                counters.get(f"cache.{name}")
                for name in (
                    "misses.load", "misses.store", "misses.rmw",
                    "fills", "inv_received",
                )
            )
            for label, handed, total, of in (
                ("miss-transaction", reasons, steps,
                 "issues, fills and invalidations"),
                ("directory", directory, counters.get("dir.packets"),
                 "directory packets"),
            ):
                named = ", ".join(
                    f"{reason} {count:,}" for reason, count in handed.items() if count
                )
                lines.append(
                    f"{label} hand-backs to Python: {sum(handed.values()):,} "
                    f"of {total:,} {of}" + (f" ({named})" if named else "")
                )
        if self.native is not None:
            lines.append(
                f"compiled component backend.native: "
                f"{self.native['tottime']:.3f}s across "
                f"{self.native['calls']:,} extension calls"
            )
        lines += ["", "simulated-cycle attribution:"]
        budget = max(1, self.attribution.get("cycle_budget", 1))
        for name, value in self.attribution.items():
            if name in ("simulated_cycles", "cycle_budget"):
                continue
            share = (
                f" ({value / budget:6.1%} of cycle budget)"
                if name.endswith("_cycles")
                else ""
            )
            lines.append(f"  {name:28s} {value:>14,}{share}")
        lines.append("")
        lines.append("packet pool: " + ", ".join(f"{k}={v:,}" for k, v in self.pool.items()))
        if self.hot:
            lines.append("")
            lines.append(
                f"{'calls':>10}  {'tottime':>8}  {'cumtime':>8}  hot function"
            )
            for row in self.hot:
                lines.append(
                    f"{row['calls']:>10,}  {row['tottime']:>8.3f}  "
                    f"{row['cumtime']:>8.3f}  {row['function']}"
                )
        if self.allocations:
            lines.append("")
            lines.append(f"{'KiB':>10}  {'blocks':>10}  allocation site")
            for row in self.allocations:
                lines.append(
                    f"{row['size_kib']:>10,.1f}  {row['count']:>10,}  {row['site']}"
                )
        if self.worker_sets is not None:
            lines.append("")
            if self.worker_sets:
                lines.append("overflowed worker-sets (block -> peak sharers):")
                for block, peak in sorted(
                    self.worker_sets.items(), key=lambda kv: -kv[1]
                )[:16]:
                    lines.append(f"  {block:#010x}  {peak}")
            else:
                lines.append("overflowed worker-sets: none")
        return "\n".join(lines)


def profile_run(
    config: AlewifeConfig,
    workload: "Workload",
    *,
    top: int = 15,
    sort: str = "cumulative",
    alloc_top: int = 10,
    folded: bool = False,
    worker_sets: bool = False,
    trap_addresses: Optional[list[int]] = None,
) -> ProfileReport:
    """Run ``workload`` on a fresh machine under the profilers.

    ``trap_addresses`` additionally places those addresses in Trap-Always
    mode and attaches the §6 :class:`~repro.profiling.memory.MemoryProfiler`
    (software-extended protocols only).  Audit is skipped: the audit walk
    is post-run host code that would pollute the profile.
    """
    machine = AlewifeMachine(config)
    memory_profiler = None
    if trap_addresses:
        from .memory import profile_blocks

        memory_profiler = profile_blocks(machine, trap_addresses)

    if alloc_top > 0:
        tracemalloc.start()
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    stats = machine.run(workload, audit=False)
    profiler.disable()
    wall = time.perf_counter() - start
    if alloc_top > 0:
        snapshot = tracemalloc.take_snapshot()
        tracemalloc.stop()
        allocations = _allocation_sites(snapshot, top=alloc_top)
    else:
        allocations = []

    profiler.create_stats()
    raw = profiler.stats

    counters = stats.counters
    link_busy = getattr(machine.network, "link_busy_cycles", None) or {}
    attribution = {
        "simulated_cycles": stats.cycles,
        # every *_cycles row below is summed across components, so shares
        # are of this machine-wide budget (cycles x processors)
        "cycle_budget": stats.cycles * config.n_procs,
        "cpu_busy_cycles": sum(
            node.processor.busy_cycles for node in machine.nodes
        ),
        "cpu_think_cycles": counters.get("cpu.think_cycles"),
        "trap_cycles": stats.trap_cycles,
        "remote_stalls": counters.get("cpu.remote_stalls"),
        "local_stalls": counters.get("cpu.local_stalls"),
        "network_contention_cycles": stats.network.contention_cycles,
        "link_busy_cycles": sum(link_busy.values()),
        "protocol_packets": stats.network.packets,
        "traps_taken": stats.traps_taken,
    }
    pool = machine.pool
    pool_stats = {
        "enabled": int(pool.enabled),
        "allocated": pool.allocated,
        "recycled": pool.recycled,
        "free": len(pool),
    }

    report = ProfileReport(
        stats=stats,
        wall_seconds=wall,
        events_executed=machine.sim.events_executed,
        hot=hot_functions(raw, top=top, sort=sort),
        allocations=allocations,
        attribution=attribution,
        pool=pool_stats,
        folded=folded_stacks(raw) if folded else [],
        worker_sets=overflow_report(machine) if worker_sets else None,
        backend=config.backend,
        native=native_component(raw),
        backend_notes=get_backend(config.backend).notes,
        native_fallthroughs=native_backend.fallthroughs(machine),
    )
    if memory_profiler is not None:
        report.worker_sets = report.worker_sets or {}
        for block, readers in memory_profiler.readers.items():
            report.worker_sets[block] = max(
                report.worker_sets.get(block, 0), len(readers)
            )
    return report


def overflow_report(machine) -> dict[int, int]:
    from .memory import overflow_worker_sets

    return overflow_worker_sets(machine)

"""The Alewife machine: nodes + network + experiment driver.

``AlewifeMachine(config).run(workload)`` builds the machine, loads the
workload's programs into the processors, runs the event simulation until
every program finishes, audits the coherence invariants, and returns a
:class:`MachineStats` with the absolute execution time in cycles — the
paper's bottom-line metric ("how fast a system can run a program", §5).
"""

from __future__ import annotations

import gc
from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable

from ..backend import get_backend
from ..faults import FaultInjector, LivenessWatchdog
from ..mem.address import AddressSpace, Allocator
from ..network.fabric import IdealNetwork, Network, NetworkStats
from ..network.packet import PacketPool
from ..network.topology import make_topology
from ..sim.kernel import SimulationError
from ..sim.rng import DeterministicRng
from ..stats.counters import Counters, Histogram
from ..verify.diagnose import LivenessError, diagnose
from ..verify.invariants import audit_machine
from .config import AlewifeConfig
from .node import Node

if TYPE_CHECKING:  # pragma: no cover
    from ..workloads.base import Workload


@dataclass
class MachineStats:
    """Results of one complete simulation."""

    config: AlewifeConfig
    cycles: int
    counters: Counters
    network: NetworkStats
    worker_sets: Histogram
    utilization: float
    mean_miss_latency: float
    traps_taken: int
    trap_cycles: int
    per_proc_finish: list[int] = field(default_factory=list)
    entries_audited: int = 0

    @property
    def label(self) -> str:
        return self.config.label()

    def mcycles(self) -> float:
        return self.cycles / 1e6

    def summary(self) -> str:
        c = self.counters
        hits = sum(c.get(f"cache.hits.{k}") for k in ("load", "store", "rmw"))
        misses = sum(c.get(f"cache.misses.{k}") for k in ("load", "store", "rmw"))
        ratio = hits / (hits + misses) if hits + misses else 0.0
        return (
            f"{self.label}: {self.cycles} cycles | util {self.utilization:.2f} "
            f"| hit-rate {ratio:.3f} | Th≈{self.mean_miss_latency:.1f} "
            f"| traps {self.traps_taken} | packets {self.network.packets}"
        )

    def to_dict(self) -> dict:
        """JSON-serializable record of the run (the sweep cache format)."""
        return {
            "config": asdict(self.config),
            "cycles": self.cycles,
            "counters": self.counters.as_dict(),
            "network": asdict(self.network),
            "worker_sets": self.worker_sets.as_sorted_items(),
            "utilization": self.utilization,
            "mean_miss_latency": self.mean_miss_latency,
            "traps_taken": self.traps_taken,
            "trap_cycles": self.trap_cycles,
            "per_proc_finish": list(self.per_proc_finish),
            "entries_audited": self.entries_audited,
        }

    @classmethod
    def from_dict(cls, data: dict) -> "MachineStats":
        """Rebuild stats from :meth:`to_dict` output (e.g. a cache hit)."""
        return cls(
            config=AlewifeConfig(**data["config"]),
            cycles=data["cycles"],
            counters=Counters.from_dict(data["counters"]),
            network=NetworkStats(**data["network"]),
            worker_sets=Histogram.from_items(data["worker_sets"]),
            utilization=data["utilization"],
            mean_miss_latency=data["mean_miss_latency"],
            traps_taken=data["traps_taken"],
            trap_cycles=data["trap_cycles"],
            per_proc_finish=list(data["per_proc_finish"]),
            entries_audited=data.get("entries_audited", 0),
        )


class AlewifeMachine:
    """A configured machine instance, ready to run one workload."""

    def __init__(self, config: AlewifeConfig) -> None:
        # Assembly allocates a few ten thousand objects that all live as
        # long as the machine and creates no garbage, so a collection in
        # the middle of it only re-traverses the half-built machine.
        collecting = gc.isenabled()
        gc.disable()
        try:
            self.config = config
            self.backend = get_backend(config.backend)
            self.sim = self.backend.make_simulator(max_cycles=config.max_cycles)
            self.rng = DeterministicRng(config.seed)
            self.space = AddressSpace(
                n_nodes=config.n_procs,
                block_bytes=config.block_bytes,
                segment_bytes=config.segment_bytes,
            )
            self.allocator = Allocator(self.space)
            self.network = self._build_network()
            # One free list per machine instance; every component reaches it
            # through the network.
            pool_factory = self.backend.make_pool or PacketPool
            self.pool = pool_factory(enabled=config.packet_pool)
            self.network.pool = self.pool
            if config.faults_enabled:
                # The injector installs itself as network.fault_injector and
                # takes over delivery scheduling; zero-rate configs skip it
                # entirely so the fast path (and the goldens) are untouched.
                FaultInjector(self.network, self.rng, config)
            self._finished = 0
            self.nodes = [
                Node(
                    self.sim,
                    node_id,
                    config,
                    self.space,
                    self.network,
                    self.rng,
                    on_proc_done=self._proc_done,
                )
                for node_id in range(config.n_procs)
            ]
            if self.backend.finalize is not None:
                self.backend.finalize(self)
        finally:
            if collecting:
                gc.enable()

    def _build_network(self) -> Network:
        cfg = self.config
        if cfg.topology == "ideal":
            return IdealNetwork(
                self.sim,
                cfg.n_procs,
                latency=cfg.ideal_latency,
                cycles_per_word=cfg.cycles_per_word,
            )
        # The mesh is the backend's to provide (native compiles its send).
        return self.backend.wormhole_class(
            self.sim,
            make_topology(cfg.topology, cfg.n_procs),
            hop_latency=cfg.hop_latency,
            cycles_per_word=cfg.cycles_per_word,
            injection_latency=cfg.injection_latency,
        )

    def _proc_done(self, _proc) -> None:
        self._finished += 1

    # ------------------------------------------------------------------
    # Running workloads
    # ------------------------------------------------------------------

    def run(
        self,
        workload: "Workload",
        *,
        audit: bool = True,
        driver: "Callable[[AlewifeMachine], None] | None" = None,
    ) -> MachineStats:
        """Build the workload's programs, simulate to completion, audit.

        ``driver``, when given, replaces the default ``sim.run()`` with a
        caller-controlled advance loop over the same started machine —
        the seam :mod:`repro.recover` uses to pause at checkpoint
        boundaries.  A driver must return only once the event queue has
        drained (or ``max_cycles`` is exhausted); setup, the laggard
        check, the audit, and stats collection are identical either way.
        """
        programs = workload.build(self)
        threads = 0
        for proc_id, generators in programs.items():
            for gen in generators:
                self.nodes[proc_id].processor.add_thread(gen)
                threads += 1
        if not threads:
            raise SimulationError("workload produced no programs")
        for node in self.nodes:
            node.start()
        if self.config.faults_enabled:
            LivenessWatchdog(self, self.config.watchdog_interval or 25_000)
        if driver is None:
            self.sim.run()
        else:
            driver(self)
        laggards = [n.node_id for n in self.nodes if not n.processor.done]
        if laggards:
            raise LivenessError(
                f"simulation stopped at {self.sim.now} cycles with processors "
                f"{laggards[:8]} unfinished (deadlock or max_cycles too small)",
                diagnose(self),
            )
        entries = audit_machine(self) if audit else 0
        return self._collect(entries)

    def harvest(self) -> "Harvest":
        """Aggregate this machine's nodes + network."""
        h = Harvest()
        for node in self.nodes:
            h.counters.merge(node.counters)
            h.worker_sets.counts.update(
                node.directory_controller.worker_sets.counts
            )
            h.miss_total += node.cache_controller.miss_latency_total
            h.miss_count += node.cache_controller.miss_latency_count
            h.traps += node.processor.traps_taken
            h.trap_cycles += node.processor.trap_cycles
            h.busy += node.processor.busy_cycles
            h.finishes[node.node_id] = node.processor.finish_time or 0
        if self.network.fault_injector is not None:
            h.counters.merge(self.network.fault_injector.counters)
        h.network = self.network.stats
        return h

    def _collect(self, entries_audited: int) -> MachineStats:
        return self.harvest().finalize(
            self.config, entries_audited=entries_audited
        )

    def dismantle(self) -> None:
        """Take a finished machine apart so reference counting frees it.

        A wired machine is one large reference cycle — fabric handlers
        back to the NICs, the NIC's handlers back to the controllers,
        each context's completion callback and program generator back to
        its processor, ``on_done`` back to the machine, a fault injector's
        delivery callback back to itself, and on ``native`` the step
        kernels and the event core back to what they drive — so
        a dropped machine otherwise waits for the cyclic collector, and
        on the ``soa``/``native`` backends it holds a 128 KB word slab
        per node while it waits.  Emptying the instance dict of each
        wired part severs all of those edges at once.  The machine is
        unusable afterwards; a :class:`MachineStats` already collected is
        not affected (it shares only the config and the
        :class:`NetworkStats` record, neither of which is touched).
        """
        parts: list = [self.sim, self.network]
        if self.network.fault_injector is not None:
            parts.append(self.network.fault_injector)
        for node in self.nodes:
            for ctx in node.processor.contexts:
                ctx.gen = ctx.mem_done = None  # slotted: no dict to empty
            parts += (
                node.nic,
                node.directory_controller,
                node.directory_controller.directory,
                node.cache_array,
                node.cache_controller,
                node.processor,
            )
            if node.software is not None:
                parts.append(node.software)
        for part in parts:
            vars(part).clear()


@dataclass
class Harvest:
    """Whole-machine aggregation of run results, one step before the
    derived figures of :class:`MachineStats`."""

    counters: Counters = field(default_factory=Counters)
    worker_sets: Histogram = field(default_factory=Histogram)
    miss_total: int = 0
    miss_count: int = 0
    traps: int = 0
    trap_cycles: int = 0
    busy: int = 0
    finishes: dict[int, int] = field(default_factory=dict)
    network: NetworkStats = field(default_factory=NetworkStats)

    def finalize(
        self,
        config: AlewifeConfig,
        *,
        entries_audited: int = 0,
    ) -> MachineStats:
        finishes = [self.finishes[n] for n in sorted(self.finishes)]
        cycles = max(finishes) if finishes else 0
        denom = cycles * len(finishes)
        return MachineStats(
            config=config,
            cycles=cycles,
            counters=self.counters,
            network=self.network,
            worker_sets=self.worker_sets,
            utilization=self.busy / denom if denom else 0.0,
            mean_miss_latency=(
                self.miss_total / self.miss_count if self.miss_count else 0.0
            ),
            traps_taken=self.traps,
            trap_cycles=self.trap_cycles,
            per_proc_finish=finishes,
            entries_audited=entries_audited,
        )


def run_experiment(config: AlewifeConfig, workload: "Workload") -> MachineStats:
    """Convenience one-shot: build a machine, run, return stats.

    Nobody can reach the machine of a one-shot run, so it is dismantled
    before returning: a sweep's memory then tracks one live machine
    instead of however many dead ones the cyclic collector has not got
    to yet.  Build an :class:`AlewifeMachine` and call ``run`` yourself
    to keep it inspectable.

    The built machine is also frozen out of the cyclic collector for the
    run (``gc.freeze``): it lives until ``dismantle`` and is garbage to
    nobody before, yet every young-generation collection the run's
    allocations trigger would otherwise re-traverse it.  The freeze takes
    every object alive at that point, the caller's too, and ``gc.unfreeze``
    lifts it on every way out: nothing stays frozen after a run, including
    anything the caller had frozen before it.
    """
    machine = AlewifeMachine(config)
    gc.freeze()
    try:
        stats = machine.run(workload)
        machine.dismantle()
    finally:
        gc.unfreeze()
    return stats

"""The Alewife machine: nodes + network + experiment driver.

``AlewifeMachine(config).run(workload)`` builds the machine, loads the
workload's programs into the processors, runs the event simulation until
every program finishes, audits the coherence invariants, and returns a
:class:`MachineStats` with the absolute execution time in cycles — the
paper's bottom-line metric ("how fast a system can run a program", §5).
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from typing import TYPE_CHECKING, Callable

from ..backend import get_backend
from ..faults import FaultInjector, LivenessWatchdog, StagedFaultGate
from ..mem.address import AddressSpace, Allocator
from ..network.fabric import (
    IdealNetwork,
    Network,
    NetworkStats,
    StagedIdealNetwork,
    StagedWormholeNetwork,
)
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
    #: populated by sharded runs: shards, workers, windows, handoff counts
    shard_meta: dict | None = None

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
            "shard_meta": self.shard_meta,
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
            shard_meta=data.get("shard_meta"),
        )


class AlewifeMachine:
    """A configured machine instance, ready to run one workload.

    A shard worker builds a *partitioned* machine — ``owned`` restricts
    which node ids get Node objects, while ``shard_id``/``shard_of`` teach
    the (necessarily staged) fabric which traffic leaves the shard.  The
    default builds every node and a self-contained fabric, exactly as
    before.
    """

    def __init__(
        self,
        config: AlewifeConfig,
        *,
        shard_id: int = 0,
        shard_of=None,
        owned=None,
    ) -> None:
        self.config = config
        self.shard_id = shard_id
        self.backend = get_backend(config.backend)
        self.sim = self.backend.make_simulator(max_cycles=config.max_cycles)
        self.rng = DeterministicRng(config.seed)
        self.space = AddressSpace(
            n_nodes=config.n_procs,
            block_bytes=config.block_bytes,
            segment_bytes=config.segment_bytes,
        )
        self.allocator = Allocator(self.space)
        self.network = self._build_network(shard_id, shard_of)
        # One free list per machine instance (per shard when sharded);
        # every component reaches it through the network.
        pool_factory = self.backend.make_pool or PacketPool
        self.pool = pool_factory(enabled=config.packet_pool)
        self.network.pool = self.pool
        if config.faults_enabled:
            # The injector installs itself as network.fault_injector and
            # takes over delivery scheduling; zero-rate configs skip it
            # entirely so the fast path (and the goldens) are untouched.
            if config.resolved_fabric == "staged":
                StagedFaultGate(self.network, config)
            else:
                FaultInjector(self.network, self.rng, config)
        self._finished = 0
        self.owned = list(range(config.n_procs)) if owned is None else list(owned)
        self.partitioned = len(self.owned) != config.n_procs
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
            for node_id in self.owned
        ]
        #: node id -> Node for the nodes this instance actually built
        self.node_map = {node.node_id: node for node in self.nodes}
        if self.backend.finalize is not None:
            self.backend.finalize(self)

    def _build_network(self, shard_id: int, shard_of) -> Network:
        cfg = self.config
        staged = cfg.resolved_fabric == "staged"
        if cfg.topology == "ideal":
            if staged:
                return StagedIdealNetwork(
                    self.sim,
                    cfg.n_procs,
                    latency=cfg.ideal_latency,
                    cycles_per_word=cfg.cycles_per_word,
                    shard_id=shard_id,
                    shard_of=shard_of,
                )
            return IdealNetwork(
                self.sim,
                cfg.n_procs,
                latency=cfg.ideal_latency,
                cycles_per_word=cfg.cycles_per_word,
            )
        topology = make_topology(cfg.topology, cfg.n_procs)
        if staged:
            return StagedWormholeNetwork(
                self.sim,
                topology,
                hop_latency=cfg.hop_latency,
                cycles_per_word=cfg.cycles_per_word,
                injection_latency=cfg.injection_latency,
                shard_id=shard_id,
                shard_of=shard_of,
                lookahead=cfg.shard_lookahead,
            )
        # The atomic mesh is the backend's to provide (native compiles
        # its send); staged fabrics above stay shared — sharded runs swap
        # storage and the kernel per shard, not the cross-shard
        # arbitration model.
        return self.backend.wormhole_class(
            self.sim,
            topology,
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
        if self.partitioned:
            raise SimulationError(
                "a partitioned shard machine is driven by repro.sim.shard, "
                "not run() — it cannot complete a workload alone"
            )
        programs = workload.build(self)
        threads = 0
        for proc_id, generators in programs.items():
            for gen in generators:
                self.node_map[proc_id].processor.add_thread(gen)
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
        """Aggregate this instance's nodes + network into a mergeable blob."""
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
    """Per-shard aggregation of run results, mergeable across shards.

    The serial path harvests one machine and finalizes; the sharded driver
    merges one harvest per worker first.  Either way the same arithmetic
    produces the :class:`MachineStats`, so the two paths cannot diverge.
    """

    counters: Counters = field(default_factory=Counters)
    worker_sets: Histogram = field(default_factory=Histogram)
    miss_total: int = 0
    miss_count: int = 0
    traps: int = 0
    trap_cycles: int = 0
    busy: int = 0
    finishes: dict[int, int] = field(default_factory=dict)
    network: NetworkStats = field(default_factory=NetworkStats)
    #: per-shard driver metrics (windows, handoffs, bytes, flushes,
    #: events), keyed by shard id.  Kept out of ``counters`` on purpose:
    #: counters participate in the shard-equivalence fingerprint and these
    #: are driver artifacts, not simulation results.
    shard_rounds: dict[int, dict] = field(default_factory=dict)

    def merge(self, other: "Harvest") -> None:
        self.counters.merge(other.counters)
        self.worker_sets.counts.update(other.worker_sets.counts)
        self.miss_total += other.miss_total
        self.miss_count += other.miss_count
        self.traps += other.traps
        self.trap_cycles += other.trap_cycles
        self.busy += other.busy
        self.finishes.update(other.finishes)
        self.network.merge(other.network)
        self.shard_rounds.update(other.shard_rounds)

    def finalize(
        self,
        config: AlewifeConfig,
        *,
        entries_audited: int = 0,
        shard_meta: dict | None = None,
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
            shard_meta=shard_meta,
        )


def run_experiment(
    config: AlewifeConfig,
    workload: "Workload",
    *,
    shard_workers: int | None = None,
) -> MachineStats:
    """Convenience one-shot: build a machine, run, return stats.

    ``config.shards > 1`` dispatches to the windowed shard driver in
    :mod:`repro.sim.shard` (``shard_workers=1`` keeps every shard in this
    process); the classic serial machine runs otherwise.

    Nobody can reach the machine of a one-shot run, so it is dismantled
    before returning: a sweep's memory then tracks one live machine
    instead of however many dead ones the cyclic collector has not got
    to yet.  Build an :class:`AlewifeMachine` and call ``run`` yourself
    to keep it inspectable.
    """
    if config.shards > 1:
        from ..sim.shard import run_sharded

        return run_sharded(config, workload, workers=shard_workers)
    machine = AlewifeMachine(config)
    stats = machine.run(workload)
    machine.dismantle()
    return stats

"""Network fabric: timing and contention on top of a topology.

The model approximates wormhole routing: a packet's head advances one router
per ``hop_latency`` cycles while each traversed link stays occupied for the
packet's serialization time (its length in words times ``cycles_per_word``).
A packet arriving at a busy link waits until the link frees — this is what
produces the hot-spot serialization that dominates the paper's Weather
results (Figure 8).

Because links are reserved in event order and reservations are monotone,
two packets between the same (src, dst) pair are delivered in the order
they were sent, matching a deterministic dimension-ordered wormhole mesh.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

from ..sim.kernel import Simulator
from .packet import DISABLED_POOL, OP_NAMES, Op, Packet
from .topology import LinkId, Topology

Handler = Callable[[Packet], None]


@dataclass(slots=True)
class NetworkStats:
    """Aggregate traffic accounting."""

    packets: int = 0
    words: int = 0
    hops: int = 0
    total_latency: int = 0
    contention_cycles: int = 0
    per_opcode: dict[str, int] = field(default_factory=dict)

    def record(
        self,
        packet: Packet,
        hops: int,
        latency: int,
        waited: int,
        words: int | None = None,
    ) -> None:
        self.packets += 1
        # Senders that already computed the packet length (for serialization
        # timing) pass it in so the property is not evaluated twice.
        self.words += packet.length_words if words is None else words
        self.hops += hops
        self.total_latency += latency
        self.contention_cycles += waited
        # per_opcode keys stay *names* (interned opcodes map back through
        # OP_NAMES) so harvested stats and their JSON form are unchanged.
        opcode = packet.opcode
        key = OP_NAMES[opcode] if opcode.__class__ is Op else opcode
        self.per_opcode[key] = self.per_opcode.get(key, 0) + 1

    @property
    def mean_latency(self) -> float:
        return self.total_latency / self.packets if self.packets else 0.0


class Network:
    """Base class: attach per-node receive handlers and send packets."""

    def __init__(self, sim: Simulator, n_nodes: int) -> None:
        self.sim = sim
        self.n_nodes = n_nodes
        # Indexed by node id: a list beats a dict lookup on the per-packet
        # delivery path, and node ids are dense by construction.
        self._handlers: list[Handler | None] = [None] * n_nodes
        self.stats = NetworkStats()
        self.in_flight = 0
        # Installed by repro.faults.FaultInjector when any fault rate is
        # non-zero; None keeps delivery on the zero-overhead direct path.
        self.fault_injector = None
        # Replaced by the machine when packet pooling is enabled; fault
        # paths that drop or duplicate packets go through it.
        self.pool = DISABLED_POOL
        # Bind once: delivery schedules this method with the packet as the
        # event argument, so the hot path allocates no lambda per packet.
        self._on_deliver = self._deliver

    def attach(self, node_id: int, handler: Handler) -> None:
        """Register the receive handler for ``node_id``."""
        if self._handlers[node_id] is not None:
            raise ValueError(f"node {node_id} already attached")
        self._handlers[node_id] = handler

    def send(self, packet: Packet) -> None:
        raise NotImplementedError

    def _deliver_at(self, time: int, packet: Packet) -> None:
        if self.fault_injector is not None:
            self.fault_injector.admit(time, packet)
            return
        self.in_flight += 1
        self.sim.post(time, self._on_deliver, packet)

    def _deliver(self, packet: Packet) -> None:
        self.in_flight -= 1
        handler = self._handlers[packet.dst]
        if handler is None:
            raise KeyError(f"no handler attached for node {packet.dst}")
        handler(packet)


class WormholeNetwork(Network):
    """Contended dimension-ordered wormhole approximation."""

    def __init__(
        self,
        sim: Simulator,
        topology: Topology,
        *,
        hop_latency: int = 1,
        cycles_per_word: int = 1,
        injection_latency: int = 1,
    ) -> None:
        super().__init__(sim, topology.n_nodes)
        self.topology = topology
        self.hop_latency = hop_latency
        self.cycles_per_word = cycles_per_word
        self.injection_latency = injection_latency
        # Links are interned to dense integers the first time a route
        # touches them, so the per-hop reservation loop indexes flat lists
        # instead of hashing (node, direction) tuples.
        self._link_ids: dict[LinkId, int] = {}
        self._link_names: list[LinkId] = []
        self._link_free_at: list[int] = []
        self._link_busy: list[int] = []
        # Routes are a pure function of the (static) topology; memoize them
        # per (src, dst) — as interned link indices — so steady-state sends
        # never re-walk the route.
        self._route_cache: dict[tuple[int, int], list[int]] = {}

    def _intern_route(self, src: int, dst: int) -> list[int]:
        link_ids = self._link_ids
        path: list[int] = []
        for link in self.topology.route(src, dst):
            idx = link_ids.get(link)
            if idx is None:
                idx = len(self._link_names)
                link_ids[link] = idx
                self._link_names.append(link)
                self._link_free_at.append(0)
                self._link_busy.append(0)
            path.append(idx)
        self._route_cache[(src, dst)] = path
        return path

    @property
    def link_busy_cycles(self) -> dict[LinkId, int]:
        """Cumulative busy cycles per link (reporting view)."""
        names = self._link_names
        return {
            names[idx]: busy
            for idx, busy in enumerate(self._link_busy)
            if busy
        }

    def send(self, packet: Packet) -> None:
        now = self.sim.now
        packet.sent_at = now
        src = packet.src
        dst = packet.dst
        # length_words, inlined (header + address operand = 2): the
        # property call is measurable at steady-state send rates.
        data = packet.data
        words = 2 + len(packet.meta) + (len(data.words) if data is not None else 0)
        if src == dst:
            # Local traffic stays inside the node (cache <-> memory
            # controller over the node bus) and never enters the mesh.
            # stats.record, inlined: single-node-homed workloads make this
            # the fabric's hottest branch.
            stats = self.stats
            stats.packets += 1
            stats.words += words
            stats.total_latency += 2
            per_opcode = stats.per_opcode
            opcode = packet.opcode
            key = OP_NAMES[opcode] if opcode.__class__ is Op else opcode
            per_opcode[key] = per_opcode.get(key, 0) + 1
            # _deliver_at, inlined for the same reason.
            if self.fault_injector is not None:
                self.fault_injector.admit(now + 2, packet)
                return
            self.in_flight += 1
            self.sim.post(now + 2, self._on_deliver, packet)
            return
        path = self._route_cache.get((src, dst))
        if path is None:
            path = self._intern_route(src, dst)
        serialization = words * self.cycles_per_word
        head = now + self.injection_latency
        waited = 0
        link_free_at = self._link_free_at
        link_busy = self._link_busy
        hop_latency = self.hop_latency
        for link in path:
            start = link_free_at[link]
            if start < head:
                start = head
            else:
                waited += start - head
            link_free_at[link] = start + serialization
            link_busy[link] += serialization
            head = start + hop_latency
        arrival = head + serialization  # tail drains into the destination
        # stats.record, inlined: one packet per call makes the method
        # dispatch and re-derived packet length measurable at 64 procs.
        stats = self.stats
        stats.packets += 1
        stats.words += words
        stats.hops += len(path)
        stats.total_latency += arrival - now
        stats.contention_cycles += waited
        per_opcode = stats.per_opcode
        opcode = packet.opcode
        key = OP_NAMES[opcode] if opcode.__class__ is Op else opcode
        per_opcode[key] = per_opcode.get(key, 0) + 1
        self._deliver_at(arrival, packet)

    def hottest_links(self, top: int = 5) -> list[tuple[LinkId, int]]:
        """Links ranked by cumulative busy cycles (hot-spot diagnosis)."""
        ranked = sorted(
            self.link_busy_cycles.items(), key=lambda kv: kv[1], reverse=True
        )
        return ranked[:top]


class IdealNetwork(Network):
    """Uncontended network with a fixed latency plus serialization.

    Used for ablations: it removes the hot-spot queueing effects while
    keeping message counts identical, isolating protocol behaviour from
    network behaviour.
    """

    def __init__(
        self,
        sim: Simulator,
        n_nodes: int,
        *,
        latency: int = 8,
        cycles_per_word: int = 1,
    ) -> None:
        super().__init__(sim, n_nodes)
        self.latency = latency
        self.cycles_per_word = cycles_per_word
        # Per-(src,dst) FIFO clamp keeps ordering identical to the mesh.
        self._pair_last: dict[tuple[int, int], int] = {}

    def send(self, packet: Packet) -> None:
        now = self.sim.now
        packet.sent_at = now
        words = packet.length_words
        if packet.src == packet.dst:
            # Local traffic never enters the network: zero hops, matching
            # WormholeNetwork so mean-hop stats are comparable across
            # fabrics in the network ablations.
            arrival = now + 1
            hops = 0
        else:
            arrival = now + self.latency + words * self.cycles_per_word
            hops = 1
        key = (packet.src, packet.dst)
        arrival = max(arrival, self._pair_last.get(key, 0))
        self._pair_last[key] = arrival
        stats = self.stats
        stats.packets += 1
        stats.words += words
        stats.hops += hops
        stats.total_latency += arrival - now
        per_opcode = stats.per_opcode
        opcode = packet.opcode
        key = OP_NAMES[opcode] if opcode.__class__ is Op else opcode
        per_opcode[key] = per_opcode.get(key, 0) + 1
        self._deliver_at(arrival, packet)

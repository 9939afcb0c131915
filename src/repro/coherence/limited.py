"""Limited directory Dir_iNB (Agarwal et al. [8]).

``i`` hardware pointers, No Broadcast.  When all pointers are in use and a
new cache issues a read request, the protocol *evicts* one previously
recorded copy: it invalidates a victim pointer and reassigns it to the new
reader.  Widely shared blocks therefore thrash — constant eviction and
reassignment of directory pointers — which is exactly the hot-spot
degradation Figure 8 measures for the unoptimized Weather code.
"""

from __future__ import annotations

from ..network.packet import Packet
from .controller import MemoryController
from .entry import DirectoryEntry


class LimitedController(MemoryController):
    """Dir_iNB: ``pointer_capacity`` pointers, eviction on overflow.

    The victim is the oldest recorded reader that is not the requester
    (else the lowest-numbered sharer): deterministic and close to a
    hardware rotating pointer.
    """

    protocol_name = "limited"

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        if self.pointer_capacity is None or self.pointer_capacity < 1:
            raise ValueError("limited directory needs >= 1 hardware pointer")
        self._fifo_order: dict[int, list[int]] = {}

    # ------------------------------------------------------------------

    def _ro_rreq(self, entry: DirectoryEntry, packet: Packet) -> None:
        # Track insertion order for FIFO victim selection.
        order = self._fifo_order.setdefault(entry.block, [])
        if packet.src in order:
            order.remove(packet.src)
        super()._ro_rreq(entry, packet)
        if entry.holds(packet.src):
            if packet.src != entry.home and packet.src not in order:
                order.append(packet.src)

    def _read_overflow(self, entry: DirectoryEntry, packet: Packet) -> None:
        """Evict a pointer, then service the read with the freed slot."""
        victim = self._choose_victim(entry, packet.src)
        self.counters.bump("dir.pointer_evictions")
        # Eviction invalidate carries no transaction id: the resulting ACKC
        # is dropped as stray (the pointer is already reassigned).  Under
        # fault injection the INV (or its ACKC) can be lost, so remember
        # the victim until *some* ack from it arrives — it stays a target
        # of future invalidation rounds and a recorded holder meanwhile.
        if self.fault_tolerant:
            self._pending_evictions.setdefault(entry.block, set()).add(victim)
        self._send_inv(victim, entry.block, None)
        entry.drop_sharer(victim)
        order = self._fifo_order.get(entry.block, [])
        if victim in order:
            order.remove(victim)
        entry.add_sharer(packet.src)
        if packet.src != entry.home:
            order.append(packet.src)
        self._send_rdata(entry, packet.src)

    def _choose_victim(self, entry: DirectoryEntry, requester: int) -> int:
        candidates = sorted(entry.sharers - {requester})
        if not candidates:
            raise AssertionError("overflow with no evictable pointer")
        order = self._fifo_order.get(entry.block, [])
        for node in order:
            if node in candidates:
                return node
        return candidates[0]

"""Interprocessor-Interrupt (IPI) network interface (paper §4.2).

Each node owns one interface.  Incoming protocol packets are normally
dispatched to the hardware controllers (memory side or cache side by opcode
direction).  The memory controller may instead *divert* a protocol packet
into the IPI input queue — that is the LimitLESS overflow path — which
raises an interrupt so the local processor's trap handler can consume the
packet with simple loads.  Interrupt-class packets (software-defined
messages) always go to the IPI queue.

The interface also lets software *launch* packets, which the LimitLESS trap
handler uses to source RDATA/INV traffic, exactly as §4.4 describes.
"""

from __future__ import annotations

from collections import deque
from typing import Callable

from ..sim.component import Component
from ..sim.kernel import Simulator
from ..stats.counters import Counters
from .fabric import Network
from .packet import (
    _LAST_CACHE_TO_MEMORY,
    DISABLED_POOL,
    Op,
    Packet,
    PacketPool,
    packet_crc,
)

TrapHandler = Callable[[], None]
PacketHandler = Callable[[Packet], None]


class IpiQueueOverflow(RuntimeError):
    """IPI input queue exceeded its backing capacity."""


class NetworkInterface(Component):
    """One node's connection to the interconnect, including IPI queues."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        network: Network,
        *,
        ipi_capacity: int = 64,
        counters: Counters | None = None,
        pool: PacketPool | None = None,
    ) -> None:
        super().__init__(sim, f"nic{node_id}")
        self.node_id = node_id
        self.network = network
        self.ipi_capacity = ipi_capacity
        #: recycles cache-bound packets once their handler returns
        self.pool = pool if pool is not None else DISABLED_POOL
        #: stamp/verify payload CRCs (enabled with fault injection; off by
        #: default so fault-free runs skip the checksum entirely)
        self.crc_enabled = False
        self.counters = counters if counters is not None else Counters()
        self._ipi_queue: deque[Packet] = deque()
        self._memory_handler: PacketHandler | None = None
        self._cache_handler: PacketHandler | None = None
        self._trap_handler: TrapHandler | None = None
        self.ipi_high_water = 0
        self.ipi_enqueued = 0
        self.packets_sent = 0
        self.packets_received = 0
        network.attach(node_id, self._receive)

    # ------------------------------------------------------------------
    # Wiring
    # ------------------------------------------------------------------

    def set_memory_handler(self, handler: PacketHandler) -> None:
        """Handler for cache→memory protocol packets homed here."""
        self._memory_handler = handler

    def set_cache_handler(self, handler: PacketHandler) -> None:
        """Handler for memory→cache protocol packets for this node."""
        self._cache_handler = handler

    def set_trap_handler(self, handler: TrapHandler) -> None:
        """Called (synchronously) whenever a packet enters the IPI queue."""
        self._trap_handler = handler

    # ------------------------------------------------------------------
    # Transmission
    # ------------------------------------------------------------------

    def send(self, packet: Packet) -> None:
        """Launch a packet into the network."""
        self.packets_sent += 1
        if self.crc_enabled and packet.data is not None:
            packet.crc = packet_crc(packet)
        self.network.send(packet)

    def trap_stall(self) -> int:
        """Injected stall cycles for one trap invocation on this node."""
        injector = self.network.fault_injector
        if injector is None:
            return 0
        return injector.trap_stall()

    # ------------------------------------------------------------------
    # Reception and the IPI input queue
    # ------------------------------------------------------------------

    def _receive(self, packet: Packet) -> None:
        self.packets_received += 1
        if (
            self.crc_enabled
            and packet.crc is not None
            and packet_crc(packet) != packet.crc
        ):
            # Corrupted in flight: discard as a detected loss.  The
            # protocol's timeout/retransmission machinery recovers exactly
            # as it would from a drop.
            self.counters.bump("nic.crc_drops")
            self.counters.bump(f"nic.crc_drops.{packet.opcode}")
            self.pool.release(packet)
            return
        op = packet.opcode
        if op.__class__ is Op:
            # Protocol packet: classify by direction (Op is ordered with
            # every cache→memory opcode before every memory→cache one).
            if op <= _LAST_CACHE_TO_MEMORY:
                if self._memory_handler is None:
                    raise RuntimeError(f"{self.name}: no memory handler")
                # Ownership passes to the directory pipeline; it releases
                # after dispatch.
                self._memory_handler(packet)
            else:
                if self._cache_handler is None:
                    raise RuntimeError(f"{self.name}: no cache handler")
                self._cache_handler(packet)
                # Cache handlers copy what they keep; the packet is spent.
                self.pool.release(packet)
        else:
            # Not a protocol opcode: interrupt-class packets always enter
            # the IPI queue (is_interrupt is exactly "not protocol").
            self.divert_to_ipi(packet)

    def divert_to_ipi(self, packet: Packet) -> None:
        """Place a packet in the IPI input queue and raise the interrupt.

        The hardware memory controller calls this when a protocol packet
        must be handled in software (LimitLESS overflow, Trap-On-Write,
        Trap-Always).
        """
        if len(self._ipi_queue) >= self.ipi_capacity:
            # The real machine overflows into the network receive queue and
            # relies on synchronous traps; a model hitting this is a bug.
            raise IpiQueueOverflow(
                f"{self.name}: IPI queue exceeded {self.ipi_capacity}"
            )
        self._ipi_queue.append(packet)
        self.ipi_enqueued += 1
        self.ipi_high_water = max(self.ipi_high_water, len(self._ipi_queue))
        if self._trap_handler is not None:
            self._trap_handler()

    def ipi_pending(self) -> int:
        """Packets waiting in the IPI input queue."""
        return len(self._ipi_queue)

    def ipi_head(self) -> Packet | None:
        """Examine the head packet (trap code reads header/operands)."""
        return self._ipi_queue[0] if self._ipi_queue else None

    def ipi_pop(self) -> Packet:
        """Consume the head packet (trap code discards or stores it)."""
        if not self._ipi_queue:
            raise RuntimeError(f"{self.name}: IPI queue empty")
        return self._ipi_queue.popleft()

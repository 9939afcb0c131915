"""The fault injector: deterministic packet-level chaos.

Installed on the network as ``network.fault_injector``, the injector takes
over final delivery scheduling.  For every protocol packet it may:

* **drop** it (the delivery never happens),
* **duplicate** it (a second delivery of the same packet a little later),
* **delay** it (a bounded extra latency), or
* **corrupt** it (flip one bit of one payload word — caught by the NIC's
  CRC check on receipt and discarded there, so corruption behaves like a
  *detected* loss, never silent data poisoning).

Interrupt-class packets (IPIs, lock grants) are never faulted: the
software messaging layer has no retry protocol, and the paper's
fault-tolerance story is about the coherence protocol.

Two disciplines keep campaigns reproducible and the protocol analyzable:

* every random decision draws from a named substream (``faults.drop`` and
  friends) and a substream is only consulted when its rate is non-zero, so
  enabling one fault class does not perturb another's schedule; and
* a per-(src, dst) delivery floor guarantees point-to-point FIFO order is
  preserved even under delay and duplication — the protocol's race
  arguments (and the hardened controllers' recovery arguments) all assume
  the mesh's dimension-ordered FIFO property, so the injector reorders
  traffic *across* node pairs, never within one.
"""

from __future__ import annotations

from typing import Optional

from ..network.fabric import Network
from ..network.packet import Packet, packet_crc
from ..sim.rng import DeterministicRng
from ..stats.counters import Counters

__all__ = ["FaultInjector", "packet_crc"]


class FaultInjector:
    """Per-machine fault-injection state machine (see module docstring)."""

    def __init__(self, network: Network, rng: DeterministicRng, config) -> None:
        self.network = network
        self.rng = rng
        self.drop_rate = config.fault_drop_rate
        self.dup_rate = config.fault_dup_rate
        self.delay_rate = config.fault_delay_rate
        self.delay_max = config.fault_delay_max
        self.corrupt_rate = config.fault_corrupt_rate
        self.stall_rate = config.fault_stall_rate
        self.stall_cycles = config.fault_stall_cycles
        self.counters = Counters()
        #: point-to-point FIFO floor: no packet on (src, dst) may be
        #: delivered earlier than the last delivery scheduled on that pair
        self._pair_floor: dict[tuple[int, int], int] = {}
        #: tag -> (delivery_time, packet) for everything scheduled but not
        #: yet delivered; feeds the watchdog's oldest-packet diagnosis
        self._pending: dict[int, tuple[int, Packet]] = {}
        self._next_tag = 0
        self._on_deliver = self._deliver
        network.fault_injector = self

    # ------------------------------------------------------------------
    # Network-side injection
    # ------------------------------------------------------------------

    def admit(self, time: int, packet: Packet) -> None:
        """Take over delivery of ``packet`` (nominal arrival ``time``).

        Called by the fabric instead of posting the delivery event
        directly.  Fault decisions are made here — after the fabric has
        fully accounted timing and traffic stats, so a dropped packet
        still consumed network bandwidth, exactly like a packet eaten by
        a real faulty router.
        """
        if not packet.is_protocol:
            self._schedule(time, packet)
            return
        if self.drop_rate and self.rng.stream("faults.drop").random() < self.drop_rate:
            self.counters.bump("faults.dropped")
            self.counters.bump(f"faults.dropped.{packet.opcode}")
            self.network.pool.release(packet)
            return
        if (
            self.corrupt_rate
            and packet.data is not None
            and self.rng.stream("faults.corrupt").random() < self.corrupt_rate
        ):
            self._corrupt(packet)
        if self.delay_rate and self.rng.stream("faults.delay").random() < self.delay_rate:
            extra = self.rng.stream("faults.delay").randint(1, self.delay_max)
            self.counters.bump("faults.delayed")
            self.counters.bump("faults.delay_cycles", extra)
            time += extra
        self._schedule(time, packet)
        if self.dup_rate and self.rng.stream("faults.dup").random() < self.dup_rate:
            self.counters.bump("faults.duplicated")
            self.counters.bump(f"faults.duplicated.{packet.opcode}")
            # Back-to-back with the original; the pair floor serializes it
            # immediately behind, preserving FIFO.  An independent clone:
            # under pooling the original may be scrubbed and reissued
            # before this copy arrives.
            self._schedule(time + 1, self.network.pool.clone(packet))

    def _corrupt(self, packet: Packet) -> None:
        """Flip one payload bit in a *copy* of the block data.

        The original ``BlockData`` may alias a live cache line or memory
        block, so in-place mutation would corrupt state the packet never
        legitimately touches.
        """
        stream = self.rng.stream("faults.corrupt")
        data = packet.data.copy()
        word = stream.randrange(len(data.words))
        data.words[word] ^= 1 << stream.randrange(32)
        packet.data = data
        self.counters.bump("faults.corrupted")
        self.counters.bump(f"faults.corrupted.{packet.opcode}")

    def _schedule(self, time: int, packet: Packet) -> None:
        pair = (packet.src, packet.dst)
        floor = self._pair_floor.get(pair, 0)
        if time < floor:
            time = floor
        self._pair_floor[pair] = time
        net = self.network
        net.in_flight += 1
        tag = self._next_tag
        self._next_tag = tag + 1
        self._pending[tag] = (time, packet)
        net.sim.post(time, self._on_deliver, tag)

    def _deliver(self, tag: int) -> None:
        _, packet = self._pending.pop(tag)
        self.network._deliver(packet)

    # ------------------------------------------------------------------
    # Controller-side injection
    # ------------------------------------------------------------------

    def trap_stall(self) -> int:
        """Extra cycles to add to one LimitLESS trap-handler invocation."""
        if (
            self.stall_rate
            and self.rng.stream("faults.stall").random() < self.stall_rate
        ):
            self.counters.bump("faults.trap_stalls")
            self.counters.bump("faults.trap_stall_cycles", self.stall_cycles)
            return self.stall_cycles
        return 0

    # ------------------------------------------------------------------
    # Diagnosis support
    # ------------------------------------------------------------------

    def oldest_pending(self) -> Optional[str]:
        """Describe the oldest in-flight packet (for hang diagnosis)."""
        if not self._pending:
            return None
        time, packet = min(
            self._pending.values(), key=lambda tp: (tp[1].sent_at, tp[0])
        )
        return (
            f"{packet.opcode} {packet.src}->{packet.dst} "
            f"addr={packet.address:#x} sent_at={packet.sent_at} "
            f"arrives_at={time}"
        )

"""Deliberately broken controllers: the checker's own self-test.

A model checker that cannot fail verifies nothing.  Each mutant here
plants one classic protocol bug in an otherwise real controller; the test
tier asserts that exploration finds a violation *with a counterexample
trace* — and, for the dropped-invalidation mutant, specifically a
single-writer-multiple-reader violation, the property invalidation
exists to protect.

Mutants are registered in :func:`repro.modelcheck.model.checkable_protocols`
(never in the production registry) so they are reachable from the CLI for
demonstration but can never be selected for an experiment run.
"""

from __future__ import annotations

from ..coherence.limited import LimitedController
from ..network.packet import Packet
from .model import ModelSpec


class DroppedInvLimitedController(LimitedController):
    """Dir_iNB that reassigns an overflowed pointer WITHOUT invalidating.

    The victim cache keeps a read-only copy the directory has forgotten.
    The directory-coverage invariant fails as soon as the pointer is
    reassigned, and the single-writer invariant fails a few transitions
    later when a writer is granted exclusivity while the forgotten copy
    is still readable — the exact incoherence Dir_iNB's eviction
    invalidate prevents.
    """

    protocol_name = "limited_dropinv"

    def _read_overflow(self, entry, packet: Packet) -> None:
        victim = self._choose_victim(entry, packet.src)
        self.counters.bump("dir.pointer_evictions")
        # BUG (deliberate): the eviction invalidate is never sent.
        entry.drop_sharer(victim)
        order = self._fifo_order.get(entry.block, [])
        if victim in order:
            order.remove(victim)
        entry.add_sharer(packet.src)
        if packet.src != entry.home:
            order.append(packet.src)
        self._send_rdata(entry, packet.src)


class LostAckLimitedController(LimitedController):
    """Dir_iNB whose write transactions need one ack too many.

    The controller adds a phantom node to the acknowledgment set, so the
    final ACKC never arrives and the write transaction hangs forever —
    the checker must report it as a deadlock, exercising the liveness
    side of the search.
    """

    protocol_name = "limited_lostack"

    def _begin_write_transaction(self, entry, requester, targets) -> None:
        # BUG (deliberate): await an ack from a node that was never sent
        # an INV (the requester itself, which will never acknowledge).
        super()._begin_write_transaction(entry, requester, targets)
        entry.ack_waiting.add(requester)


MUTANTS: dict[str, ModelSpec] = {
    "limited_dropinv": ModelSpec(
        DroppedInvLimitedController,
        lambda p: {"pointer_capacity": p},
        symmetric=False,
    ),
    "limited_lostack": ModelSpec(
        LostAckLimitedController,
        lambda p: {"pointer_capacity": p},
        symmetric=False,
    ),
}

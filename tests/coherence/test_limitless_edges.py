"""Edge cases of the LimitLESS software path."""

from __future__ import annotations

import pytest

from repro.coherence.limitless import (
    FreeRunningTrapEngine,
    LimitLessController,
    LimitLessSoftware,
)
from repro.coherence.states import DirState, MetaState, ProtocolError
from repro.network.packet import interrupt_packet

from .rig import ControllerRig


def make(pointers=2, ts=50, **kw):
    rig = ControllerRig(LimitLessController, pointer_capacity=pointers, **kw)
    engine = FreeRunningTrapEngine(rig.sim)
    software = LimitLessSoftware(rig.controller, rig.nics[0], engine, ts=ts)
    return rig, software, engine


class TestStrayTrapsInTrapOnWrite:
    def _overflowed(self, **kw):
        rig, software, engine = make(**kw)
        blk = rig.block()
        for node in (1, 2, 3):
            rig.send(node, "RREQ", blk)
        rig.run()
        assert rig.entry(blk).meta is MetaState.TRAP_ON_WRITE
        return rig, software, engine, blk

    def test_stray_repm_restores_mode(self):
        rig, software, engine, blk = self._overflowed()
        rig.send(3, "REPM", blk, data=rig.data(9))
        rig.run()
        entry = rig.entry(blk)
        assert entry.meta is MetaState.TRAP_ON_WRITE  # mode survives
        assert entry.state is DirState.READ_ONLY
        assert rig.counters.get("limitless.sw_stray") == 1
        # the stray's data was NOT absorbed
        assert rig.memory.block(blk).words[0] == 0

    def test_stray_update_restores_mode(self):
        rig, software, engine, blk = self._overflowed()
        rig.send(2, "UPDATE", blk, data=rig.data(5), txn=99)
        rig.run()
        assert rig.entry(blk).meta is MetaState.TRAP_ON_WRITE
        assert rig.counters.get("limitless.sw_stray") == 1

    def test_vector_survives_stray_traffic(self):
        rig, software, engine, blk = self._overflowed()
        before = set(software.vectors[blk])
        rig.send(3, "REPM", blk, data=rig.data(9))
        rig.run()
        assert software.vectors[blk] == before


class TestInterruptPackets:
    def test_interrupt_without_handler_is_dropped(self):
        rig, software, engine = make()
        rig.sim.post(
            0, lambda: rig.nics[1].send(interrupt_packet(1, 0, "IPI", n=1))
        )
        rig.run()
        assert rig.counters.get("limitless.interrupts_dropped") == 1

    def test_interrupt_with_handler_is_delivered(self):
        rig, software, engine = make()
        got = []
        software.interrupt_handler = lambda pkt: got.append(pkt.meta["n"])
        rig.sim.post(
            0, lambda: rig.nics[1].send(interrupt_packet(1, 0, "IPI", n=7))
        )
        rig.run()
        assert got == [7]
        assert engine.traps_taken == 1  # the message cost a trap

    def test_interrupts_interleave_with_protocol_traps(self):
        rig, software, engine = make(pointers=1)
        got = []
        software.interrupt_handler = lambda pkt: got.append(pkt.opcode)
        blk = rig.block()
        rig.send(1, "RREQ", blk)
        rig.send(2, "RREQ", blk)  # overflow trap
        rig.sim.post(1, lambda: rig.nics[3].send(interrupt_packet(3, 0, "IPI")))
        rig.run()
        assert got == ["IPI"]
        assert rig.sent_to(2, "RDATA")


class TestTrapHandlerGuards:
    def test_handler_on_non_interlocked_entry_raises(self):
        rig, software, engine = make()
        blk = rig.block()
        rig.nics[0].divert_to_ipi(
            __import__(
                "repro.network.packet", fromlist=["protocol_packet"]
            ).protocol_packet(1, 0, "RREQ", blk)
        )
        with pytest.raises(ProtocolError):
            rig.run()

    def test_zero_pointer_limitless(self):
        """p = 0: every remote read traps — §3.1's all-software endpoint."""
        rig, software, engine = make(pointers=0)
        blk = rig.block()
        for node in (1, 2):
            rig.send(node, "RREQ", blk)
            rig.run()
        assert engine.traps_taken == 2
        assert software.vectors[blk] == {1, 2}

    def test_local_reads_never_trap_even_with_zero_pointers(self):
        rig, software, engine = make(pointers=0)
        blk = rig.block()
        rig.send(0, "RREQ", blk)
        rig.run()
        assert engine.traps_taken == 0
        assert rig.entry(blk).local_bit

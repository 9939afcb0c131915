"""Tests for the Dir_iNB limited directory: eviction on overflow."""

from __future__ import annotations

import pytest

from repro.coherence.limited import LimitedController
from repro.coherence.states import DirState

from .rig import ControllerRig


@pytest.fixture
def rig():
    return ControllerRig(LimitedController, pointer_capacity=2)


class TestOverflowEviction:
    def test_within_capacity_no_eviction(self, rig):
        blk = rig.block()
        for node in (1, 2):
            rig.send(node, "RREQ", blk)
        rig.run()
        assert rig.counters.get("dir.pointer_evictions") == 0
        assert rig.entry(blk).sharers == {1, 2}

    def test_overflow_evicts_one_pointer(self, rig):
        blk = rig.block()
        for node in (1, 2, 3):
            rig.send(node, "RREQ", blk)
        rig.run()
        assert rig.counters.get("dir.pointer_evictions") == 1
        entry = rig.entry(blk)
        assert 3 in entry.sharers
        assert len(entry.sharers) == 2

    def test_fifo_victim_is_oldest(self, rig):
        blk = rig.block()
        for node in (1, 2, 3):
            rig.send(node, "RREQ", blk)
            rig.run()
        # node 1 arrived first -> evicted first
        assert rig.sent_to(1, "INV")
        assert not rig.sent_to(2, "INV")
        assert rig.entry(blk).sharers == {2, 3}

    def test_eviction_inv_has_no_txn(self, rig):
        blk = rig.block()
        for node in (1, 2, 3):
            rig.send(node, "RREQ", blk)
        rig.run()
        inv = rig.sent_to(1, "INV")[0]
        assert inv.meta.get("txn") is None

    def test_new_reader_still_gets_data(self, rig):
        blk = rig.block()
        for node in (1, 2, 3):
            rig.send(node, "RREQ", blk)
        rig.run()
        assert rig.sent_to(3, "RDATA")

    def test_re_read_refreshes_fifo_position(self, rig):
        blk = rig.block()
        rig.send(1, "RREQ", blk)
        rig.run()
        rig.send(2, "RREQ", blk)
        rig.run()
        rig.send(1, "RREQ", blk)  # 1 becomes most recent
        rig.run()
        rig.send(3, "RREQ", blk)  # overflow: victim should now be 2
        rig.run()
        assert rig.sent_to(2, "INV")
        assert rig.entry(blk).sharers == {1, 3}

    def test_thrashing_counts_accumulate(self, rig):
        blk = rig.block()
        for round_no in range(3):
            for node in (1, 2, 3, 4):
                rig.send(node, "RREQ", blk)
            rig.run()
        assert rig.counters.get("dir.pointer_evictions") >= 6

    def test_local_bit_not_evictable(self, rig):
        blk = rig.block()
        rig.send(0, "RREQ", blk)  # home uses the Local Bit
        rig.run()
        for node in (1, 2, 3):
            rig.send(node, "RREQ", blk)
        rig.run()
        entry = rig.entry(blk)
        assert entry.local_bit  # survives pointer thrashing
        assert not rig.sent_to(0, "INV")


class TestEvictionRaces:
    def test_evicted_cache_ack_is_stray(self, rig):
        blk = rig.block()
        for node in (1, 2, 3):
            rig.send(node, "RREQ", blk)
        rig.run()
        rig.send(1, "ACKC", blk, txn=None)  # the eviction acknowledgment
        rig.run()
        assert rig.counters.get("dir.stray_dropped") == 1
        assert rig.entry(blk).state is DirState.READ_ONLY

    def test_write_after_thrash_invalidate_current_set(self, rig):
        blk = rig.block()
        for node in (1, 2, 3):
            rig.send(node, "RREQ", blk)
        rig.run()
        rig.send(4, "WREQ", blk)
        rig.run()
        entry = rig.entry(blk)
        # Only the current pointer set {2, 3} is invalidated.
        assert entry.ack_waiting == {2, 3}


class TestConfiguration:
    def test_requires_at_least_one_pointer(self):
        with pytest.raises(ValueError):
            ControllerRig(LimitedController, pointer_capacity=0)

"""Adversarial reuse tests for the SoA line and directory storage.

The SoA layout recycles aggressively: one view object per cache slot,
one live memoryview per block's slab slice, one integer bitmask per
pointer set.  Every bug class here is an aliasing bug — state that
should have detached (evicted victims, packet payloads, set-algebra
results) continuing to see later writes to the recycled storage.  These
tests drive the storage the way the packet pool and the protocol
controllers do, then mutate the backing slab and assert nothing leaks
through.
"""

from __future__ import annotations

import pytest

from repro.backend.soa import PointerSet, SoaCacheArray, SoaDirectory
from repro.coherence.states import CacheState, DirState
from repro.mem.address import AddressSpace
from repro.mem.memory import BlockData


def _space():
    return AddressSpace(n_nodes=4, block_bytes=16, segment_bytes=1 << 20)


def _block_data(space, fill):
    data = BlockData(0)
    data.words = [fill + i for i in range(space.words_per_block)]
    return data


class TestCacheSlotReuse:
    def test_victim_detaches_before_slot_overwrite(self):
        space = _space()
        array = SoaCacheArray(space, 4)
        # Two blocks that collide on the same direct-mapped slot.
        a = 0x000
        b = a + 4 * space.block_bytes
        array.install(a, CacheState.READ_WRITE, _block_data(space, 100))
        line_a = array.lookup(a)
        line_a.written = True
        victim = array.install(b, CacheState.READ_ONLY, _block_data(space, 200))
        # The victim is a detached snapshot of the pre-eviction slot...
        assert victim.block == a
        assert victim.state is CacheState.READ_WRITE
        assert victim.written is True
        assert list(victim.data.words) == [100 + i for i in range(4)]
        # ...and stays frozen while the recycled slot is rewritten.
        array.lookup(b).data.words[0] = 999
        assert victim.data.words[0] == 100
        # The reference _evict invalidates the victim *after* the install;
        # on a detached snapshot that must not touch the new resident.
        victim.state = CacheState.INVALID
        assert array.lookup(b).state is CacheState.READ_ONLY

    def test_packet_payload_copy_detaches_from_the_slab(self):
        space = _space()
        array = SoaCacheArray(space, 4)
        array.install(0, CacheState.READ_ONLY, _block_data(space, 7))
        payload = array.lookup(0).data.copy()  # what outgoing packets carry
        assert isinstance(payload, BlockData)
        assert payload.words == [7, 8, 9, 10]
        array.lookup(0).data.words[1] = -1
        assert payload.words == [7, 8, 9, 10]

    @pytest.mark.parametrize("n_words", [3, 5])
    def test_a_payload_that_is_not_one_line_is_refused(self, n_words):
        space = _space()
        array = SoaCacheArray(space, 4)
        neighbour = space.block_bytes  # the next slot along the slab
        array.install(0, CacheState.READ_ONLY, _block_data(space, 1))
        array.install(neighbour, CacheState.READ_ONLY, _block_data(space, 50))
        wrong = BlockData(0)
        wrong.words = [9] * n_words
        with pytest.raises(ValueError):
            array.install(0, CacheState.READ_WRITE, wrong)
        with pytest.raises(ValueError):
            array.lookup(0).data = wrong
        # Refused before anything changed, in this slot and the next.
        assert array.lookup(0).state is CacheState.READ_ONLY
        assert list(array.lookup(0).data.words) == [1, 2, 3, 4]
        assert list(array.lookup(neighbour).data.words) == [50, 51, 52, 53]

    def test_slot_views_are_recycled_but_track_the_live_line(self):
        space = _space()
        array = SoaCacheArray(space, 4)
        a, b = 0x000, 4 * space.block_bytes
        array.install(a, CacheState.READ_WRITE, _block_data(space, 1))
        view_a = array.lookup(a)
        array.install(b, CacheState.READ_ONLY, _block_data(space, 2))
        view_b = array.lookup(b)
        # Same recycled view object, now describing the new resident.
        assert view_a is view_b
        assert view_b.block == b
        assert view_b.state is CacheState.READ_ONLY
        assert array.lookup(a) is None

    def test_invalidate_then_reinstall_round_trip(self):
        space = _space()
        array = SoaCacheArray(space, 4)
        array.install(0, CacheState.READ_WRITE, _block_data(space, 5))
        dropped = array.invalidate(0)
        assert dropped is not None and not dropped.valid
        assert array.lookup(0) is None
        assert array.resident(array.index_of(0)) is None
        # No stale victim: the slot was invalid, not a conflicting tag.
        assert (
            array.install(0, CacheState.READ_ONLY, _block_data(space, 6))
            is None
        )
        assert array.lookup(0).written is False

    def test_valid_lines_materializes_detached_plain_words(self):
        space = _space()
        array = SoaCacheArray(space, 4)
        array.install(0, CacheState.READ_ONLY, _block_data(space, 1))
        array.install(space.block_bytes, CacheState.READ_WRITE, _block_data(space, 9))
        lines = array.valid_lines()
        assert len(lines) == 2
        assert all(type(line.data.words) is list for line in lines)
        snapshot = [list(line.data.words) for line in lines]
        array.lookup(0).data.words[0] = 12345
        assert [list(line.data.words) for line in lines] == snapshot


class TestPointerSetReuse:
    def test_set_algebra_detaches_from_the_bitmask(self):
        directory = SoaDirectory(home=0)
        entry = directory.entry(0x40)
        entry.sharers.add(1)
        entry.sharers.add(3)
        derived = entry.sharers - {1}
        assert type(derived) is set and derived == {3}
        entry.sharers.add(2)
        assert derived == {3}  # detached: later adds don't leak in

    def test_inplace_union_into_a_plain_set_must_use_update(self):
        # `plain |= PointerSet` falls back to Set.__ror__ and rebinds the
        # local to a *new* set — the aliasing trap the limitless software
        # handler hit.  update() mutates in place; this pins the contract.
        directory = SoaDirectory(home=0)
        entry = directory.entry(0x40)
        entry.sharers.add(2)
        shared_vector = set()
        alias = shared_vector
        shared_vector |= entry.sharers
        assert shared_vector == {2}
        assert alias == set() and shared_vector is not alias  # the trap
        fresh = set()
        fresh_alias = fresh
        fresh.update(entry.sharers)
        assert fresh_alias == {2} and fresh is fresh_alias

    def test_sharers_setter_reads_before_it_clears(self):
        # entry.sharers |= {x} routes the mutated live view back through
        # the setter; computing bits before assigning keeps it lossless.
        directory = SoaDirectory(home=0)
        entry = directory.entry(0x40)
        entry.sharers.add(1)
        entry.sharers |= {2}
        assert set(entry.sharers) == {1, 2}

    def test_entry_rows_share_no_state(self):
        directory = SoaDirectory(home=0)
        first = directory.entry(0x40)
        second = directory.entry(0x80)
        first.add_sharer(1)
        first.begin_transaction(2, [1, 3])
        first.state = DirState.WRITE_TRANSACTION
        assert set(second.sharers) == set()
        assert second.acks_outstanding == 0
        assert second.state is DirState.READ_ONLY
        assert second.idle() and not first.idle()
        # Same interned view object per row, fresh deque per pending use.
        assert directory.entry(0x40) is first
        first.pending.append("x")
        assert len(second.pending) == 0


class TestConstruction:
    def test_line_count_must_be_a_power_of_two(self):
        with pytest.raises(ValueError):
            SoaCacheArray(_space(), 3)

    def test_pointer_set_iterates_in_ascending_node_order(self):
        column = [0b101010]
        pointers = PointerSet(column, 0)
        assert list(pointers) == [1, 3, 5]
        assert len(pointers) == 3
        assert 3 in pointers and 0 not in pointers and "x" not in pointers

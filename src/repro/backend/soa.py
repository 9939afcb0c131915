"""Structure-of-arrays cache and directory storage.

The reference data model is one Python object per cache line and per
directory entry.  This module stores the same state in flat parallel
arrays — tag/state/written columns plus one contiguous word slab for the
cache, dense per-entry columns plus integer pointer bitmasks for the
directory — and presents it back to the (unchanged) controllers through
thin view objects that speak the exact reference protocol:

* :class:`SoaCacheLine` is shaped like :class:`~repro.cache.cache.CacheLine`
  (``block``/``state``/``data``/``written``/``valid``); its ``data.words``
  is a live ``memoryview`` slice of the word slab, so the controllers'
  ``line.data.words[word] = value`` hits the slab directly.
* :class:`SoaDirectoryEntry` is shaped like
  :class:`~repro.coherence.entry.DirectoryEntry`; its ``sharers`` and
  ``ack_waiting`` are :class:`PointerSet` views over per-entry integer
  bitmasks, and every set-algebra result handed back to protocol code
  (``sharers - {requester}``, ``vector | sharers``) is a plain ``set``.

Bit-identicality notes (the equivalence goldens pin these):

* ``state`` getters return the canonical enum members, so the
  controllers' identity compares (``line.state is CacheState.READ_WRITE``)
  and truthiness tests (``if entry.meta:``) behave exactly as on the
  reference objects.
* ``install`` materializes the victim into a detached plain
  :class:`CacheLine` *before* overwriting the slot — the reference
  ``_evict`` reads (and invalidates) the victim after the new line has
  replaced it, which only works if the victim's state is its own.
* ``valid_lines`` materializes plain lines with plain ``list`` words so
  checkpoint digests serialize byte-identically to the reference.
* Word values live in ``array('q')`` slabs: stores are limited to the
  signed 64-bit range (the workloads use small ints; out-of-range raises
  ``OverflowError`` loudly rather than wrapping).

Everything here is stdlib: the hot path is per-element (``array`` slab,
``bytearray`` and ``list`` columns), and the one bulk scan —
``valid_lines`` at audit/checkpoint time — is ``bytearray.find`` over
the state column.
"""

from __future__ import annotations

from array import array
from collections import deque
from collections.abc import MutableSet
from typing import TYPE_CHECKING, Iterable, Iterator

from ..cache.cache import CacheLine
from ..coherence.states import CacheState, DirState, MetaState
from ..mem.memory import BlockData

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..mem.address import AddressSpace
    from ..network.packet import Packet

# Value -> member tables (IntEnum definition order is value order here).
_CACHE_STATES = tuple(CacheState)
_DIR_STATES = tuple(DirState)
_META_STATES = tuple(MetaState)

#: what each valid state leaves in a cache's state column
_VALID_BYTES = tuple(bytes((state,)) for state in CacheState if state)
#: ``trap_mode is None`` in the directory's byte column
_NO_TRAP = 0xFF


# ----------------------------------------------------------------------
# Cache side
# ----------------------------------------------------------------------


class SlabBlockData:
    """``BlockData``-shaped view over one block's slice of the word slab.

    ``words`` is a live ``memoryview('q')`` slice: integer indexing and
    assignment go straight to the slab.  ``copy()`` detaches into a real
    :class:`BlockData` (what every outgoing packet carries), so slab
    views never escape into the network or the digests.
    """

    __slots__ = ("words",)

    def __init__(self, words: memoryview) -> None:
        self.words = words

    def copy(self) -> BlockData:
        clone = BlockData(0)
        clone.words = list(self.words)
        return clone

    def __eq__(self, other: object) -> bool:
        words = getattr(other, "words", None)
        if words is None:
            return NotImplemented
        return list(self.words) == list(words)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"SlabBlockData({list(self.words)})"


class SoaCacheLine:
    """``CacheLine``-shaped view of one slot of a :class:`SoaCacheArray`."""

    __slots__ = ("_array", "_index")

    def __init__(self, backing: "SoaCacheArray", index: int) -> None:
        self._array = backing
        self._index = index

    @property
    def block(self) -> int:
        return self._array._tags[self._index]

    @property
    def state(self) -> CacheState:
        return _CACHE_STATES[self._array._states[self._index]]

    @state.setter
    def state(self, value: CacheState) -> None:
        self._array._states[self._index] = value

    @property
    def written(self) -> bool:
        return bool(self._array._written[self._index])

    @written.setter
    def written(self, value: bool) -> None:
        self._array._written[self._index] = 1 if value else 0

    @property
    def data(self) -> SlabBlockData:
        return self._array._data_view(self._index)

    @data.setter
    def data(self, value) -> None:
        # Update-mode absorb does ``line.data = packet.data.copy()``:
        # land the words in the slab, keeping the live view current.
        self._array._store_words(self._index, value.words)

    @property
    def valid(self) -> bool:
        return bool(self._array._states[self._index])


class SoaCacheArray:
    """Direct-mapped tag/data array over flat parallel columns.

    Drop-in for :class:`~repro.cache.cache.CacheArray`: same indexing
    math, same install/invalidate victim semantics, view objects instead
    of per-line instances.
    """

    def __init__(self, space: "AddressSpace", n_lines: int) -> None:
        if n_lines < 1 or (n_lines & (n_lines - 1)):
            raise ValueError("cache line count must be a power of two")
        self.space = space
        self.n_lines = n_lines
        self._block_shift = space.block_bytes.bit_length() - 1
        self._index_mask = n_lines - 1
        self._words_per_block = space.words_per_block
        # Tags are a plain list (fastest per-element indexing; holds the
        # -1 empty sentinel and arbitrary block addresses); the state and
        # written flags are bytearrays, which index as fast as lists but
        # also expose the buffer protocol for the bulk occupancy scan.
        self._tags: list[int] = [-1] * n_lines
        self._states = bytearray(n_lines)
        self._written = bytearray(n_lines)
        # Repeating a one-word array zero-fills 25x faster than building
        # the slab through a temporary ``bytes`` of the same size.
        self._slab = array("q", [0]) * (n_lines * self._words_per_block)
        self._slab_view = memoryview(self._slab)
        self._views: list[SoaCacheLine | None] = [None] * n_lines
        self._datas: list[SlabBlockData | None] = [None] * n_lines

    @property
    def capacity_bytes(self) -> int:
        return self.n_lines * self.space.block_bytes

    def index_of(self, block: int) -> int:
        return (block >> self._block_shift) & self._index_mask

    def _view(self, index: int) -> SoaCacheLine:
        view = self._views[index]
        if view is None:
            view = SoaCacheLine(self, index)
            self._views[index] = view
        return view

    def _data_view(self, index: int) -> SlabBlockData:
        data = self._datas[index]
        if data is None:
            w = self._words_per_block
            data = SlabBlockData(self._slab_view[index * w : (index + 1) * w])
            self._datas[index] = data
        return data

    def _materialize(self, index: int) -> CacheLine:
        """A detached plain line snapshotting slot ``index``."""
        w = self._words_per_block
        data = BlockData(0)
        data.words = list(self._slab_view[index * w : (index + 1) * w])
        return CacheLine(
            self._tags[index],
            _CACHE_STATES[self._states[index]],
            data,
            bool(self._written[index]),
        )

    def lookup(self, block: int) -> SoaCacheLine | None:
        """The resident line for ``block`` or None on tag mismatch/invalid."""
        index = (block >> self._block_shift) & self._index_mask
        if self._tags[index] == block and self._states[index]:
            return self._view(index)
        return None

    def resident(self, index: int) -> SoaCacheLine | None:
        if self._states[index]:
            return self._view(index)
        return None

    def install(
        self, block: int, state: CacheState, data: BlockData
    ) -> CacheLine | None:
        """Install a fill; returns the evicted victim line, if any.

        The victim is a *detached* snapshot taken before the slot is
        overwritten: the caller's ``_evict`` sends its data home and then
        invalidates it, and neither action may touch the new resident.
        """
        index = (block >> self._block_shift) & self._index_mask
        victim = None
        if self._states[index] and self._tags[index] != block:
            victim = self._materialize(index)
        # Words first: one outside int64 raises before the slot changes.
        self._store_words(index, data.words)
        self._tags[index] = block
        self._states[index] = state
        self._written[index] = 0
        return victim

    def _store_words(self, index: int, words) -> None:
        """Copy ``words`` over slot ``index``'s slice of the slab."""
        w = self._words_per_block
        # Through the view: a payload that is not exactly one line raises
        # ValueError instead of spilling into the neighbouring slot.
        self._slab_view[index * w : (index + 1) * w] = array("q", words)

    def invalidate(self, block: int) -> SoaCacheLine | None:
        """Drop the block if resident; returns the dropped line."""
        line = self.lookup(block)
        if line is not None:
            self._states[line._index] = 0
            return line
        return None

    def valid_lines(self) -> list[CacheLine]:
        """Detached plain lines (plain ``list`` words) for every valid slot.

        Materialized so audit holdings and checkpoint digests serialize
        exactly like the reference objects.  The occupancy scan is one
        ``find`` chain per valid state (a ``memchr`` each), not a Python
        loop over every slot.
        """
        find = self._states.find
        indices = []
        for value in _VALID_BYTES:
            at = find(value)
            while at >= 0:
                indices.append(at)
                at = find(value, at + 1)
        indices.sort()
        return [self._materialize(index) for index in indices]


# ----------------------------------------------------------------------
# Directory side
# ----------------------------------------------------------------------


class PointerSet(MutableSet):
    """``set``-shaped view over one entry's pointer bitmask.

    Membership, add, and discard are single bit operations on an integer
    held in the directory's column list.  Every derived collection the
    :class:`~collections.abc.Set` mixins build (``- {home}``, ``| other``)
    detaches into a plain ``set`` via ``_from_iterable``, which is what
    the protocol code expects to receive.
    """

    __slots__ = ("_column", "_index")

    def __init__(self, column: list[int], index: int) -> None:
        self._column = column
        self._index = index

    @classmethod
    def _from_iterable(cls, iterable: Iterable[int]) -> set:
        return set(iterable)

    def __contains__(self, node: object) -> bool:
        return (
            isinstance(node, int)
            and node >= 0
            and (self._column[self._index] >> node) & 1 == 1
        )

    def __iter__(self) -> Iterator[int]:
        bits = self._column[self._index]
        while bits:
            low = bits & -bits
            yield low.bit_length() - 1
            bits ^= low

    def __len__(self) -> int:
        return self._column[self._index].bit_count()

    def add(self, node: int) -> None:
        self._column[self._index] |= 1 << node

    def discard(self, node: int) -> None:
        self._column[self._index] &= ~(1 << node)

    def clear(self) -> None:
        self._column[self._index] = 0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"PointerSet({set(self)})"


def _bits_of(nodes: Iterable[int]) -> int:
    bits = 0
    for node in nodes:
        bits |= 1 << node
    return bits


class SoaDirectoryEntry:
    """``DirectoryEntry``-shaped view of one row of a :class:`SoaDirectory`.

    Every method replicates :class:`~repro.coherence.entry.DirectoryEntry`
    behavior exactly, computing over the row's bitmasks instead of sets.
    """

    __slots__ = ("_dir", "_index", "_sharers", "_acks")

    def __init__(self, directory: "SoaDirectory", index: int) -> None:
        self._dir = directory
        self._index = index
        self._sharers = PointerSet(directory._sharers, index)
        self._acks = PointerSet(directory._acks, index)

    # -- plain columns --------------------------------------------------

    @property
    def block(self) -> int:
        return self._dir._blocks[self._index]

    @property
    def home(self) -> int:
        return self._dir.home

    @property
    def state(self) -> DirState:
        return _DIR_STATES[self._dir._state[self._index]]

    @state.setter
    def state(self, value: DirState) -> None:
        self._dir._state[self._index] = value

    @property
    def meta(self) -> MetaState:
        return _META_STATES[self._dir._meta[self._index]]

    @meta.setter
    def meta(self, value: MetaState) -> None:
        self._dir._meta[self._index] = value

    @property
    def trap_mode(self) -> MetaState | None:
        raw = self._dir._trap[self._index]
        return None if raw == _NO_TRAP else _META_STATES[raw]

    @trap_mode.setter
    def trap_mode(self, value: MetaState | None) -> None:
        self._dir._trap[self._index] = _NO_TRAP if value is None else value

    @property
    def local_bit(self) -> bool:
        return bool(self._dir._local[self._index])

    @local_bit.setter
    def local_bit(self, value: bool) -> None:
        self._dir._local[self._index] = 1 if value else 0

    @property
    def requester(self) -> int | None:
        raw = self._dir._requester[self._index]
        return None if raw < 0 else raw

    @requester.setter
    def requester(self, value: int | None) -> None:
        self._dir._requester[self._index] = -1 if value is None else value

    @property
    def txn(self) -> int:
        return self._dir._txn[self._index]

    @txn.setter
    def txn(self, value: int) -> None:
        self._dir._txn[self._index] = value

    @property
    def peak_sharers(self) -> int:
        return self._dir._peak[self._index]

    @peak_sharers.setter
    def peak_sharers(self, value: int) -> None:
        self._dir._peak[self._index] = value

    @property
    def pending(self) -> deque:
        found = self._dir._pending[self._index]
        if found is None:
            found = deque()
            self._dir._pending[self._index] = found
        return found

    @pending.setter
    def pending(self, value) -> None:
        self._dir._pending[self._index] = deque(value)

    # -- pointer sets ---------------------------------------------------

    @property
    def sharers(self) -> PointerSet:
        return self._sharers

    @sharers.setter
    def sharers(self, value: Iterable[int]) -> None:
        # Compute before assigning: ``entry.sharers |= x`` hands the
        # mutated live view back through this setter.
        self._dir._sharers[self._index] = _bits_of(value)

    @property
    def ack_waiting(self) -> PointerSet:
        return self._acks

    @ack_waiting.setter
    def ack_waiting(self, value: Iterable[int]) -> None:
        self._dir._acks[self._index] = _bits_of(value)

    # -- pointer accounting (reference semantics, bitwise) --------------

    def pointers_used(self) -> int:
        bits = self._dir._sharers[self._index] & ~(1 << self._dir.home)
        return bits.bit_count()

    def all_copy_holders(self) -> set[int]:
        holders = set(self._sharers)
        if self._dir._local[self._index]:
            holders.add(self._dir.home)
        return holders

    def add_sharer(self, node: int) -> None:
        directory = self._dir
        index = self._index
        if node == directory.home:
            directory._local[index] = 1
        else:
            directory._sharers[index] |= 1 << node
        bits = directory._sharers[index]
        if directory._local[index]:
            bits |= 1 << directory.home
        count = bits.bit_count()
        if count > directory._peak[index]:
            directory._peak[index] = count

    def drop_sharer(self, node: int) -> None:
        if node == self._dir.home:
            self._dir._local[self._index] = 0
        else:
            self._dir._sharers[self._index] &= ~(1 << node)

    def clear_sharers(self) -> None:
        self._dir._sharers[self._index] = 0
        self._dir._local[self._index] = 0

    def holds(self, node: int) -> bool:
        if node == self._dir.home:
            return bool(self._dir._local[self._index])
        return (self._dir._sharers[self._index] >> node) & 1 == 1

    # -- transactions ---------------------------------------------------

    def begin_transaction(self, requester: int, targets: Iterable[int]) -> int:
        directory = self._dir
        index = self._index
        directory._txn[index] += 1
        directory._requester[index] = requester
        directory._acks[index] = _bits_of(targets)
        return directory._txn[index]

    def ack_from(self, node: int, txn: int | None) -> bool:
        directory = self._dir
        index = self._index
        if not (directory._acks[index] >> node) & 1:
            return False
        if txn is not None and txn != directory._txn[index]:
            return False
        directory._acks[index] &= ~(1 << node)
        return True

    @property
    def acks_outstanding(self) -> int:
        return self._dir._acks[self._index].bit_count()

    def idle(self) -> bool:
        directory = self._dir
        index = self._index
        pending = directory._pending[index]
        return (
            directory._state[index] <= 1  # READ_ONLY or READ_WRITE
            and directory._meta[index] != MetaState.TRANS_IN_PROGRESS
            and not pending
            and not directory._acks[index]
        )

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"SoaDirectoryEntry(block={self.block:#x}, state={self.state}, "
            f"sharers={set(self._sharers)}, local_bit={self.local_bit}, "
            f"meta={self.meta})"
        )


class SoaDirectory:
    """All directory entries homed at one node, stored as columns.

    Drop-in for :class:`~repro.coherence.entry.Directory`: first-touch
    allocation, insertion-ordered ``entries()``, the same row defaults as
    the reference dataclass.  The columns are byte arrays (states and
    flags) and lists of ints (everything wider, the pointer masks
    included): both grow in place and both are walked directly by the
    compiled directory kernel (``DirKernel`` in ``_native.c``).
    """

    def __init__(self, home: int) -> None:
        self.home = home
        self._rows: dict[int, int] = {}
        self._blocks: list[int] = []
        self._state = bytearray()
        self._meta = bytearray()
        self._trap = bytearray()
        self._local = bytearray()
        self._requester: list[int] = []
        self._txn: list[int] = []
        self._peak: list[int] = []
        self._sharers: list[int] = []
        self._acks: list[int] = []
        self._pending: list[deque | None] = []
        self._entry_views: list[SoaDirectoryEntry] = []

    def entry(self, block: int) -> SoaDirectoryEntry:
        index = self._rows.get(block)
        if index is None:
            index = len(self._blocks)
            self._rows[block] = index
            self._blocks.append(block)
            self._state.append(DirState.READ_ONLY)
            self._meta.append(MetaState.NORMAL)
            self._trap.append(_NO_TRAP)
            self._local.append(0)
            self._requester.append(-1)
            self._txn.append(0)
            self._peak.append(0)
            self._sharers.append(0)
            self._acks.append(0)
            self._pending.append(None)
            self._entry_views.append(SoaDirectoryEntry(self, index))
        return self._entry_views[index]

    def entries(self) -> list[SoaDirectoryEntry]:
        return list(self._entry_views)

    def __len__(self) -> int:
        return len(self._blocks)

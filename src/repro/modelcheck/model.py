"""Concrete-execution protocol model: one block, N caches, real logic.

The model deliberately does **not** re-specify the protocol in a guarded-
action language — a respecification can only prove the respecification.
Instead it wraps the *production* controllers (`repro.coherence.*`,
`repro.cache.controller`) around a capture network that records sends
instead of delivering them.  One model-checking transition is:

1. restore the concrete world (directory entry, cache arrays, MSHRs,
   software vectors, protocol extras, IPI queue) from an abstract
   :class:`~repro.modelcheck.state.MCState`;
2. perform exactly one event — deliver the head message of one
   (src, dst) channel, run one pending LimitLESS trap, or issue one
   processor op (load / store / replacement) at one cache; and
3. drain the event queue (every send lands in the capture buffer, so a
   step always terminates) and snapshot the world back to an abstract
   state, appending the captured sends to their FIFO channels.

Delivering only channel heads preserves the per-(src, dst) FIFO order the
real interconnect guarantees — the controllers' race handling (REPM
crossing INV, stray-ack filtering) is load-bearing on that order — while
still exploring every interleaving *across* channels.

One sound reduction is applied on top: a BUSY nack that reaches the head
of its channel is delivered *eagerly*, inside the step that exposed it,
instead of becoming a scheduling choice.  BUSY delivery only touches the
requester's MSHR retry bookkeeping and re-enqueues the nacked request —
no invariant reads either — and it commutes with every other enabled
action: the traffic pattern is a star (all messages into a cache come
from the home on one FIFO channel), so nothing can overtake a
head-of-channel BUSY, and the retried request lands at the tail of the
requester-to-home channel in every schedule.  Collapsing it prunes the
interleavings of BUSY/retry ping-pong, which under contention is a large
slice of the raw state space, without hiding any reachable state.

Data values are abstracted to a single word: 0 means "never written" and
``node + 1`` means "last written by ``node``", which is exactly what the
data-value invariant needs and keeps the value domain finite.

Concrete execution is memoized per *half-step*.  A transition touches
exactly one half of the machine — the home side (directory entry, memory
word, IPI queue, protocol extras) or one cache — and everything else a
component does is a captured send.  The home controller never reads
cache state and a cache never reads home state (the same fact the
snapshot diffing relies on), and the production code is deterministic
(transaction ids come from ``entry.txn``, the model pins the fifo victim
policy, nothing consults the clock), so the effect of one sub-step is a
pure function of (touched half's projection, event).  The first time a
(projection, event) pair is seen it runs on the live objects and the
(new projection, sends, error) triple is recorded; every later
occurrence — the overwhelming majority, because BFS revisits the same
local configurations from thousands of global states — is a dictionary
lookup plus tuple surgery, with no simulator involvement at all.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Optional

from ..cache.cache import CacheArray, CacheLine
from ..cache.controller import CacheController, Mshr, _Waiter
from ..cache.states import CacheState
from ..coherence.approx import ApproxLimitLessController, _EmulatedEntry
from ..coherence.broadcast import BroadcastController
from ..coherence.chained import ChainedController
from ..coherence.fullmap import FullMapController
from ..coherence.limited import LimitedController
from ..coherence.limitless import (
    LimitLessController,
    LimitLessSoftware,
    TrapAlwaysController,
    TrapEngine,
)
from ..coherence.states import DirState, MetaState, ProtocolError
from ..mem.address import AddressSpace
from ..mem.memory import BlockData, MainMemory
from ..network.fabric import Network
from ..network.interface import NetworkInterface
from ..network.packet import (
    CACHE_TO_MEMORY,
    DATA_BEARING_OPCODES,
    Packet,
    protocol_packet,
)
from ..sim.kernel import Simulator
from ..verify.predicates import BlockView, quiescent_problems, state_problems
from .state import MCState, Msg, canonical_key, pack_channels

#: an action is one of
#:   ("deliver", src, dst)  — hand the head of channel (src, dst) to dst
#:   ("trap",)              — run one pending LimitLESS trap at the home
#:   ("load", node)         — processor load at a node with no copy
#:   ("store", node)        — processor store at a node
#:   ("evict", node)        — conflict-replace a node's valid line
Action = tuple


class ModelInternalError(AssertionError):
    """The harness itself lost track of the world (a checker bug)."""


class _StepFault(Exception):
    """Carrier for a (possibly memoized) protocol failure, pre-formatted."""


class _NullCounter(dict):
    """A dict that swallows writes: ``c[k] += n`` reads 0 and stores
    nothing, so hot-path direct bumps cost almost nothing here."""

    def __missing__(self, key):
        return 0

    def __setitem__(self, key, value) -> None:
        pass


class _NullSlots(list):
    """A slot array that swallows writes (``slots[i] += 1`` is a no-op)
    and never runs out of cells, whatever the global registry grows to."""

    def __getitem__(self, idx):
        return 0

    def __setitem__(self, idx, value) -> None:
        pass


class _NullCounters:
    """Counter sink for model runs: statistics are meaningless across
    restored worlds, and the bump-per-event cost is pure overhead.

    ``_values`` and ``slot_view`` mirror
    :class:`repro.stats.counters.Counters`, which the controllers' hot
    paths bump directly.
    """

    def __init__(self) -> None:
        self._values = _NullCounter()
        self._slots = _NullSlots()

    def slot_view(self) -> list:
        return self._slots

    def bump(self, name: str, amount: int = 1) -> None:
        pass

    def get(self, name: str) -> int:
        return 0


class CaptureNetwork(Network):
    """A network that records sends instead of delivering them."""

    def __init__(self, sim: Simulator, n_nodes: int) -> None:
        super().__init__(sim, n_nodes)
        self.captured: list[Packet] = []

    def send(self, packet: Packet) -> None:
        self.captured.append(packet)


class ManualTrapEngine(TrapEngine):
    """A trap engine whose traps fire only when the explorer says so.

    The real engines schedule the handler on the simulator clock, which
    would glue "packet diverted" and "trap handled" into one atomic step;
    here each requested trap becomes a separate model transition.
    """

    def __init__(self) -> None:
        self.pending: deque[Callable[[], None]] = deque()

    def request_trap(self, cycles: int, callback: Callable[[], None]) -> None:
        self.pending.append(callback)

    def run_next(self) -> None:
        if not self.pending:
            raise ModelInternalError("trap fired with none pending")
        self.pending.popleft()()


@dataclass(frozen=True)
class ModelSpec:
    """How to build (and canonicalize) one protocol's model."""

    controller: type
    #: extra controller kwargs as a function of the pointer budget
    kwargs: Callable[[int], dict]
    #: does the home need a LimitLessSoftware trap handler?
    software: bool = False
    #: is the transition logic equivariant under non-home node renaming?
    #: (``limited`` falls back to a lowest-id victim and ``chained`` walks
    #: targets in id order, so both are explored without reduction)
    symmetric: bool = True


SPECS: dict[str, ModelSpec] = {
    "fullmap": ModelSpec(FullMapController, lambda p: {}),
    "limited": ModelSpec(
        LimitedController,
        lambda p: {"pointer_capacity": p},
        symmetric=False,
    ),
    "limited_broadcast": ModelSpec(
        BroadcastController, lambda p: {"pointer_capacity": p}
    ),
    "limitless": ModelSpec(
        LimitLessController,
        lambda p: {"pointer_capacity": p},
        software=True,
    ),
    "limitless_approx": ModelSpec(
        ApproxLimitLessController,
        lambda p: {"hw_pointers": p, "ts": 1, "trap_engine": None},
    ),
    "chained": ModelSpec(ChainedController, lambda p: {}, symmetric=False),
    "trap_always": ModelSpec(
        TrapAlwaysController,
        lambda p: {"pointer_capacity": p},
        software=True,
    ),
}


def checkable_protocols() -> dict[str, ModelSpec]:
    """Registry protocols plus the deliberately broken mutants."""
    from .mutants import MUTANTS

    merged = dict(SPECS)
    merged.update(MUTANTS)
    return merged


def model_spec(name: str) -> ModelSpec:
    specs = checkable_protocols()
    try:
        return specs[name]
    except KeyError:
        raise ValueError(
            f"unknown protocol {name!r}; choose from {sorted(specs)}"
        ) from None


@dataclass
class StepResult:
    """What one applied transition did (for trace rendering)."""

    action: Action
    state: Optional[MCState]
    error: Optional[str] = None
    #: the message consumed by a "deliver" action: (src, dst, op, txn, data)
    delivered: Optional[tuple] = None
    #: messages launched during the step, in send order
    sent: list = field(default_factory=list)
    #: BUSY nacks auto-delivered by the eager collapse, same shape
    auto: list = field(default_factory=list)


_IDLE_DIR_STATES = ("READ_ONLY", "READ_WRITE")


class ProtocolModel:
    """One protocol's single-block world plus the snapshot/restore logic."""

    def __init__(
        self,
        protocol: str,
        n_caches: int = 3,
        *,
        pointers: int = 1,
        compiled: bool = False,
    ):
        """``compiled`` builds the home side the way ``backend="native"``
        does — compiled event core, ``SoaDirectory`` columns, a
        ``DirKernel`` installed on the controller — so that the test tier
        can hold the compiled Table-2 cells to the reference ones, home
        step by home step (tests/modelcheck/test_compiled.py)."""
        if n_caches < 2:
            raise ValueError("need at least two caches to share a block")
        self.protocol = protocol
        self.n_nodes = n_caches
        self.pointers = pointers
        self.spec = model_spec(protocol)
        self.symmetric = self.spec.symmetric
        if protocol == "limited" and pointers == 1:
            # Dir_1NB is node-symmetric after all: overflow leaves at most
            # one evictable pointer, so the fifo victim choice (and its
            # lowest-id fallback) is forced — no transition consults a
            # concrete node id.  With >= 2 pointers the fallback can pick
            # among several candidates by id, so the spec default stands.
            self.symmetric = True

        #: the native backend's home-side parts, when compiled
        native_home = self._native_home() if compiled else {}
        self.sim = native_home.pop("sim", None) or Simulator()
        self.space = AddressSpace(
            n_nodes=n_caches, block_bytes=16, segment_bytes=1 << 16
        )
        self.block = self.space.address(0, 0x100)
        self.net = CaptureNetwork(self.sim, n_caches)
        self.nics = [
            NetworkInterface(self.sim, i, self.net) for i in range(n_caches)
        ]
        self.memory = MainMemory(self.space, 0)
        null_counters = _NullCounters()
        self.controller = self.spec.controller(
            self.sim,
            0,
            self.space,
            self.memory,
            self.nics[0],
            dir_occupancy=1,
            **{
                "counters": null_counters,
                **self.spec.kwargs(pointers),
                **self._controller_extra_kwargs(),
                **native_home,
            },
        )
        self.engine: ManualTrapEngine | None = None
        self.software: LimitLessSoftware | None = None
        if self.spec.software:
            self.engine = ManualTrapEngine()
            self.software = LimitLessSoftware(
                self.controller, self.nics[0], self.engine, ts=1
            )
        if compiled:
            from ..backend.native import install_dir_kernel

            self.dir_kernel = install_dir_kernel(self.controller)
            if self.dir_kernel is None:
                raise ValueError(
                    f"{protocol!r} runs its own pipeline: no compiled "
                    "directory kernel applies to it"
                )
        self.caches = [
            CacheController(
                self.sim,
                i,
                self.space,
                CacheArray(self.space, 1),
                self.nics[i],
                hit_latency=1,
                retry_base=1,
                retry_cap=1,
                counters=null_counters,
                **self._cache_extra_kwargs(),
            )
            for i in range(n_caches)
        ]
        self.entry = self.controller.directory.entry(self.block)
        #: packets are immutable once built (the capture network never
        #: stamps them), so identical messages reuse one object
        self._packet_cache: dict[tuple[Msg, int], Packet] = {}
        #: half-step memos (see module docstring): (projection, event) ->
        #: (new projection, sends, error)
        self._home_memo: dict = {}
        self._cache_memo: dict = {}
        #: the MCState the live objects currently embody (None = unknown,
        #: e.g. mid-step or after a failed step) — lets _restore diff
        #: instead of rebuilding the whole world for every transition
        self._world: Optional[MCState] = None
        # Snapshot the pristine world once: the live objects are reused
        # (and mutated) by every apply(), so this cannot be recomputed.
        self._initial = self._snapshot({})
        self._world = self._initial

    @staticmethod
    def _native_home() -> dict:
        """What ``backend="native"`` builds a home node from: the compiled
        event core (``sim``) and the controller's storage arguments — the
        kernel walks ``SoaDirectory`` columns, bumps real counter cells
        and allocates from the compiled pool (disabled, as the model's
        reference pool is: packets are shared, never recycled)."""
        from ..backend import native
        from ..backend.soa import SoaDirectory
        from ..stats.counters import Counters

        if not native.available():
            raise RuntimeError(
                "a compiled model needs the native extension: "
                f"{native.load_status()[1]}"
            )
        return {
            "sim": native.NativeSimulator(),
            "directory": SoaDirectory(0),
            "counters": Counters(),
            "pool": native.NativePacketPool(enabled=False),
        }

    def _controller_extra_kwargs(self) -> dict:
        """Extra directory-controller kwargs (hook for fault models)."""
        return {}

    def _cache_extra_kwargs(self) -> dict:
        """Extra cache-controller kwargs (hook for fault models)."""
        return {}

    # ------------------------------------------------------------------
    # Abstraction helpers
    # ------------------------------------------------------------------

    def _block_data(self, value: int) -> BlockData:
        data = BlockData(self.space.words_per_block)
        data.words[0] = value
        return data

    def _abstract_data(self, data: BlockData | None) -> Optional[int]:
        if data is None:
            return None
        if any(data.words[1:]):
            raise ModelInternalError(f"non-abstract block data {data.words}")
        return data.words[0]

    def _msg(self, packet: Packet) -> Msg:
        extra = set(packet.meta) - {"txn"}
        if extra:
            raise ModelInternalError(f"unmodelled packet meta {extra}")
        return (
            packet.src,
            str(packet.opcode),  # canonical states spell opcodes as names
            packet.meta.get("txn"),
            self._abstract_data(packet.data),
        )

    def _packet(self, msg: Msg, dst: int) -> Packet:
        packet = self._packet_cache.get((msg, dst))
        if packet is not None:
            return packet
        src, opcode, txn, value = msg
        data = (
            self._block_data(value) if opcode in DATA_BEARING_OPCODES else None
        )
        if opcode in ("INV", "ACKC", "UPDATE"):
            packet = protocol_packet(
                src, dst, opcode, self.block, data=data, txn=txn
            )
        else:
            packet = protocol_packet(src, dst, opcode, self.block, data=data)
        self._packet_cache[(msg, dst)] = packet
        return packet

    def store_value(self, node: int) -> int:
        return node + 1

    # ------------------------------------------------------------------
    # Snapshot / restore
    # ------------------------------------------------------------------

    def initial_state(self) -> MCState:
        return self._initial

    def _snapshot_cache(self, node: int) -> tuple:
        cc = self.caches[node]
        line = cc.array.lookup(self.block)
        mshr = cc._mshrs.get(self.block)
        if mshr is not None and len(mshr.waiters) != 1:
            raise ModelInternalError(
                f"node {node} MSHR carries {len(mshr.waiters)} waiters"
            )
        return (
            line.state.name if line else "INVALID",
            self._abstract_data(line.data) if line else 0,
            mshr.need_write if mshr else None,
        )

    def _home_of_live(self) -> tuple:
        """The home-side projection of the live objects, in MCState field
        order with ``caches`` and ``channels`` omitted (indices 0-9 then
        12-15): a full state is ``MCState(*h[:10], caches, channels,
        *h[10:])``."""
        entry = self.entry
        ipi = tuple(self._msg(p) for p in self.nics[0]._ipi_queue)
        if self.engine is not None and len(self.engine.pending) != len(ipi):
            raise ModelInternalError("trap queue out of sync with IPI queue")
        return (
            entry.state.name,
            frozenset(entry.sharers),
            entry.local_bit,
            entry.requester,
            frozenset(entry.ack_waiting),
            entry.txn,
            entry.meta.name,
            entry.trap_mode.name if entry.trap_mode is not None else None,
            tuple(self._msg(p) for p in entry.pending),
            self._abstract_data(self.memory.block(self.block)),
            ipi,
            *self._snapshot_extras(),
        )

    def _snapshot(self, channels: dict[tuple[int, int], list[Msg]]) -> MCState:
        """Abstract the whole live world (used once, for the pristine
        initial state; transitions re-read only the half they touched)."""
        for packet in self.net.captured:
            channels.setdefault((packet.src, packet.dst), []).append(
                self._msg(packet)
            )
        self.net.captured.clear()
        caches = tuple(
            self._snapshot_cache(node) for node in range(self.n_nodes)
        )
        home = self._home_of_live()
        return MCState(*home[:10], caches, pack_channels(channels), *home[10:])

    def _snapshot_extras(self):
        node_sets, node_lists, scalars = [], [], []
        c = self.controller
        if self.software is not None:
            node_sets.append(
                frozenset(self.software.vectors.get(self.block, ()))
            )
        if isinstance(c, LimitedController):
            node_lists.append(tuple(c._fifo_order.get(self.block, ())))
        if isinstance(c, ChainedController):
            node_lists.append(tuple(c._inv_queue.get(self.block, ())))
        if isinstance(c, BroadcastController):
            scalars.append(self.block in c._broadcast)
        if isinstance(c, ApproxLimitLessController):
            emu = c._emulated.get(self.block)
            scalars.extend(
                (emu.hw_count, emu.trap_on_write) if emu else (0, False)
            )
        return tuple(node_sets), tuple(node_lists), tuple(scalars)

    def _restore(self, s: MCState) -> None:
        """Make the live objects embody ``s``.

        When the current world is known (``self._world``), only the
        fields that differ are rebuilt — in BFS order most transitions
        are re-applied from the state just expanded, so the diff is one
        cache or the entry, not the whole machine.  Concrete details the
        abstraction deliberately ignores (the written bit, MSHR
        timestamps, peak-sharer stats) may then survive a diff restore;
        all of them are write-only for the protocol logic.
        """
        world = self._world
        if world is s:
            return
        if world is None:
            # A failed step may abort mid-drain; scrap leftover events.
            self.sim._queue.clear()
            self.net.captured.clear()
        if world is None or world.mem != s.mem:
            self.memory.block(self.block).words = self._block_data(s.mem).words
        entry = self.entry
        if world is None or world.dir_state != s.dir_state:
            entry.state = DirState[s.dir_state]
        if world is None or world.sharers != s.sharers:
            entry.sharers = set(s.sharers)
        if world is None or world.local_bit != s.local_bit:
            entry.local_bit = s.local_bit
        if world is None or world.requester != s.requester:
            entry.requester = s.requester
        if world is None or world.ack_waiting != s.ack_waiting:
            entry.ack_waiting = set(s.ack_waiting)
        if world is None or world.txn != s.txn:
            entry.txn = s.txn
        if world is None or world.meta != s.meta:
            entry.meta = MetaState[s.meta]
        if world is None or world.trap_mode != s.trap_mode:
            entry.trap_mode = (
                MetaState[s.trap_mode] if s.trap_mode is not None else None
            )
        if world is None or world.pending != s.pending:
            entry.pending = deque(self._packet(m, 0) for m in s.pending)
        entry.peak_sharers = 0
        if world is None or (
            (world.node_sets, world.node_lists, world.scalars)
            != (s.node_sets, s.node_lists, s.scalars)
        ):
            self._restore_extras(s)
        for node, view in enumerate(s.caches):
            if world is not None and world.caches[node] == view:
                continue
            self._restore_cache_view(node, view)
        if world is None or world.ipi != s.ipi:
            nic0 = self.nics[0]
            nic0._ipi_queue.clear()
            if self.engine is not None:
                self.engine.pending.clear()
            for msg in s.ipi:
                # Replaying through divert_to_ipi re-arms the trap
                # handler, so the manual engine holds one pending trap
                # per queued packet.
                nic0.divert_to_ipi(self._packet(msg, 0))

    def _restore_cache_view(self, node: int, view: tuple) -> None:
        """Make one live cache embody its abstract view (first 3 fields:
        line state name, data value, MSHR need_write-or-None; fault
        models append more)."""
        line_state, value, need_write = view[0], view[1], view[2]
        cc = self.caches[node]
        cc._mshrs.clear()
        cc.array._lines.clear()
        if line_state != "INVALID":
            # written is write-only bookkeeping (nothing reads it
            # back), so the restored world may leave it stale
            cc.array._lines[cc.array.index_of(self.block)] = CacheLine(
                self.block,
                CacheState[line_state],
                self._block_data(value),
            )
        if need_write is not None:
            kind = "store" if need_write else "load"
            cc._mshrs[self.block] = Mshr(
                self.block,
                need_write,
                self.sim.now,
                [self._waiter(node, kind)],
            )

    def _restore_extras(self, s: MCState) -> None:
        c = self.controller
        sets, lists = list(s.node_sets), list(s.node_lists)
        if self.software is not None:
            vec = sets.pop(0)
            self.software.vectors.clear()
            if vec:
                self.software.vectors[self.block] = set(vec)
        if isinstance(c, LimitedController):
            c._fifo_order.clear()
            c._fifo_order[self.block] = list(lists.pop(0))
        if isinstance(c, ChainedController):
            c._inv_queue.clear()
            queue = list(lists.pop(0))
            if queue:
                c._inv_queue[self.block] = queue
        if isinstance(c, BroadcastController):
            c._broadcast.clear()
            if s.scalars[0]:
                c._broadcast.add(self.block)
        if isinstance(c, ApproxLimitLessController):
            hw_count, trap_on_write = s.scalars[-2], s.scalars[-1]
            c._emulated.clear()
            c._emulated[self.block] = _EmulatedEntry(hw_count, trap_on_write)

    def _waiter(self, node: int, kind: str) -> _Waiter:
        payload = self.store_value(node) if kind in ("store", "rmw") else None
        return _Waiter(kind, self.block, payload, lambda value: None, self.sim.now)

    # ------------------------------------------------------------------
    # Transitions
    # ------------------------------------------------------------------

    def enabled_actions(self, s: MCState) -> list[Action]:
        actions: list[Action] = [
            ("deliver", src, dst) for (src, dst), msgs in s.channels if msgs
        ]
        if s.ipi:
            actions.append(("trap",))
        for node, view in enumerate(s.caches):
            line_state, value, mshr = view[0], view[1], view[2]
            if mshr is None:
                if line_state == "INVALID":
                    actions.append(("load", node))
                # A store that would change nothing (already the
                # exclusive owner of its own value) is a pure self-loop.
                if not (
                    line_state == "READ_WRITE"
                    and value == self.store_value(node)
                ):
                    actions.append(("store", node))
            if line_state != "INVALID":
                actions.append(("evict", node))
        return actions

    @staticmethod
    def _pop_head(chan: dict, key: tuple[int, int]) -> Msg:
        queue = chan.get(key)
        if not queue:
            raise ModelInternalError(f"empty channel {key[0]}->{key[1]}")
        if len(queue) == 1:
            del chan[key]
        else:
            chan[key] = queue[1:]
        return queue[0]

    @staticmethod
    def _merge_sends(chan: dict, sends: tuple, sent_log: list) -> None:
        for dst, msg in sends:
            key = (msg[0], dst)
            queue = chan.get(key)
            chan[key] = (msg,) if queue is None else queue + (msg,)
            sent_log.append((msg[0], dst, *msg[1:]))

    def apply(self, s: MCState, action: Action) -> StepResult:
        """Run one transition from ``s``; never raises on protocol faults."""
        result = StepResult(action=action, state=None)
        chan = dict(s.channels)
        caches = list(s.caches)
        home = s[:10] + s[12:]
        try:
            kind = action[0]
            if kind == "deliver":
                _, src, dst = action
                msg = self._pop_head(chan, (src, dst))
                result.delivered = (src, dst, *msg[1:])
                if msg[1] in CACHE_TO_MEMORY:
                    home, sends = self._home_step(home, caches, ("deliver", msg))
                else:
                    caches[dst], sends = self._cache_step(
                        home, caches, dst, ("deliver", msg)
                    )
            elif kind == "trap":
                home, sends = self._home_step(home, caches, ("trap", None))
            elif kind in ("load", "store", "evict"):
                node = action[1]
                caches[node], sends = self._cache_step(
                    home, caches, node, (kind, None)
                )
            else:
                home, sends = self._apply_extra(home, caches, action)
            self._merge_sends(chan, sends, result.sent)
            # Collapse BUSY/retry ping-pong: deliver any BUSY that sits
            # at the head of a channel inside this same step (sound —
            # see the module docstring).
            while True:
                head_busy = None
                for key, queue in chan.items():
                    if queue[0][1] == "BUSY":
                        head_busy = key
                        break
                if head_busy is None:
                    break
                msg = self._pop_head(chan, head_busy)
                result.auto.append((*head_busy, *msg[1:]))
                caches[head_busy[1]], sends = self._cache_step(
                    home, caches, head_busy[1], ("deliver", msg)
                )
                self._merge_sends(chan, sends, result.sent)
            result.state = MCState(
                *home[:10],
                tuple(caches),
                tuple(sorted(chan.items())),
                *home[10:],
            )
        except _StepFault as exc:
            result.error = exc.args[0]
        except (ProtocolError, RuntimeError, AssertionError) as exc:
            result.error = f"{type(exc).__name__}: {exc}"
        return result

    def _apply_extra(self, home: tuple, caches: list, action: Action) -> tuple:
        """Hook for subclass-specific actions; returns (home, sends) and
        may update ``caches`` in place."""
        raise ModelInternalError(f"unknown action {action!r}")

    def _home_step(self, home: tuple, caches: list, op: tuple) -> tuple:
        memo = self._home_memo
        hit = memo.get((home, op))
        if hit is None:
            hit = self._concrete_step(home, caches, 0, op, home_side=True)
            memo[(home, op)] = hit
        new_home, sends, error = hit
        if error is not None:
            raise _StepFault(error)
        return new_home, sends

    def _cache_step(self, home: tuple, caches: list, node: int, op: tuple) -> tuple:
        memo = self._cache_memo
        key = (node, caches[node], op)
        hit = memo.get(key)
        if hit is None:
            hit = self._concrete_step(home, caches, node, op, home_side=False)
            memo[key] = hit
        new_view, sends, error = hit
        if error is not None:
            raise _StepFault(error)
        return new_view, sends

    def _concrete_step(
        self, home: tuple, caches: list, node: int, op: tuple, *, home_side: bool
    ) -> tuple:
        """Run one sub-step on the live objects and abstract the touched
        half back out.  Channels live only in the abstract state, so the
        assembled restore target can carry an empty channel field."""
        cur = MCState(*home[:10], tuple(caches), (), *home[10:])
        self._restore(cur)
        self._world = None  # about to mutate; unknown until re-read
        kind, msg = op
        try:
            if kind == "deliver":
                self.nics[node]._receive(self._packet(msg, node))
            elif kind == "trap":
                assert self.engine is not None
                self.engine.run_next()
            elif kind in ("load", "store"):
                value = self.store_value(node) if kind == "store" else None
                self.caches[node].access(kind, self.block, value, lambda v: None)
            elif kind == "evict":
                line = self.caches[node].array.lookup(self.block)
                if line is None:
                    raise ModelInternalError(f"evict at {node} with no line")
                self.caches[node]._evict(line)
            elif kind == "retx_req":
                if not self.caches[node].retransmit_request(self.block):
                    raise ModelInternalError(
                        f"retx_req at {node} with nothing to resend"
                    )
            elif kind == "retx_wb":
                if not self.caches[node].retransmit_writeback(self.block):
                    raise ModelInternalError(
                        f"retx_wb at {node} with an empty write-back buffer"
                    )
            elif kind == "retx_dir":
                self.controller.retransmit_invalidations(self.entry)
            else:
                raise ModelInternalError(f"unknown sub-step {kind!r}")
            self._drain()
            sends = tuple((p.dst, self._msg(p)) for p in self.net.captured)
            self.net.captured.clear()
            if home_side:
                new_half = self._home_of_live()
                world = MCState(*new_half[:10], tuple(caches), (), *new_half[10:])
            else:
                new_half = self._snapshot_cache(node)
                post = list(caches)
                post[node] = new_half
                world = MCState(*home[:10], tuple(post), (), *home[10:])
        except (ProtocolError, RuntimeError, AssertionError) as exc:
            # The live world is mid-step garbage; _world stays None so the
            # next restore rebuilds from scratch (and drops stale events).
            return (None, (), f"{type(exc).__name__}: {exc}")
        self._world = world
        return (new_half, sends, None)

    def _drain(self) -> None:
        self.sim.run()
        if self.sim._queue:
            raise ProtocolError("event queue failed to drain")

    # ------------------------------------------------------------------
    # Judgement
    # ------------------------------------------------------------------

    def view_of(self, s: MCState) -> BlockView:
        extras = self._extras_view(s)
        recorded: set[int] | None
        if extras.get("broadcast_armed"):
            recorded = None
        else:
            recorded = set(s.sharers)
            if s.local_bit:
                recorded.add(0)
            recorded |= extras.get("vector", set())
        inflight_inv = {
            dst
            for (_, dst), msgs in s.channels
            for m in msgs
            if m[1] == "INV"
        }
        return BlockView(
            block=self.block,
            dir_state=DirState[s.dir_state],
            meta=MetaState[s.meta],
            trap_mode=MetaState[s.trap_mode] if s.trap_mode is not None else None,
            recorded=recorded,
            awaited=set(s.ack_waiting) | extras.get("chained_queue", set()),
            requester=s.requester,
            cached={
                node: (CacheState[view[0]], view[1])
                for node, view in enumerate(s.caches)
                if view[0] != "INVALID"
            },
            memory_data=s.mem,
            pending_packets=len(s.pending),
            inflight_inv_targets=inflight_inv,
            traps_pending=len(s.ipi),
            software_vector=(
                extras["vector"] if self.software is not None else None
            ),
        )

    def _extras_view(self, s: MCState) -> dict:
        extras: dict = {}
        sets, lists = list(s.node_sets), list(s.node_lists)
        if self.software is not None:
            extras["vector"] = set(sets.pop(0))
        if isinstance(self.controller, ChainedController):
            extras["chained_queue"] = set(lists[-1])
        if isinstance(self.controller, BroadcastController):
            extras["broadcast_armed"] = bool(s.scalars[0])
        return extras

    def state_problems(self, s: MCState, predicates=None) -> list[str]:
        """Invariant failures in ``s`` (empty list = state is healthy)."""
        view = self.view_of(s)
        if predicates is not None:
            problems: list[str] = []
            for predicate in predicates:
                problems += predicate(view)
            return problems
        problems = state_problems(view, strict_vector=True)
        if self.is_quiescent(s):
            problems += quiescent_problems(view)
        return problems

    def _is_busy(self, s: MCState) -> bool:
        """Boolean twin of :meth:`_busy_reasons` — called for every state,
        so it must not build the explanation strings."""
        if (
            s.dir_state not in _IDLE_DIR_STATES
            or s.ack_waiting
            or s.pending
            or s.meta == "TRANS_IN_PROGRESS"
        ):
            return True
        for view in s.caches:
            if view[2] is not None:
                return True
        if isinstance(self.controller, ChainedController) and s.node_lists[-1]:
            return True
        return False

    def _busy_reasons(self, s: MCState) -> list[str]:
        reasons = []
        for node, view in enumerate(s.caches):
            if view[2] is not None:
                reasons.append(f"cache {node} has an open miss")
        if s.dir_state not in _IDLE_DIR_STATES:
            reasons.append(f"directory stuck in {s.dir_state}")
        if s.ack_waiting:
            reasons.append(
                f"acknowledgments outstanding from {sorted(s.ack_waiting)}"
            )
        if s.meta == "TRANS_IN_PROGRESS":
            reasons.append("entry interlocked (TRANS_IN_PROGRESS)")
        if s.pending:
            reasons.append(f"{len(s.pending)} packets queued at the entry")
        if isinstance(self.controller, ChainedController) and s.node_lists[-1]:
            reasons.append("chained invalidation walk unfinished")
        return reasons

    def is_quiescent(self, s: MCState) -> bool:
        return not s.channels and not s.ipi and not self._is_busy(s)

    def deadlock_problems(self, s: MCState) -> list[str]:
        """Non-quiescent but nothing in flight: no transition can help."""
        if s.channels or s.ipi:
            return []
        return self._busy_reasons(s)

    def key(self, s: MCState) -> MCState:
        return canonical_key(s, symmetric=self.symmetric)

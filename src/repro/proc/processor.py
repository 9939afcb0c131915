"""SPARCLE-like processor model.

Each processor runs one or more *contexts* (hardware threads; SPARCLE caches
four register frames).  A context executes a program — a generator yielding
:mod:`repro.proc.ops` tuples.  Following the paper (§2):

* cache hits and local-memory misses hold the processor;
* a memory request that must cross the interconnection network releases the
  pipeline and, if another context is ready, the processor switches to it in
  ``switch_cycles`` (11 in SPARCLE);
* LimitLESS traps run on this processor (it implements
  :class:`~repro.coherence.limitless.TrapEngine`), displacing application
  work — the source of both the Ts cost and the mild back-off effect seen
  in Figure 9.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum, auto
from functools import partial
from typing import Callable, Generator, Optional

from ..cache.controller import CacheController
from ..cache.states import CacheState
from ..coherence.limitless import TrapEngine
from ..mem.address import AddressSpace
from ..sim.component import Component
from ..sim.kernel import SimulationError, Simulator
from ..stats.counters import Counters, counter_slot
from . import ops

# Interned hot-counter slots (see repro.stats.counters): bumping a list
# cell beats hashing a dotted name on the instruction-issue path.
_THINK_SLOT = counter_slot("cpu.think_cycles")
_REMOTE_STALL_SLOT = counter_slot("cpu.remote_stalls")
_LOCAL_STALL_SLOT = counter_slot("cpu.local_stalls")


class ContextState(Enum):
    READY = auto()
    RUNNING = auto()
    BLOCKED = auto()
    DONE = auto()


@dataclass(slots=True)
class Context:
    """One hardware context (register frame set).

    Slotted: ``_step`` touches a dozen of these fields per issued op on
    both backends, and slot access skips the per-instance dict.
    """

    index: int
    gen: Generator
    state: ContextState = ContextState.READY
    started: bool = False
    resume_value: Optional[int] = None
    ops_executed: int = 0
    #: most recent op issued (debugging / deadlock diagnosis)
    last_op: tuple | None = None
    # -- weak-ordering store buffer state ------------------------------
    #: stores issued but not yet completed (memory_model="wo")
    outstanding_stores: int = 0
    #: per-block count of those stores (loads to these blocks must wait)
    pending_store_blocks: dict[int, int] = field(default_factory=dict)
    #: an op pulled from the generator but waiting on a drain condition
    pending_op: tuple | None = None
    #: what the pending op waits for: "slot" | "all" | a block address
    pending_needs: object = None
    #: remaining ops of an :func:`repro.proc.ops.burst` being executed
    burst_ops: tuple | None = None
    burst_pos: int = 0
    #: the :func:`repro.proc.ops.spin_until` being polled, if any
    spin: tuple | None = None
    #: completion callback pre-bound to this context (avoids allocating a
    #: closure per memory access in Processor._issue)
    mem_done: Callable[[Optional[int]], None] | None = None


class Processor(Component, TrapEngine):
    """In-order processor executing program generators over the cache."""

    def __init__(
        self,
        sim: Simulator,
        node_id: int,
        space: AddressSpace,
        cache: CacheController,
        *,
        switch_cycles: int = 11,
        max_contexts: int = 4,
        memory_model: str = "sc",
        store_buffer: int = 8,
        counters: Counters | None = None,
        on_done: Callable[["Processor"], None] | None = None,
    ) -> None:
        super().__init__(sim, f"cpu{node_id}")
        self.node_id = node_id
        self.space = space
        self.cache = cache
        self.switch_cycles = switch_cycles
        self.max_contexts = max_contexts
        if memory_model not in ("sc", "wo"):
            raise ValueError(f"unknown memory model {memory_model!r}")
        self.memory_model = memory_model
        self.store_buffer = store_buffer
        self.counters = counters if counters is not None else Counters()
        # Slot view of the counter bag for per-op bump sites: a list
        # item-add beats hashing a name on the instruction-issue hot path.
        self._slots = self.counters.slot_view()
        self.on_done = on_done
        self.contexts: list[Context] = []
        self._running: Context | None = None
        self._last_on_pipeline: Context | None = None
        # Trap engine state
        self.trap_free_at = 0
        self.trap_cycles = 0
        self.traps_taken = 0
        # Accounting
        self.busy_cycles = 0
        self.switch_charged = 0
        self.finish_time: int | None = None
        self.done = False

    # ------------------------------------------------------------------
    # Thread setup
    # ------------------------------------------------------------------

    def add_thread(self, gen: Generator) -> Context:
        """Load a program into a free hardware context."""
        if len(self.contexts) >= self.max_contexts:
            raise SimulationError(f"{self.name}: out of hardware contexts")
        if not hasattr(gen, "send"):
            raise SimulationError(
                f"{self.name}: programs must be generators (got {type(gen).__name__})"
            )
        ctx = Context(len(self.contexts), gen)
        ctx.mem_done = partial(self._mem_done, ctx)
        self.contexts.append(ctx)
        return ctx

    def start(self) -> None:
        """Begin executing (called once, at cycle 0 or later)."""
        if not self.contexts:
            self._finish()
            return
        self._dispatch(self.contexts[0], 0)

    # ------------------------------------------------------------------
    # TrapEngine: LimitLESS software runs here
    # ------------------------------------------------------------------

    def request_trap(self, cycles: int, callback: Callable[[], None]) -> None:
        start = max(self.now, self.trap_free_at)
        self.trap_free_at = start + cycles
        self.trap_cycles += cycles
        self.traps_taken += 1
        self.sim.post(self.trap_free_at, callback)

    # ------------------------------------------------------------------
    # Execution engine
    # ------------------------------------------------------------------

    def _dispatch(self, ctx: Context, delay: int) -> None:
        self._running = ctx
        self._last_on_pipeline = ctx
        ctx.state = ContextState.RUNNING
        self.schedule(delay, self._step, ctx)

    def _step(self, ctx: Context) -> None:
        if ctx.state is ContextState.DONE:  # pragma: no cover - safety net
            return
        if self.sim.now < self.trap_free_at:
            # A LimitLESS trap owns the pipeline; resume when it returns.
            self.sim.post(self.trap_free_at, self._step, ctx)
            return
        ctx.state = ContextState.RUNNING
        if ctx.pending_op is not None:
            # Resume an op that was parked on a store-buffer drain.
            op, ctx.pending_op, ctx.pending_needs = ctx.pending_op, None, None
        elif ctx.burst_ops is not None:
            # Mid-burst: pull the next precompiled op without resuming the
            # generator (its results are discarded by construction).
            ctx.resume_value = None
            burst = ctx.burst_ops
            pos = ctx.burst_pos
            op = burst[pos]
            pos += 1
            if pos == len(burst):
                ctx.burst_ops = None
                ctx.burst_pos = 0
            else:
                ctx.burst_pos = pos
            ctx.ops_executed += 1
        elif ctx.spin is not None and not ops.spin_satisfied(
            ctx.spin, ctx.resume_value
        ):
            # A failed poll: back off and poll again — the spin's retry
            # run ends with its load — without resuming the program.
            ctx.resume_value = None
            retry = ctx.spin[3]
            op = retry[0]
            if len(retry) > 1:
                ctx.burst_ops = retry
                ctx.burst_pos = 1
            ctx.ops_executed += 1
        else:
            value, ctx.resume_value = ctx.resume_value, None
            ctx.spin = None
            try:
                if ctx.started:
                    op = ctx.gen.send(value)
                else:
                    ctx.started = True
                    op = next(ctx.gen)
            except StopIteration:
                if ctx.outstanding_stores:
                    # Drain the store buffer before retiring the thread.
                    self._park(ctx, ("__retire__",), "all")
                    return
                self._retire(ctx)
                return
            ctx.ops_executed += 1
        ctx.last_op = op
        # The two dominant op kinds are dispatched here rather than in
        # _execute_op, saving a call frame per instruction; _execute_op
        # keeps its own copies for the burst re-entry path.
        kind = op[0]
        if kind == ops.THINK:
            cycles = op[1]
            self.busy_cycles += cycles
            self._slots[_THINK_SLOT] += cycles
            sim = self.sim
            sim.post(sim.now + cycles, self._step, ctx)
            return
        if kind == ops.LOAD:
            addr = op[1]
            block = self.space.block_of(addr)
            if ctx.pending_store_blocks and ctx.pending_store_blocks.get(block):
                self._park(ctx, op, block)
                return
            self._issue(ctx, "load", addr, None, block)
            return
        self._execute_op(ctx, op)

    def _execute_op(self, ctx: Context, op: tuple) -> None:
        kind = op[0]
        if kind == ops.THINK:
            cycles = op[1]
            self.busy_cycles += cycles
            self._slots[_THINK_SLOT] += cycles
            sim = self.sim
            sim.post(sim.now + cycles, self._step, ctx)
        elif kind == ops.LOAD:
            addr = op[1]
            block = self.space.block_of(addr)
            if ctx.pending_store_blocks and ctx.pending_store_blocks.get(block):
                # Self-consistency: a load must see this context's own
                # buffered store; wait for it to land.
                self._park(ctx, op, block)
                return
            self._issue(ctx, "load", addr, None, block)
        elif kind == ops.STORE:
            if self.memory_model == "wo":
                self._issue_buffered_store(ctx, op)
            else:
                addr = op[1]
                self._issue(ctx, "store", addr, op[2], self.space.block_of(addr))
        elif kind == ops.RMW:
            if ctx.outstanding_stores:
                self._park(ctx, op, "all")  # atomics fence implicitly
                return
            addr = op[1]
            self._issue(ctx, "rmw", addr, op[2], self.space.block_of(addr))
        elif kind == ops.FENCE:
            if ctx.outstanding_stores:
                self.counters.bump("cpu.fence_stalls")
                self._park(ctx, op, "all")
                return
            self.busy_cycles += 1
            self.schedule(1, self._step, ctx)
        elif kind == ops.SWITCH_HINT:
            self._switch_hint(ctx)
        elif kind == ops.BURST:
            # Install the precompiled run and execute its first op now;
            # _step pulls the rest without generator round trips.
            sub = op[1]
            if len(sub) > 1:
                ctx.burst_ops = sub
                ctx.burst_pos = 1
            ctx.last_op = sub[0]
            self._execute_op(ctx, sub[0])
        elif kind == ops.SPIN:
            # The first poll: note the spin and issue its load (the retry
            # run's last op); _step polls again while the predicate fails.
            _, pred, _arg, retry = op
            if pred != ops.GE and pred != ops.EQ:
                raise SimulationError(f"{self.name}: unknown spin predicate {pred!r}")
            load = retry[-1]
            ctx.spin = op
            ctx.last_op = load
            self._execute_op(ctx, load)
        elif kind == "__retire__":
            self._retire(ctx)
        else:
            raise SimulationError(f"{self.name}: unknown op {op!r}")

    def _switch_hint(self, ctx: Context) -> None:
        """Synchronization-fault switch: yield to a ready context, if any."""
        contexts = self.contexts
        n = len(contexts)
        if n > 1:
            for offset in range(1, n):
                candidate = contexts[(ctx.index + offset) % n]
                if candidate.state is ContextState.READY:
                    ctx.state = ContextState.READY
                    self.counters.bump("cpu.sync_switches")
                    self.switch_charged += self.switch_cycles
                    self._dispatch(candidate, self.switch_cycles)
                    return
        # nobody else is ready: continue after one cycle
        self.busy_cycles += 1
        sim = self.sim
        sim.post(sim.now + 1, self._step, ctx)

    # ------------------------------------------------------------------
    # Weakly-ordered stores (memory_model="wo")
    # ------------------------------------------------------------------

    def _issue_buffered_store(self, ctx: Context, op: tuple) -> None:
        if ctx.outstanding_stores >= self.store_buffer:
            self.counters.bump("cpu.store_buffer_full")
            self._park(ctx, op, "slot")
            return
        _, addr, value = op
        block = self.space.block_of(addr)
        ctx.outstanding_stores += 1
        ctx.pending_store_blocks[block] = (
            ctx.pending_store_blocks.get(block, 0) + 1
        )
        self.counters.bump("cpu.wo_stores_buffered")
        self.cache.access(
            "store", addr, value, lambda _v, b=block: self._store_done(ctx, b)
        )
        # The processor moves on: one cycle to issue into the buffer.
        self.busy_cycles += 1
        self.schedule(1, self._step, ctx)

    def _store_done(self, ctx: Context, block: int) -> None:
        ctx.outstanding_stores -= 1
        remaining = ctx.pending_store_blocks.get(block, 0) - 1
        if remaining > 0:
            ctx.pending_store_blocks[block] = remaining
        else:
            ctx.pending_store_blocks.pop(block, None)
        if (
            ctx.pending_op is not None
            and ctx.state is ContextState.BLOCKED
            and self._drain_satisfied(ctx)
        ):
            ctx.state = ContextState.READY
            if self._running is None:
                cost = 0 if self._last_on_pipeline is ctx else self.switch_cycles
                if cost:
                    self.switch_charged += cost
                    self.counters.bump("cpu.context_switches")
                self._dispatch(ctx, cost)

    def _drain_satisfied(self, ctx: Context) -> bool:
        needs = ctx.pending_needs
        if needs == "slot":
            return ctx.outstanding_stores < self.store_buffer
        if needs == "all":
            return ctx.outstanding_stores == 0
        return ctx.pending_store_blocks.get(needs, 0) == 0

    def _park(self, ctx: Context, op: tuple, needs) -> None:
        """Hold an op until the store buffer drains far enough."""
        ctx.pending_op = op
        ctx.pending_needs = needs
        ctx.state = ContextState.BLOCKED
        if self._running is ctx:
            self._running = None
            self._find_work()

    def _issue(self, ctx: Context, kind: str, addr: int, payload, block: int) -> None:
        cache = self.cache
        line = cache.array.lookup(block)
        ctx.state = ContextState.BLOCKED
        # _is_hit, inlined: loads hit on any valid copy, stores/rmws only
        # on an exclusive one.
        if line is not None and (
            line.state is CacheState.READ_WRITE
            or (kind == "load" and line.state is CacheState.READ_ONLY)
        ):
            # Hit: the pipeline is held; the tag check above doubles as
            # the controller's (same event, synchronous — the line state
            # cannot change in between).
            self.busy_cycles += cache.hit_latency
            cache.hit(kind, line, addr, payload, ctx.mem_done)
            return
        if self.space.home_of(block) != self.node_id:
            # Remote request: release the pipeline and switch if possible.
            self._slots[_REMOTE_STALL_SLOT] += 1
            self._running = None
        else:
            self._slots[_LOCAL_STALL_SLOT] += 1
        cache._access(kind, addr, payload, ctx.mem_done, block, line)
        if self._running is None:
            self._find_work()

    def _mem_done(self, ctx: Context, value) -> None:
        ctx.resume_value = value
        if self._running is ctx:
            # The pipeline was held (hit or local miss): continue in place.
            self._step(ctx)
            return
        ctx.state = ContextState.READY
        if self._running is None:
            cost = 0 if self._last_on_pipeline is ctx else self.switch_cycles
            if cost:
                self.switch_charged += cost
                self.counters.bump("cpu.context_switches")
            self._dispatch(ctx, cost)

    def _find_work(self) -> None:
        """Round-robin to the next ready context, paying the switch cost."""
        if not self.contexts:
            return
        start = (self._last_on_pipeline.index + 1) if self._last_on_pipeline else 0
        n = len(self.contexts)
        for offset in range(n):
            candidate = self.contexts[(start + offset) % n]
            if candidate.state is ContextState.READY:
                self.switch_charged += self.switch_cycles
                self.counters.bump("cpu.context_switches")
                self._dispatch(candidate, self.switch_cycles)
                return
        # Nothing ready: pipeline idles until a memory completion arrives.

    def _retire(self, ctx: Context) -> None:
        ctx.state = ContextState.DONE
        self._running = None
        if all(c.state is ContextState.DONE for c in self.contexts):
            self._finish()
        else:
            self._find_work()

    def _finish(self) -> None:
        self.done = True
        self.finish_time = self.now
        if self.on_done is not None:
            self.on_done(self)

    # ------------------------------------------------------------------
    # Accounting
    # ------------------------------------------------------------------

    def stall_cycles(self) -> int:
        """Cycles neither computing, switching, nor in trap code."""
        if self.finish_time is None:
            return 0
        return max(
            0,
            self.finish_time
            - self.busy_cycles
            - self.switch_charged
            - self.trap_cycles,
        )

    def utilization(self) -> float:
        if not self.finish_time:
            return 0.0
        return self.busy_cycles / self.finish_time

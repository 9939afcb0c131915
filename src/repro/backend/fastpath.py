"""Fused hot paths for the SoA backend.

Two drop-in subclasses that shorten the per-event call chains without
changing a single observable number:

* :class:`SoaProcessor` fuses the cache hit path into the instruction
  step: the tag check, word read/write, and counter bump run directly
  against the :class:`~repro.backend.soa.SoaCacheArray` columns instead
  of materializing a line view and calling through
  ``CacheController.hit``.  The completion event carries the identical
  ``(time, seq)`` key the reference path's event would, so sequence
  numbers, counters, and cycle accounting are bit-equal; the callback
  differs (``_step`` with the result pre-staged in ``resume_value``
  instead of the ``mem_done`` partial), which is unobservable — a
  blocked context's only wake-up is this event.  Hit and think
  completions are also ring-inserted directly (the body of
  ``BatchSimulator.post`` inlined): ``_step`` only ever executes as an
  event, so the simulator is always mid-run and short delays always
  take the ring.  Fusion applies under the default ``memory_model="sc"``
  on a :class:`~repro.backend.batchsim.BatchSimulator`; any other
  pairing delegates to the reference step unchanged.
* :class:`SoaWormholeNetwork` posts the destination handler as the
  delivery event directly when no fault injector is installed, skipping
  the ``_deliver`` trampoline (one call frame per packet).  Routing,
  link reservation, and stats are the reference code verbatim; with
  faults enabled every packet takes the reference injector path.
  ``in_flight`` stays 0 on the direct path — there is no decrement hook
  without the trampoline — which the quiescence audit (which requires 0)
  accepts; only failure-path diagnostics lose the live count.
"""

from __future__ import annotations

from ..cache.controller import _HIT_SLOT
from ..network.fabric import OP_NAMES, WormholeNetwork
from ..network.packet import Op, Packet
from ..proc import ops
from ..proc.processor import _THINK_SLOT, Context, ContextState, Processor
from .batchsim import _MASK, _RING, BatchSimulator
from .soa import SoaCacheArray

_RW = 2  # int(CacheState.READ_WRITE): the only state a store/rmw hits

# Hot-loop constants: one global load instead of a module-attribute
# chain per comparison.
_DONE = ContextState.DONE
_RUNNING = ContextState.RUNNING
_BLOCKED = ContextState.BLOCKED
_THINK = ops.THINK
_LOAD = ops.LOAD
_STORE = ops.STORE
_RMW = ops.RMW


class SoaProcessor(Processor):
    """Processor with the cache hit path fused onto the SoA columns."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        backing = self.cache.array
        self._fused = (
            self.memory_model == "sc"
            and isinstance(backing, SoaCacheArray)
            and isinstance(self.sim, BatchSimulator)
            and self.cache.hit_latency < _RING
        )
        if self._fused:
            # One attribute load + tuple unpack per issued op instead of
            # eleven attribute lookups.
            self._hot = (
                backing._tags,
                backing._states,
                backing._written,
                backing._slab,
                backing._words_per_block,
                backing._block_shift,
                backing._index_mask,
                ~(self.space.block_bytes - 1),  # block mask
                self.space.block_bytes - 1,  # low mask
                self.cache.hit_latency,
                self.cache._slots,  # the cells the reference ``hit`` bumps
                _HIT_SLOT["load"],
                _HIT_SLOT["store"],
                _HIT_SLOT["rmw"],
            )
            #: cached bound method: posting ``self._step`` would allocate
            #: a fresh bound-method object per event
            self._step_fn = self._step

    def _step(self, ctx: Context) -> None:
        if not self._fused:
            Processor._step(self, ctx)
            return
        if ctx.state is _DONE:  # pragma: no cover - safety net
            return
        sim = self.sim
        now = sim.now
        if now < self.trap_free_at:
            sim.post(self.trap_free_at, self._step_fn, ctx)
            return
        ctx.state = _RUNNING
        if ctx.pending_op is not None:
            op, ctx.pending_op, ctx.pending_needs = ctx.pending_op, None, None
        elif ctx.burst_ops is not None:
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
        else:
            value, ctx.resume_value = ctx.resume_value, None
            try:
                if ctx.started:
                    op = ctx.gen.send(value)
                else:
                    ctx.started = True
                    op = next(ctx.gen)
            except StopIteration:
                if ctx.outstanding_stores:
                    self._park(ctx, ("__retire__",), "all")
                    return
                self._retire(ctx)
                return
            ctx.ops_executed += 1
        ctx.last_op = op
        kind = op[0]
        if kind == _THINK:
            cycles = op[1]
            self.busy_cycles += cycles
            self._slots[_THINK_SLOT] += cycles
            if 0 <= cycles < _RING:
                # sim.post inlined: _step always runs as an event, so the
                # simulator is mid-run and a short delay takes the ring.
                # (A negative think goes to the checked post below and
                # raises, as on the reference step.)
                seq = sim._seq
                sim._seq = seq + 1
                slot = (now + cycles) & _MASK
                sim._ring[slot].append((seq, self._step_fn, ctx, None))
                sim._ring_mask |= 1 << slot
                sim._live += 1
            else:
                sim.post(now + cycles, self._step_fn, ctx)
            return
        if kind == _LOAD:
            addr = op[1]
            (
                tags,
                states,
                _written,
                slab,
                wpb,
                shift,
                imask,
                block_mask,
                low_mask,
                latency,
                cache_slots,
                hit_load,
                _hs,
                _hr,
            ) = self._hot
            block = addr & block_mask
            # No pending_store_blocks check: only the wo store buffer
            # populates it, and fusion requires memory_model == "sc".
            index = (block >> shift) & imask
            if tags[index] == block and states[index]:
                # Loads hit on any valid copy; this is the reference
                # _issue -> cache.hit chain flattened to array ops.  The
                # completion event posts _step directly with the result
                # pre-staged in resume_value: nothing can touch the
                # blocked context in between (its only wake-up is this
                # event), so skipping the mem_done trampoline changes no
                # observable state and saves two frames per hit.
                ctx.state = _BLOCKED
                self.busy_cycles += latency
                cache_slots[hit_load] += 1
                ctx.resume_value = slab[index * wpb + ((addr & low_mask) >> 2)]
                seq = sim._seq
                sim._seq = seq + 1
                slot = (now + latency) & _MASK
                sim._ring[slot].append((seq, self._step_fn, ctx, None))
                sim._ring_mask |= 1 << slot
                sim._live += 1
                return
            self._issue(ctx, "load", addr, None, block)
            return
        if kind == _STORE:
            addr = op[1]
            (
                tags,
                states,
                written,
                slab,
                wpb,
                shift,
                imask,
                block_mask,
                low_mask,
                latency,
                cache_slots,
                _hl,
                hit_store,
                _hr,
            ) = self._hot
            block = addr & block_mask
            index = (block >> shift) & imask
            if tags[index] == block and states[index] == _RW:
                # Stores hit only on an exclusive copy, so update-mode
                # blocks (never exclusive) always take the full path.
                ctx.state = _BLOCKED
                self.busy_cycles += latency
                cache_slots[hit_store] += 1
                slab[index * wpb + ((addr & low_mask) >> 2)] = op[2]
                written[index] = 1
                ctx.resume_value = None
                seq = sim._seq
                sim._seq = seq + 1
                slot = (now + latency) & _MASK
                sim._ring[slot].append((seq, self._step_fn, ctx, None))
                sim._ring_mask |= 1 << slot
                sim._live += 1
                return
            self._issue(ctx, "store", addr, op[2], block)
            return
        if kind == _RMW:
            if ctx.outstanding_stores:
                self._park(ctx, op, "all")
                return
            addr = op[1]
            (
                tags,
                states,
                written,
                slab,
                wpb,
                shift,
                imask,
                block_mask,
                low_mask,
                latency,
                cache_slots,
                _hl,
                _hs,
                hit_rmw,
            ) = self._hot
            block = addr & block_mask
            index = (block >> shift) & imask
            if tags[index] == block and states[index] == _RW:
                ctx.state = _BLOCKED
                self.busy_cycles += latency
                cache_slots[hit_rmw] += 1
                word_index = index * wpb + ((addr & low_mask) >> 2)
                result = slab[word_index]
                slab[word_index] = op[2](result)
                written[index] = 1
                ctx.resume_value = result
                seq = sim._seq
                sim._seq = seq + 1
                slot = (now + latency) & _MASK
                sim._ring[slot].append((seq, self._step_fn, ctx, None))
                sim._ring_mask |= 1 << slot
                sim._live += 1
                return
            self._issue(ctx, "rmw", addr, op[2], block)
            return
        self._execute_op(ctx, op)


class SoaWormholeNetwork(WormholeNetwork):
    """Wormhole mesh delivering straight to the destination handler."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._batch_sim = isinstance(self.sim, BatchSimulator)

    def send(self, packet: Packet) -> None:
        sim = self.sim
        now = sim.now
        packet.sent_at = now
        src = packet.src
        dst = packet.dst
        data = packet.data
        words = 2 + len(packet.meta) + (len(data.words) if data is not None else 0)
        if src == dst:
            stats = self.stats
            stats.packets += 1
            stats.words += words
            stats.total_latency += 2
            per_opcode = stats.per_opcode
            opcode = packet.opcode
            key = OP_NAMES[opcode] if opcode.__class__ is Op else opcode
            per_opcode[key] = per_opcode.get(key, 0) + 1
            if self.fault_injector is not None:
                self.fault_injector.admit(now + 2, packet)
                return
            if self._batch_sim and sim._running:
                # Local delivery is always 2 cycles out — well inside the
                # ring; this branch dominates hot-spot traffic.
                seq = sim._seq
                sim._seq = seq + 1
                slot = (now + 2) & _MASK
                sim._ring[slot].append((seq, self._handlers[dst], packet, None))
                sim._ring_mask |= 1 << slot
                sim._live += 1
                return
            sim.post(now + 2, self._handlers[dst], packet)
            return
        path = self._route_cache.get((src, dst))
        if path is None:
            path = self._intern_route(src, dst)
        serialization = words * self.cycles_per_word
        head = now + self.injection_latency
        waited = 0
        link_free_at = self._link_free_at
        link_busy = self._link_busy
        hop_latency = self.hop_latency
        for link in path:
            start = link_free_at[link]
            if start < head:
                start = head
            else:
                waited += start - head
            link_free_at[link] = start + serialization
            link_busy[link] += serialization
            head = start + hop_latency
        arrival = head + serialization
        stats = self.stats
        stats.packets += 1
        stats.words += words
        stats.hops += len(path)
        stats.total_latency += arrival - now
        stats.contention_cycles += waited
        per_opcode = stats.per_opcode
        opcode = packet.opcode
        key = OP_NAMES[opcode] if opcode.__class__ is Op else opcode
        per_opcode[key] = per_opcode.get(key, 0) + 1
        if self.fault_injector is not None:
            self.fault_injector.admit(arrival, packet)
            return
        if self._batch_sim and sim._running and arrival - now < _RING:
            # BatchSimulator.post inlined for the dominant short-future
            # delivery (one call frame per packet).
            seq = sim._seq
            sim._seq = seq + 1
            slot = arrival & _MASK
            sim._ring[slot].append((seq, self._handlers[dst], packet, None))
            sim._ring_mask |= 1 << slot
            sim._live += 1
            return
        sim.post(arrival, self._handlers[dst], packet)

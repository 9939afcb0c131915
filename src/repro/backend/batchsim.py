"""Batched event execution: a 64-cycle scheduling ring over the kernel.

The reference kernel's same-cycle fast lane (PR 4) removes heap traffic
only for events scheduled *for* the current cycle.  Steady-state machine
traffic is overwhelmingly short-future — hit completions at ``now+1``,
directory occupancy a few cycles out, hop-latency deliveries — so the
:class:`BatchSimulator` generalizes the lane to a ring of 64 per-cycle
deques: any event scheduled while running for a time within the next 64
cycles bypasses the heap entirely, and a whole cycle's slot drains in one
tight batch loop once the heap provably holds nothing at that cycle.

Exactness argument (the goldens pin it, this explains why it holds):

* Sequence numbers are allocated by the same unconditional counter, so
  every event carries the identical ``(time, seq)`` key it would under
  the reference kernel.
* For any time ``t``, every heap entry at ``t`` has a smaller seq than
  every ring entry at ``t``: a ring entry exists only if it was appended
  while running with ``t < now + 64``; any later schedule targeting ``t``
  also satisfies that bound (``now`` is monotone), hence also lands in
  the ring, behind it.  So merging "heap first iff its head is at
  ``now`` with a smaller seq" — the lane's own rule — preserves exact
  order.
* While a slot drains, the heap cannot gain events at ``now``
  (same-cycle schedules land in the ring), so the batch loop needs no
  per-event heap check.
* The ring is spilled back into the heap (original seqs) whenever a run
  returns, so between runs — where checkpoints digest kernel state and
  window-stepping callers inspect ``next_event_time`` — the simulator
  is indistinguishable from the reference kernel.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappush as _heappush
from typing import Any, Callable

from ..sim.kernel import (
    _MAX_TIME,
    _NO_ARG,
    Event,
    SimulationError,
    Simulator,
    _bad_time,
)

_RING = 64
_MASK = _RING - 1
_ALL = (1 << _RING) - 1


class BatchSimulator(Simulator):
    """Kernel with a 64-cycle batching ring replacing the same-cycle lane."""

    def __init__(self, *, max_cycles: int | None = None) -> None:
        super().__init__(max_cycles=max_cycles)
        self._ring: list[deque] = [deque() for _ in range(_RING)]
        #: bitmask of non-empty ring slots (bit i = slot i)
        self._ring_mask = 0

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def call_at(
        self, time: int, callback: Callable[..., None], arg: Any = _NO_ARG
    ) -> Event:
        now = self.now
        if type(time) is not int or not now <= time <= _MAX_TIME:
            raise _bad_time(time, now)
        seq = self._seq
        self._seq = seq + 1
        event = Event(time, seq, callback, arg, self)
        if self._running and time - now < _RING:
            slot = time & _MASK
            self._ring[slot].append((seq, callback, arg, event))
            self._ring_mask |= 1 << slot
        else:
            _heappush(self._queue, (time, seq, callback, arg, event))
        self._live += 1
        return event

    def post(
        self, time: int, callback: Callable[..., None], arg: Any = _NO_ARG
    ) -> None:
        now = self.now
        if type(time) is not int or not now <= time <= _MAX_TIME:
            raise _bad_time(time, now)
        seq = self._seq
        self._seq = seq + 1
        if self._running and time - now < _RING:
            slot = time & _MASK
            self._ring[slot].append((seq, callback, arg, None))
            self._ring_mask |= 1 << slot
        else:
            _heappush(self._queue, (time, seq, callback, arg, None))
        self._live += 1

    # call_after/post_after delegate to the overrides above.

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _flush_ring(self) -> None:
        """Spill ring entries back into the heap (original seqs).

        Runs whenever a run loop returns, so outside :meth:`run`/
        :meth:`run_until` the queue layout — and therefore ``step``,
        ``next_event_time``, and checkpoint state — matches the
        reference kernel exactly.  All ring times lie in
        ``[now, now + 64)``; the slot index recovers the absolute time.
        """
        mask = self._ring_mask
        if not mask:
            return
        now = self.now
        queue = self._queue
        push = _heappush
        while mask:
            low = mask & -mask
            slot_idx = low.bit_length() - 1
            mask ^= low
            time = now + ((slot_idx - now) & _MASK)
            slot = self._ring[slot_idx]
            while slot:
                seq, callback, arg, event = slot.popleft()
                push(queue, (time, seq, callback, arg, event))
        self._ring_mask = 0

    def _next_ring_time(self) -> int | None:
        """Earliest time of a *live* ring entry strictly after ``now``.

        Pops cancelled slot heads on the way (mirroring what
        ``next_event_time`` does for the heap) so time never advances to
        a cycle where nothing will execute.
        """
        while True:
            mask = self._ring_mask
            if not mask:
                return None
            start = (self.now + 1) & _MASK
            rot = ((mask >> start) | (mask << (_RING - start))) & _ALL
            dist = (rot & -rot).bit_length() - 1
            slot_idx = (start + dist) & _MASK
            slot = self._ring[slot_idx]
            while slot:
                head_event = slot[0][3]
                if head_event is not None and head_event.cancelled:
                    slot.popleft()
                    continue
                return self.now + 1 + dist
            self._ring_mask &= ~(1 << slot_idx)

    def run(self, until: int | None = None) -> int:
        self._run_loop(self.max_cycles if until is None else until, strict=False)
        return self.now

    def run_until(self, limit: int) -> int:
        limit = int(limit)
        if limit < self.now:
            raise SimulationError(
                f"cannot run window to {limit}, now is {self.now}"
            )
        # The ring is empty between runs (flushed on every return), so
        # the reference fast exit applies unchanged.
        queue = self._queue
        if queue and queue[0][0] < limit:
            self._run_loop(limit, strict=True)
        self.now = limit
        return limit

    def _run_loop(self, limit: int | None, strict: bool) -> None:
        """The one event loop behind :meth:`run` and :meth:`run_until`.

        ``strict`` is the window form: events *at* ``limit`` stay queued
        and the caller moves ``now`` to the limit.  Otherwise events at
        ``limit`` execute and ``now`` stops there only if something
        later is still pending.  (``_native.c``'s ``core_run_loop`` is
        this function with ``until_mode`` for ``strict``.)
        """
        queue = self._queue
        ring = self._ring
        pop = heapq.heappop
        no_arg = _NO_ARG
        self._running = True
        try:
            while True:
                slot = ring[self.now & _MASK]
                if slot:
                    if queue and queue[0][0] == self.now:
                        # Rare: pre-run events share this cycle;
                        # interleave by seq exactly like the lane does.
                        if queue[0][1] < slot[0][0]:
                            _t, _s, callback, arg, event = pop(queue)
                        else:
                            _s, callback, arg, event = slot.popleft()
                            if not slot:
                                self._ring_mask &= ~(1 << (self.now & _MASK))
                        if event is not None:
                            if event.cancelled:
                                continue
                            event._done = True
                    else:
                        # Batch drain: nothing in the heap is at ``now``
                        # and nothing can arrive there while we run.  The
                        # executed/live counters are settled once per
                        # batch: nothing reads them mid-cycle (checkpoints
                        # and reports run between windows), and cancel()'s
                        # own decrement commutes.
                        ran = 0
                        while slot:
                            # Bulk-copy the slot and dispatch with a for
                            # loop: one C-level copy replaces a popleft
                            # call per event.  Same-cycle appends land in
                            # the (now empty) deque and drain next pass;
                            # cancellation is still read at dispatch
                            # time, exactly like the popleft form.
                            it = iter(list(slot))
                            slot.clear()
                            try:
                                for _s, callback, arg, event in it:
                                    if event is not None:
                                        if event.cancelled:
                                            continue
                                        event._done = True
                                    ran += 1
                                    if arg is no_arg:
                                        callback()
                                    else:
                                        callback(arg)
                            except BaseException:
                                # Put the undispatched tail back so the
                                # finally-flush preserves it, matching
                                # what the popleft form leaves behind,
                                # and count what did dispatch (the
                                # reference kernel counts an event
                                # before calling it).
                                slot.extendleft(reversed(list(it)))
                                self.events_executed += ran
                                self._live -= ran
                                raise
                        self.events_executed += ran
                        self._live -= ran
                        self._ring_mask &= ~(1 << (self.now & _MASK))
                        continue
                else:
                    t_ring = self._next_ring_time()
                    if queue and (t_ring is None or queue[0][0] <= t_ring):
                        if strict:
                            if queue[0][0] >= limit:
                                break
                        elif limit is not None and queue[0][0] > limit:
                            self.now = limit
                            break
                        time, _s, callback, arg, event = pop(queue)
                        if event is not None:
                            if event.cancelled:
                                continue
                            event._done = True
                        self.now = time
                    elif t_ring is not None:
                        if strict:
                            if t_ring >= limit:
                                break
                        elif limit is not None and t_ring > limit:
                            self.now = limit
                            break
                        self.now = t_ring
                        continue
                    else:
                        break
                self.events_executed += 1
                self._live -= 1
                if arg is no_arg:
                    callback()
                else:
                    callback(arg)
        finally:
            self._running = False
            if self._ring_mask:
                self._flush_ring()

    def next_event_time(self) -> int | None:
        # Outside a run the ring is always empty (flushed on return);
        # guard anyway so callbacks that peek mid-run stay exact.
        if self._ring_mask:
            slot = self._ring[self.now & _MASK]
            for entry in slot:
                event = entry[3]
                if event is None or not event.cancelled:
                    return self.now  # heap times are never earlier
            t_ring = self._next_ring_time()
            heap_next = super().next_event_time()
            if t_ring is None:
                return heap_next
            if heap_next is None:
                return t_ring
            return min(t_ring, heap_next)
        return super().next_event_time()

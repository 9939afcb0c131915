"""Discrete-event simulation kernel.

ASIM, the Alewife system simulator, advances the machine model in processor
cycles.  We reproduce it with an event-driven kernel: components schedule
callbacks at absolute cycle times, and the kernel executes them in
deterministic (time, sequence) order.  Determinism matters because the
reproduction's experiments compare protocols on *absolute execution cycles*;
two runs of the same configuration must produce identical cycle counts.

The kernel is the innermost loop of every experiment, so its data layout is
chosen for speed: the heap holds plain ``(time, seq, callback, arg)``
tuples so that sift operations compare tuples in C instead of calling a
Python ``__lt__`` (``seq`` is unique, so comparison never reaches the
callback), and callbacks may carry one pre-bound argument
(``post(t, handler, packet)``) so hot paths schedule without allocating a
closure per event.  Scheduling is fire-and-forget: nothing queued is ever
withdrawn (the protocol timers drop stale firings by ``epoch``/``txn``
checks instead), so every queued entry is a pending event and
``pending_events`` is the queue's length.
"""

from __future__ import annotations

import heapq
from collections import deque
from heapq import heappush as _heappush
from typing import Any, Callable

#: Sentinel distinguishing "no argument" from "argument is None".
_NO_ARG = object()


class SimulationError(RuntimeError):
    """Raised when the simulation reaches an inconsistent state."""


#: Event times are cycle counts that fit the compiled core's signed 64-bit
#: counter; every kernel refuses anything else the same way.
_MAX_TIME = (1 << 63) - 1


def _bad_time(time: Any, now: int, verb: str = "schedule event at") -> Exception:
    """Why ``time`` cannot be scheduled (or run to) at cycle ``now`` — the
    cold half of the one check every ``post``/``post_after``/``run`` makes."""
    if type(time) is not int:
        return TypeError(f"time must be an int, not {type(time).__name__}")
    if time < now:
        return SimulationError(f"cannot {verb} {time}, now is {now}")
    return SimulationError(f"time {time} is outside the cycle counter")


def _bad_delay(delay: Any) -> Exception:
    if type(delay) is not int:
        return TypeError(f"delay must be an int, not {type(delay).__name__}")
    return SimulationError(f"negative delay {delay}")


class Simulator:
    """Event queue plus the global cycle counter.

    Typical usage::

        sim = Simulator()
        sim.post(10, lambda: print("cycle 10"))
        sim.run()
    """

    def __init__(self, *, max_cycles: int | None = None) -> None:
        self._queue: list[tuple] = []
        self._seq = 0
        #: same-cycle fast lane: events scheduled *for* the current cycle
        #: *during* the current cycle skip the heap entirely.  Entries are
        #: heap tuples whose time is always ``now``.
        self._lane: deque[tuple] = deque()
        self.now = 0
        self.max_cycles = max_cycles
        self.events_executed = 0
        self._running = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def post(
        self, time: int, callback: Callable[..., None], arg: Any = _NO_ARG
    ) -> None:
        """Schedule ``callback`` at absolute cycle ``time``.

        ``arg``, when given, is passed to the callback at execution time —
        the allocation-free alternative to ``lambda: callback(arg)`` on hot
        paths like packet delivery.
        """
        now = self.now
        if type(time) is not int or not now <= time <= _MAX_TIME:
            raise _bad_time(time, now)
        seq = self._seq
        self._seq = seq + 1
        if time == now and self._running:
            self._lane.append((time, seq, callback, arg))
        else:
            _heappush(self._queue, (time, seq, callback, arg))

    def post_after(
        self, delay: int, callback: Callable[..., None], arg: Any = _NO_ARG
    ) -> None:
        """Schedule ``callback`` ``delay`` cycles from now."""
        if type(delay) is not int or delay < 0:
            raise _bad_delay(delay)
        self.post(self.now + delay, callback, arg)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when drained."""
        queue = self._queue
        if not queue:
            return False
        time, _seq, callback, arg = heapq.heappop(queue)
        if time < self.now:
            raise SimulationError("event queue time went backwards")
        self.now = time
        self.events_executed += 1
        if arg is _NO_ARG:
            callback()
        else:
            callback(arg)
        return True

    def run(self, until: int | None = None) -> int:
        """Run until the queue drains, ``until`` cycles, or ``max_cycles``.

        Events at the limit execute; ``now`` stops at the limit only if
        something later is still pending.  Returns the cycle count at
        which the run stopped.
        """
        if until is None:
            until = self.max_cycles
        return self._run_loop(_MAX_TIME if until is None else until, False)

    def run_until(self, limit: int) -> int:
        """Execute every event strictly before ``limit``; leave now=limit.

        The window primitive: after it returns, the queue holds only
        events at ``limit`` or later, so a caller stepping the machine in
        windows (the co-simulation tests do) may post new work at any
        time >= ``limit``.  Unlike :meth:`run`, events at exactly
        ``limit`` do *not* execute — a window owns the half-open interval
        [now, limit).
        """
        return self._run_loop(limit, True)

    def _run_loop(self, limit: int, strict: bool) -> int:
        """The one event loop behind :meth:`run` and :meth:`run_until`
        (``_native.c``'s ``core_run_loop`` is this loop with its ring).

        ``strict`` is the window form: events *at* ``limit`` stay queued
        and ``now`` ends at the limit.  A limit is a cycle count like any
        scheduled time — exactly an ``int``, no earlier than ``now`` and
        inside the cycle counter — so ``now`` never moves backwards.
        """
        now = self.now
        if type(limit) is not int or not now <= limit <= _MAX_TIME:
            raise _bad_time(limit, now, "run to")
        # a heap head at or past ``stop`` ends the run: one comparison
        stop = limit if strict else limit + 1
        queue = self._queue
        lane = self._lane
        pop = heapq.heappop
        no_arg = _NO_ARG
        self._running = True
        try:
            # ``post`` refuses past times, so queue times are monotone and
            # the loop needs no went-backwards check.  A non-empty lane holds
            # events at exactly ``now``; a heap event at the same cycle was
            # necessarily scheduled in an earlier cycle (same-cycle schedules
            # go to the lane), so its seq is smaller and it runs first —
            # comparing the heap top's (time, seq) against the lane head's
            # preserves exact (time, seq) order without heap traffic for
            # lane events.
            while True:
                if lane:
                    if queue and queue[0] < lane[0]:
                        _time, _seq, callback, arg = pop(queue)
                    else:
                        _time, _seq, callback, arg = lane.popleft()
                elif queue:
                    if queue[0][0] >= stop:
                        self.now = limit
                        break
                    time, _seq, callback, arg = pop(queue)
                    self.now = time
                else:
                    break
                self.events_executed += 1
                if arg is no_arg:
                    callback()
                else:
                    callback(arg)
        finally:
            self._running = False
            # Only a callback that raised leaves the lane non-empty: spill
            # it back (original seqs) so step/run after the catch stay exact.
            while lane:
                _heappush(queue, lane.popleft())
        if strict:
            self.now = limit
        return self.now

    def next_event_time(self) -> int | None:
        """Time of the earliest pending event, or None when drained."""
        queue = self._queue
        return queue[0][0] if queue else None

    @property
    def pending_events(self) -> int:
        """Number of events still queued."""
        return len(self._queue) + len(self._lane)


class StallableResource:
    """A serially-occupied resource (memory controller, link, ...).

    Requests reserve the resource for a number of cycles; a request arriving
    while the resource is busy starts when it frees.  ``acquire`` returns the
    cycle at which the reservation *ends* (i.e. when the work completes).
    """

    def __init__(self, sim: Simulator, name: str = "resource") -> None:
        self._sim = sim
        self.name = name
        self.free_at = 0
        self.busy_cycles = 0
        self.requests = 0

    def acquire(self, occupancy: int, *, not_before: int | None = None) -> int:
        """Reserve ``occupancy`` cycles, starting no earlier than now.

        ``not_before`` lets callers model work that cannot begin until some
        future cycle (e.g. a packet that is still in flight).
        """
        start = max(self._sim.now, self.free_at)
        if not_before is not None:
            start = max(start, not_before)
        self.free_at = start + int(occupancy)
        self.busy_cycles += int(occupancy)
        self.requests += 1
        return self.free_at

    def stall(self, cycles: int) -> None:
        """Push the resource's free time out by ``cycles`` (e.g. a trap)."""
        start = max(self._sim.now, self.free_at)
        self.free_at = start + int(cycles)
        self.busy_cycles += int(cycles)

    def utilization(self, elapsed: int) -> float:
        """Fraction of ``elapsed`` cycles the resource was occupied."""
        if elapsed <= 0:
            return 0.0
        return min(1.0, self.busy_cycles / elapsed)

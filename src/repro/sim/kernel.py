"""Discrete-event simulation kernel.

ASIM, the Alewife system simulator, advances the machine model in processor
cycles.  We reproduce it with an event-driven kernel: components schedule
callbacks at absolute cycle times, and the kernel executes them in
deterministic (time, sequence) order.  Determinism matters because the
reproduction's experiments compare protocols on *absolute execution cycles*;
two runs of the same configuration must produce identical cycle counts.

The kernel is the innermost loop of every experiment, so its data layout is
chosen for speed: the heap holds plain ``(time, seq, callback, arg, event)``
tuples so that sift operations compare tuples in C instead of calling a
Python ``__lt__`` (``seq`` is unique, so comparison never reaches the
callback), ``Event`` uses ``__slots__``, and callbacks may carry one
pre-bound argument (``call_at(t, handler, packet)``) so hot paths schedule
without allocating a closure per event.  ``post``/``post_after`` skip the
:class:`Event` cancel handle entirely — the last tuple slot is None — for
schedulers that never cancel.  Live events are counted incrementally —
scheduling increments, cancellation and execution decrement — so
``pending_events`` is O(1) instead of an O(n) queue scan.
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
    cold half of the one check every ``post``/``call_at``/``run`` makes."""
    if type(time) is not int:
        return TypeError(f"time must be an int, not {type(time).__name__}")
    if time < now:
        return SimulationError(f"cannot {verb} {time}, now is {now}")
    return SimulationError(f"time {time} is outside the cycle counter")


def _bad_delay(delay: Any) -> Exception:
    if type(delay) is not int:
        return TypeError(f"delay must be an int, not {type(delay).__name__}")
    return SimulationError(f"negative delay {delay}")


class Event:
    """A scheduled callback.

    Events order by (time, seq): ties at the same cycle execute in the order
    they were scheduled, which keeps runs deterministic.  The ordering lives
    in the simulator's heap tuples; the Event object itself is the cancel
    handle (and carries the optional pre-bound callback argument).
    """

    __slots__ = ("time", "seq", "callback", "arg", "cancelled", "_sim", "_done")

    def __init__(
        self,
        time: int,
        seq: int,
        callback: Callable[..., None],
        arg: Any = _NO_ARG,
        sim: "Simulator | None" = None,
    ) -> None:
        self.time = time
        self.seq = seq
        self.callback = callback
        self.arg = arg
        self.cancelled = False
        self._sim = sim
        self._done = False

    def cancel(self) -> None:
        """Prevent the callback from running when its time arrives."""
        if self.cancelled or self._done:
            return
        self.cancelled = True
        if self._sim is not None:
            self._sim._live -= 1


class Simulator:
    """Event queue plus the global cycle counter.

    Typical usage::

        sim = Simulator()
        sim.call_at(10, lambda: print("cycle 10"))
        sim.run()
    """

    def __init__(self, *, max_cycles: int | None = None) -> None:
        self._queue: list[tuple] = []
        self._seq = 0
        self._live = 0
        #: same-cycle fast lane: events scheduled *for* the current cycle
        #: *during* the current cycle skip the heap entirely.  Entries are
        #: ``(seq, callback, arg, event)``; their time is always ``now``.
        self._lane: deque[tuple] = deque()
        self.now = 0
        self.max_cycles = max_cycles
        self.events_executed = 0
        self._running = False

    # ------------------------------------------------------------------
    # Scheduling
    # ------------------------------------------------------------------

    def call_at(
        self, time: int, callback: Callable[..., None], arg: Any = _NO_ARG
    ) -> Event:
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
        event = Event(time, seq, callback, arg, self)
        if time == now and self._running:
            self._lane.append((seq, callback, arg, event))
        else:
            _heappush(self._queue, (time, seq, callback, arg, event))
        self._live += 1
        return event

    def call_after(
        self, delay: int, callback: Callable[..., None], arg: Any = _NO_ARG
    ) -> Event:
        """Schedule ``callback`` ``delay`` cycles from now."""
        if type(delay) is not int or delay < 0:
            raise _bad_delay(delay)
        return self.call_at(self.now + delay, callback, arg)

    def post(
        self, time: int, callback: Callable[..., None], arg: Any = _NO_ARG
    ) -> None:
        """Schedule without a cancel handle.

        The hot-path twin of :meth:`call_at`: no :class:`Event` is
        allocated, so the caller cannot cancel the callback.  Every
        steady-state scheduler in the machine model (packet delivery,
        pipeline steps, directory occupancy) uses this.
        """
        now = self.now
        if type(time) is not int or not now <= time <= _MAX_TIME:
            raise _bad_time(time, now)
        seq = self._seq
        self._seq = seq + 1
        if time == now and self._running:
            self._lane.append((seq, callback, arg, None))
        else:
            _heappush(self._queue, (time, seq, callback, arg, None))
        self._live += 1

    def post_after(
        self, delay: int, callback: Callable[..., None], arg: Any = _NO_ARG
    ) -> None:
        """Schedule ``delay`` cycles from now without a cancel handle."""
        if type(delay) is not int or delay < 0:
            raise _bad_delay(delay)
        self.post(self.now + delay, callback, arg)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------

    def _flush_lane(self) -> None:
        """Spill same-cycle lane entries back into the heap.

        Only reachable when a callback raised mid-run: the lane drains
        before the loops return normally.  Re-heaping (with the original
        seqs) keeps ``step``/``run`` after a caught exception exact.
        """
        lane = self._lane
        now = self.now
        while lane:
            seq, callback, arg, event = lane.popleft()
            _heappush(self._queue, (now, seq, callback, arg, event))

    def step(self) -> bool:
        """Execute the next pending event.  Returns False when drained."""
        queue = self._queue
        while queue:
            time, _seq, callback, arg, event = heapq.heappop(queue)
            if event is not None:
                if event.cancelled:
                    continue
                event._done = True
            if time < self.now:
                raise SimulationError("event queue time went backwards")
            self.now = time
            self.events_executed += 1
            self._live -= 1
            if arg is _NO_ARG:
                callback()
            else:
                callback(arg)
            return True
        return False

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
            # ``call_at`` refuses past times, so queue times are monotone and
            # the loop needs no went-backwards check.  A non-empty lane holds
            # events at exactly ``now``; a heap event at the same cycle was
            # necessarily scheduled in an earlier cycle (same-cycle schedules
            # go to the lane), so its seq is smaller and it runs first —
            # comparing the heap top's seq against the lane head preserves
            # exact (time, seq) order without heap traffic for lane events.
            # A cancelled heap head still lower-bounds the live events
            # under it, so stopping on it is exact too.
            while True:
                if lane:
                    if (
                        queue
                        and queue[0][0] == self.now
                        and queue[0][1] < lane[0][0]
                    ):
                        _time, _seq, callback, arg, event = pop(queue)
                    else:
                        _seq, callback, arg, event = lane.popleft()
                    if event is not None:
                        if event.cancelled:
                            continue
                        event._done = True
                elif queue:
                    if queue[0][0] >= stop:
                        self.now = limit
                        break
                    time, _seq, callback, arg, event = pop(queue)
                    if event is not None:
                        if event.cancelled:
                            continue
                        event._done = True
                    self.now = time
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
            if lane:
                self._flush_lane()
        if strict:
            self.now = limit
        return self.now

    def next_event_time(self) -> int | None:
        """Time of the earliest live event, or None when drained.

        Pops already-cancelled heap heads on the way (they would be
        skipped at execution anyway), so the answer is exact.
        """
        queue = self._queue
        while queue:
            head = queue[0]
            event = head[4]
            if event is not None and event.cancelled:
                heapq.heappop(queue)
                continue
            return head[0]
        return None

    @property
    def pending_events(self) -> int:
        """Number of live (non-cancelled) events still queued.  O(1)."""
        return self._live


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

"""Tests for the event-driven simulation kernel."""

from __future__ import annotations

import pytest

from repro.sim.kernel import SimulationError, Simulator, StallableResource


class TestScheduling:
    def test_events_run_in_time_order(self, sim):
        log = []
        sim.post(30, lambda: log.append(30))
        sim.post(10, lambda: log.append(10))
        sim.post(20, lambda: log.append(20))
        sim.run()
        assert log == [10, 20, 30]

    def test_ties_run_in_scheduling_order(self, sim):
        log = []
        for i in range(5):
            sim.post(7, lambda i=i: log.append(i))
        sim.run()
        assert log == [0, 1, 2, 3, 4]

    def test_now_advances_to_event_time(self, sim):
        seen = []
        sim.post(42, lambda: seen.append(sim.now))
        sim.run()
        assert seen == [42]
        assert sim.now == 42

    def test_call_after_is_relative(self, sim):
        # a delay counts from the calling event's cycle, whether it lands
        # in that same cycle, a near one or one past the ring's horizon
        seen = []

        def call_after(delay):
            sim.post_after(delay, lambda: seen.append((delay, sim.now)))

        sim.post(10, call_after, 5)
        sim.post(20, call_after, 0)
        sim.post(20, call_after, 70)
        sim.run()
        assert seen == [(5, 15), (0, 20), (70, 90)]

    def test_scheduling_in_the_past_raises(self, sim):
        sim.post(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.post(5, lambda: None)

    def test_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.post_after(-1, lambda: None)

    def test_events_scheduled_during_execution_run(self, sim):
        log = []

        def chain(n):
            log.append(n)
            if n < 3:
                sim.post_after(1, lambda: chain(n + 1))

        sim.post(0, lambda: chain(0))
        sim.run()
        assert log == [0, 1, 2, 3]


class TestRunLimits:
    def test_run_until_stops_early(self, sim):
        log = []
        sim.post(10, lambda: log.append("early"))
        sim.post(100, lambda: log.append("late"))
        sim.run(until=50)
        assert log == ["early"]
        assert sim.now == 50

    def test_max_cycles_is_respected(self):
        sim = Simulator(max_cycles=25)
        log = []
        sim.post(10, lambda: log.append("in"))
        sim.post(30, lambda: log.append("out"))
        sim.run()
        assert log == ["in"]

    def test_pending_events_counts_live_events(self, sim):
        sim.post(10, lambda: None)
        sim.post(20, lambda: None)
        assert sim.pending_events == 2
        sim.run(until=15)
        assert sim.pending_events == 1
        sim.run()
        assert sim.pending_events == 0


class TestArgCarryingEvents:
    def test_post_passes_argument(self, sim):
        seen = []
        sim.post(5, seen.append, "payload")
        sim.run()
        assert seen == ["payload"]

    def test_post_after_passes_argument(self, sim):
        seen = []
        sim.post_after(3, seen.append, None)  # None is a legal argument
        sim.run()
        assert seen == [None]

    def test_arg_events_interleave_deterministically(self, sim):
        log = []
        sim.post(7, log.append, "a")
        sim.post(7, lambda: log.append("b"))
        sim.post(7, log.append, "c")
        sim.run()
        assert log == ["a", "b", "c"]


class TestPost:
    def test_post_schedules_without_a_handle(self, sim):
        log = []
        assert sim.post(5, log.append, "x") is None
        assert sim.pending_events == 1
        sim.run()
        assert log == ["x"]
        assert sim.pending_events == 0

    def test_post_after_is_relative(self, sim):
        seen = []
        sim.post(10, lambda: sim.post_after(5, lambda: seen.append(sim.now)))
        sim.run()
        assert seen == [15]

    def test_post_in_the_past_raises(self, sim):
        sim.post(10, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.post(5, lambda: None)

    def test_post_negative_delay_raises(self, sim):
        with pytest.raises(SimulationError):
            sim.post_after(-1, lambda: None)

    def test_posts_and_events_share_one_time_order(self, sim):
        # absolute and relative posts, with and without an argument, made
        # before the run and by a running event, share one (time, seq) order
        log = []

        def root():
            sim.post(7, log.append, "tail")
            sim.post_after(2, lambda: log.append("relative"))

        sim.post(7, log.append, "event")
        sim.post_after(7, lambda: log.append("post"))
        sim.post(5, root)
        sim.run()
        assert log == ["event", "post", "tail", "relative"]


class TestStallableResource:
    def test_serializes_requests(self, sim):
        res = StallableResource(sim, "dir")
        first = res.acquire(10)
        second = res.acquire(10)
        assert first == 10
        assert second == 20

    def test_acquire_after_idle_starts_now(self, sim):
        res = StallableResource(sim, "dir")
        res.acquire(5)
        sim.post(100, lambda: None)
        sim.run()
        assert res.acquire(5) == 105

    def test_not_before_delays_start(self, sim):
        res = StallableResource(sim, "dir")
        assert res.acquire(5, not_before=50) == 55

    def test_stall_pushes_out_free_time(self, sim):
        res = StallableResource(sim, "dir")
        res.acquire(10)
        res.stall(100)
        assert res.acquire(1) == 111

    def test_utilization(self, sim):
        res = StallableResource(sim, "dir")
        res.acquire(25)
        assert res.utilization(100) == 0.25
        assert res.utilization(0) == 0.0

    def test_busy_cycles_accumulate(self, sim):
        res = StallableResource(sim, "dir")
        res.acquire(3)
        res.acquire(4)
        assert res.busy_cycles == 7
        assert res.requests == 2


class TestSameCycleFastLane:
    """Events scheduled for the current cycle during the current cycle."""

    def test_same_cycle_posts_run_fifo(self, sim):
        log = []

        def root():
            sim.post(sim.now, lambda: log.append("a"))
            sim.post(sim.now, lambda: log.append("b"))
            sim.post(sim.now, lambda: log.append("c"))

        sim.post(5, root)
        sim.run()
        assert log == ["a", "b", "c"]
        assert sim.now == 5

    def test_lane_events_chain_within_one_cycle(self, sim):
        log = []

        def chain(depth):
            log.append(depth)
            if depth < 4:
                sim.post(sim.now, chain, depth + 1)

        sim.post(3, chain, 0)
        sim.run()
        assert log == [0, 1, 2, 3, 4]
        assert sim.now == 3

    def test_earlier_heap_event_beats_later_lane_entry(self, sim):
        # An event scheduled for cycle 10 in an earlier cycle has a smaller
        # seq than anything scheduled *during* cycle 10, so it must run
        # before lane entries created by cycle-10 callbacks.
        log = []
        sim.post(10, lambda: log.append("pending"))

        def first():
            log.append("first")
            sim.post(sim.now, lambda: log.append("lane"))

        sim.post(9, lambda: sim.post(10, first))
        sim.run()
        assert log == ["pending", "first", "lane"]

    def test_heap_event_with_smaller_seq_beats_lane_head(self, sim):
        # A and B are both pre-scheduled for cycle 10.  A's callback posts
        # lane entry L.  B's seq is smaller than L's, so the order must be
        # A, B, L — the kernel compares the heap top's seq against the
        # lane head instead of blindly draining the lane.
        log = []

        def a():
            log.append("A")
            sim.post(sim.now, lambda: log.append("L"))

        sim.post(10, a)
        sim.post(10, lambda: log.append("B"))
        sim.run()
        assert log == ["A", "B", "L"]

    def test_pending_events_counts_lane_entries(self, sim):
        seen = []

        def root():
            sim.post(sim.now, lambda: None)
            sim.post(sim.now + 1, lambda: None)
            seen.append(sim.pending_events)

        sim.post(1, root)
        sim.run()
        assert seen == [2]
        assert sim.pending_events == 0

    def test_exception_spills_lane_back_to_heap(self, sim):
        log = []

        def root():
            sim.post(sim.now, lambda: log.append("after"))
            raise RuntimeError("boom")

        sim.post(4, root)
        with pytest.raises(RuntimeError):
            sim.run()
        # The lane entry survived the exception and runs on resume, in
        # its original position.
        sim.run()
        assert log == ["after"]


class TestRunUntilWindow:
    def test_executes_strictly_before_limit(self, sim):
        log = []
        sim.post(5, lambda: log.append(5))
        sim.post(10, lambda: log.append(10))
        sim.post(15, lambda: log.append(15))
        sim.run_until(10)
        assert log == [5]
        assert sim.now == 10
        sim.run_until(11)
        assert log == [5, 10]
        sim.run()
        assert log == [5, 10, 15]

    def test_advances_now_with_no_events(self, sim):
        sim.run_until(100)
        assert sim.now == 100

    def test_run_until_fast_path_advances_an_empty_window(self, sim):
        """Nothing strictly before the limit: the early exit, with and
        without a later event at the head of the queue."""
        assert sim.run_until(100) == 100
        fired = []
        sim.post(250, fired.append, 1)
        assert sim.run_until(250) == 250  # half-open: 250 not executed
        assert fired == []
        sim.run_until(251)
        assert fired == [1]

    def test_window_below_now_raises(self, sim):
        sim.run_until(50)
        with pytest.raises(SimulationError):
            sim.run_until(49)

"""Model harness tests: abstraction round-trips and transition mechanics."""

from __future__ import annotations

import pytest

from repro.modelcheck.model import ProtocolModel


def test_initial_state_is_quiescent():
    model = ProtocolModel("fullmap", 3)
    s = model.initial_state()
    assert model.is_quiescent(s)
    assert model.state_problems(s) == []
    assert model.deadlock_problems(s) == []


def test_initial_actions_are_processor_ops_only():
    model = ProtocolModel("fullmap", 3)
    kinds = {a[0] for a in model.enabled_actions(model.initial_state())}
    assert kinds == {"load", "store"}  # nothing in flight, nothing cached


def test_load_miss_launches_rreq():
    model = ProtocolModel("fullmap", 3)
    step = model.apply(model.initial_state(), ("load", 1))
    assert step.error is None
    line_state, _, mshr = step.state.caches[1]
    assert line_state == "INVALID" and mshr is False  # open read miss
    assert ((1, 0), ((1, "RREQ", None, None),)) in step.state.channels


def test_apply_is_deterministic_and_memo_transparent():
    """The second application of (state, action) takes the memoized path;
    it must agree exactly with the first, concrete, execution."""
    model = ProtocolModel("limitless", 3)
    s = model.initial_state()
    first = model.apply(s, ("store", 1))
    again = model.apply(s, ("store", 1))
    assert first.state == again.state
    assert first.sent == again.sent


def test_full_read_write_round_trip_returns_to_quiescence():
    model = ProtocolModel("fullmap", 2)
    s = model.initial_state()
    for action in [("store", 1)]:
        s = model.apply(s, action).state
    # drive every in-flight message to completion, one head at a time
    for _ in range(16):
        delivers = [a for a in model.enabled_actions(s) if a[0] == "deliver"]
        if not delivers:
            break
        s = model.apply(s, delivers[0]).state
    assert model.is_quiescent(s)
    assert s.caches[1][:2] == ("READ_WRITE", 2)  # node 1 owns its value
    assert model.state_problems(s) == []


def test_evict_without_line_is_rejected():
    model = ProtocolModel("fullmap", 3)
    with pytest.raises(Exception):
        # not an enabled action; the harness flags the checker bug
        result = model.apply(model.initial_state(), ("evict", 1))
        if result.error is not None:  # surfaced as a step error instead
            raise AssertionError(result.error)


def test_unknown_protocol_is_rejected():
    with pytest.raises(ValueError, match="unknown protocol"):
        ProtocolModel("no_such_protocol", 3)


def test_a_restore_after_a_failed_step_leaves_no_pending_event():
    """A failed step can leave events queued; the scratch restore drops
    them, and ``pending_events`` — what the checkpointer and windowed
    drivers poll — must say so, not count the dropped ones."""
    model = ProtocolModel("fullmap", 2)
    model.sim.post(model.sim.now + 5, lambda: None)
    model._world = None  # what a failed step leaves
    model._restore(model.initial_state())
    assert model.sim.pending_events == 0

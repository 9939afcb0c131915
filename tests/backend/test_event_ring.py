"""The event kernel at the seams the compiled ring introduced, on every
backend — so ``Simulator`` stays the definition.

The native core keeps its 64-cycle ring as C structs (``RingSlot`` arrays
that grow, compact and are walked while callbacks append to them) and
boxes an entry only when a run returns with it still queued.  Each case
below drives one of those mechanisms through the public scheduling API
and states the outcome outright; the sanitizer CI job runs this file on
the instrumented build, which is what ``core_ring_push``'s ``memmove``/
``realloc`` under a drain that holds a popped entry needs.

The last section pins one table for the scheduling API itself: which
argument forms every kernel accepts for a time, a delay or a run limit,
and how each refuses the rest.
"""

from __future__ import annotations

import gc
import os
import subprocess
import sys

import pytest

from repro.backend import backend_names, get_backend, native
from repro.sim.kernel import SimulationError

_SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "..", "src"))


@pytest.fixture(params=backend_names())
def sim(request):
    return get_backend(request.param).make_simulator(max_cycles=1_000_000)


def _boom():
    raise RuntimeError("boom")


# ----------------------------------------------------------------------
# A callback that raises in the middle of a cycle's batch
# ----------------------------------------------------------------------


def test_a_raise_mid_batch_leaves_the_tail_queued_and_the_counters_settled(sim):
    log = []

    def root():
        sim.post(sim.now, log.append, "before")
        sim.post(sim.now, _boom)
        sim.post(sim.now, log.append, "after")
        sim.post(sim.now + 1, log.append, "later")

    sim.post(2, root)
    with pytest.raises(RuntimeError, match="boom"):
        sim.run()
    # root, "before" and the raising callback itself count as executed;
    # the two behind it are still pending, in the heap where step() and
    # the checkpointer look
    assert (sim.now, log) == (2, ["before"])
    assert (sim.events_executed, sim.pending_events) == (3, 2)
    assert [(t, seq) for t, seq, *_ in sorted(sim._queue)] == [(2, 3), (3, 4)]
    assert sim.run() == 3
    assert log == ["before", "after", "later"]
    assert (sim.events_executed, sim.pending_events) == (5, 0)


def test_entries_appended_before_a_raise_keep_their_place(sim):
    """The raising callback first appends to its own cycle: on resume the
    older tail still runs before the newer entry."""
    log = []

    def append_then_raise():
        sim.post(sim.now, log.append, "newest")
        raise RuntimeError("boom")

    def root():
        sim.post(sim.now, append_then_raise)
        sim.post(sim.now, log.append, "older")

    sim.post(7, root)
    with pytest.raises(RuntimeError):
        sim.run()
    sim.run()
    assert log == ["older", "newest"]
    assert (sim.now, sim.events_executed, sim.pending_events) == (7, 4, 0)


# ----------------------------------------------------------------------
# A slot that grows while it is being drained
# ----------------------------------------------------------------------


@pytest.mark.parametrize("width", [3, 8, 9, 100])
def test_a_slot_grows_past_its_capacity_during_its_own_drain(sim, width):
    """``width`` same-cycle entries, each appending two more to the cycle
    being drained: the slot passes its initial capacity (8), doubles, and
    reclaims consumed cells, all under the walk that is emptying it."""
    log = []

    def second(tag):
        log.append(tag)

    def first(i):
        log.append(("first", i))
        sim.post(sim.now, second, ("second", i, "a"))
        sim.post(sim.now, second, ("second", i, "b"))

    def root():
        for i in range(width):
            sim.post(sim.now, first, i)

    sim.post(5, root)
    sim.run()
    expected = [("first", i) for i in range(width)] + [
        ("second", i, half) for i in range(width) for half in "ab"
    ]
    assert log == expected
    assert (sim.now, sim.events_executed, sim.pending_events) == (5, 1 + 3 * width, 0)


def test_a_same_cycle_chain_reuses_one_cell(sim):
    """Pop one, append one, many times over: the slot must not grow."""
    count = [0]

    def link():
        count[0] += 1
        if count[0] < 10_000:
            sim.post(sim.now, link)

    sim.post(1, link)
    sim.run()
    assert (count[0], sim.now, sim.events_executed) == (10_000, 1, 10_000)


# ----------------------------------------------------------------------
# The ring's horizon: 63 cycles ahead is the ring, 64 the heap
# ----------------------------------------------------------------------


def test_the_63_64_cycle_boundary(sim):
    log = []

    def note(tag):
        log.append((sim.now, tag))

    def root():
        for ahead in (64, 63, 65, 0, 63, 64):
            sim.post(sim.now + ahead, note, f"+{ahead}")
        sim.post(sim.now + 64, note, "+64 again")
        sim.post(sim.now + 1, late)

    def late():
        # now + 63 is the cycle root called "+64": the heap already holds
        # three entries there, with smaller seqs than this ring entry
        sim.post(sim.now + 63, note, "late +63")
        sim.post(sim.now + 64, note, "late +64")

    sim.post(100, root)
    sim.run()
    assert log == [
        (100, "+0"),
        (163, "+63"),
        (163, "+63"),
        (164, "+64"),
        (164, "+64"),
        (164, "+64 again"),
        (164, "late +63"),
        (165, "+65"),
        (165, "late +64"),
    ]
    assert (sim.events_executed, sim.pending_events) == (11, 0)


def test_a_ring_slot_is_reused_64_cycles_later(sim):
    """A self-rescheduling event 64 cycles out lands in the heap every
    time, one 63 out in the same ring slot index every 64th cycle."""
    log = []

    def tick(period):
        log.append((sim.now, period))
        if sim.now < 400:
            sim.post(sim.now + period, tick, period)

    sim.post(0, tick, 63)
    sim.post(0, tick, 64)
    sim.run()
    assert [t for t, p in log if p == 63] == list(range(0, 442, 63))
    assert [t for t, p in log if p == 64] == list(range(0, 449, 64))


# ----------------------------------------------------------------------
# Ring -> heap on every return from a run
# ----------------------------------------------------------------------


def test_a_run_that_stops_early_hands_the_ring_back_in_time_seq_order(sim):
    log = []

    def root():
        sim.post(sim.now + 30, log.append, "c")
        sim.post(sim.now + 5, log.append, "a")
        sim.post(sim.now + 30, log.append, "d")
        sim.post(sim.now + 5, log.append, "b")

    sim.post(10, root)
    assert sim.run(until=12) == 12
    assert log == []
    queued = sorted(sim._queue)
    assert [(t, seq, arg) for t, seq, _, arg in queued] == [
        (15, 2, "a"), (15, 4, "b"), (40, 1, "c"), (40, 3, "d"),
    ]
    assert sim.next_event_time() == 15 and sim.pending_events == 4
    # the window form stops short of its limit too, and step() works
    # on what came back
    assert sim.run_until(15) == 15 and log == []
    assert sim.step() and log == ["a"]
    sim.run()
    assert log == ["a", "b", "c", "d"]
    assert (sim.now, sim.events_executed, sim.pending_events) == (40, 5, 0)


def test_a_mid_run_peek_at_the_next_event_time_is_exact(sim):
    seen = []

    def root():
        sim.post(sim.now + 2, seen.append, "near")
        sim.post(sim.now + 200, seen.append, "far")
        sim.post(sim.now, peek)

    def peek():
        seen.append(sim.next_event_time())
        sim.post(sim.now, seen.append, "after the peek")

    sim.post(4, root)
    sim.run()
    assert seen == [6, "after the peek", "near", "far"]
    assert (sim.now, sim.pending_events) == (204, 0)


def test_the_collector_sees_what_the_ring_holds(sim):
    """Entries queued in the ring own their callback and argument, and the
    collector is told so: a collection in the middle of a
    batch (machines allocate: it happens) must leave them be."""

    class Probe:
        fired = 0

        def fire(self, arg=None):
            Probe.fired += 1

    seen = {}

    def root():
        for ahead in (0, 1, 63):
            probe = Probe()
            sim.post(sim.now + ahead, probe.fire, probe)
            sim.post(sim.now + ahead, probe.fire)
        del probe  # the queue alone owns the probes now
        gc.collect()
        if hasattr(sim, "_core"):
            seen["core"] = gc.get_referents(sim._core)

    sim.post(3, root)
    sim.run()
    assert Probe.fired == 6
    assert (sim.events_executed, sim.pending_events) == (7, 0)
    if seen:  # native: what Core_traverse visited while the six were queued
        kinds = [type(obj).__name__ for obj in seen["core"]]
        assert kinds.count("method") == 6
        assert kinds.count("Probe") == 3


# ----------------------------------------------------------------------
# One table for the scheduling API
# ----------------------------------------------------------------------


def test_keywords_are_accepted_by_every_kernel(sim):
    log = []
    sim.post(time=1, callback=log.append, arg="post")
    sim.post_after(delay=2, callback=log.append, arg="post_after")
    sim.post(5, log.append, arg="mixed")
    sim.post_after(6, callback=lambda: log.append("no arg"))
    sim.run()
    assert log == ["post", "post_after", "mixed", "no arg"]


# "post"/"post_after" schedule a bare callback; "call_at"/"call_after"
# schedule, by the same two calls, a callback called with an argument.
_SCHEDULE_FORMS = {
    "post": lambda sim, time: sim.post(time, lambda: None),
    "call_at": lambda sim, time: sim.post(time, print, "arg"),
    "post_after": lambda sim, time: sim.post_after(time, lambda: None),
    "call_after": lambda sim, time: sim.post_after(time, print, "arg"),
}


@pytest.mark.parametrize(
    "time, error",
    [
        (1.0, TypeError),
        (2.5, TypeError),
        ("3", TypeError),
        (None, TypeError),
        (True, TypeError),
        (-1, SimulationError),
        (2**63, SimulationError),
        (2**80, SimulationError),
    ],
    ids=lambda value: getattr(value, "__name__", repr(value)),
)
@pytest.mark.parametrize("method", ["post", "call_at", "post_after", "call_after"])
def test_a_time_that_is_not_a_cycle_count_is_refused_alike(sim, method, time, error):
    schedule = _SCHEDULE_FORMS[method]
    with pytest.raises(error):
        schedule(sim, time)
    assert (sim._seq, sim.pending_events, list(sim._queue)) == (0, 0, [])
    # ... mid-run as well, where the ring would have taken it
    caught = []

    def root():
        try:
            schedule(sim, time)
        except Exception as exc:
            caught.append(type(exc))

    sim.post(1, root)
    sim.run()
    assert caught == [error] and sim.pending_events == 0


def test_the_largest_cycle_count_is_schedulable(sim):
    sim.post(2**63 - 1, lambda: None)
    sim.post(2**63 - 1, print, "arg")
    assert sim.pending_events == 2 and sim.next_event_time() == 2**63 - 1
    sim.now = 10
    with pytest.raises(SimulationError):
        sim.post_after(2**63 - 5, lambda: None)


def _set_max_cycles(value):
    def run(sim):
        sim.max_cycles = value
        return sim.run()

    return run


@pytest.mark.parametrize(
    "run, error",
    [
        (lambda sim: sim.run(until=-3), SimulationError),
        (lambda sim: sim.run(-3), SimulationError),
        (lambda sim: sim.run(until=2.5), TypeError),
        (lambda sim: sim.run(until=True), TypeError),
        (lambda sim: sim.run(until="5"), TypeError),
        (lambda sim: sim.run(until=2**63), SimulationError),
        (lambda sim: sim.run_until(-3), SimulationError),
        (lambda sim: sim.run_until(2.5), TypeError),
        (lambda sim: sim.run_until(True), TypeError),
        (lambda sim: sim.run_until(None), TypeError),
        (lambda sim: sim.run_until(2**63), SimulationError),
        (lambda sim: sim.run_until(2**80), SimulationError),
        (_set_max_cycles(-3), SimulationError),
        (_set_max_cycles(2.5), TypeError),
        (_set_max_cycles(2**63), SimulationError),
    ],
    ids=[
        "run until=-3", "run -3", "run until=2.5", "run until=True",
        "run until='5'", "run until=2**63", "run_until -3", "run_until 2.5",
        "run_until True", "run_until None", "run_until 2**63",
        "run_until 2**80", "max_cycles -3", "max_cycles 2.5",
        "max_cycles 2**63",
    ],
)
def test_a_run_limit_that_is_not_a_cycle_count_is_refused_alike(sim, run, error):
    """A limit obeys the scheduling rule — exactly an ``int``, no earlier
    than ``now``, inside the cycle counter — and a refused run leaves the
    kernel as it was: time never moves backwards or off the integers."""
    log = []
    sim.post(1, log.append, 1)
    sim.post(5, log.append, 5)
    before = (sim.now, sim._seq, sim.events_executed, sim.pending_events)
    with pytest.raises(error):
        run(sim)
    assert (sim.now, sim._seq, sim.events_executed, sim.pending_events) == before
    assert type(sim.now) is int and log == []
    # ... and once time has moved, a limit behind it is refused the same way
    assert sim.run_until(3) == 3 and log == [1]
    with pytest.raises(SimulationError):
        sim.run(until=2)
    with pytest.raises(SimulationError):
        sim.run_until(2)
    assert (sim.now, sim.pending_events) == (3, 1)


def test_the_largest_cycle_count_is_a_valid_run_limit(sim):
    log = []
    sim.post(1, log.append, 1)
    sim.post(2**63 - 1, log.append, "last")
    assert sim.run_until(2**63 - 1) == 2**63 - 1 and log == [1]
    assert sim.run(until=2**63 - 1) == 2**63 - 1 and log == [1, "last"]
    sim.max_cycles = None
    assert sim.run() == 2**63 - 1 and sim.pending_events == 0


@pytest.mark.parametrize(
    "call",
    [
        lambda sim: sim.post(1),
        lambda sim: sim.post(1, print, 2, 3),
        lambda sim: sim.post(1, print, callback=print),
        lambda sim: sim.post(1, print, when=2),
        lambda sim: sim.post(callback=print),
    ],
    ids=["no callback", "too many", "callback twice", "unknown keyword", "no time"],
)
def test_a_malformed_call_is_a_type_error_on_every_kernel(sim, call):
    with pytest.raises(TypeError):
        call(sim)
    assert sim.pending_events == 0


# ----------------------------------------------------------------------
# The public class without its set-up
# ----------------------------------------------------------------------


@pytest.mark.skipif(not native.available(), reason="extension not built")
def test_the_native_simulator_is_safe_to_construct_directly():
    """``NativeSimulator()`` before anything called ``load_status()`` used
    to run on an extension whose ``setup()`` had not happened: signal 11
    at the first event, ``SystemError`` from ``post(-1, f)``."""
    code = (
        "from repro.backend.native import NativeSimulator as S\n"
        "from repro.sim.kernel import SimulationError\n"
        "log = []\n"
        "s = S(); s.post(0, log.append, 'ran'); s.post_after(1, log.append, 'too')\n"
        "try:\n"
        "    s.post(-1, print)\n"
        "except SimulationError as exc:\n"
        "    log.append(str(exc))\n"
        "s.run(); print(log)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=120,
    )
    assert result.returncode == 0, (result.returncode, result.stderr)
    assert result.stdout.strip() == str(
        ["cannot schedule event at -1, now is 0", "ran", "too"]
    )


@pytest.mark.skipif(not native.available(), reason="extension not built")
def test_the_bare_core_refuses_to_exist_before_setup():
    code = (
        "import importlib\n"
        "ext = importlib.import_module('repro.backend.native._native')\n"
        "assert not ext.is_ready()\n"
        "try:\n"
        "    ext.Core()\n"
        "except RuntimeError as exc:\n"
        "    print(exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=120,
    )
    assert result.returncode == 0, (result.returncode, result.stderr)
    assert result.stdout.strip() == "_native.setup() not called"


@pytest.mark.skipif(not native.available(), reason="extension not built")
@pytest.mark.parametrize(
    "kernel, half_spec, call",
    [
        ("StepKernel", None, "mem_done(1, 2)"),
        ("DirKernel", None, "receive(1)"),
        ("StepKernel", "{'core': core, 'proc': ext}", "mem_done(1, 2)"),
        ("DirKernel", "{'core': core, 'ctrl': ext}", "receive(1)"),
    ],
    ids=["bare mem_done", "bare receive", "half-built mem_done", "half-built receive"],
)
def test_a_kernel_never_built_refuses_its_methods(kernel, half_spec, call):
    """A kernel that was never built, or whose ``__init__`` raised half way
    through its spec, is refused by its methods as its call refuses it —
    not a signal 11 at the first field they read."""
    code = (
        "from repro.backend import native\n"
        "ext = native._native\n"
        "core = native.NativeSimulator()._core\n"
        f"k = ext.{kernel}.__new__(ext.{kernel})\n"
    )
    if half_spec is not None:
        code += (
            "try:\n"
            f"    k.__init__({half_spec})\n"
            "except KeyError as exc:\n"
            "    print(exc)\n"
        )
    code += (
        "for refused in (lambda: k(1), lambda: k." + call + "):\n"
        "    try:\n"
        "        refused()\n"
        "    except TypeError as exc:\n"
        "        print(exc)\n"
    )
    result = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": _SRC},
        timeout=120,
    )
    assert result.returncode == 0, (result.returncode, result.stderr)
    refusal = f"'repro._native.{kernel}' object does not support vectorcall"
    missing = {"StepKernel": ["'spec missing tags'"], "DirKernel": ["'spec missing process'"]}
    expected = (missing[kernel] if half_spec else []) + [refusal, refusal]
    assert result.stdout.splitlines() == expected

"""Property-based co-simulation: every engine against the reference.

Three layers of lockstep comparison, all driven by hypothesis:

* **Kernel level** — random self-rescheduling event schedules run through
  :class:`~repro.sim.kernel.Simulator` (and, when the extension is built,
  :class:`~repro.backend.native.NativeSimulator`) under ``run_until``
  windows, ``run(until=...)`` windows and free runs, against a
  heap-order oracle: a ``Simulator`` advanced by ``step()``, which pops
  one heap entry at a time and never touches the same-cycle lane.  The
  firing log (cycle, event identity) and the per-window kernel
  observables ``(now, _seq, events_executed, pending_events)`` must
  match exactly: the lane and the compiled 64-slot ring are pure
  reorderings of *work*, never of *results*, and the window boundaries
  are exactly where the checkpointer reads those observables.
* **Machine level** — random small weather configurations run end to end
  on every backend under a windowed driver; the per-window observables
  and the final equivalence fingerprint must match.  This sweeps the
  view-object cache/directory storage and the compiled ring, step, send
  and receive kernels under schedules the committed goldens do not
  enumerate.
* **Op-stream level** — random straight-line programs over all eight op
  kinds (bursts of one and of several ops whose first op hits or misses,
  nested bursts, fences, switch hints with one to three contexts per
  processor, ``sc`` and ``wo``) compared the same way, ``spin_until``
  included: spins on flag words that one context per run — never a
  spinning one — releases, so a spin may hold at its first poll, fail
  many polls first, or poll alongside the releaser on its own
  processor.  Weather with one
  context never reaches most of the processor step's branches; this
  does, on the Python step over the columns and on the compiled one.
  The same streams also drive the compiled miss transaction off its
  common case:
  caches of 4 to 16 lines (conflict victims, clean and dirty), several
  contexts opening on one word (MSHR merges, read fills that re-open
  upgrades), and fault-tolerant and update-mode machines, which must
  fall back to the Python cache controller whole.  Both machine-level
  tiers draw the protocol from every registered one and the pointer
  count from 0, 1, 2 and 4, so the compiled directory meets each
  variant's overrides (hand-backs by cell) and each overflow regime,
  from every read trapping to none.
"""

from __future__ import annotations

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.backend import equivalence_fingerprint, native
from repro.coherence.registry import protocol_names
from repro.extensions.update import make_update_block
from repro.machine import AlewifeConfig, AlewifeMachine
from repro.proc import ops
from repro.sim.kernel import Simulator
from repro.workloads import WeatherWorkload

from .opstream import (
    N_FLAGS,
    N_WORDS,
    trace_streams,
    windowed_driver,
    word_address,
)

# ----------------------------------------------------------------------
# Kernel level
# ----------------------------------------------------------------------

#: (start_time, chain_length, delta): event i fires at start_time, then
#: reposts itself chain_length times at +delta.  Deltas straddle the
#: 64-cycle ring horizon, and include 0 (the same-cycle lane), so every
#: path of each kernel executes.
_schedules = st.lists(
    st.tuples(
        st.integers(min_value=0, max_value=120),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=90),
    ),
    min_size=1,
    max_size=40,
)

_windows = st.sampled_from([1, 7, 63, 64, 65, 257])

#: the kernels held to the oracle: the compiled core only when built
_KERNELS = [Simulator] + ([native.NativeSimulator] if native.available() else [])


def _oracle_run_until(sim, limit):
    """``run_until`` by ``step()``: one heap pop at a time, no lane."""
    while (head := sim.next_event_time()) is not None and head < limit:
        sim.step()
    sim.now = limit


def _oracle_run(sim, limit=None):
    """``run(until=limit)`` by ``step()``."""
    while (head := sim.next_event_time()) is not None:
        if limit is not None and head > limit:
            sim.now = limit
            return
        sim.step()


def _schedule_on(sim, schedule):
    log = []

    def fire(arg):
        ident, remaining, delta = arg
        log.append((sim.now, ident))
        if remaining:
            sim.post(sim.now + delta, fire, (ident, remaining - 1, delta))

    for ident, (start, chain, delta) in enumerate(schedule):
        sim.post(start, fire, (ident, chain, delta))
    return log


def _observe(sim):
    return sim.now, sim._seq, sim.events_executed, sim.pending_events


def _windowed(sim, schedule, window, advance):
    log = _schedule_on(sim, schedule)
    trace = []
    while sim.pending_events:
        assert len(trace) < 10_000
        advance(sim, sim.now + window)
        trace.append(_observe(sim))
    return log, trace


class TestKernelCoSimulation:
    @settings(max_examples=40, deadline=None)
    @given(schedule=_schedules, window=_windows)
    def test_windowed_runs_match_heap_order(self, schedule, window):
        oracle = _windowed(Simulator(), schedule, window, _oracle_run_until)
        inclusive = _windowed(Simulator(), schedule, window, _oracle_run)
        for kernel in _KERNELS:
            # (the instance's methods: native shadows them per instance)
            assert (
                _windowed(kernel(), schedule, window, lambda s, t: s.run_until(t))
                == oracle
            )
            # run(until=...) executes the events at the limit as well
            assert (
                _windowed(kernel(), schedule, window, lambda s, t: s.run(until=t))
                == inclusive
            )

    @settings(max_examples=20, deadline=None)
    @given(schedule=_schedules)
    def test_free_runs_match_heap_order(self, schedule):
        def free_run(sim, advance):
            log = _schedule_on(sim, schedule)
            advance(sim)
            return log, _observe(sim)

        oracle = free_run(Simulator(), _oracle_run)
        for kernel in _KERNELS:
            assert free_run(kernel(), lambda sim: sim.run()) == oracle


# ----------------------------------------------------------------------
# Machine level
# ----------------------------------------------------------------------

_protocols = st.sampled_from(protocol_names())
_pointers = st.sampled_from([0, 1, 2, 4])


def _pointer_budget(protocol: str, pointers: int) -> int:
    """Dir_iNB and Dir_iB need a pointer to evict or to arm broadcast on."""
    return max(pointers, 1) if protocol.startswith("limited") else pointers


_configs = st.fixed_dictionaries(
    {
        "n_procs": st.sampled_from([4, 16]),
        "protocol": _protocols,
        "pointers": _pointers,
        "seed": st.integers(min_value=0, max_value=7),
        "iterations": st.integers(min_value=1, max_value=2),
        "window": st.sampled_from([64, 193, 1024]),
    }
)


def _trace_machine(backend, params):
    kwargs = dict(
        n_procs=params["n_procs"],
        protocol=params["protocol"],
        pointers=_pointer_budget(params["protocol"], params["pointers"]),
        ts=50,
        seed=params["seed"],
        backend=backend,
    )
    machine = AlewifeMachine(AlewifeConfig(**kwargs))
    trace = []
    stats = machine.run(
        WeatherWorkload(iterations=params["iterations"]),
        audit=False,
        driver=windowed_driver(params["window"], trace),
    )
    return trace, equivalence_fingerprint(stats)


class TestMachineCoSimulation:
    @settings(max_examples=12, deadline=None)
    @given(params=_configs)
    def test_soa_machine_matches_reference_window_for_window(self, params):
        assert _trace_machine("soa", params) == _trace_machine(
            "reference", params
        )

    @settings(max_examples=12, deadline=None)
    @given(params=_configs)
    def test_native_machine_matches_reference_window_for_window(self, params):
        # Runs against the compiled kernels when the extension is built,
        # and against the reference fallback otherwise — both must
        # co-simulate with the reference machine window for window.
        assert _trace_machine("native", params) == _trace_machine(
            "reference", params
        )


# ----------------------------------------------------------------------
# Op-stream level
# ----------------------------------------------------------------------

_word = st.integers(min_value=0, max_value=N_WORDS - 1)
_simple_op = st.one_of(
    # think times straddle the 64-cycle ring horizon
    st.tuples(st.just("think"), st.integers(min_value=0, max_value=90)),
    st.tuples(st.just("load"), _word),
    st.tuples(st.just("store"), _word, st.integers(min_value=0, max_value=99)),
    st.tuples(st.just("add"), _word, st.integers(min_value=1, max_value=5)),
    st.just(("fence",)),
    st.just(("switch_hint",)),
)
_inner_burst = st.tuples(
    st.just("burst"), st.lists(_simple_op, min_size=1, max_size=3)
)
_burst = st.tuples(
    st.just("burst"),
    st.lists(st.one_of(_simple_op, _inner_burst), min_size=1, max_size=5),
)
_stream = st.lists(st.one_of(_simple_op, _burst), min_size=1, max_size=12)
#: how the contexts of one processor begin: independently, or all with
#: an access to one word, so the later ones join the first one's MSHR
_opening = st.one_of(
    st.none(),
    st.tuples(st.just("load"), _word),
    st.tuples(st.just("add"), _word, st.just(1)),
    st.tuples(st.just("store"), _word, st.just(7)),
)
#: the value a flag's one releasing store writes
_RELEASE = 2
#: (processor, context, position, flag, (predicate, argument)); the context
#: is taken modulo that processor's count, and a spin drawn for the
#: releasing context is dropped
_spin = st.tuples(
    st.integers(min_value=0, max_value=3),
    st.integers(min_value=0, max_value=2),
    st.integers(min_value=0, max_value=12),
    st.integers(min_value=0, max_value=N_FLAGS - 1),
    # GE 0 holds at the first poll; the others wait for the release
    st.sampled_from(
        [(ops.GE, 0), (ops.GE, 1), (ops.GE, _RELEASE), (ops.EQ, _RELEASE)]
    ),
)
#: the protocols whose controllers recover from lost and duplicated packets
_HARDENED = ("fullmap", "limited", "limitless")
#: machines on which the compiled miss transaction must stand down whole
_off_common_case = st.sampled_from(
    [
        {},
        {},
        {"fault_delay_rate": 0.05},
        {"fault_drop_rate": 0.02, "fault_dup_rate": 0.02},
        {"update_word": 5},
    ]
)
_op_streams = st.fixed_dictionaries(
    {
        "streams": st.fixed_dictionaries(
            {
                proc: st.lists(_stream, min_size=1, max_size=3)
                for proc in range(4)
            }
        ),
        "openings": st.fixed_dictionaries(
            {proc: _opening for proc in range(4)}
        ),
        "spins": st.lists(_spin, max_size=4),
        # whose first context stores every flag's release, and where
        "releaser": st.integers(min_value=0, max_value=3),
        "release_at": st.lists(
            st.integers(min_value=0, max_value=12),
            min_size=N_FLAGS,
            max_size=N_FLAGS,
        ),
        # the compiled step and miss transaction exist under ``sc`` only
        "memory_model": st.sampled_from(["sc", "sc", "wo"]),
        "protocol": _protocols,
        "pointers": _pointers,
        "window": st.sampled_from([1, 64, 193]),
        # 4..16 lines: words 1/4 and 2/5 share a slot and evict each other
        "cache_lines": st.sampled_from([4, 8, 16, 4096]),
        "machine": _off_common_case,
    }
)


def _without_atomics_on(word, item):
    """Update-mode blocks never become exclusive: atomics are refused."""
    if item[0] == "add" and item[1] == word:
        return ("store", word, item[2])
    if item[0] == "burst":
        return ("burst", [_without_atomics_on(word, sub) for sub in item[1]])
    return item


def _trace_op_streams(backend, params):
    machine = dict(params["machine"])
    update_word = machine.pop("update_word", None)
    protocol = params["protocol"]
    if update_word is not None or (machine and protocol not in _HARDENED):
        protocol = "limitless"
    streams = {}
    for proc, contexts in params["streams"].items():
        opening = params["openings"][proc]
        streams[proc] = [
            [
                item if update_word is None
                else _without_atomics_on(update_word, item)
                for item in ([opening] if opening else []) + stream
            ]
            for stream in contexts
        ]
    releaser = streams[params["releaser"]][0]
    for flag, at in enumerate(params["release_at"]):
        releaser.insert(at, ("store", N_WORDS + flag, _RELEASE))
    for proc, ctx, at, flag, (pred, arg) in params["spins"]:
        stream = streams[proc][ctx % len(streams[proc])]
        if stream is not releaser:
            stream.insert(at, ("spin", N_WORDS + flag, pred, arg))

    def prepare(m):
        if update_word is not None:
            make_update_block(m, word_address(m, update_word))

    trace, fingerprint, _machine = trace_streams(
        backend,
        streams,
        params["window"],
        prepare=prepare,
        # update-mode words are weakly ordered: two writers may leave a
        # sharer and memory apart, identically on every backend
        audit=update_word is None,
        protocol=protocol,
        pointers=_pointer_budget(protocol, params["pointers"]),
        memory_model=params["memory_model"],
        cache_lines=params["cache_lines"],
        **machine,
    )
    return trace, fingerprint


class TestOpStreamCoSimulation:
    @settings(max_examples=60, deadline=None)
    @given(params=_op_streams)
    def test_soa_and_native_match_reference_window_for_window(self, params):
        # ``native`` is the compiled step when the extension is built and
        # the reference fallback otherwise; either way it must co-simulate.
        reference = _trace_op_streams("reference", params)
        assert _trace_op_streams("soa", params) == reference
        assert _trace_op_streams("native", params) == reference

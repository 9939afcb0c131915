"""The processor step at its edges, on every backend.

``Processor._step``/``_execute_op`` is the definition; the same step over
the SoA columns and the compiled ``StepKernel`` are checked against it
here where the goldens and the property co-simulation do not reach: ops
no constructor in :mod:`repro.proc.ops` would build, exceptions raised
underneath the step (by the program, by an ``rmw`` callable, by the
Python fallback) or while a spin polls, stale burst bookkeeping, and the
kernel's own fall-through counter.

"Same as reference" means the same exception type and message, the same
checkpoint digest and per-context bookkeeping at the moment it
propagated, and the same state again after the surviving events drain —
a kernel whose ``pending_events`` or ``_seq`` went wrong on the error
path shows up in one of the three.
"""

from __future__ import annotations

import pytest

from repro.backend import native
from repro.proc import ops
from repro.proc.processor import Processor
from repro.sim.kernel import SimulationError
from repro.workloads import SyntheticSharingWorkload, WeatherWorkload

from .opstream import (
    BACKENDS,
    N_WORDS,
    OpStreamWorkload,
    assert_crashes_like,
    context_state,
    kernel_state,
    make_machine,
    run_streams,
    trace_streams,
)

needs_extension = pytest.mark.skipif(
    not native.available(), reason="extension not built"
)


def _assert_crashes_like_reference(streams, **kwargs):
    return assert_crashes_like("reference", streams, **kwargs)


#: three ordinary neighbours, so a failure on processor 0 happens while
#: other steps, hits and misses are in flight
_NEIGHBOURS = {
    proc: [
        [
            ("store", proc, proc),
            ("burst", [("load", 0), ("think", 5), ("add", proc, 1)]),
            ("think", 70),
            ("load", 1),
        ]
    ]
    for proc in (1, 2, 3)
}


# ----------------------------------------------------------------------
# Negative think (was silently masked into the ring on soa/native)
# ----------------------------------------------------------------------


@pytest.mark.parametrize("backend", BACKENDS)
def test_negative_think_is_rejected_on_every_backend(backend):
    stream = [("think", 3), ("raw", ("think", -5)), ("think", 3)]
    machine = make_machine(backend)
    with pytest.raises(
        SimulationError, match=r"cannot schedule event at -2, now is 3"
    ):
        machine.run(OpStreamWorkload({p: [list(stream)] for p in range(4)}))


def test_negative_think_leaves_the_same_state_on_every_backend():
    streams = {0: [[("think", 3), ("raw", ("think", -5))]], **_NEIGHBOURS}
    reference = _assert_crashes_like_reference(streams)
    assert reference["error"][0] is SimulationError


# ----------------------------------------------------------------------
# Malformed and unusual ops: whatever the Python step does
# ----------------------------------------------------------------------

#: spin_until tuples no constructor builds: the compiled step hands each
#: to Processor._execute_op, which raises
_MALFORMED_SPINS = [
    ((ops.SPIN,), ValueError),
    ((ops.SPIN, ops.GE, 0), ValueError),
    ((ops.SPIN, "<", 0, ((ops.LOAD, 64),)), SimulationError),
    ((ops.SPIN, ops.GE, 0, ()), IndexError),
    ((ops.SPIN, ops.EQ, 0, None), TypeError),
    ((ops.SPIN, ops.GE, 0, ((ops.LOAD,),)), IndexError),
]


@pytest.mark.parametrize(
    "raw, expected",
    [
        (("think",), IndexError),
        (("load",), IndexError),
        (("store", 64), IndexError),
        (("rmw", 64), IndexError),
        (("burst",), IndexError),
        (("burst", ()), IndexError),
        (("burst", (("think",),)), IndexError),
        (("burst", (None,)), TypeError),
        (("frobnicate", 1), SimulationError),
        ((), IndexError),
        (None, TypeError),
        (("think", "soon"), TypeError),
        *_MALFORMED_SPINS,
    ],
)
def test_malformed_op_raises_what_the_reference_step_raises(raw, expected):
    streams = {0: [[("think", 2), ("raw", raw)]], **_NEIGHBOURS}
    reference = _assert_crashes_like_reference(streams)
    assert reference["error"][0] is expected


@needs_extension
@pytest.mark.parametrize("raw, expected", _MALFORMED_SPINS)
def test_malformed_spin_is_handed_to_execute_op(raw, expected):
    machine = make_machine("native")
    with pytest.raises(expected):
        run_streams(machine, {0: [[("think", 2), ("raw", raw)]]})
    assert native.fallthroughs(machine)["op"] == 1


def test_hand_built_bursts_run_like_reference():
    """Un-flattened nesting and a list run: legal for ``_execute_op``."""
    nested = (
        ops.BURST,
        (
            (ops.BURST, ((ops.THINK, 2), (ops.THINK, 3))),
            (ops.THINK, 100),  # dropped: the inner burst replaces the run
        ),
    )
    as_list = (ops.BURST, [(ops.THINK, 4), (ops.FENCE,), (ops.THINK, 1)])
    equal_not_identical = ("".join(["th", "ink"]), 7)
    streams = {
        0: [[("raw", nested), ("raw", as_list), ("raw", equal_not_identical)]],
        **_NEIGHBOURS,
    }
    reference = trace_streams("reference", streams, 64)[:2]
    for backend in BACKENDS[1:]:
        assert trace_streams(backend, streams, 64)[:2] == reference, backend


# ----------------------------------------------------------------------
# Stale burst bookkeeping (restore, test poke)
# ----------------------------------------------------------------------


def _poke_burst(pos):
    def poke(machine):
        ctx = machine.nodes[0].processor.contexts[0]
        ctx.burst_ops = (ops.think(1), ops.think(2))
        ctx.burst_pos = pos

    return poke


def test_stale_burst_pos_raises_index_error_everywhere():
    streams = {0: [[("think", 1)]], **_NEIGHBOURS}
    reference = _assert_crashes_like_reference(streams, poke=_poke_burst(7))
    assert reference["error"] == (IndexError, "tuple index out of range")


def test_negative_burst_pos_wraps_like_python_indexing():
    streams = {0: [[("think", 1)]], **_NEIGHBOURS}
    results = {}
    for backend in BACKENDS:
        machine = make_machine(backend)
        run_streams(machine, streams, _poke_burst(-1))
        results[backend] = (kernel_state(machine), context_state(machine))
    assert results["soa"] == results["reference"]
    assert results["native"] == results["reference"]


# ----------------------------------------------------------------------
# Exceptions underneath the step
# ----------------------------------------------------------------------


class Boom(Exception):
    pass


def test_program_raising_between_bursts():
    streams = {
        0: [
            [
                ("burst", [("load", 0), ("think", 3), ("switch_hint",)]),
                ("raise", Boom("program")),
            ]
        ],
        **_NEIGHBOURS,
    }
    reference = _assert_crashes_like_reference(streams)
    assert reference["error"] == (Boom, "program")


@pytest.mark.parametrize("raiser", ["neighbour", "spinner"])
def test_program_raising_while_a_spin_polls(raiser):
    """A neighbour raises while processor 0 is between polls (the crash
    state holds its spin and retry run), or the spinner's own program
    raises as the satisfied spin resumes it; the release lands either way
    and the drain runs the spin out."""
    flag = N_WORDS
    spinner = [("spin", flag, ops.GE, 1)]
    other = [("think", 40), ("raise", Boom("while spinning"))]
    if raiser == "spinner":
        spinner.append(("raise", Boom("after the spin")))
        other = [("think", 3)]
    streams = {
        0: [spinner],
        1: [[("think", 150), ("store", flag, 1)]],
        2: [other],
    }
    reference = _assert_crashes_like_reference(streams)
    assert reference["error"][0] is Boom


@pytest.mark.parametrize("position", ["first", "later"])
def test_rmw_callable_raising_inside_a_burst(position):
    def explode(_old):
        raise Boom("rmw")

    # The store makes word 0 exclusive here, so the rmw is a hit and its
    # callable runs inside the step itself.
    atomic = ("rmw", 0, explode)
    burst = [atomic, ("think", 2)]
    if position == "later":
        burst.reverse()
    streams = {0: [[("store", 0, 9), ("burst", burst)]]}
    reference = _assert_crashes_like_reference(streams, n_procs=1)
    assert reference["error"] == (Boom, "rmw")


def test_multi_context_switch_hint_fallback_raising(monkeypatch):
    def explode(self, ctx):
        raise Boom("switch")

    monkeypatch.setattr(Processor, "_switch_hint", explode)
    streams = {
        0: [
            [("think", 4), ("burst", [("think", 1), ("switch_hint",)])],
            [("think", 9)],
        ],
        **_NEIGHBOURS,
    }
    reference = _assert_crashes_like_reference(streams)
    assert reference["error"] == (Boom, "switch")


# ----------------------------------------------------------------------
# StepKernel.fallthroughs
# ----------------------------------------------------------------------


@needs_extension
@pytest.mark.parametrize(
    "workload",
    [
        WeatherWorkload(iterations=2),
        SyntheticSharingWorkload(worker_sets=[(2, 8), (8, 2)], rounds=3),
    ],
    ids=["weather", "synthetic"],
)
def test_single_context_sc_run_never_leaves_the_compiled_step(workload):
    machine = make_machine("native", n_procs=16, pointers=4)
    machine.run(workload)
    assert native.fallthroughs(machine)["op"] == 0


@needs_extension
def test_multi_context_switch_hint_falls_back_and_stays_bit_identical():
    spin = [("load", 0), ("burst", [("think", 12), ("switch_hint",)])] * 4
    streams = {p: [list(spin), list(spin)] for p in range(4)}
    trace, fingerprint, machine = trace_streams("native", streams, 64)
    assert native.fallthroughs(machine)["op"] == 4 * 2 * 4
    assert (trace, fingerprint) == trace_streams("reference", streams, 64)[:2]


@needs_extension
def test_fallthroughs_is_read_only_and_absent_without_a_kernel():
    machine = make_machine("native")
    kernel = machine.nodes[0].processor._step
    with pytest.raises(AttributeError):
        kernel.fallthroughs = 5
    unfused = make_machine("native", memory_model="wo")
    assert native.fallthroughs(unfused) is None
    assert native.fallthroughs(make_machine("reference")) is None


@needs_extension
def test_completions_resume_contexts_through_the_kernel():
    """Every context's completion callback is the kernel's compiled
    ``_mem_done``; a processor without a kernel keeps the Python one."""
    machine = make_machine("native")
    run_streams(machine, {0: [[("load", 1)], [("load", 2)]]})
    proc = machine.nodes[0].processor
    assert vars(proc)["_mem_done"] == proc._step.mem_done
    assert all(ctx.mem_done.func == proc._step.mem_done for ctx in proc.contexts)
    unfused = make_machine("native", memory_model="wo").nodes[0].processor
    assert "_mem_done" not in vars(unfused)

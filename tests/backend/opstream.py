"""Raw op-stream workload and cross-backend tracing for the step tests.

The registered workloads only ever yield ops built by
:mod:`repro.proc.ops`, one hardware context per processor.  The step
kernel tests need the opposite: arbitrary straight-line programs over
all eight op kinds, several contexts per processor, hand-built (possibly
malformed) op tuples, and programs that raise on cue.

A *stream* is a list of items, one per yield:

* ``("think", cycles)``, ``("fence",)``, ``("switch_hint",)``
* ``("load", word)``, ``("store", word, value)``, ``("add", word, delta)``
  — ``word`` indexes the workload's shared words (homed round-robin, so
  a small index range gives hits, local misses and remote misses)
* ``("burst", [items...])`` — built through :func:`ops.burst`, so nested
  bursts flatten exactly as programs see them
* ``("raw", op)`` — ``op`` is yielded untouched (unknown kinds, short
  tuples, un-flattened nested bursts)
* ``("rmw", word, fn)`` — an atomic with a caller-supplied callable
* ``("spin", word, pred, arg)`` — :func:`ops.spin_until` on ``word``,
  backing off with :data:`SPIN_BACKOFF` between polls
* ``("raise", exc)`` — the program raises ``exc`` instead of yielding

Words ``N_WORDS`` and up (``N_FLAGS`` of them) are flags: nothing but
spins and the stores that release them should touch one.  Programs are
otherwise value-independent, so a stream terminates on every protocol as
long as each spin's releasing value is stored by a context that never
waits on it (the property co-simulation builds its streams that way).
"""

from __future__ import annotations

import pytest

from repro.backend import backend_names, equivalence_fingerprint
from repro.machine import AlewifeConfig, AlewifeMachine
from repro.proc import ops
from repro.recover.snapshot import state_digest
from repro.workloads.base import Workload

BACKENDS = backend_names()

N_WORDS = 6
N_FLAGS = 2
#: what a spin does between polls
SPIN_BACKOFF = ops.burst(ops.think(12), ops.switch_hint())


def _compile(words: list[int], item: tuple) -> tuple:
    """One stream item as the op a program yields.  (Module level, not a
    closure of ``build``: a function that recurses through its own cell
    is a reference cycle, and the leak soak counts every block.)"""
    kind = item[0]
    if kind == "load":
        return ops.load(words[item[1]])
    if kind == "store":
        return ops.store(words[item[1]], item[2])
    if kind == "add":
        return ops.fetch_add(words[item[1]], item[2])
    if kind == "rmw":
        return ops.rmw(words[item[1]], item[2])
    if kind == "spin":
        return ops.spin_until(words[item[1]], item[2], item[3], SPIN_BACKOFF)
    if kind == "burst":
        return ops.burst(*(_compile(words, sub) for sub in item[1]))
    if kind == "raw":
        return item[1]
    return item  # think / fence / switch_hint are already ops


class OpStreamWorkload(Workload):
    """``streams[proc]`` is a list of contexts, each a stream (see above)."""

    name = "opstream"

    def __init__(self, streams: dict[int, list[list[tuple]]]):
        self.streams = streams

    def build(self, machine):
        n = machine.config.n_procs
        words = [
            machine.allocator.alloc_scalar(f"ops.w{i}", home=i % n).base
            for i in range(N_WORDS + N_FLAGS)
        ]

        def program(stream):
            for item in stream:
                if item[0] == "raise":
                    raise item[1]
                yield _compile(words, item)

        return {
            proc: [program(stream) for stream in contexts]
            for proc, contexts in self.streams.items()
        }


def make_machine(backend: str, **overrides) -> AlewifeMachine:
    kwargs = dict(
        n_procs=4,
        protocol="limitless",
        pointers=2,
        ts=50,
        seed=3,
        max_cycles=2_000_000,
        backend=backend,
    )
    kwargs.update(overrides)
    return AlewifeMachine(AlewifeConfig(**kwargs))


def show(op):
    """``repr`` of an op (or run of ops) without callable addresses."""
    if isinstance(op, (tuple, list)):
        return [show(item) for item in op]
    return "<fn>" if callable(op) else repr(op)


def context_state(machine: AlewifeMachine) -> list:
    """Per-context bookkeeping every backend must agree on.

    ``resume_value`` is left out on purpose: the compiled hit stages the
    loaded word at issue, the Python step at completion.
    """
    return [
        (
            node.node_id,
            ctx.index,
            ctx.state.name,
            ctx.started,
            ctx.ops_executed,
            show(ctx.last_op),
            show(ctx.burst_ops),
            ctx.burst_pos,
            show(ctx.spin),
            show(ctx.pending_op),
            ctx.outstanding_stores,
        )
        for node in machine.nodes
        for ctx in node.processor.contexts
    ]


def kernel_state(machine: AlewifeMachine) -> tuple:
    """The kernel observables the checkpointer reads."""
    sim = machine.sim
    return (sim.now, sim._seq, sim.events_executed, sim.pending_events)


def run_streams(machine, streams, poke=None):
    """``machine.run`` with ``poke(machine)`` applied after the contexts
    are loaded and started, before the first event executes."""

    def driver(m):
        if poke is not None:
            poke(m)
        m.sim.run()

    return machine.run(OpStreamWorkload(streams), driver=driver)


def crash(backend, streams, *, poke=None, **overrides):
    """Run ``streams`` until something raises; report what is left."""
    machine = make_machine(backend, **overrides)
    with pytest.raises(Exception) as caught:
        run_streams(machine, streams, poke)
    at_raise = (
        kernel_state(machine),
        state_digest(machine),
        context_state(machine),
    )
    # The failed context is gone for good, but everything else still
    # queued must run to quiescence from a consistent kernel.
    machine.sim.run()
    assert machine.sim.pending_events == 0
    drained = (kernel_state(machine), state_digest(machine))
    return {
        "error": (caught.type, str(caught.value)),
        "at_raise": at_raise,
        "drained": drained,
    }


def assert_crashes_like(baseline, streams, backends=BACKENDS, **kwargs):
    """Every one of ``backends`` must fail exactly as ``baseline`` does:
    same exception, same state at the raise, same state once drained."""
    expected = crash(baseline, streams, **kwargs)
    for backend in backends:
        if backend != baseline:
            assert crash(backend, streams, **kwargs) == expected, backend
    return expected


def word_address(machine: AlewifeMachine, index: int) -> int:
    """Byte address of shared word ``index`` (once the workload is built)."""
    return next(
        a.base
        for a in machine.allocator.allocations
        if a.name == f"ops.w{index}"
    )


def windowed_driver(window: int, trace: list, prepare=None):
    """A ``run(driver=...)`` that advances in ``run_until`` windows and
    appends :func:`kernel_state` to ``trace`` after each one;
    ``prepare(machine)`` runs before the first window."""

    def driver(machine):
        if prepare is not None:
            prepare(machine)
        sim = machine.sim
        guard = 0
        while sim.pending_events:
            guard += 1
            assert guard < 100_000
            sim.run_until(sim.now + window)
            trace.append(kernel_state(machine))

    return driver


def trace_streams(
    backend: str, streams, window: int, *, prepare=None, audit=True, **overrides
):
    """Run ``streams`` under a windowed driver.

    Returns the per-window kernel observables, the final fingerprint and
    the finished machine (for fall-through counters and context state).
    """
    machine = make_machine(backend, **overrides)
    trace: list = []
    stats = machine.run(
        OpStreamWorkload(streams),
        audit=audit,
        driver=windowed_driver(window, trace, prepare),
    )
    return trace, equivalence_fingerprint(stats), machine

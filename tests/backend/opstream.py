"""Raw op-stream workload and cross-backend tracing for the step tests.

The registered workloads only ever yield ops built by
:mod:`repro.proc.ops`, one hardware context per processor.  The step
kernel tests need the opposite: arbitrary straight-line programs over
all seven op kinds, several contexts per processor, hand-built (possibly
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
* ``("raise", exc)`` — the program raises ``exc`` instead of yielding

Programs are value-independent and spin-free, so every stream terminates
on every protocol.
"""

from __future__ import annotations

from repro.backend import equivalence_fingerprint
from repro.machine import AlewifeConfig, AlewifeMachine
from repro.proc import ops
from repro.workloads.base import Workload

N_WORDS = 6


class OpStreamWorkload(Workload):
    """``streams[proc]`` is a list of contexts, each a stream (see above)."""

    name = "opstream"

    def __init__(self, streams: dict[int, list[list[tuple]]]):
        self.streams = streams

    def build(self, machine):
        n = machine.config.n_procs
        words = [
            machine.allocator.alloc_scalar(f"ops.w{i}", home=i % n).base
            for i in range(N_WORDS)
        ]

        def compile_item(item):
            kind = item[0]
            if kind == "load":
                return ops.load(words[item[1]])
            if kind == "store":
                return ops.store(words[item[1]], item[2])
            if kind == "add":
                return ops.fetch_add(words[item[1]], item[2])
            if kind == "rmw":
                return ops.rmw(words[item[1]], item[2])
            if kind == "burst":
                return ops.burst(*(compile_item(sub) for sub in item[1]))
            if kind == "raw":
                return item[1]
            return item  # think / fence / switch_hint are already ops

        def program(stream):
            for item in stream:
                if item[0] == "raise":
                    raise item[1]
                yield compile_item(item)

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


def _show(op):
    """``repr`` of an op (or run of ops) without callable addresses."""
    if isinstance(op, (tuple, list)):
        return [_show(item) for item in op]
    return "<fn>" if callable(op) else repr(op)


def context_state(machine: AlewifeMachine) -> list:
    """Per-context bookkeeping every backend must agree on.

    ``resume_value`` is left out on purpose: the fused hit stages the
    loaded word at issue, the reference step at completion.
    """
    return [
        (
            node.node_id,
            ctx.index,
            ctx.state.name,
            ctx.started,
            ctx.ops_executed,
            _show(ctx.last_op),
            _show(ctx.burst_ops),
            ctx.burst_pos,
            _show(ctx.pending_op),
            ctx.outstanding_stores,
        )
        for node in machine.nodes
        for ctx in node.processor.contexts
    ]


def kernel_state(machine: AlewifeMachine) -> tuple:
    """The kernel observables the shard driver and the checkpointer read."""
    sim = machine.sim
    return (sim.now, sim._seq, sim.events_executed, sim.pending_events)


def windowed_driver(window: int, trace: list):
    """A ``run(driver=...)`` that advances in ``run_until`` windows and
    appends :func:`kernel_state` to ``trace`` after each one."""

    def driver(machine):
        sim = machine.sim
        guard = 0
        while sim.pending_events:
            guard += 1
            assert guard < 100_000
            sim.run_until(sim.now + window)
            trace.append(kernel_state(machine))

    return driver


def trace_streams(backend: str, streams, window: int, **overrides):
    """Run ``streams`` under a windowed driver.

    Returns the per-window kernel observables, the final fingerprint and
    the finished machine (for fall-through counters and context state).
    """
    machine = make_machine(backend, **overrides)
    trace: list = []
    stats = machine.run(
        OpStreamWorkload(streams), driver=windowed_driver(window, trace)
    )
    return trace, equivalence_fingerprint(stats), machine

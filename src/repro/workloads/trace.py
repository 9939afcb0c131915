"""Trace recording and post-mortem replay (ASIM's right-hand branch, §5.1).

ASIM could drive the memory system from a *dynamic post-mortem trace
scheduler*: a parallel trace derived from an execution, with embedded
synchronization, re-issued against the memory simulator with network
feedback.  We reproduce the idea directly:

* :class:`TraceRecorder` wraps any workload and records, per processor, the
  stream of memory operations the programs actually issued — i.e. the
  trace with all value-dependent control flow (spins, lock retries) already
  resolved, exactly what a post-mortem trace is.
* :class:`TraceReplayWorkload` replays a recorded trace on a fresh machine,
  possibly under a *different* coherence protocol or network.  Timing
  feedback shifts when each operation issues (the machine being measured
  provides the latencies), while the address stream stays fixed.

This lets one execution be compared across protocols with identical memory
reference streams — the paper's methodology for the Weather runs.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..proc import ops
from .base import Program, Workload


@dataclass(frozen=True)
class TraceOp:
    """One recorded operation.  ``value`` is the stored value for stores,
    the applied delta for recorded fetch-and-adds, cycles for think."""

    kind: str
    addr: int = 0
    value: int = 0


@dataclass
class Trace:
    """A parallel trace: one operation stream per processor."""

    n_procs: int
    streams: dict[int, list[TraceOp]] = field(default_factory=dict)

    def append(self, proc: int, op: TraceOp) -> None:
        self.streams.setdefault(proc, []).append(op)

    def length(self) -> int:
        return sum(len(s) for s in self.streams.values())

    def references(self) -> int:
        """Memory references (loads/stores/rmws), excluding think time."""
        return sum(
            1
            for stream in self.streams.values()
            for op in stream
            if op.kind in (ops.LOAD, ops.STORE, ops.RMW)
        )


class TraceRecorder(Workload):
    """Wraps a workload, recording every operation its programs issue.

    RMW functions are recorded by observing the operation itself; on
    replay they are re-issued as fetch-and-add with the recorded delta —
    value-dependent branching has already been resolved by the recording
    run, as in a post-mortem trace.
    """

    def __init__(self, inner: Workload):
        self.inner = inner
        self.name = f"record({inner.name})"
        self.trace: Trace | None = None

    def describe(self) -> str:
        return f"recording {self.inner.describe()}"

    def build(self, machine):
        programs = self.inner.build(machine)
        self.trace = Trace(machine.config.n_procs)
        wrapped: dict[int, list[Program]] = {}
        for proc, gens in programs.items():
            wrapped[proc] = [self._wrap(proc, gen) for gen in gens]
        return wrapped

    def _wrap(self, proc: int, gen) -> Program:
        result = None
        started = False
        while True:
            try:
                op = gen.send(result) if started else next(gen)
                started = True
            except StopIteration:
                return
            if op[0] == ops.SPIN:
                result = yield from self._unroll(proc, op)
            else:
                result = yield op
                self._record(proc, op, result)

    def _unroll(self, proc: int, spin: tuple):
        """Run a :func:`~repro.proc.ops.spin_until` as the loop it stands
        for, recording the polls and backoffs it resolves to; the same
        ops at the same cycles as the processor's own loop."""
        retry = spin[3]
        load, backoff = retry[-1], retry[:-1]
        while True:
            value = yield load
            self._record(proc, load, value)
            if ops.spin_satisfied(spin, value):
                return value
            if backoff:
                yield (ops.BURST, backoff)
                self._record(proc, (ops.BURST, backoff), None)

    def _record(self, proc: int, op: tuple, result) -> None:
        kind = op[0]
        if kind == ops.THINK:
            self.trace.append(proc, TraceOp(ops.THINK, value=op[1]))
        elif kind == ops.LOAD:
            self.trace.append(proc, TraceOp(ops.LOAD, addr=op[1]))
        elif kind == ops.STORE:
            self.trace.append(proc, TraceOp(ops.STORE, addr=op[1], value=op[2]))
        elif kind == ops.RMW:
            # The rmw already executed and returned the old value; re-derive
            # the written delta from it so replay performs the same update.
            self.trace.append(
                proc, TraceOp(ops.RMW, addr=op[1], value=op[2](result) - result)
            )
        elif kind == ops.FENCE:
            self.trace.append(proc, TraceOp(ops.FENCE))
        elif kind == ops.SWITCH_HINT:
            self.trace.append(proc, TraceOp(ops.SWITCH_HINT))
        elif kind == ops.BURST:
            # Flatten: a burst executes its ops back to back with timing
            # identical to yielding them individually, so the recorded
            # stream replays cycle-exactly either way.  (Burst ops are
            # value-independent by contract, so ``result`` — the final
            # op's value — is safe to pass to every sub-op.)
            for sub in op[1]:
                self._record(proc, sub, result)


class TraceReplayWorkload(Workload):
    """Replays a recorded trace, preserving per-processor op order."""

    name = "trace-replay"

    def __init__(self, trace: Trace):
        if trace is None:
            raise ValueError("no trace recorded yet")
        self.trace = trace

    def describe(self) -> str:
        return f"replay({self.trace.references()} refs)"

    def build(self, machine):
        if machine.config.n_procs != self.trace.n_procs:
            raise ValueError(
                f"trace was recorded on {self.trace.n_procs} processors, "
                f"machine has {machine.config.n_procs}"
            )

        def program(stream) -> Program:
            for op in stream:
                if op.kind == ops.THINK:
                    yield ops.think(op.value)
                elif op.kind == ops.LOAD:
                    yield ops.load(op.addr)
                elif op.kind == ops.STORE:
                    yield ops.store(op.addr, op.value)
                elif op.kind == ops.RMW:
                    yield ops.fetch_add(op.addr, op.value)
                elif op.kind == ops.FENCE:
                    yield ops.fence()
                elif op.kind == ops.SWITCH_HINT:
                    yield ops.switch_hint()

        return {
            proc: [program(stream)]
            for proc, stream in self.trace.streams.items()
        }


def record_trace(machine_config, workload) -> tuple[Trace, object]:
    """Run ``workload`` once, recording its trace.  Returns (trace, stats)."""
    from ..machine.machine import AlewifeMachine

    recorder = TraceRecorder(workload)
    stats = AlewifeMachine(machine_config).run(recorder)
    return recorder.trace, stats

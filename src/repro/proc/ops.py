"""Operations a program yields to the processor.

Programs are Python generators: they ``yield`` operation tuples and receive
the operation's result via ``send`` — loads return the word value, atomic
read-modify-writes return the old value.  This is the reproduction's
equivalent of the paper's trace-driven inputs with embedded synchronization
(the post-mortem scheduler of §5.1): the instruction stream is fixed, but
synchronization operations can branch on the values the memory system
actually delivers.

Two ops carry that split into the processor.  :func:`burst` is a run of
value-independent ops the program yields once.  :func:`spin_until` is the
one value-*dependent* op: the program yields a whole spin loop (poll a
word, back off while a fixed predicate fails), the processor runs it, and
the program resumes only with the value that ended it.  The memory system
sees the same operations, cycle for cycle, as the loop written out.
"""

from __future__ import annotations

from typing import Callable

THINK = "think"
LOAD = "load"
STORE = "store"
RMW = "rmw"
FENCE = "fence"
SWITCH_HINT = "switch_hint"
BURST = "burst"
SPIN = "spin_until"

#: the predicates a spin waits on: ``value >= arg`` (barrier flags, epoch
#: counters) and ``value == arg`` (test-and-test-and-set's free lock)
GE = ">="
EQ = "=="


def think(cycles: int) -> tuple:
    """Compute locally for ``cycles`` cycles (no memory traffic)."""
    if cycles < 0:
        raise ValueError("think time must be non-negative")
    return (THINK, cycles)


def load(addr: int) -> tuple:
    """Read a shared word; the yield expression evaluates to its value."""
    return (LOAD, addr)


def store(addr: int, value: int) -> tuple:
    """Write ``value`` to a shared word."""
    return (STORE, addr, value)


def rmw(addr: int, fn: Callable[[int], int]) -> tuple:
    """Atomic read-modify-write; yields the *old* value."""
    return (RMW, addr, fn)


def fetch_add(addr: int, delta: int = 1) -> tuple:
    """Atomic fetch-and-add; yields the pre-increment value."""
    return (RMW, addr, lambda old: old + delta)


def test_and_set(addr: int) -> tuple:
    """Atomic test-and-set; yields the old value (0 means acquired)."""
    return (RMW, addr, lambda _old: 1)


def switch_hint() -> tuple:
    """Yield the pipeline to another ready hardware context, if any.

    Models SPARCLE's context switch on *synchronization faults* (§2): a
    spinning thread gives way so same-node threads cannot starve each
    other.  Costs the 11-cycle switch when a switch happens, one cycle
    otherwise.  Spin loops in :mod:`repro.sync` back off with it between
    polls.
    """
    return (SWITCH_HINT,)


def burst(*operations: tuple) -> tuple:
    """Precompile a run of *value-independent* operations into one yield.

    The processor executes the operations back to back with identical
    timing to yielding them one at a time, but without resuming the
    program generator in between — the per-op generator round trip is
    the dominant interpreter cost of long straight-line access runs.
    Use only where no operation's result feeds a branch or a later
    operand: every intermediate result is discarded (the ``yield``
    expression evaluates to the final operation's result).  Nested
    bursts flatten.
    """
    flat: list[tuple] = []
    for op in operations:
        if op[0] == BURST:
            flat.extend(op[1])
        else:
            flat.append(op)
    if not flat:
        raise ValueError("burst needs at least one operation")
    return (BURST, tuple(flat))


def spin_until(addr: int, pred: str, arg: int, backoff: tuple) -> tuple:
    """Poll ``addr`` until ``pred`` holds of its value; yields that value.

    Exactly the loop ::

        while True:
            value = yield load(addr)
            if value <pred> arg:
                break
            yield backoff

    run by the processor instead of the program: a failed poll executes
    ``backoff`` (any op; a :func:`burst` usually) and reloads without
    resuming the generator.  Each poll counts as the ops it is made of.
    The op is ``(SPIN, pred, arg, retry)``, ``retry`` being the
    precompiled ``burst(backoff, load(addr))`` a failed poll installs; its
    last op is the load.
    """
    if pred not in (GE, EQ):
        raise ValueError(f"unknown spin predicate {pred!r}")
    return (SPIN, pred, arg, burst(backoff, load(addr))[1])


def spin_satisfied(spin: tuple, value) -> bool:
    """Does ``value`` end ``spin``?  The one definition of the predicates:
    the processor, its compiled step and the trace recorder all ask here
    (the compiled step inlines :data:`GE` and :data:`EQ`)."""
    pred = spin[1]
    if pred == GE:
        return value >= spin[2]
    if pred == EQ:
        return value == spin[2]
    raise ValueError(f"unknown spin predicate {pred!r}")


def fence() -> tuple:
    """Order point: wait until all of this context's buffered stores have
    completed.  A no-op (one cycle) under sequential consistency, where
    every store already blocks; required for release ordering under the
    weakly-ordered model (``memory_model="wo"``).  Atomics fence
    implicitly."""
    return (FENCE,)

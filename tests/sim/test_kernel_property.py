"""Property test: the kernel executes in exact (time, seq) order.

A reference executor keeps every posted callback in a plain list and
repeatedly runs the minimum by ``(time, seq)`` — the definitionally correct
order, with none of the kernels' machinery (heap, same-cycle fast lane,
the compiled core's 64-cycle ring).  The property drives every backend's
simulator and the reference with the same randomly generated program of
nested ``post`` calls and demands identical execution logs, so neither the
lane nor the ring can reorder anything relative to the specification.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.backend import backend_names, get_backend

#: one root: (start time, children), a child being (delay, grandchild delays)
_root = st.tuples(
    st.integers(0, 4),
    st.lists(
        st.tuples(st.integers(0, 3), st.lists(st.integers(0, 2), max_size=2)),
        max_size=3,
    ),
)


class _RefSim:
    """List-based (time, seq) executor: the ordering specification."""

    def __init__(self):
        self.events: list[tuple] = []
        self.seq = 0
        self.now = 0

    def post(self, time, action):
        self.events.append((time, self.seq, action))
        self.seq += 1

    def run(self):
        while self.events:
            event = min(self.events, key=lambda e: e[:2])
            self.events.remove(event)
            self.now = event[0]
            event[2]()


def _drive(sim, roots):
    """Run ``roots`` on either simulator; returns the execution log.

    Root i runs at its start time, logs itself and posts each child at
    ``now + delay``; a child logs itself and posts its grandchildren the
    same way.  A delay of 0 takes the same-cycle path (lane or ring), a
    larger one the ring or the heap, and chains of them interleave with
    roots that were posted before the run.
    """
    log = []

    def grandchild(i, k, j):
        log.append(("g", i, k, j, sim.now))

    def child(i, k, delays):
        log.append(("c", i, k, sim.now))
        for j, d in enumerate(delays):
            sim.post(sim.now + d, lambda j=j: grandchild(i, k, j))

    def root(i, children):
        log.append(("r", i, sim.now))
        for k, (d, delays) in enumerate(children):
            sim.post(sim.now + d, lambda k=k, delays=delays: child(i, k, delays))

    for i, (start, children) in enumerate(roots):
        sim.post(start, lambda i=i, children=children: root(i, children))
    sim.run()
    return log


@settings(max_examples=200, deadline=None)
@given(st.lists(_root, min_size=1, max_size=12))
def test_kernel_matches_reference_order(roots):
    ref_log = _drive(_RefSim(), roots)
    for name in backend_names():
        sim = get_backend(name).make_simulator()
        assert _drive(sim, roots) == ref_log, name
        assert sim.pending_events == 0

"""Build, run, dismantle — many times, with the cyclic collector off.

The compiled kernels sit on instances of the reference classes, so every
``native`` machine carries ``processor -> StepKernel -> processor`` (and
``controller -> DirKernel -> controller``, ``nic -> DirKernel.receive``,
``network -> NetSend -> network``, ``sim <-> Core``) cycles that only
``AlewifeMachine.dismantle()`` breaks, and ``_native.c`` counts its own
references by hand.  Two things must therefore hold on every backend
after each batch of machines built, run and dismantled with ``gc``
disabled:

* a collection then finds **nothing** unreachable — ``dismantle()`` left
  no cycle behind, so reference counting alone freed the machines;
* ``sys.getallocatedblocks()``, read right after that collection (which
  also empties the interpreter's free lists) and a flush of the type
  attribute cache (its entries own their name strings, so an eviction
  frees a couple of blocks at a moment that depends on every test that
  ran before) — the two things that otherwise drift — is **flat** from
  batch to batch once the first batches have warmed the caches: nothing
  is pinned by a live reference or a missed ``Py_DECREF`` either.

The machines are the miss-transaction rows of ``test_cache_kernel.py``
(every hand-back path of the compiled cache side, the fault-tolerant
row with its injector and watchdog included) and the directory rows of
``test_dir_kernel.py`` (every compiled cell and hand-back of the
directory kernel, the scripted caches' packets included); the bare fabric is the
ladder's ``packetstorm`` in small: one send per delivery through the
backend's packet pool.  The bare kernel is dropped with events still
queued, the way a run that raised leaves it: on ``native`` the ring's
entries are C structs that own their callback, argument and handle, boxed
into the heap when the run returned.
"""

from __future__ import annotations

import gc
import random
import sys
import weakref
from array import array

import pytest

from repro.backend import get_backend
from repro.network.packet import Op, Packet, PacketPool
from repro.network.topology import Mesh2D

from . import test_dir_kernel
from .opstream import BACKENDS
from .test_cache_kernel import CASES, run_case

WARM_UP = 2
BATCHES = 5


def miss_rows(backend: str) -> None:
    for case in CASES:
        _trace, _final, machine = run_case(case, backend)
        machine.dismantle()


def directory_rows(backend: str) -> None:
    for case in test_dir_kernel.CASES:
        _trace, _final, machine = test_dir_kernel.run_case(case, backend)
        machine.dismantle()


def packet_storm(backend: str, side: int = 4, events: int = 10_000) -> None:
    bundle = get_backend(backend)
    sim = bundle.make_simulator()
    net = bundle.wormhole_class(sim, Mesh2D(side, side))
    pool = (bundle.make_pool or PacketPool)(enabled=True)
    n = side * side
    remaining = [events]

    def make_handler(node: int):
        def handler(packet: Packet) -> None:
            address = packet.address
            pool.release(packet)
            if remaining[0] > 0:
                remaining[0] -= 1
                dst = (node * 7 + sim.now) % n if node % 3 else 0
                net.send(pool.protocol(node, dst, Op.RREQ, address))

        return handler

    for node in range(n):
        net.attach(node, make_handler(node))
    rng = random.Random(11)
    for node in range(n):
        address = rng.randrange(4096) * 16
        net.send(Packet(node, rng.randrange(n), Op.RREQ, address=address))
    sim.run()
    assert remaining[0] == 0 and pool.recycled > events // 2
    # what ``dismantle()`` does to a machine's kernel and fabric
    for part in (sim, net):
        vars(part).clear()


def _raise_with_events_queued(sim, callback) -> None:
    """Run ``sim`` into a callback that queues ``callback`` all over the
    ring's range (and beyond it), with and without an argument, then raises
    from the middle of its cycle's batch."""

    def fill_and_raise():
        for ahead in (0, 0, 1, 63, 64, 200):
            sim.post(sim.now + ahead, callback, ahead)
            sim.post(sim.now + ahead, callback)
        raise RuntimeError("abandoned")

    def root():
        sim.post(sim.now, callback, "before")
        sim.post(sim.now, fill_and_raise)
        sim.post(sim.now, callback, "after")

    sim.post(3, root)
    sim.post(500, callback, 500)
    try:
        sim.run()
    except RuntimeError:
        pass
    assert sim.pending_events == 14


def abandoned_queue(backend: str) -> None:
    sim = get_backend(backend).make_simulator()
    sink = []
    _raise_with_events_queued(sim, sink.append)
    del sink[:]
    vars(sim).clear()  # sim <-> core, as ``dismantle()`` breaks it


def assert_nothing_accumulates(step) -> None:
    """``step()`` twice a batch with the collector off: after each batch a
    collection finds nothing unreachable, and the allocated blocks stay
    flat once the first batches have warmed the caches."""
    # Preallocated: the bookkeeping itself must not allocate per batch.
    unreachable = array("q", [0]) * BATCHES
    blocks = array("q", [0]) * BATCHES
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for batch in range(BATCHES):
            step()
            step()
            unreachable[batch] = gc.collect()
            sys._clear_type_cache()
            blocks[batch] = sys.getallocatedblocks()
    finally:
        if was_enabled:
            gc.enable()
    assert list(unreachable) == [0] * BATCHES
    assert len(set(blocks[WARM_UP:])) == 1, list(blocks)


@pytest.mark.parametrize("backend", BACKENDS)
@pytest.mark.parametrize(
    "build_run_dismantle",
    [miss_rows, directory_rows, packet_storm, abandoned_queue],
)
def test_nothing_accumulates_with_gc_disabled(build_run_dismantle, backend):
    assert_nothing_accumulates(lambda: build_run_dismantle(backend))


class _Agent:
    """Holds its simulator and schedules its own bound method on it."""

    def __init__(self, sim):
        self.sim = sim

    def act(self, arg=None):
        pass


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_cycle_through_queued_events_is_the_collectors_to_free(backend):
    """``sim -> core -> queued entry -> bound method -> agent -> sim``:
    nobody dismantles it, so reference counting cannot free it — the
    collector must find it through the core (``Core_traverse``), break it
    (``Core_clear``) and leave nothing behind."""
    collected = array("q", [0]) * BATCHES
    blocks = array("q", [0]) * BATCHES
    gc.collect()
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        for batch in range(BATCHES):
            agents = []
            for _ in range(10):
                sim = get_backend(backend).make_simulator()
                agent = _Agent(sim)
                _raise_with_events_queued(sim, agent.act)
                agents.append(weakref.ref(agent))
            del sim, agent
            assert all(ref() is not None for ref in agents)
            collected[batch] = gc.collect()
            assert all(ref() is None for ref in agents)
            del agents
            sys._clear_type_cache()
            blocks[batch] = sys.getallocatedblocks()
    finally:
        if was_enabled:
            gc.enable()
    assert min(collected) > 0
    assert len(set(blocks[WARM_UP:])) == 1, list(blocks)

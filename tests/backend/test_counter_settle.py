"""Counters the compiled kernels hold in C are exact wherever Python looks.

On ``native`` the per-event bumps — ``proc.busy_cycles``, the ``Counters``
slot cells, NIC and ``NetworkStats`` tallies, ``per_opcode``, link busy
cycles, miss latency sums, the directory's named counters and occupancy —
accumulate in C integers and are folded into the very same Python objects
by one settle on every way out of ``run``/``run_until``, and after any
kernel call made outside a run.  The reference machine is the definition:
at each of those instants every one of them, *and the order names entered
the counter bags*, must be what the Python engines have.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.backend import native
from repro.machine import AlewifeConfig, AlewifeMachine
from repro.network.packet import Op
from repro.workloads import WeatherWorkload

from .opstream import BACKENDS, OpStreamWorkload, make_machine, run_streams

needs_extension = pytest.mark.skipif(
    not native.available(), reason="extension not built"
)


def counted(machine) -> dict:
    """Everything a compiled kernel counts, read the way reports read it.
    Dict *item order* is part of the observation."""
    stats = machine.network.stats
    return {
        "busy": [n.processor.busy_cycles for n in machine.nodes],
        "counters": [list(n.counters.as_dict().items()) for n in machine.nodes],
        "nic": [(n.nic.packets_sent, n.nic.packets_received) for n in machine.nodes],
        "stats": {**asdict(stats), "per_opcode": list(stats.per_opcode.items())},
        "links": sorted(getattr(machine.network, "link_busy_cycles", {}).items()),
        "miss_latency": [
            (n.cache_controller.miss_latency_total, n.cache_controller.miss_latency_count)
            for n in machine.nodes
        ],
        "latency_hist": [
            list(n.cache_controller.latency_hist.counts.items()) for n in machine.nodes
        ],
        "occupancy": [
            (
                n.directory_controller.occupancy.free_at,
                n.directory_controller.occupancy.busy_cycles,
                n.directory_controller.occupancy.requests,
            )
            for n in machine.nodes
        ],
        "ops": [[c.ops_executed for c in n.processor.contexts] for n in machine.nodes],
    }


def windowed(backend: str, window: int, workload, **config) -> list:
    """``counted`` after every ``run_until`` window of one run."""
    machine = AlewifeMachine(AlewifeConfig(backend=backend, **config))
    trace = []

    def driver(m):
        sim = m.sim
        while sim.pending_events:
            sim.run_until(sim.now + window)
            trace.append((sim.now, counted(m)))
            assert len(trace) < 50_000

    machine.run(workload, audit=False, driver=driver)
    trace.append(("final", counted(machine)))
    return trace


#: hits, local and remote misses, upgrades, invalidation rounds and (two
#: pointers, four readers) LimitLESS overflow traps, on every processor
_SHARING = {
    proc: [
        [
            ("store", proc, proc),
            ("load", 0),
            ("think", 7),
            ("burst", [("load", 1), ("add", 2, 1), ("think", 3), ("load", proc)]),
            ("store", 0, proc),
            ("think", 70),
            ("load", 0),
            ("fence",),
            ("switch_hint",),
            ("load", 3),
        ]
    ]
    for proc in range(4)
}


@pytest.mark.parametrize("window", [1, 37, 64, 150])
@pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "reference"])
def test_every_window_leaves_the_counters_the_reference_has(backend, window):
    config = dict(n_procs=4, protocol="limitless", pointers=2, ts=50, seed=3)
    expected = windowed("reference", window, OpStreamWorkload(_SHARING), **config)
    assert windowed(backend, window, OpStreamWorkload(_SHARING), **config) == expected
    assert len(expected) > 2 and any(expected[-1][1]["links"])


@pytest.mark.parametrize(
    "config",
    [
        dict(protocol="fullmap"),
        dict(protocol="limited", pointers=1),
        dict(protocol="limitless", pointers=1, ts=25),
        dict(protocol="fullmap", topology="ideal"),
    ],
    ids=lambda c: "-".join(str(v) for v in c.values()),
)
@pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "reference"])
def test_weather_windows_agree_across_protocols(backend, config):
    config = dict(n_procs=8, seed=5, **config)
    workload = lambda: WeatherWorkload(iterations=1)  # noqa: E731
    expected = windowed("reference", 193, workload(), **config)
    assert windowed(backend, 193, workload(), **config) == expected


@pytest.mark.parametrize("backend", BACKENDS)
def test_a_run_that_raises_still_settles(backend):
    """The program on processor 0 raises after its neighbours have hit,
    missed and thought: what was counted up to the raise is in the Python
    objects when the exception reaches the caller, and the rest after the
    survivors drain."""
    streams = {
        0: [[("store", 0, 1), ("load", 0), ("think", 9), ("raise", RuntimeError("boom"))]],
        **{p: _SHARING[p] for p in (1, 2, 3)},
    }

    def crash(name):
        machine = make_machine(name)
        with pytest.raises(RuntimeError, match="boom"):
            run_streams(machine, streams)
        at_raise = counted(machine)
        machine.sim.run()
        return at_raise, counted(machine)

    at_raise, drained = crash(backend)
    assert (at_raise, drained) == crash("reference")
    assert at_raise["busy"][0] > 9 and sum(at_raise["busy"]) < sum(drained["busy"])


def stepped(backend: str) -> list:
    """``counted`` after a send made before anything ran, then after each
    event executed one at a time by ``Simulator.step()``."""
    machine = make_machine(backend, protocol="fullmap")
    seen = []

    def driver(m):
        m.nodes[1].nic.send(m.pool.protocol(1, 0, Op.ACKC, 0))  # a stray: dropped
        seen.append(counted(m))
        while m.sim.step():
            seen.append(counted(m))
            assert len(seen) < 10_000

    streams = {p: [[("load", 0), ("think", 2), ("load", p)]] for p in range(4)}
    machine.run(OpStreamWorkload(streams), audit=False, driver=driver)
    return seen


@pytest.mark.parametrize("backend", [b for b in BACKENDS if b != "reference"])
def test_kernel_calls_outside_a_run_are_counted_at_once(backend):
    """A send before the first ``run()``, and events stepped through one
    by one, reach the compiled kernels with no run exit to settle for
    them: each call settles itself."""
    expected = stepped("reference")
    assert expected[0]["nic"][1] == (1, 0) and expected[0]["stats"]["packets"] == 1
    assert min(expected[-1]["busy"]) >= 2
    assert stepped(backend) == expected


@needs_extension
def test_python_bumps_between_settles_commute():
    """Fall-through code adds to the same attributes mid-run (a trap
    handler's ``busy_cycles``, the Python ``nic.send``); a checkpoint
    restore assigns them between runs.  Neither loses a count."""
    machine = make_machine("native", protocol="fullmap")
    proc = machine.nodes[0].processor
    nic = machine.nodes[0].nic

    def poke_mid_run():
        proc.busy_cycles += 1000
        nic.packets_sent += 10

    def driver(m):
        m.sim.post(5, poke_mid_run)
        m.sim.run_until(40)
        proc.busy_cycles = proc.busy_cycles  # what a restore does
        m.sim.run()

    streams = {p: [[("load", p), ("think", 30), ("load", 0), ("think", 30)]] for p in range(4)}
    machine.run(OpStreamWorkload(streams), audit=False, driver=driver)
    twin = make_machine("reference", protocol="fullmap")
    twin.run(OpStreamWorkload(streams), audit=False)
    assert proc.busy_cycles == twin.nodes[0].processor.busy_cycles + 1000
    assert nic.packets_sent == twin.nodes[0].nic.packets_sent + 10


@needs_extension
def test_a_counter_that_went_missing_is_reported_not_dropped():
    """``busy_cycles`` deleted from under a running machine: the run ends
    with the AttributeError Python's own ``+=`` would have raised, the
    other kernels' counters are folded all the same, and the count is
    kept until the attribute is back."""
    machine = make_machine("native", protocol="fullmap")
    proc = machine.nodes[2].processor

    def driver(m):
        m.sim.post(3, lambda: vars(proc).pop("busy_cycles"))
        with pytest.raises(AttributeError, match="busy_cycles"):
            m.sim.run()
        assert m.sim.pending_events == 0
        proc.busy_cycles = 0
        m.sim.run()  # nothing left to execute: only the settle

    streams = {p: [[("think", 10), ("load", p), ("think", 4)]] for p in range(4)}
    machine.run(OpStreamWorkload(streams), audit=False, driver=driver)
    twin = make_machine("reference", protocol="fullmap")
    twin.run(OpStreamWorkload(streams), audit=False)
    assert counted(machine) == counted(twin)

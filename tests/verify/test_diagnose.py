"""Tests for the stuck-machine diagnosis tool."""

from __future__ import annotations

import pytest

from repro.backend import backend_names, native
from repro.machine import AlewifeConfig, AlewifeMachine
from repro.proc import ops
from repro.sim.kernel import SimulationError
from repro.sync.barrier import barrier_wait, build_combining_tree
from repro.verify import diagnose
from repro.workloads import HotSpotWorkload
from repro.workloads.base import Workload


def small_config(**overrides):
    defaults = dict(
        n_procs=4,
        cache_lines=128,
        segment_bytes=1 << 16,
        max_cycles=2_000_000,
    )
    defaults.update(overrides)
    return AlewifeConfig(**defaults)


class _DeadlockedBarrier(Workload):
    """Processor 3 never arrives: everyone else spins forever."""

    name = "deadlocked"

    def build(self, machine):
        n = machine.config.n_procs
        spec = build_combining_tree(machine.allocator, list(range(n)), arity=2)
        poll = machine.config.spin_poll_interval

        def program(p):
            if p == n - 1:
                yield ops.think(5)  # defects from the barrier
                return
            yield from barrier_wait(spec, p, 1, poll_interval=poll)

        return {p: [program(p)] for p in range(n)}


class TestDiagnose:
    def test_quiescent_machine(self):
        machine = AlewifeMachine(small_config())
        machine.run(HotSpotWorkload(rounds=1))
        diagnosis = diagnose(machine)
        assert diagnosis.is_quiescent
        assert "(machine is quiescent)" in diagnosis.report()
        assert diagnosis.finished_processors == 4

    def test_deadlocked_barrier_is_explained(self):
        machine = AlewifeMachine(small_config(max_cycles=20_000))
        try:
            machine.run(_DeadlockedBarrier())
        except SimulationError:
            pass
        diagnosis = diagnose(machine)
        assert not diagnosis.is_quiescent
        assert diagnosis.finished_processors == 1  # only the defector
        assert len(diagnosis.stuck_contexts) == 3
        report = diagnosis.report()
        # the report names the barrier frame the spinners are stuck in
        assert "barrier_wait" in report
        assert "epoch=1" in report

    def test_open_mshr_reported(self):
        machine = AlewifeMachine(small_config(max_cycles=50))
        try:
            machine.run(HotSpotWorkload(rounds=2))
        except SimulationError:
            pass
        diagnosis = diagnose(machine)
        assert not diagnosis.is_quiescent
        assert "MSHR" in diagnosis.report() or diagnosis.stuck_contexts


class TestPacketsInFlightMidRun:
    """A liveness dump taken between two windows must count the packets
    the fabric is carrying.  ``soa`` delivers through the reference
    ``_deliver``, so it counts as ``reference`` does; the compiled
    ``NetSend`` posts the destination handler directly and never counts
    (docs/BACKENDS.md, "Known gaps") — pinned here so that closing the gap
    has to change this test."""

    WINDOWS = range(10, 200, 10)

    def _counts(self, backend):
        machine = AlewifeMachine(small_config(backend=backend))
        mid = []

        def driver(m):
            for limit in self.WINDOWS:
                m.sim.run_until(limit)
                mid.append(diagnose(m))
            m.sim.run()

        machine.run(HotSpotWorkload(rounds=2), driver=driver)
        assert not any(d.is_quiescent for d in mid)
        assert diagnose(machine).packets_in_flight == 0
        return [d.packets_in_flight for d in mid]

    @pytest.mark.parametrize("backend", backend_names())
    def test_count_per_backend(self, backend):
        reference = self._counts("reference")
        assert max(reference) >= 2 and 0 in reference
        counts = self._counts(backend)
        if backend == "native" and native.available():
            assert counts == [0] * len(reference)
        else:
            assert counts == reference

"""Tests for the SPARCLE-like processor model."""

from __future__ import annotations

import pytest

from repro.cache.cache import CacheArray
from repro.cache.controller import CacheController
from repro.coherence.fullmap import FullMapController
from repro.mem.address import AddressSpace
from repro.mem.memory import MainMemory
from repro.network.fabric import IdealNetwork
from repro.network.interface import NetworkInterface
from repro.proc import ops
from repro.proc.processor import ContextState, Processor
from repro.sim.kernel import SimulationError, Simulator


class Rig:
    """Two nodes: node 0 = remote home, node 1 = processor under test."""

    def __init__(self, contexts=4, switch_cycles=11):
        self.sim = Simulator(max_cycles=2_000_000)
        self.space = AddressSpace(n_nodes=2, block_bytes=16, segment_bytes=1 << 16)
        self.net = IdealNetwork(self.sim, 2, latency=5)
        self.nics = [NetworkInterface(self.sim, i, self.net) for i in range(2)]
        self.memories = [MainMemory(self.space, i) for i in range(2)]
        self.dirs = [
            FullMapController(self.sim, i, self.space, self.memories[i], self.nics[i])
            for i in range(2)
        ]
        self.caches = [
            CacheController(
                self.sim, i, self.space, CacheArray(self.space, 64), self.nics[i]
            )
            for i in range(2)
        ]
        self.cpu = Processor(
            self.sim,
            1,
            self.space,
            self.caches[1],
            switch_cycles=switch_cycles,
            max_contexts=contexts,
        )

    def remote(self, index=0):
        return self.space.address(0, 0x100 + index * 16)

    def local(self, index=0):
        return self.space.address(1, 0x100 + index * 16)

    def run(self):
        self.cpu.start()
        self.sim.run()
        assert self.cpu.done, "program did not finish"


class TestExecution:
    def test_empty_processor_finishes_immediately(self):
        rig = Rig()
        rig.run()
        assert rig.cpu.finish_time == 0

    def test_think_advances_time(self):
        rig = Rig()

        def program():
            yield ops.think(100)

        rig.cpu.add_thread(program())
        rig.run()
        assert rig.cpu.finish_time == 100
        assert rig.cpu.busy_cycles == 100

    def test_load_returns_value_to_program(self):
        rig = Rig()
        rig.memories[0].poke_word(rig.remote(), 42)
        seen = []

        def program():
            value = yield ops.load(rig.remote())
            seen.append(value)

        rig.cpu.add_thread(program())
        rig.run()
        assert seen == [42]

    def test_store_then_load(self):
        rig = Rig()
        seen = []

        def program():
            yield ops.store(rig.remote(), 7)
            seen.append((yield ops.load(rig.remote())))

        rig.cpu.add_thread(program())
        rig.run()
        assert seen == [7]

    def test_fetch_add_yields_old_value(self):
        rig = Rig()
        seen = []

        def program():
            seen.append((yield ops.fetch_add(rig.remote(), 5)))
            seen.append((yield ops.fetch_add(rig.remote(), 5)))

        rig.cpu.add_thread(program())
        rig.run()
        assert seen == [0, 5]

    def test_unknown_op_raises(self):
        rig = Rig()

        def program():
            yield ("dance",)

        rig.cpu.add_thread(program())
        rig.cpu.start()
        with pytest.raises(SimulationError):
            rig.sim.run()

    def test_ops_executed_counted(self):
        rig = Rig()

        def program():
            yield ops.think(1)
            yield ops.load(rig.local())

        ctx = rig.cpu.add_thread(program())
        rig.run()
        assert ctx.ops_executed == 2
        assert ctx.state is ContextState.DONE


class TestContextSwitching:
    def test_remote_miss_switches_to_ready_context(self):
        rig = Rig()

        def misser():
            yield ops.load(rig.remote())

        def thinker():
            yield ops.think(5)

        rig.cpu.add_thread(misser())
        rig.cpu.add_thread(thinker())
        rig.run()
        assert rig.cpu.counters.get("cpu.context_switches") >= 1
        assert rig.cpu.switch_charged >= 11

    def test_local_miss_holds_pipeline(self):
        rig = Rig()

        def misser():
            yield ops.load(rig.local())

        def thinker():
            yield ops.think(5)

        rig.cpu.add_thread(misser())
        rig.cpu.add_thread(thinker())
        rig.run()
        assert rig.cpu.counters.get("cpu.local_stalls") == 1

    def test_single_context_resume_has_no_switch_cost(self):
        rig = Rig()

        def program():
            yield ops.load(rig.remote())

        rig.cpu.add_thread(program())
        rig.run()
        assert rig.cpu.switch_charged == 0

    def test_out_of_contexts(self):
        def empty():
            return
            yield  # pragma: no cover

        rig = Rig(contexts=1)
        rig.cpu.add_thread(empty())
        with pytest.raises(SimulationError):
            rig.cpu.add_thread(empty())

    def test_non_generator_program_rejected(self):
        rig = Rig()
        with pytest.raises(SimulationError, match="generators"):
            rig.cpu.add_thread(iter([]))

    def test_interleaving_makes_progress_on_all_contexts(self):
        rig = Rig()
        finished = []

        def program(n):
            for i in range(3):
                yield ops.load(rig.remote(n * 4 + i))
            finished.append(n)

        for n in range(4):
            rig.cpu.add_thread(program(n))
        rig.run()
        assert sorted(finished) == [0, 1, 2, 3]


class TestTrapEngine:
    def test_trap_delays_execution(self):
        rig = Rig()

        def program():
            yield ops.think(10)
            yield ops.think(10)

        rig.cpu.add_thread(program())
        rig.cpu.start()
        rig.sim.post(5, lambda: rig.cpu.request_trap(100, lambda: None))
        rig.sim.run()
        assert rig.cpu.done
        assert rig.cpu.finish_time >= 105
        assert rig.cpu.trap_cycles == 100

    def test_traps_serialize(self):
        rig = Rig()
        done_at = []
        rig.cpu.request_trap(50, lambda: done_at.append(rig.sim.now))
        rig.cpu.request_trap(50, lambda: done_at.append(rig.sim.now))
        rig.sim.run()
        assert done_at == [50, 100]
        assert rig.cpu.traps_taken == 2

    def test_stall_cycle_accounting(self):
        rig = Rig()

        def program():
            yield ops.think(20)
            yield ops.load(rig.remote())

        rig.cpu.add_thread(program())
        rig.run()
        total = rig.cpu.finish_time
        assert total == (
            rig.cpu.busy_cycles
            + rig.cpu.switch_charged
            + rig.cpu.trap_cycles
            + rig.cpu.stall_cycles()
        )
        assert 0 < rig.cpu.utilization() <= 1.0

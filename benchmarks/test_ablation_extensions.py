"""Ablation: the §6 extensions in action.

* Update-mode coherence vs plain invalidation for a frequently-rewritten,
  widely-read variable: update mode spares the readers their re-fetch
  misses at the price of data-bearing pushes.
* The FIFO lock data type vs BUSY/backoff retry under lock contention.
"""

from __future__ import annotations

import pytest

from repro.extensions import make_fifo_block, make_update_block
from repro.machine import AlewifeConfig, AlewifeMachine
from repro.proc import ops
from repro.workloads.base import Workload

from common import BENCH_PROCS


class _PublishSubscribe(Workload):
    """One writer republishes a value; all other processors poll it."""

    name = "pubsub"

    def __init__(self, rounds=6):
        self.rounds = rounds
        self.addr = None

    def build(self, machine):
        n = machine.config.n_procs
        var = machine.allocator.alloc_scalar("pub.var", home=0)
        self.addr = var.base

        def writer():
            for i in range(1, self.rounds + 1):
                yield ops.store(var.base, i)
                yield ops.think(80)

        def reader(p):
            # Poll faster than the writer republishes, so under an
            # invalidation protocol every republish costs each reader a miss.
            for _ in range(3 * self.rounds):
                yield ops.load(var.base)
                yield ops.think(25)

        programs = {0: [writer()]}
        for p in range(1, n):
            programs[p] = [reader(p)]
        return programs


def run_pubsub(update_mode: bool):
    config = AlewifeConfig(n_procs=BENCH_PROCS, protocol="limitless", pointers=4, ts=50)
    machine = AlewifeMachine(config)
    workload = _PublishSubscribe()
    programs = workload.build(machine)
    if update_mode:
        make_update_block(machine, workload.addr)
    for proc_id, gens in programs.items():
        for gen in gens:
            machine.nodes[proc_id].processor.add_thread(gen)
    for node in machine.nodes:
        node.start()
    machine.sim.run()
    assert all(n.processor.done for n in machine.nodes)
    read_misses = sum(
        n.counters.get("cache.misses.load") for n in machine.nodes
    )
    return machine, read_misses


class _LockContention(Workload):
    """Every processor acquires/releases one test-and-set lock."""

    name = "lockbench"

    def __init__(self):
        self.addr = None

    def build(self, machine):
        lock = machine.allocator.alloc_scalar("bench.lock", home=0)
        self.addr = lock.base

        def program(p):
            got = False
            while not got:
                old = yield ops.test_and_set(lock.base)
                got = old == 0
                if not got:
                    yield ops.think(15)
            yield ops.think(30)  # critical section
            yield ops.store(lock.base, 0)

        return {p: [program(p)] for p in range(machine.config.n_procs)}


def run_lock(fifo: bool, n_procs: int = 16):
    config = AlewifeConfig(n_procs=n_procs, protocol="limitless", pointers=4, ts=50)
    machine = AlewifeMachine(config)
    workload = _LockContention()
    programs = workload.build(machine)
    if fifo:
        make_fifo_block(machine, workload.addr)
    for proc_id, gens in programs.items():
        for gen in gens:
            machine.nodes[proc_id].processor.add_thread(gen)
    for node in machine.nodes:
        node.start()
    machine.sim.run()
    assert all(n.processor.done for n in machine.nodes)
    busy = sum(n.counters.get("dir.busy_sent") for n in machine.nodes)
    return machine.sim.now, busy


def test_update_mode_eliminates_reader_invalidation_misses(benchmark):
    def compare():
        m_inv, invalidate_misses = run_pubsub(update_mode=False)
        m_upd, update_misses = run_pubsub(update_mode=True)
        inv_cycles = max(n.processor.finish_time for n in m_inv.nodes)
        upd_cycles = max(n.processor.finish_time for n in m_upd.nodes)
        return invalidate_misses, update_misses, inv_cycles, upd_cycles

    invalidate_misses, update_misses, inv_cycles, upd_cycles = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    # Update mode: each reader misses exactly once (its initial fetch) and
    # every republish lands in its cache; invalidation re-fetches pile up.
    # (Total cycles are workload-dependent — updates trade reader misses
    # for data-bearing push traffic, the classic update/invalidate trade —
    # so the assertion is on the miss counts, the quantity update-mode
    # objects exist to remove.)
    assert update_misses < invalidate_misses * 0.7, (
        f"update mode should spare re-fetches: {update_misses} vs "
        f"{invalidate_misses} read misses"
    )
    assert upd_cycles > 0 and inv_cycles > 0


def test_fifo_lock_suppresses_busy_retry_traffic(benchmark):
    def compare():
        base_cycles, base_busy = run_lock(fifo=False)
        fifo_cycles, fifo_busy = run_lock(fifo=True)
        return (base_cycles, base_busy), (fifo_cycles, fifo_busy)

    (base_cycles, base_busy), (fifo_cycles, fifo_busy) = benchmark.pedantic(
        compare, rounds=1, iterations=1
    )
    assert fifo_busy < base_busy, "FIFO buffering should replace BUSY bounces"


def test_fifo_lock_completes_under_heavy_contention(benchmark):
    cycles, _busy = benchmark.pedantic(
        run_lock, kwargs={"fifo": True, "n_procs": 32}, rounds=1, iterations=1
    )
    assert cycles > 0

"""Chaos soak tier: 16-processor meshes under campaign-rate faults.

The acceptance bar for the fault subsystem: every protocol completes the
weather and synthetic workloads under combined drop + duplicate + delay
injection at the campaign rate, audits clean, and pays a bounded retry
overhead — while a zero-rate campaign cell remains bit-identical to the
unfaulted machine.
"""

from __future__ import annotations

import pytest

from repro.faults.campaign import campaign_jobs
from repro.machine import AlewifeConfig, run_experiment
from repro.sweep.runner import run_jobs
from repro.sweep.spec import scaled_workload

RATE = 1e-3
PROTOCOLS = ("fullmap", "limited", "limitless")
WORKLOADS = ("weather", "synthetic")


@pytest.mark.parametrize("protocol", PROTOCOLS)
@pytest.mark.parametrize("workload", WORKLOADS)
def test_soak_survives_with_bounded_retry_overhead(protocol, workload):
    config = AlewifeConfig(
        n_procs=16,
        protocol=protocol,
        pointers=4,
        seed=0,
        fault_drop_rate=RATE,
        fault_dup_rate=RATE,
        fault_delay_rate=RATE,
    )
    stats = run_experiment(config, scaled_workload(workload, 16, 2).build())
    # Completion: every processor finished (run_experiment would raise a
    # LivenessError otherwise) and the invariant audit covered real state.
    assert len(stats.per_proc_finish) == 16
    assert all(finish > 0 for finish in stats.per_proc_finish)
    assert stats.entries_audited > 0
    # Bounded overhead: at this rate, recovery traffic must stay a small
    # fraction of total traffic.
    retx = (
        stats.counters.get("cache.request_retx")
        + stats.counters.get("cache.writeback_retx")
        + stats.counters.get("dir.inv_retx")
    )
    assert retx <= max(10, stats.network.packets // 10)


def test_soak_through_the_sweep_runner():
    # The campaign grid itself (one seed per cell to keep the tier fast),
    # executed exactly as `repro faults` runs it.
    jobs = campaign_jobs(
        procs=16,
        protocols=PROTOCOLS,
        workloads=WORKLOADS,
        rates=[RATE],
        seeds=[1],
        iters=2,
    )
    results = run_jobs(jobs, timeout=120.0, on_error="record")
    assert all(r.ok for r in results), [r.error for r in results if not r.ok]


def test_zero_rate_cell_is_bit_identical_to_the_unfaulted_machine():
    (job,) = campaign_jobs(
        procs=16, protocols=["limitless"], workloads=["weather"], rates=[0.0],
        seeds=[0], iters=2,
    )
    assert not job.config.faults_enabled
    plain = AlewifeConfig(
        n_procs=16, protocol="limitless", pointers=4, ts=50, seed=0
    )
    faulted = run_experiment(job.config, job.workload.build())
    baseline = run_experiment(plain, scaled_workload("weather", 16, 2).build())
    assert faulted.to_dict() == baseline.to_dict()

"""SweepService unit tests: admission, caching, coalescing, shutdown."""

from __future__ import annotations

import threading
import time

import pytest
from concurrent.futures.process import BrokenProcessPool

from repro.serve import AdmissionError, BadRequest, JobRequest, SweepService
from repro.sweep import ResultCache

from .conftest import job_payload


def canned_task(stats, gate: threading.Event | None = None, wall: float = 0.01):
    """A task that (optionally) waits on ``gate`` then returns ``stats``."""

    def task(payload):
        index = payload[0]
        if gate is not None:
            assert gate.wait(30), "test gate never released"
        return index, stats, wall, None

    return task


class TestRequestParsing:
    def test_single_point_shorthand(self):
        request = JobRequest.from_payload(job_payload())
        assert len(request.points) == 1
        assert request.points[0].config.n_procs == 4
        assert request.points[0].workload.name == "hotspot"

    def test_multi_point_job(self):
        request = JobRequest.from_payload(
            {"label": "grid", "points": [job_payload(), job_payload(rounds=3)]}
        )
        assert request.label == "grid"
        assert len(request.points) == 2

    @pytest.mark.parametrize(
        "payload, match",
        [
            ("not a dict", "JSON object"),
            ({}, "'points' or a 'workload'"),
            ({"points": []}, "non-empty"),
            ({"workload": {"params": {}}}, "workload must be"),
            ({"workload": {"name": "linpack"}}, "unknown workload"),
            ({"workload": {"name": "hotspot", "params": {"bogus": 1}}}, "bogus"),
            (
                {"workload": {"name": "hotspot"}, "config": {"warp": 9}},
                "config",
            ),
            (
                {
                    "workload": {"name": "hotspot"},
                    "config": {"protocol": "mystery"},
                },
                "unknown protocol",
            ),
            ({**job_payload(), "timeout": -1}, "timeout"),
            ({**job_payload(), "timeout": "soon"}, "timeout"),
            # the removed sharding options are unknown fields, by name
            (job_payload(shards=2), "unexpected keyword argument 'shards'"),
            (job_payload(fabric="staged"), "unexpected keyword argument 'fabric'"),
            # a negative latency never reaches a pool worker
            (job_payload(ts=-5), "ts must be >= 0"),
            # nor does a value that used to fail only mid-run
            (job_payload(spin_poll_interval=-1), "spin_poll_interval must be >= 0"),
            (job_payload(retry_base=-5), "retry_base must be >= 0"),
            (job_payload(retry_cap=-1), "retry_cap must be >= 0"),
            (job_payload(max_contexts=0), "max_contexts must be >= 1"),
            (
                job_payload(memory_model="wo", store_buffer=0),
                "store_buffer must be >= 1",
            ),
            # the removed Dir_iNB victim policy is an unknown field too
            (
                job_payload(victim_policy="fifo"),
                "unexpected keyword argument 'victim_policy'",
            ),
        ],
    )
    def test_bad_payloads_rejected(self, payload, match):
        with pytest.raises(BadRequest, match=match):
            JobRequest.from_payload(payload)


class TestAdmissionControl:
    def test_queue_full_rejection(self, small_stats, thread_executor_factory):
        gate = threading.Event()
        service = SweepService(
            workers=1,
            queue_depth=1,
            executor_factory=thread_executor_factory,
            task=canned_task(small_stats, gate),
        )
        try:
            first = service.submit_payload(job_payload())
            with pytest.raises(AdmissionError) as excinfo:
                service.submit_payload(job_payload(rounds=9))
            assert excinfo.value.code == "queue_full"
            assert excinfo.value.status == 429
            assert service.metrics.get("jobs.rejected.queue_full") == 1
        finally:
            gate.set()
            assert first.wait(30)
            service.close()

    def test_point_budget_rejection(self, small_stats, thread_executor_factory):
        service = SweepService(
            workers=1,
            max_points=2,
            executor_factory=thread_executor_factory,
            task=canned_task(small_stats),
        )
        with pytest.raises(AdmissionError) as excinfo:
            service.submit_payload(
                {"points": [job_payload(rounds=r) for r in (1, 2, 3)]}
            )
        assert excinfo.value.code == "over_budget"
        assert excinfo.value.status == 413
        service.close()

    def test_cycle_budget_rejection(self, small_stats, thread_executor_factory):
        service = SweepService(
            workers=1,
            max_cycles=1_000_000,
            executor_factory=thread_executor_factory,
            task=canned_task(small_stats),
        )
        with pytest.raises(AdmissionError, match="budget"):
            service.submit_payload(job_payload(max_cycles=2_000_000))
        # A conforming job is admitted.
        record = service.submit_payload(job_payload(max_cycles=500_000))
        assert record.wait(30)
        service.close()

    def test_draining_service_rejects(self, small_stats, thread_executor_factory):
        service = SweepService(
            workers=1,
            executor_factory=thread_executor_factory,
            task=canned_task(small_stats),
        )
        service.begin_drain()
        with pytest.raises(AdmissionError) as excinfo:
            service.submit_payload(job_payload())
        assert excinfo.value.code == "shutting_down"
        assert excinfo.value.status == 503
        service.close()

    def test_queue_slot_freed_after_completion(
        self, small_stats, thread_executor_factory
    ):
        service = SweepService(
            workers=1,
            queue_depth=1,
            executor_factory=thread_executor_factory,
            task=canned_task(small_stats),
        )
        first = service.submit_payload(job_payload())
        assert first.wait(30)
        second = service.submit_payload(job_payload(rounds=9))
        assert second.wait(30)
        service.close()


class TestCacheShortCircuit:
    def test_warm_resubmission_never_touches_pool(self, cache, small_stats,
                                                  thread_executor_factory):
        service = SweepService(
            workers=1,
            cache=cache,
            executor_factory=thread_executor_factory,
            task=canned_task(small_stats),
        )
        cold = service.submit_payload(job_payload())
        assert cold.wait(30)
        assert not cold.warm
        assert service.pool_invocations == 1

        warm = service.submit_payload(job_payload())
        assert warm.done  # resolved synchronously at submit
        assert warm.warm
        assert warm.state == "done"
        assert service.pool_invocations == 1  # the pool never saw it
        assert warm.snapshot()["results"][0]["cached"] is True
        assert (
            warm.snapshot()["results"][0]["cycles"]
            == cold.snapshot()["results"][0]["cycles"]
        )
        assert service.metrics.hit_ratio() > 0
        service.close()

    def test_real_pool_warm_resubmission(self, cache):
        # The one end-to-end process-pool test: everything else injects.
        service = SweepService(workers=1, cache=cache)
        cold = service.submit_payload(job_payload())
        assert cold.wait(120)
        assert cold.state == "done"
        warm = service.submit_payload(job_payload())
        assert warm.done and warm.warm
        assert service.pool_invocations == 1
        assert (
            warm.snapshot()["results"][0]["cycles"]
            == cold.snapshot()["results"][0]["cycles"]
        )
        service.close()

    def test_cache_invalidation_hook_forces_cold_path(
        self, cache, small_stats, thread_executor_factory
    ):
        service = SweepService(
            workers=1,
            cache=cache,
            executor_factory=thread_executor_factory,
            task=canned_task(small_stats),
        )
        first = service.submit_payload(job_payload())
        assert first.wait(30)
        # Simulate a source change under a live server: the memoized
        # fingerprint is dropped and recomputes (to the same value here,
        # so the entry still hits — the hook's contract is recomputation).
        service.cache.invalidate()
        warm = service.submit_payload(job_payload())
        assert warm.done and warm.warm
        service.close()


class TestConcurrentDeterminism:
    def test_identical_jobs_coalesce_to_one_execution(
        self, cache, small_stats, thread_executor_factory
    ):
        gate = threading.Event()
        calls = []

        def counting_task(payload):
            calls.append(payload)
            assert gate.wait(30)
            return payload[0], small_stats, 0.01, None

        service = SweepService(
            workers=2,
            cache=cache,
            queue_depth=8,
            executor_factory=thread_executor_factory,
            task=counting_task,
        )
        records = [service.submit_payload(job_payload()) for _ in range(4)]
        assert service.pool_invocations == 1  # all four coalesced
        gate.set()
        for record in records:
            assert record.wait(30)
        assert len(calls) == 1
        cycles = {r.snapshot()["results"][0]["cycles"] for r in records}
        assert cycles == {small_stats.cycles}
        # One simulation, three coalesced joiners.
        assert service.metrics.get("points.simulated") == 1
        assert service.metrics.get("points.coalesced") == 3
        service.close()

    def test_mixed_points_dedupe_within_one_job(
        self, cache, small_stats, thread_executor_factory
    ):
        service = SweepService(
            workers=2,
            cache=cache,
            executor_factory=thread_executor_factory,
            task=canned_task(small_stats),
        )
        record = service.submit_payload(
            {"points": [job_payload(), job_payload(), job_payload(rounds=3)]}
        )
        assert record.wait(30)
        assert service.pool_invocations == 2  # duplicate point coalesced
        service.close()


class TestFailuresAndWorkerDeath:
    def test_failed_point_fails_job_and_skips_cache(
        self, cache, thread_executor_factory
    ):
        def exploding_task(payload):
            return payload[0], None, 0.01, "ValueError: injected"

        service = SweepService(
            workers=1,
            cache=cache,
            executor_factory=thread_executor_factory,
            task=exploding_task,
        )
        record = service.submit_payload(job_payload())
        assert record.wait(30)
        assert record.state == "failed"
        assert "injected" in record.error
        assert cache.stores == 0  # failures never poison the cache
        # The same config resubmitted is cold again, not served a failure.
        again = service.submit_payload(job_payload())
        assert again.wait(30)
        assert not again.warm
        service.close()

    def test_broken_pool_unwinds_and_rebuilds(self, small_stats,
                                              thread_executor_factory):
        broken_once = []

        def dying_task(payload):
            if not broken_once:
                broken_once.append(True)
                raise BrokenProcessPool("a worker died")
            return payload[0], small_stats, 0.01, None

        service = SweepService(
            workers=1,
            executor_factory=thread_executor_factory,
            task=dying_task,
        )
        doomed = service.submit_payload(job_payload())
        assert doomed.wait(30)
        assert doomed.state == "failed"
        assert "worker process died" in doomed.error
        assert service.metrics.get("pool.broken") == 1
        # The service survives: the next job builds a fresh pool and runs.
        revived = service.submit_payload(job_payload())
        assert revived.wait(30)
        assert revived.state == "done"
        assert service.pool_rebuilds == 2
        service.close()


class TestGracefulShutdown:
    def test_close_drains_in_flight_jobs(self, small_stats,
                                         thread_executor_factory):
        gate = threading.Event()
        service = SweepService(
            workers=1,
            executor_factory=thread_executor_factory,
            task=canned_task(small_stats, gate),
        )
        record = service.submit_payload(job_payload())
        releaser = threading.Timer(0.2, gate.set)
        releaser.start()
        try:
            assert service.close(drain=True, timeout=30) is True
        finally:
            releaser.cancel()
        assert record.done
        assert record.state == "done"
        with pytest.raises(AdmissionError, match="draining"):
            service.submit_payload(job_payload())

    def test_close_without_drain_cancels(self, small_stats,
                                         thread_executor_factory):
        gate = threading.Event()
        service = SweepService(
            workers=1,
            executor_factory=thread_executor_factory,
            task=canned_task(small_stats, gate),
        )
        blocked = service.submit_payload(job_payload())
        queued = service.submit_payload(job_payload(rounds=9))
        gate.set()  # let the running task finish; the queued one may cancel
        service.close(drain=False)
        assert blocked.done and queued.done
        assert queued.state in ("done", "failed")  # cancelled or raced to done
        # Nothing hangs and every waiter was resolved.
        assert service.healthz()["status"] == "closed"

    def test_close_is_idempotent(self, small_stats, thread_executor_factory):
        service = SweepService(
            workers=1,
            executor_factory=thread_executor_factory,
            task=canned_task(small_stats),
        )
        record = service.submit_payload(job_payload())
        assert record.wait(30)
        assert service.close() is True
        assert service.close() is True


class TestEventsAndSnapshots:
    def test_event_stream_shape(self, cache, small_stats,
                                thread_executor_factory):
        service = SweepService(
            workers=1,
            cache=cache,
            executor_factory=thread_executor_factory,
            task=canned_task(small_stats),
        )
        record = service.submit_payload(
            {"label": "grid", "points": [job_payload(), job_payload(rounds=3)]}
        )
        assert record.wait(30)
        kinds = [e["event"] for e in record.events]
        assert kinds[0] == "job" and kinds[-1] == "job"
        assert kinds.count("point") == 2
        final = record.events[-1]
        assert final["state"] == "done"
        assert final["job"]["done_points"] == 2
        point_events = [e for e in record.events if e["event"] == "point"]
        assert {e["index"] for e in point_events} == {0, 1}
        for event in point_events:
            assert event["job"] == record.id
            assert event["cycles"] == small_stats.cycles

    def test_late_subscriber_gets_full_replay(self, small_stats,
                                              thread_executor_factory):
        service = SweepService(
            workers=1,
            executor_factory=thread_executor_factory,
            task=canned_task(small_stats),
        )
        record = service.submit_payload(job_payload())
        assert record.wait(30)
        seen = []
        service.subscribe(record, seen.append)
        assert seen == record.events
        service.close()

    def test_metrics_snapshot_shape(self, cache, small_stats,
                                    thread_executor_factory):
        service = SweepService(
            workers=2,
            cache=cache,
            queue_depth=5,
            executor_factory=thread_executor_factory,
            task=canned_task(small_stats),
        )
        record = service.submit_payload(job_payload())
        assert record.wait(30)
        service.submit_payload(job_payload())  # warm
        snapshot = service.metrics_snapshot()
        assert snapshot["queue"] == {"depth": 0, "limit": 5}
        assert snapshot["workers"]["pool_size"] == 2
        assert snapshot["pool_invocations"] == 1
        assert snapshot["cache_hit_ratio"] == 0.5
        assert snapshot["counters"]["serve.jobs.submitted"] == 2
        assert snapshot["latency"]["warm"]["count"] == 1
        assert snapshot["latency"]["cold"]["count"] == 1
        assert snapshot["budgets"]["queue_depth"] == 5
        service.close()

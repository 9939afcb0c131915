"""End-to-end HTTP tests: submission, streaming, rejection, shutdown.

Each test boots a real asyncio server (ephemeral port, daemon thread)
around a SweepService with a thread-pool executor, and speaks plain
``http.client`` at it — the same wire protocol external clients use.
"""

from __future__ import annotations

import http.client
import json
import threading
from concurrent.futures import ThreadPoolExecutor

import pytest

from repro.serve import BackgroundServer, SweepService
from repro.sweep import ResultCache

from .conftest import job_payload
from .test_service import canned_task


@pytest.fixture
def server(cache, small_stats):
    service = SweepService(
        workers=2,
        cache=cache,
        queue_depth=4,
        max_points=8,
        executor_factory=lambda w: ThreadPoolExecutor(max_workers=w),
        task=canned_task(small_stats),
    )
    with BackgroundServer(service) as background:
        yield background


def request(server, method, path, body=None, timeout=30):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=timeout)
    try:
        conn.request(
            method, path, json.dumps(body) if body is not None else None
        )
        response = conn.getresponse()
        return response.status, json.loads(response.read() or "null")
    finally:
        conn.close()


def stream_events(server, job_id, timeout=30):
    conn = http.client.HTTPConnection(server.host, server.port, timeout=timeout)
    try:
        conn.request("GET", f"/jobs/{job_id}/stream")
        response = conn.getresponse()
        assert response.status == 200
        assert response.getheader("Content-Type") == "application/x-ndjson"
        return [json.loads(line) for line in response if line.strip()]
    finally:
        conn.close()


class TestBasicEndpoints:
    def test_healthz(self, server):
        status, body = request(server, "GET", "/healthz")
        assert status == 200
        assert body["status"] == "ok"
        assert body["uptime_seconds"] >= 0

    def test_metrics_shape(self, server):
        status, body = request(server, "GET", "/metrics")
        assert status == 200
        assert "counters" in body and "latency" in body and "workers" in body

    def test_unknown_route_404(self, server):
        status, body = request(server, "GET", "/nope")
        assert status == 404
        assert body["error"]["code"] == "not_found"

    def test_unknown_job_404(self, server):
        status, body = request(server, "GET", "/jobs/job-999999")
        assert status == 404


class TestSubmission:
    def test_submit_poll_complete(self, server):
        status, body = request(server, "POST", "/jobs", job_payload())
        assert status in (200, 202)
        job_id = body["job"]["id"]
        events = stream_events(server, job_id)  # blocks until done
        status, body = request(server, "GET", f"/jobs/{job_id}")
        assert status == 200
        assert body["job"]["state"] == "done"
        row = body["job"]["results"][0]
        assert row["ok"] and row["cycles"] > 0
        assert events[-1]["state"] == "done"

    def test_submit_lists_job(self, server):
        _, body = request(server, "POST", "/jobs", job_payload())
        job_id = body["job"]["id"]
        stream_events(server, job_id)
        status, body = request(server, "GET", "/jobs?limit=5")
        assert status == 200
        assert any(j["id"] == job_id for j in body["jobs"])

    def test_bad_json_400(self, server):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=30)
        try:
            conn.request("POST", "/jobs", "{not json")
            response = conn.getresponse()
            body = json.loads(response.read())
        finally:
            conn.close()
        assert response.status == 400
        assert body["error"]["code"] == "bad_request"

    def test_unknown_workload_400(self, server):
        status, body = request(
            server, "POST", "/jobs", {"workload": {"name": "linpack"}}
        )
        assert status == 400
        assert "unknown workload" in body["error"]["message"]

    def test_config_that_would_fail_mid_run_400(self, server):
        payload = {
            "config": {"n_procs": 4, "memory_model": "wo", "store_buffer": 0},
            "workload": {"name": "hotspot"},
        }
        status, body = request(server, "POST", "/jobs", payload)
        assert status == 400
        assert "store_buffer must be >= 1" in body["error"]["message"]

    def test_over_budget_413(self, server):
        status, body = request(
            server,
            "POST",
            "/jobs",
            {"points": [job_payload(rounds=r) for r in range(1, 11)]},
        )
        assert status == 413
        assert body["error"]["code"] == "over_budget"


class TestStreaming:
    def test_ndjson_stream_replays_and_completes(self, server):
        _, body = request(server, "POST", "/jobs", job_payload())
        job_id = body["job"]["id"]
        events = stream_events(server, job_id)
        kinds = [e["event"] for e in events]
        assert kinds[0] == "job"
        assert "point" in kinds
        assert events[-1]["event"] == "job"
        assert events[-1]["state"] in ("done", "failed")
        point = next(e for e in events if e["event"] == "point")
        assert point["job"] == job_id
        assert point["done"] == point["total"] == 1
        # A second stream of the finished job replays instantly.
        replay = stream_events(server, job_id)
        assert [e["event"] for e in replay] == kinds


class TestWarmPath:
    def test_warm_resubmission_and_hit_ratio(self, server):
        status, body = request(server, "POST", "/jobs", job_payload())
        stream_events(server, body["job"]["id"])
        _, cold_metrics = request(server, "GET", "/metrics")

        status, body = request(server, "POST", "/jobs", job_payload())
        assert status == 200  # completed synchronously from cache
        assert body["job"]["state"] == "done"
        assert body["job"]["warm"] is True

        _, warm_metrics = request(server, "GET", "/metrics")
        assert warm_metrics["pool_invocations"] == cold_metrics["pool_invocations"]
        assert warm_metrics["cache_hit_ratio"] > 0
        assert warm_metrics["latency"]["warm"]["count"] == 1


class TestConcurrentHTTPSubmissions:
    def test_parallel_identical_submissions_one_execution(
        self, cache, small_stats
    ):
        gate = threading.Event()
        service = SweepService(
            workers=2,
            cache=cache,
            queue_depth=16,
            executor_factory=lambda w: ThreadPoolExecutor(max_workers=w),
            task=canned_task(small_stats, gate),
        )
        with BackgroundServer(service) as server:
            results = []

            def submit():
                results.append(request(server, "POST", "/jobs", job_payload()))

            threads = [threading.Thread(target=submit) for _ in range(4)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
            gate.set()
            assert all(status == 202 for status, _ in results)
            ids = [body["job"]["id"] for _, body in results]
            cycle_sets = set()
            for job_id in ids:
                events = stream_events(server, job_id)
                final = events[-1]["job"]
                assert final["state"] == "done"
                cycle_sets.add(final["results"][0]["cycles"])
            assert cycle_sets == {small_stats.cycles}
            _, metrics = request(server, "GET", "/metrics")
            assert metrics["pool_invocations"] == 1


class TestShutdown:
    def test_shutdown_endpoint_drains_and_exits(self, cache, small_stats):
        gate = threading.Event()
        service = SweepService(
            workers=1,
            cache=cache,
            executor_factory=lambda w: ThreadPoolExecutor(max_workers=w),
            task=canned_task(small_stats, gate),
        )
        with BackgroundServer(service) as server:
            _, body = request(server, "POST", "/jobs", job_payload())
            record = service.job(body["job"]["id"])
            status, body = request(server, "POST", "/shutdown")
            assert status == 200
            # Draining: new submissions refused while in-flight work runs.
            status, body = request(server, "POST", "/jobs", job_payload(rounds=9))
            assert status == 503
            assert body["error"]["code"] == "shutting_down"
            gate.set()
            server.shutdown(timeout=30)
            assert record.done and record.state == "done"
        assert service.healthz()["status"] == "closed"

"""`SweepService`: the sweep core as a long-running library object.

This is the enabling refactor behind ``repro serve``: everything the
one-shot sweep CLI did with process-global state now lives on one
injectable object — a result cache (with its own source fingerprint), a
bounded multiprocessing worker pool, admission bookkeeping, and service
metrics.  Two services in one process share nothing; embedders construct,
use, and ``close()`` them like any other resource.

The design is LimitLESS's own thesis applied to serving: the common case
(a config someone already ran) is handled fast — a cache hit resolves at
submit time without ever touching the pool — while the rare case (a cold
config) traps to the full simulation path, budgeted and queued.  Identical
cold jobs submitted concurrently coalesce onto a single execution, so N
submissions of one config cost one simulation and return N identical
results.

Threading model: ``submit``/``close``/snapshots may be called from any
thread (the HTTP front calls them from the asyncio loop); point
completions arrive on the executor's callback thread.  All mutation
happens under one reentrant lock, and per-job progress events fan out to
subscribers registered via :meth:`JobRecord.subscribe` — subscribers must
be non-blocking (the HTTP layer just trampolines events onto the loop).

Worker death follows PR 4's poison/unwind pattern at pool granularity: a
dead worker process breaks the whole ``ProcessPoolExecutor``, every
in-flight point unwinds as a structured failure instead of hanging, the
broken pool is discarded, and the next cold dispatch builds a fresh one —
the service itself stays up.
"""

from __future__ import annotations

import itertools
import threading
import time
from concurrent.futures import CancelledError, ProcessPoolExecutor
from concurrent.futures.process import BrokenProcessPool
from dataclasses import asdict, dataclass, field
from typing import Any, Callable, Optional

from ..machine import AlewifeConfig, MachineStats
from ..sweep.cache import ResultCache
from ..sweep.runner import JobResult, ProgressTracker, _execute, _pool_context
from ..sweep.spec import Job, WorkloadSpec, job_key
from .journal import JobJournal
from .metrics import ServiceMetrics


class BadRequest(ValueError):
    """A malformed job payload (HTTP 400)."""

    status = 400
    code = "bad_request"


class AdmissionError(Exception):
    """A well-formed job the service refuses to admit right now.

    ``code`` is machine-readable (``queue_full`` / ``over_budget`` /
    ``shutting_down``); ``status`` is the HTTP status the front should
    map it to (429 / 413 / 503).
    """

    def __init__(self, code: str, message: str, status: int):
        super().__init__(message)
        self.code = code
        self.status = status


def _parse_point(entry: Any, index: int) -> "JobPoint":
    if not isinstance(entry, dict):
        raise BadRequest(f"points[{index}] must be an object")
    workload = entry.get("workload")
    if not isinstance(workload, dict) or "name" not in workload:
        raise BadRequest(
            f"points[{index}].workload must be {{'name': ..., 'params': {{...}}}}"
        )
    params = workload.get("params", {})
    if not isinstance(params, dict):
        raise BadRequest(f"points[{index}].workload.params must be an object")
    try:
        spec = WorkloadSpec(str(workload["name"]), dict(params))
        spec.build()  # workloads are dataclasses; building validates params
    except (ValueError, TypeError) as exc:
        raise BadRequest(f"points[{index}].workload: {exc}") from None
    config_dict = entry.get("config", {})
    if not isinstance(config_dict, dict):
        raise BadRequest(f"points[{index}].config must be an object")
    try:
        # AlewifeConfig validates itself (unknown fields -> TypeError,
        # unknown protocol / bad shapes -> ValueError).
        config = AlewifeConfig(**config_dict)
    except (TypeError, ValueError) as exc:
        raise BadRequest(f"points[{index}].config: {exc}") from None
    label = str(entry.get("label") or f"{spec.name}#{index}")
    return JobPoint(label=label, config=config, workload=spec)


@dataclass
class JobPoint:
    """One grid point of a submitted job (already validated)."""

    label: str
    config: AlewifeConfig
    workload: WorkloadSpec

    def as_job(self) -> Job:
        return Job(self.label, self.config, self.workload)


@dataclass
class JobRequest:
    """A validated job submission: one or more grid points plus options."""

    label: str
    points: list[JobPoint]
    timeout: Optional[float] = None  # per-point wall-clock budget, seconds

    @classmethod
    def from_payload(cls, payload: Any) -> "JobRequest":
        """Parse the POST /jobs JSON body; raises :class:`BadRequest`.

        Either ``{"points": [{config, workload, label?}, ...]}`` or the
        single-point shorthand ``{"config": ..., "workload": ...}``.
        """
        if not isinstance(payload, dict):
            raise BadRequest("job payload must be a JSON object")
        if "points" in payload:
            entries = payload["points"]
            if not isinstance(entries, list) or not entries:
                raise BadRequest("points must be a non-empty array")
        elif "workload" in payload:
            entries = [
                {
                    "config": payload.get("config", {}),
                    "workload": payload["workload"],
                    "label": payload.get("point_label"),
                }
            ]
        else:
            raise BadRequest("job payload needs 'points' or a 'workload'")
        points = [_parse_point(entry, i) for i, entry in enumerate(entries)]
        timeout = payload.get("timeout")
        if timeout is not None:
            try:
                timeout = float(timeout)
            except (TypeError, ValueError):
                raise BadRequest("timeout must be a number of seconds") from None
            if timeout <= 0:
                raise BadRequest("timeout must be positive")
        label = str(payload.get("label") or points[0].label)
        return cls(label=label, points=points, timeout=timeout)

    def to_payload(self) -> dict:
        """The inverse of :meth:`from_payload`: a re-parseable JSON body.

        The job journal persists submissions in this form so a restarted
        server can resubmit them through the normal validation path.
        """
        return {
            "label": self.label,
            "timeout": self.timeout,
            "points": [
                {
                    "label": p.label,
                    "config": asdict(p.config),
                    "workload": {"name": p.workload.name, "params": p.workload.params},
                }
                for p in self.points
            ],
        }


class JobRecord:
    """The service-side lifecycle of one submitted job.

    Everything external consumers need is JSON-shaped: ``snapshot()`` for
    the current state, ``events`` (via :meth:`subscribe`) for the NDJSON
    progress stream.  ``wait()`` blocks until the job finishes.
    """

    def __init__(self, job_id: str, request: JobRequest, keys: list[str]):
        self.id = job_id
        self.request = request
        self.keys = keys
        self.state = "queued"
        self.created_at = time.time()
        self.error: Optional[str] = None
        self.results: list[Optional[dict]] = [None] * len(request.points)
        self.cached_points = 0
        self.simulated_points = 0
        self.failed_points = 0
        self.service_seconds: Optional[float] = None
        self.tracker = ProgressTracker()
        self.events: list[dict] = []
        self._submitted_clock = time.perf_counter()
        self._pending = set(range(len(request.points)))
        self._counted_active = False
        self._done = threading.Event()
        self._subscribers: list[Callable[[dict], None]] = []
        #: persistence hook: the service points this at the job journal so
        #: every emitted event is logged before subscribers see it.
        self.on_event: Optional[Callable[[dict], None]] = None

    # -- queries -------------------------------------------------------

    @property
    def done(self) -> bool:
        return self._done.is_set()

    @property
    def warm(self) -> bool:
        """True when every point was satisfied from the result cache."""
        return self.cached_points == len(self.request.points)

    def wait(self, timeout: Optional[float] = None) -> bool:
        return self._done.wait(timeout)

    def snapshot(self) -> dict:
        elapsed = (
            self.service_seconds
            if self.service_seconds is not None
            else time.perf_counter() - self._submitted_clock
        )
        return {
            "id": self.id,
            "label": self.request.label,
            "state": self.state,
            "created_at": self.created_at,
            "points": len(self.request.points),
            "done_points": len(self.request.points) - len(self._pending),
            "cached_points": self.cached_points,
            "simulated_points": self.simulated_points,
            "failed_points": self.failed_points,
            "warm": self.warm,
            "service_seconds": round(elapsed, 6),
            "error": self.error,
            "results": list(self.results),
        }

    # -- event fan-out (all calls made under the service lock) ---------

    def subscribe(self, callback: Callable[[dict], None]) -> None:
        """Replay history to ``callback`` then deliver future events.

        Callbacks run under the service lock on whatever thread produced
        the event — they must not block (enqueue and return).
        """
        for event in self.events:
            callback(event)
        if not self.done:
            self._subscribers.append(callback)

    def unsubscribe(self, callback: Callable[[dict], None]) -> None:
        try:
            self._subscribers.remove(callback)
        except ValueError:
            pass

    def _emit(self, event: dict) -> None:
        self.events.append(event)
        if self.on_event is not None:
            self.on_event(event)
        for callback in list(self._subscribers):
            callback(event)


class _Flight:
    """One in-pool execution shared by every waiter with the same key."""

    __slots__ = ("key", "label", "payload", "future", "waiters")

    def __init__(self, key: str, label: str, payload: tuple):
        self.key = key
        self.label = label
        self.payload = payload
        self.future = None
        self.waiters: list[tuple[JobRecord, int]] = []


def _default_executor_factory(workers: int) -> ProcessPoolExecutor:
    return ProcessPoolExecutor(max_workers=workers, mp_context=_pool_context())


class SweepService:
    """Admission-controlled simulation service over the sweep core.

    Parameters
    ----------
    workers:
        Worker processes in the simulation pool.
    cache:
        A :class:`ResultCache`; omitted means no caching (every submission
        is cold).  The cache's own :class:`SourceFingerprint` keys jobs.
    queue_depth:
        Maximum jobs admitted but not yet finished; beyond it submissions
        are rejected with ``queue_full`` (HTTP 429).
    max_points:
        Per-job grid-point budget; larger jobs are rejected with
        ``over_budget`` (HTTP 413).
    max_cycles:
        Per-point simulated-cycle budget: every point's
        ``config.max_cycles`` must be positive and no larger, else
        ``over_budget``.  ``None`` = uncapped.
    point_timeout:
        Service-wide per-point wall-clock cap in seconds (SIGALRM inside
        the worker); a job's own ``timeout`` may only tighten it.
    journal:
        A :class:`repro.serve.journal.JobJournal`; when present every
        submission and progress event is logged, and :meth:`recover`
        replays the log at boot — terminal jobs are restored verbatim
        (ids, results, stream history) and interrupted jobs resubmitted
        under their original ids.
    executor_factory / task:
        Injection seams for tests and embedders: the pool constructor
        (``workers -> Executor``) and the picklable per-point task
        (defaults to the sweep runner's ``_execute``).
    """

    def __init__(
        self,
        *,
        workers: int = 2,
        cache: ResultCache | None = None,
        queue_depth: int = 8,
        max_points: int = 64,
        max_cycles: Optional[int] = None,
        point_timeout: Optional[float] = None,
        journal: JobJournal | None = None,
        executor_factory: Callable[[int], Any] | None = None,
        task: Callable[[tuple], tuple] | None = None,
    ):
        if workers < 1:
            raise ValueError("workers must be >= 1")
        if queue_depth < 1:
            raise ValueError("queue_depth must be >= 1")
        if max_points < 1:
            raise ValueError("max_points must be >= 1")
        self.workers = workers
        self.cache = cache if cache is not None else ResultCache(enabled=False)
        self.queue_depth = queue_depth
        self.max_points = max_points
        self.max_cycles = max_cycles
        self.point_timeout = point_timeout
        self.journal = journal
        self.metrics = ServiceMetrics()
        self.pool_invocations = 0
        self.pool_rebuilds = 0
        self._busy = 0  # dispatched, not yet completed
        self._executor = None
        self._executor_factory = executor_factory or _default_executor_factory
        self._task = task or _execute
        self._lock = threading.RLock()
        self._jobs: dict[str, JobRecord] = {}
        self._order: list[str] = []
        self._inflight: dict[str, _Flight] = {}
        self._active = 0  # admitted jobs not yet finished
        self._draining = False
        self._closed = False
        self._seq = itertools.count(1)

    # ------------------------------------------------------------------
    # Submission
    # ------------------------------------------------------------------

    def submit(self, request: JobRequest) -> JobRecord:
        """Admit and start one job; returns its record immediately.

        A fully cache-satisfied job comes back already ``done`` (the warm
        path never touches the pool); otherwise the record completes
        asynchronously — ``wait()``/``subscribe()`` to follow it.

        Raises :class:`AdmissionError` (structured code + HTTP status)
        when the job cannot be admitted, :class:`BadRequest` never (the
        request is already validated).
        """
        with self._lock:
            self._admit(request)
            return self._start(request)

    def _start(self, request: JobRequest, job_id: Optional[str] = None) -> JobRecord:
        """Start an admitted job (caller holds the lock).

        ``job_id`` is only passed by :meth:`recover`, which resubmits
        interrupted jobs under their original identities.
        """
        fingerprint = self.cache.fingerprint.value()
        keys = [job_key(p.config, p.workload, fingerprint) for p in request.points]
        record = JobRecord(job_id or f"job-{next(self._seq):06d}", request, keys)
        if self.journal is not None:
            # Write-ahead: the submission is durable before any execution,
            # and every subsequent event lands in the journal before
            # subscribers see it.
            self.journal.record_submit(record.id, request.to_payload())
            journal, rid = self.journal, record.id
            record.on_event = lambda event: journal.record_event(rid, event)
        self._jobs[record.id] = record
        if record.id not in self._order:
            self._order.append(record.id)
        self.metrics.bump("jobs.submitted")
        record.state = "running"
        record._emit({"event": "job", "state": "queued", "job": record.snapshot()})

        to_dispatch: list[_Flight] = []
        for index, (point, key) in enumerate(zip(request.points, keys)):
            stats = self.cache.lookup(key)
            if stats is not None:
                self.metrics.bump("points.cache_hit")
                self._resolve_point(
                    record, index, stats, cached=True, wall=0.0, error=None
                )
                continue
            flight = self._inflight.get(key)
            if flight is None:
                flight = _Flight(key, point.label, self._payload(point, request))
                self._inflight[key] = flight
                to_dispatch.append(flight)
            flight.waiters.append((record, index))
        # A fully cache-satisfied job was already finalized by its last
        # _resolve_point; only jobs with pending points occupy a queue
        # slot.
        if record._pending:
            record._counted_active = True
            self._active += 1
        for flight in to_dispatch:
            self._dispatch(flight)
        return record

    def recover(self) -> dict:
        """Replay the job journal at boot; returns a summary dict.

        Jobs whose journaled history ends in a terminal ``job`` event are
        restored in place — same id, state, results and event history, so
        ``/jobs/<id>`` answers and a reconnecting ``/stream`` client
        replays everything it missed without re-simulating.  Jobs that
        were queued or running when the previous process died are
        resubmitted under their original ids; the result cache turns any
        point that already completed into an instant hit, so only the
        genuinely lost work re-executes.
        """
        summary = {"jobs": 0, "restored": 0, "resubmitted": 0}
        if self.journal is None:
            return summary
        journaled = self.journal.load()
        with self._lock:
            max_seq = 0
            for job_id in journaled:
                # ids are "job-NNNNNN"; keep the counter past every
                # recovered id so new submissions never collide.
                tail = job_id.rsplit("-", 1)[-1]
                if tail.isdigit():
                    max_seq = max(max_seq, int(tail))
            if max_seq:
                self._seq = itertools.count(max_seq + 1)
            for job_id, entry in journaled.items():
                if entry["payload"] is None or job_id in self._jobs:
                    continue
                try:
                    request = JobRequest.from_payload(entry["payload"])
                except BadRequest:
                    continue  # journaled by an incompatible version; skip
                summary["jobs"] += 1
                terminal = next(
                    (
                        e
                        for e in reversed(entry["events"])
                        if e.get("event") == "job"
                        and e.get("state") in ("done", "failed")
                    ),
                    None,
                )
                if terminal is not None:
                    self._restore(job_id, request, entry["events"], terminal["job"])
                    summary["restored"] += 1
                else:
                    self.metrics.bump("jobs.recovered")
                    self._start(request, job_id=job_id)
                    summary["resubmitted"] += 1
        return summary

    def _restore(
        self, job_id: str, request: JobRequest, events: list[dict], snap: dict
    ) -> None:
        """Rebuild one finished job verbatim from its journaled history."""
        keys = [
            (row or {}).get("key", "") for row in snap.get("results", [])
        ] or [""] * len(request.points)
        record = JobRecord(job_id, request, keys)
        record.events = list(events)
        record.state = snap["state"]
        record.error = snap.get("error")
        record.created_at = snap.get("created_at", record.created_at)
        record.results = list(snap.get("results", record.results))
        record.cached_points = snap.get("cached_points", 0)
        record.simulated_points = snap.get("simulated_points", 0)
        record.failed_points = snap.get("failed_points", 0)
        record.service_seconds = snap.get("service_seconds")
        record._pending = set()
        record._done.set()
        self._jobs[job_id] = record
        self._order.append(job_id)
        self.metrics.bump("jobs.restored")

    def submit_payload(self, payload: Any) -> JobRecord:
        """Parse a raw JSON payload and submit it (the HTTP front's path)."""
        return self.submit(JobRequest.from_payload(payload))

    def _admit(self, request: JobRequest) -> None:
        if self._draining or self._closed:
            self.metrics.bump("jobs.rejected.shutting_down")
            raise AdmissionError(
                "shutting_down", "service is draining; not accepting jobs", 503
            )
        if len(request.points) > self.max_points:
            self.metrics.bump("jobs.rejected.over_budget")
            raise AdmissionError(
                "over_budget",
                f"job has {len(request.points)} points; budget is "
                f"{self.max_points} per job",
                413,
            )
        if self.max_cycles is not None:
            for point in request.points:
                if not 0 < point.config.max_cycles <= self.max_cycles:
                    self.metrics.bump("jobs.rejected.over_budget")
                    raise AdmissionError(
                        "over_budget",
                        f"point {point.label!r} asks for "
                        f"{point.config.max_cycles} simulated cycles; the "
                        f"per-point budget is {self.max_cycles}",
                        413,
                    )
        if self._active >= self.queue_depth:
            self.metrics.bump("jobs.rejected.queue_full")
            raise AdmissionError(
                "queue_full",
                f"{self._active} jobs already admitted (queue depth "
                f"{self.queue_depth}); retry later",
                429,
            )

    def _payload(self, point: JobPoint, request: JobRequest) -> tuple:
        timeouts = [t for t in (request.timeout, self.point_timeout) if t]
        timeout = min(timeouts) if timeouts else None
        return (0, point.as_job(), timeout)

    # ------------------------------------------------------------------
    # Execution plumbing
    # ------------------------------------------------------------------

    def _ensure_executor(self):
        if self._executor is None:
            self._executor = self._executor_factory(self.workers)
            self.pool_rebuilds += 1
        return self._executor

    def _dispatch(self, flight: _Flight) -> None:
        executor = self._ensure_executor()
        self.pool_invocations += 1
        self.metrics.bump("pool.invocations")
        self._busy += 1
        flight.future = executor.submit(self._task, flight.payload)
        flight.future.add_done_callback(
            lambda future, flight=flight: self._flight_done(flight, future)
        )

    def _flight_done(self, flight: _Flight, future) -> None:
        with self._lock:
            self._busy -= 1
            self._inflight.pop(flight.key, None)
            stats: Optional[MachineStats] = None
            wall = 0.0
            error: Optional[str] = None
            try:
                _, stats, wall, error = future.result()
            except BrokenProcessPool:
                error = (
                    "worker process died; pool poisoned and rebuilt "
                    "(resubmit the job)"
                )
                self._poison_pool()
            except CancelledError:
                error = "cancelled: service shut down before execution"
            except Exception as exc:  # worker-side pickling errors etc.
                error = f"{type(exc).__name__}: {exc}"
            if stats is not None:
                self.cache.store(
                    flight.key, stats, wall_seconds=wall, label=flight.label
                )
                self.metrics.bump("points.simulated")
                self.metrics.observe_backend(
                    stats.config.backend, stats.cycles, wall
                )
            else:
                self.metrics.bump("points.failed")
            for n, (record, index) in enumerate(flight.waiters):
                if n:
                    self.metrics.bump("points.coalesced")
                self._resolve_point(
                    record,
                    index,
                    stats,
                    cached=False,
                    wall=wall,
                    error=error,
                    coalesced=bool(n),
                )

    def _poison_pool(self) -> None:
        """Discard a broken executor; the next cold dispatch rebuilds."""
        self.metrics.bump("pool.broken")
        executor = self._executor
        self._executor = None
        if executor is not None:
            executor.shutdown(wait=False, cancel_futures=True)

    def _resolve_point(
        self,
        record: JobRecord,
        index: int,
        stats: Optional[MachineStats],
        *,
        cached: bool,
        wall: float,
        error: Optional[str],
        coalesced: bool = False,
    ) -> None:
        if index not in record._pending:
            return  # already resolved (shutdown race)
        record._pending.discard(index)
        point = record.request.points[index]
        if cached:
            record.cached_points += 1
        elif error is None:
            record.simulated_points += 1
        else:
            record.failed_points += 1
        result = JobResult(
            point.as_job(), stats, cached, wall, record.keys[index], error=error
        )
        row = {
            "label": point.label,
            "key": record.keys[index],
            "cached": cached,
            "coalesced": coalesced,
            "ok": error is None,
            "cycles": stats.cycles if stats is not None else None,
            "traps": stats.traps_taken if stats is not None else None,
            "packets": stats.network.packets if stats is not None else None,
            "utilization": (
                round(stats.utilization, 6) if stats is not None else None
            ),
            "wall_seconds": round(wall, 6),
            "error": error,
        }
        record.results[index] = row
        total = len(record.request.points)
        event = record.tracker.record(result, total - len(record._pending), total)
        event.update({"job": record.id, "index": index, "coalesced": coalesced})
        record._emit(event)
        if not record._pending:
            self._finalize(record)

    def _finalize(self, record: JobRecord) -> None:
        if record.done:
            return
        record.service_seconds = time.perf_counter() - record._submitted_clock
        errors = [row["error"] for row in record.results if row and row["error"]]
        record.state = "failed" if errors else "done"
        record.error = errors[0] if errors else None
        self.metrics.bump("jobs.failed" if errors else "jobs.done")
        self.metrics.observe_job(record.service_seconds, warm=record.warm)
        if record._counted_active:
            self._active -= 1
            record._counted_active = False
        record._emit(
            {"event": "job", "state": record.state, "job": record.snapshot()}
        )
        record._done.set()
        record._subscribers.clear()

    # ------------------------------------------------------------------
    # Queries
    # ------------------------------------------------------------------

    def job(self, job_id: str) -> Optional[JobRecord]:
        with self._lock:
            return self._jobs.get(job_id)

    def jobs(self, limit: Optional[int] = None) -> list[dict]:
        """Most-recent-first job snapshots."""
        with self._lock:
            ids = self._order[::-1]
            if limit is not None:
                ids = ids[: max(0, limit)]
            return [self._jobs[i].snapshot() for i in ids]

    def subscribe(self, record: JobRecord, callback: Callable[[dict], None]) -> None:
        with self._lock:
            record.subscribe(callback)

    def unsubscribe(self, record: JobRecord, callback: Callable[[dict], None]) -> None:
        with self._lock:
            record.unsubscribe(callback)

    def healthz(self) -> dict:
        with self._lock:
            if self._closed:
                status = "closed"
            elif self._draining:
                status = "draining"
            else:
                status = "ok"
            return {
                "status": status,
                "uptime_seconds": round(self.metrics.uptime_seconds(), 3),
                "jobs_in_flight": self._active,
            }

    def metrics_snapshot(self) -> dict:
        """The ``/metrics`` payload: counters, latency, gauges."""
        with self._lock:
            busy = min(self._busy, self.workers)
            snapshot = self.metrics.snapshot()
            snapshot.update(
                {
                    # jobs pick their own backend per point; this is what a
                    # submission gets when it does not say.
                    "backend_default": (
                        AlewifeConfig.__dataclass_fields__["backend"].default
                    ),
                    "queue": {"depth": self._active, "limit": self.queue_depth},
                    "jobs": {"active": self._active, "total": len(self._jobs)},
                    "workers": {
                        "pool_size": self.workers,
                        "busy": busy,
                        "queued_points": max(0, self._busy - self.workers),
                        "utilization": round(busy / self.workers, 6),
                    },
                    "pool_invocations": self.pool_invocations,
                    "pool_rebuilds": self.pool_rebuilds,
                    "budgets": {
                        "queue_depth": self.queue_depth,
                        "max_points": self.max_points,
                        "max_cycles": self.max_cycles,
                        "point_timeout": self.point_timeout,
                    },
                    "cache": {
                        "enabled": self.cache.enabled,
                        "dir": str(self.cache.directory),
                        "hits": self.cache.hits,
                        "misses": self.cache.misses,
                        "stores": self.cache.stores,
                        "write_errors": self.cache.write_errors,
                    },
                    "journal": {
                        "enabled": self.journal is not None,
                        "path": (
                            str(self.journal.path) if self.journal else None
                        ),
                        "records_written": (
                            self.journal.records_written if self.journal else 0
                        ),
                    },
                }
            )
            return snapshot

    # ------------------------------------------------------------------
    # Shutdown
    # ------------------------------------------------------------------

    def begin_drain(self) -> None:
        """Stop admitting jobs (503) while in-flight work continues."""
        with self._lock:
            self._draining = True

    def close(self, *, drain: bool = True, timeout: Optional[float] = None) -> bool:
        """Shut the service down; returns True when every job finished.

        ``drain=True`` waits (up to ``timeout`` seconds) for in-flight
        jobs; ``drain=False`` cancels whatever has not started and fails
        the rest as ``cancelled``.  Idempotent.
        """
        with self._lock:
            self._draining = True
            if self._closed:
                return self._active == 0
            records = [self._jobs[i] for i in self._order]
            executor = self._executor
        drained = True
        if drain:
            deadline = (
                time.perf_counter() + timeout if timeout is not None else None
            )
            for record in records:
                remaining = None
                if deadline is not None:
                    remaining = max(0.0, deadline - time.perf_counter())
                if not record.wait(remaining):
                    drained = False
        else:
            with self._lock:
                flights = list(self._inflight.values())
            for flight in flights:
                if flight.future is not None:
                    flight.future.cancel()
        if executor is not None:
            executor.shutdown(wait=True, cancel_futures=not drain)
        with self._lock:
            self._closed = True
            self._executor = None
            # Anything still unresolved (cancelled futures whose callbacks
            # ran, or a timed-out drain) is failed explicitly so waiters
            # never hang on a closed service.
            for record in records:
                if not record.done:
                    for index in sorted(record._pending):
                        self._resolve_point(
                            record,
                            index,
                            None,
                            cached=False,
                            wall=0.0,
                            error="cancelled: service closed",
                        )
            if not drain:
                drained = all(r.done for r in records)
            if self.journal is not None:
                self.journal.close()
        return drained

    def __enter__(self) -> "SweepService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close(drain=False)

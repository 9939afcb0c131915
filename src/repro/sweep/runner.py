"""Parallel, cached execution of experiment grids.

``run_jobs`` is the engine behind ``repro sweep`` and
``benchmarks/run_figures.py``: it deduplicates identical grid points (the
paper's figures share several baselines, e.g. Full-Map/Weather appears in
Figures 8, 9 and 10), satisfies what it can from the on-disk result cache,
and fans the remainder out over a ``multiprocessing`` pool.  Each job
builds a fresh machine in its worker process, so parallelism cannot
perturb simulated cycle counts — determinism is the contract, wall-clock
is the only thing that changes.
"""

from __future__ import annotations

import multiprocessing
import signal
import sys
import time
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, TextIO

from ..machine import MachineStats, run_experiment
from .cache import ResultCache
from .manifest import CampaignManifest
from .spec import Job, job_key


class JobTimeout(Exception):
    """A grid point exceeded its wall-clock budget."""


@dataclass
class JobResult:
    """Outcome of one grid point.

    ``stats`` is None — and ``error`` holds the rendered exception — when
    the job failed or timed out under ``on_error="record"``.
    """

    job: Job
    stats: Optional[MachineStats]
    cached: bool
    wall_seconds: float
    key: str
    error: Optional[str] = None

    @property
    def ok(self) -> bool:
        return self.error is None


ProgressFn = Callable[[JobResult, int, int], None]


def _on_alarm(signum, frame):  # pragma: no cover - fires inside workers
    raise JobTimeout("wall-clock budget exceeded")


def _execute(
    payload: tuple[int, Job, Optional[float]]
) -> tuple[int, Optional[MachineStats], float, Optional[str]]:
    """Worker-process entry point: run one job, return its stats.

    Failures (including the SIGALRM wall-clock timeout) come back as a
    rendered error string instead of poisoning the whole pool; the parent
    decides whether to raise or record them.
    """
    index, job, timeout = payload
    start = time.perf_counter()
    armed = timeout is not None and hasattr(signal, "SIGALRM")
    old_handler = None
    try:
        if armed:
            old_handler = signal.signal(signal.SIGALRM, _on_alarm)
            signal.alarm(max(1, int(timeout)))
        stats = run_experiment(job.config, job.workload.build())
        return index, stats, time.perf_counter() - start, None
    except JobTimeout:
        wall = time.perf_counter() - start
        return index, None, wall, f"JobTimeout: exceeded {timeout:g}s wall clock"
    except Exception as exc:
        wall = time.perf_counter() - start
        return index, None, wall, f"{type(exc).__name__}: {exc}"
    finally:
        if armed:
            signal.alarm(0)
            signal.signal(signal.SIGALRM, old_handler)


def _pool_context() -> multiprocessing.context.BaseContext:
    # fork keeps worker start cheap (no re-import); fall back where absent.
    methods = multiprocessing.get_all_start_methods()
    return multiprocessing.get_context("fork" if "fork" in methods else "spawn")


def run_jobs(
    jobs: Sequence[Job],
    *,
    workers: int = 1,
    cache: ResultCache | None = None,
    progress: ProgressFn | None = None,
    timeout: float | None = None,
    on_error: str = "raise",
    manifest: CampaignManifest | None = None,
    resume: bool = False,
    retries: int = 0,
    retry_backoff: float = 0.5,
) -> list[JobResult]:
    """Run every job, in the order given, returning one result per job.

    Identical jobs (same config + workload + source) run once and share
    their stats; cached jobs never run at all.  ``progress`` fires once
    per job as its result becomes final (cache hits first).

    ``timeout`` bounds each grid point's wall-clock seconds (SIGALRM in
    the worker, so even a hung simulation is reclaimed).  A failed or
    timed-out point raises by default; ``on_error="record"`` instead
    returns it as a ``JobResult`` with ``stats=None`` and the error
    string — the fault-campaign oracle treats those as survival failures.

    ``manifest`` adds crash-safe bookkeeping: a write-ahead ``start``
    record before each attempt and a terminal record after it.  With
    ``resume=True`` the prior log is replayed first — completed points
    come back from the result cache as usual, points that were in flight
    when the previous process died count one crashed attempt each, and a
    point whose crashed/failed attempts already exceed ``retries`` is
    *quarantined*: reported as a failed result without executing (and
    without raising, even under ``on_error="raise"``), so one poisoned
    point cannot kill every resume of a campaign.  ``retries`` also
    grants each failed point that many in-run retry rounds, spaced by
    ``retry_backoff * round`` seconds.
    """
    if on_error not in ("raise", "record"):
        raise ValueError(f"on_error must be 'raise' or 'record', not {on_error!r}")
    if cache is None:
        cache = ResultCache(enabled=False)
    # The fingerprint is memoized per-cache, not per-process: a long-lived
    # embedder (the serve layer) controls staleness via cache.invalidate().
    fingerprint = cache.fingerprint.value()
    keys = [job_key(job.config, job.workload, fingerprint) for job in jobs]
    total = len(jobs)
    results: list[JobResult | None] = [None] * total
    done = 0

    # Replay the write-ahead log so a resumed campaign knows how many
    # attempts each point already burned (terminal failures plus starts
    # that never got a terminal record — the process died mid-point).
    prior = manifest.load() if (manifest is not None and resume) else {}
    attempt_no: dict[str, int] = {}

    # First occurrence of each key runs (or hits the cache); duplicates
    # share its stats without re-simulating.
    primary: dict[str, int] = {}
    pending: list[tuple[int, Job, Optional[float]]] = []
    for index, (job, key) in enumerate(zip(jobs, keys)):
        if key in primary:
            continue
        primary[key] = index
        state = prior.get(key)
        attempt_no[key] = state.crashed_attempts if state is not None else 0
        stats = cache.lookup(key)
        if stats is not None:
            results[index] = JobResult(job, stats, True, 0.0, key)
            done += 1
            if progress is not None:
                progress(results[index], done, total)
            continue
        if state is not None and not state.done and state.crashed_attempts > retries:
            # Poisoned point: across previous runs of this campaign it has
            # already failed or crashed the process more times than the
            # retry budget allows.  Quarantine it — record the failure
            # without executing and without raising — so it cannot kill
            # the campaign yet again on every resume.
            reason = (
                f"quarantined: {state.crashed_attempts} crashed/failed "
                f"attempt(s) exceed the retry budget ({retries})"
            )
            if state.last_error:
                reason += f"; last error: {state.last_error}"
            if manifest is not None:
                manifest.quarantined(key, job.label, reason)
            results[index] = JobResult(job, None, False, 0.0, key, error=reason)
            done += 1
            if progress is not None:
                progress(results[index], done, total)
            continue
        pending.append((index, job, timeout))

    def launch(payload: tuple[int, Job, Optional[float]]) -> None:
        """Write-ahead: log the attempt before it executes."""
        key = keys[payload[0]]
        attempt_no[key] += 1
        if manifest is not None:
            manifest.start(key, payload[1].label, attempt_no[key])

    def record(
        index: int, stats: Optional[MachineStats], wall: float, error: Optional[str]
    ) -> None:
        """Finalize one point: cache + manifest + result + progress."""
        nonlocal done
        job = jobs[index]
        key = keys[index]
        if error is not None:
            if manifest is not None:
                manifest.failed(key, attempt_no[key], error)
            if on_error == "raise":
                raise RuntimeError(f"grid point {job.label!r} failed: {error}")
        if stats is not None:
            # Failed points are never cached: a transient failure must not
            # satisfy a future lookup.
            cache.store(key, stats, wall_seconds=wall, label=job.label)
            if manifest is not None:
                manifest.done(key)
        results[index] = JobResult(job, stats, False, wall, key, error=error)
        done += 1
        if progress is not None:
            progress(results[index], done, total)

    retry_queue: list[tuple[int, Job, Optional[float]]] = []

    def settle(
        payload: tuple[int, Job, Optional[float]],
        stats: Optional[MachineStats],
        wall: float,
        error: Optional[str],
        *,
        retries_left: int,
    ) -> None:
        """Finalize a point, or queue it for another round if budget remains."""
        if error is not None and retries_left > 0:
            if manifest is not None:
                manifest.failed(keys[payload[0]], attempt_no[keys[payload[0]]], error)
            retry_queue.append(payload)
            return
        record(payload[0], stats, wall, error)

    payload_by_index = {p[0]: p for p in pending}
    if workers > 1 and len(pending) > 1:
        ctx = _pool_context()
        n = min(workers, len(pending))
        with ctx.Pool(n) as pool:
            # Submit in waves of pool size so the write-ahead records
            # only cover points that are genuinely executing: a crash
            # then charges at most one attempt to each of ~n points,
            # not to the whole campaign.
            for wave_start in range(0, len(pending), n):
                wave = pending[wave_start : wave_start + n]
                for payload in wave:
                    launch(payload)
                for index, stats, wall, error in pool.imap_unordered(
                    _execute, wave, chunksize=1
                ):
                    settle(
                        payload_by_index[index],
                        stats,
                        wall,
                        error,
                        retries_left=retries,
                    )
    else:
        for payload in pending:
            launch(payload)
            index, stats, wall, error = _execute(payload)
            settle(payload, stats, wall, error, retries_left=retries)

    # Retry rounds: failed points re-execute serially in this process,
    # spaced by a linear backoff, until they succeed or the budget is
    # spent (the last round finalizes via ``record``, which raises under
    # ``on_error="raise"``).
    round_no = 0
    while retry_queue and round_no < retries:
        round_no += 1
        batch, retry_queue = retry_queue, []
        for payload in batch:
            if retry_backoff > 0:
                time.sleep(retry_backoff * round_no)
            launch(payload)
            index, stats, wall, error = _execute(payload)
            settle(payload, stats, wall, error, retries_left=retries - round_no)

    # Fill duplicates from their primary's stats (or error).
    for index, key in enumerate(keys):
        if results[index] is None:
            origin = results[primary[key]]
            assert origin is not None
            results[index] = JobResult(
                jobs[index], origin.stats, True, 0.0, key, error=origin.error
            )
            done += 1
            if progress is not None:
                progress(results[index], done, total)
    return [r for r in results if r is not None]


class ProgressTracker:
    """Turns the ``ProgressFn`` stream into structured progress records.

    One tracker follows one run: feed it every ``(result, done, total)``
    callback and it returns a JSON-serializable dict per grid point —
    label, outcome, wall clock, elapsed time and a guarded ETA.  The ETA
    is ``None`` until at least one point has actually executed (cache
    hits carry no timing signal) and clamps at ``0.0`` for degenerate
    zero-wall executions, so consumers never divide by zero or see a
    negative estimate.  ``ProgressPrinter`` derives its human line from
    these records; the serve layer streams them as NDJSON.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self._clock = clock
        self.start = clock()
        self.executed_wall = 0.0
        self.executed = 0

    def eta_seconds(self, remaining: int) -> Optional[float]:
        """Projected wall seconds for ``remaining`` points; None if unknown."""
        if remaining <= 0:
            return 0.0
        if self.executed <= 0:
            return None  # nothing has executed yet: no rate to project from
        return max(0.0, self.executed_wall / self.executed * remaining)

    def record(self, result: JobResult, done: int, total: int) -> dict:
        if not result.cached:
            self.executed += 1
            self.executed_wall += max(0.0, result.wall_seconds)
        return {
            "event": "point",
            "done": done,
            "total": total,
            "label": result.job.label,
            "key": result.key,
            "cached": result.cached,
            "ok": result.ok,
            "cycles": result.stats.cycles if result.stats is not None else None,
            "wall_seconds": round(max(0.0, result.wall_seconds), 6),
            "elapsed_seconds": round(max(0.0, self._clock() - self.start), 6),
            "eta_seconds": self.eta_seconds(total - done),
            "error": result.error,
        }

    @staticmethod
    def describe(record: dict) -> str:
        """The human progress line for one structured record."""
        if record["eta_seconds"] is not None and record["done"] < record["total"]:
            eta = f"  ETA {record['eta_seconds']:.0f}s"
        else:
            eta = ""
        source = "cached" if record["cached"] else f"{record['wall_seconds']:.1f}s"
        if record["cycles"] is None:
            outcome = f"FAILED: {record['error']}"
        else:
            outcome = f"{record['cycles']:>12,} cycles"
        return (
            f"  [{record['done']}/{record['total']}] {record['label']:28s} "
            f"{outcome}  ({source}){eta}"
        )


class ProgressPrinter:
    """Live per-job progress with a wall-clock ETA for the remainder.

    A thin formatting shell over :class:`ProgressTracker`: every callback
    produces one structured record (kept on ``self.records``) and prints
    its derived human line.
    """

    def __init__(self, stream: TextIO | None = None):
        self.stream = stream or sys.stderr
        self.tracker = ProgressTracker()
        self.records: list[dict] = []

    def __call__(self, result: JobResult, done: int, total: int) -> None:
        record = self.tracker.record(result, done, total)
        self.records.append(record)
        print(ProgressTracker.describe(record), file=self.stream, flush=True)

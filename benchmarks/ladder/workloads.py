"""The seven ladder workloads, built on the public ``repro`` API only.

Each workload is closed and fixed-work: a *repeat* is one timed region
(one ``run_jobs``/``run_experiment`` call including machine construction
and audit, one event-loop drain for ``packetstorm``, one whole request
schedule for ``serve_mix``).  The seed reaches the program only as
``AlewifeConfig.seed`` / the serve job seeds / generated packets.

A repeat has two forms.  ``repeat()`` is the untraced form users run.
``traced_repeat()`` does the same work decomposed into the public calls
underneath it, with a span around each, and must reproduce the untraced
form's digest.
"""

from __future__ import annotations

import hashlib
import http.client
import json
import os
import random
import statistics
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

from repro.backend import equivalence_fingerprint, get_backend
from repro.machine import AlewifeConfig, AlewifeMachine, run_experiment
from repro.network.packet import Op, Packet, PacketPool
from repro.network.topology import Mesh2D
from repro.proc import ops
from repro.serve import BackgroundServer, SweepService
from repro.sweep import (
    Job,
    ResultCache,
    WorkloadSpec,
    figure_grids,
    job_key,
    run_jobs,
)
from repro.verify import audit_machine
from repro.workloads.base import Workload

from tracing import Tracer

OUT = Path(__file__).resolve().parent / "out"

#: worker sets of 2..32 readers: everything above four pointers overflows
SHARE_SETS = [(2, 64), (8, 32), (16, 16), (32, 8)]

#: per-scale sizes.  ``tiny`` is the selftest's (seconds, not minutes);
#: the paper's shape claims are about the 64-processor machine, so the
#: selftest checks them on ``shapes``, the smallest grid they hold on.
SIZES = {
    "full": {
        "procs": 64,
        "figures": (64, 8),
        "hit_rounds": 150_000,
        "storm_events": 3_000_000,
        "read_rounds": 120,
        "write_rounds": 40,
        "serve_cold": 100,
    },
    "tiny": {
        "procs": 16,
        "figures": (16, 2),
        "hit_rounds": 2_000,
        "storm_events": 40_000,
        "read_rounds": 10,
        "write_rounds": 5,
        "serve_cold": 4,
    },
}
SIZES["shapes"] = {**SIZES["tiny"], "figures": (64, 2)}
WARM_PER_COLD = 4


@dataclass
class Repeat:
    """Outcome of one timed region."""

    wall_s: float
    sim_cycles: int = 0
    #: sha-256 over everything the repeat computed; equal across repeats
    digest: str = ""
    attempted: int = 0
    errors: list[str] = field(default_factory=list)
    #: exact per-layer counts (traced form only)
    counts: dict[str, float] = field(default_factory=dict)
    #: workload-specific detail: fingerprints, cycles, latency samples
    detail: dict = field(default_factory=dict)


def _sha(parts) -> str:
    return hashlib.sha256("\n".join(map(str, parts)).encode()).hexdigest()


def machine_counts(machine, stats) -> dict[str, float]:
    """The exact per-layer counts of one executed point."""
    c = stats.counters.get
    kinds = ("load", "store", "rmw")
    return {
        "sim.events": machine.sim.events_executed,
        "machine.sim_cycles": stats.cycles,
        "machine.points_executed": 1,
        "network.packets": stats.network.packets,
        "network.words": stats.network.words,
        "network.hops": stats.network.hops,
        "network.contention_cycles": stats.network.contention_cycles,
        "network.pool_allocated": machine.pool.allocated,
        "network.pool_recycled": machine.pool.recycled,
        "cache.hits": sum(c(f"cache.hits.{k}") for k in kinds),
        "cache.misses": sum(c(f"cache.misses.{k}") for k in kinds),
        "cache.busy_retries": c("cache.busy_retries"),
        "coherence.dir_packets": c("dir.packets"),
        "coherence.invalidations": c("dir.invalidations"),
        "coherence.traps": stats.traps_taken,
        "coherence.trap_cycles": stats.trap_cycles,
        "coherence.overflow_diverts": c("limitless.overflow_diverts"),
        "proc.think_cycles": c("cpu.think_cycles"),
        "proc.remote_stalls": c("cpu.remote_stalls"),
        # busy cycles, so utilization can be re-derived over many points
        "proc.busy_cycles": stats.utilization * stats.cycles * stats.config.n_procs,
        "proc.cycle_slots": stats.cycles * stats.config.n_procs,
    }


def add_counts(total: dict, more: dict) -> None:
    for name, value in more.items():
        total[name] = total.get(name, 0) + value


class _SpannedWorkload(Workload):
    """Times ``build`` of the workload it wraps (``workloads.build``)."""

    def __init__(self, inner: Workload, tracer: Tracer):
        self.inner = inner
        self.tracer = tracer
        self.name = inner.name

    def describe(self) -> str:
        return self.inner.describe()

    def build(self, machine):
        with self.tracer.span("workloads.build"):
            return self.inner.build(machine)


def traced_point(tracer, label, config, workload, *, cache=None, key=None):
    """One grid point as the public calls under ``run_experiment``.

    ``machine.run`` collects stats itself before returning; with
    ``audit=False`` that is a second, cheap harvest which stays in the
    point's uncovered time.
    """
    with tracer.span("point", label=label):
        start = time.perf_counter()
        with tracer.span("machine.build"):
            machine = AlewifeMachine(config)

        def drive(m):
            with tracer.span("sim.run"):
                m.sim.run()

        machine.run(_SpannedWorkload(workload, tracer), audit=False, driver=drive)
        with tracer.span("verify.audit"):
            entries = audit_machine(machine)
        with tracer.span("stats.collect"):
            stats = machine.harvest().finalize(config, entries_audited=entries)
            stats.to_dict()
        if cache is not None:
            with tracer.span("sweep.store"):
                cache.store(
                    key, stats, wall_seconds=time.perf_counter() - start, label=label
                )
    return machine, stats


class LadderWorkload:
    """Common shape: set up once, repeat, then check outputs."""

    name = ""
    #: backends the set-up warms with a 16-processor point
    backends: tuple[str, ...] = ()

    def __init__(self, seed: int, scale: str):
        self.seed = seed
        self.size = SIZES[scale]
        # scratch stays inside the checkout, next to the results
        OUT.mkdir(exist_ok=True)
        self.tmp = tempfile.TemporaryDirectory(prefix="tmp-", dir=OUT)

    @property
    def native(self) -> bool:
        return "native" in self.backends

    def setup(self) -> None:
        for backend in self.backends:
            run_experiment(
                AlewifeConfig(n_procs=16, backend=backend, seed=self.seed),
                WorkloadSpec("hotspot", {"rounds": 2}).build(),
            )

    #: False where the work happens in other processes, which cProfile
    #: in this one cannot see
    profiled = True

    def repeat(self) -> Repeat:
        """The untraced form; where the program offers no coarser call
        than the traced form's, the same code with spans switched off."""
        return self.traced_repeat(Tracer(enabled=False))

    def traced_repeat(self, tracer: Tracer) -> Repeat:
        raise NotImplementedError

    def checks(self, first: Repeat) -> tuple[int, list[str]]:
        """Output checks beyond repeat-to-repeat equality, run after the
        timing: ``(operations attempted, one message per failure)``."""
        return 0, []

    def warm_pass(self) -> dict[str, float]:
        """Per-layer numbers that need a filled cache (traced run only)."""
        return {}

    def client_metrics(self, repeats: list[Repeat]) -> dict[str, float]:
        """Per-layer numbers measured by the client, tracing on or off."""
        return {}

    def close(self) -> None:
        self.tmp.cleanup()


# ----------------------------------------------------------------------
# Whole machines: one point per repeat
# ----------------------------------------------------------------------


class _HitStorm(Workload):
    """Every processor owns one exclusive line and loads it in a loop."""

    name = "hitstorm64"

    def __init__(self, rounds: int):
        self.rounds = rounds

    def build(self, machine):
        n = machine.config.n_procs
        mine = [machine.allocator.alloc_scalar(f"hit.s{p}", home=p) for p in range(n)]

        def program(p: int):
            base = mine[p].base
            yield ops.store(base, p)  # take exclusive ownership once
            load = ops.load(base)
            for _ in range(self.rounds):
                yield load

        return {p: [program(p)] for p in range(n)}


class SinglePoint(LadderWorkload):
    """One 64-processor machine run per repeat, on the native backend,
    checked against a 1/10-size run of the same thing on ``reference``."""

    backends = ("native", "reference")
    protocol: dict = {}

    def config(self, backend: str = "native") -> AlewifeConfig:
        return AlewifeConfig(
            n_procs=self.size["procs"],
            max_cycles=200_000_000,
            backend=backend,
            seed=self.seed,
            **self.protocol,
        )

    def workload(self, shrink: int = 1) -> Workload:
        raise NotImplementedError

    def repeat(self) -> Repeat:
        start = time.perf_counter()
        stats = run_experiment(self.config(), self.workload())
        wall = time.perf_counter() - start
        return Repeat(
            wall, stats.cycles, equivalence_fingerprint(stats), attempted=1
        )

    def traced_repeat(self, tracer: Tracer) -> Repeat:
        with tracer.span("repeat") as span:
            machine, stats = traced_point(
                tracer, self.name, self.config(), self.workload()
            )
        return Repeat(
            span["end"] - span["start"],
            stats.cycles,
            equivalence_fingerprint(stats),
            attempted=1,
            counts=machine_counts(machine, stats),
        )

    def checks(self, first: Repeat) -> tuple[int, list[str]]:
        twins = [
            equivalence_fingerprint(
                run_experiment(self.config(backend), self.workload(shrink=10))
            )
            for backend in ("reference", "native")
        ]
        if twins[0] == twins[1]:
            return 1, []
        return 1, [f"{self.name}: 1/10-size native run differs from reference"]


class HitStorm64(SinglePoint):
    name = "hitstorm64"
    protocol = {"protocol": "fullmap"}

    def workload(self, shrink: int = 1) -> Workload:
        return _HitStorm(self.size["hit_rounds"] // shrink)


class ReadShare64(SinglePoint):
    name = "readshare64"
    protocol = {"protocol": "limitless", "pointers": 4, "ts": 50}
    write_period = 0
    rounds_key = "read_rounds"

    def workload(self, shrink: int = 1) -> Workload:
        sets = SHARE_SETS if self.size["procs"] == 64 else [(2, 8), (8, 4)]
        return WorkloadSpec(
            "synthetic",
            {
                "worker_sets": sets,
                "write_period": self.write_period,
                "think_per_round": 20,
                "rounds": max(2, self.size[self.rounds_key] // shrink),
            },
        ).build()


class WriteShare64(ReadShare64):
    name = "writeshare64"
    write_period = 1
    rounds_key = "write_rounds"


# ----------------------------------------------------------------------
# The paper's figure grid through the sweep runner
# ----------------------------------------------------------------------


def figure_shape_checks(cycles: dict[tuple[str, str], int]) -> tuple[int, list[str]]:
    """The paper's shape claims (benchmarks/test_fig07..10 and the approx
    ablation, restated): how many were checked, and those that fail.

    ``cycles`` maps (figure title, row label) to simulated cycles.
    """

    def fig(prefix: str) -> dict[str, int]:
        return {
            label: value
            for (title, label), value in cycles.items()
            if title.startswith(prefix)
        }

    f7, f8, opt = fig("Figure 7"), fig("Figure 8"), fig("§5.2")
    f9, f10, ab = fig("Figure 9"), fig("Figure 10"), fig("Ablation")
    ll = [f9[f"LimitLESS4 Ts={ts}"] for ts in (25, 50, 100, 150)]
    chain = [f10["Full-Map"]] + [f10[f"LimitLESS{p} Ts=50"] for p in (4, 2, 1)]
    claims = {
        "fig7: multigrid schemes within 1.35x of each other":
            max(f7.values()) / min(f7.values()) < 1.35,
        "fig8: Dir1NB >= Dir2NB >= Dir4NB > 1.5x Full-Map":
            f8["Dir1NB"] >= f8["Dir2NB"] >= f8["Dir4NB"] > 1.5 * f8["Full-Map"],
        "§5.2: optimized Dir4NB < 1.15x Full-Map":
            opt["Dir4NB (optimized)"] < 1.15 * opt["Full-Map (optimized)"],
        "fig9: LimitLESS4 monotone in Ts and below Dir4NB":
            ll == sorted(ll) and ll[-1] < f9["Dir4NB"],
        "fig10: Full-Map <= LL4 <= LL2 <= LL1 < Dir4NB":
            chain == sorted(chain) and chain[-1] < f10["Dir4NB"],
        "ablation: approx within 0.8-1.25x of exact":
            0.8 < ab["LimitLESS4 approx"] / ab["LimitLESS4 exact"] < 1.25,
    }
    return len(claims), [f"shape: not {c}" for c, holds in claims.items() if not holds]


class Figures64(LadderWorkload):
    """``repro sweep``, cold: 24 points / 17 unique, one worker, an empty
    result cache per repeat."""

    name = "figures64"
    backend = "reference"
    backends = ("reference",)

    def setup(self) -> None:
        super().setup()
        self.caches = 0
        procs, iters = self.size["figures"]
        self.titles = []
        self.jobs = []
        for title, jobs in figure_grids(procs, iters).items():
            for job in jobs:
                job.config = job.config.with_(backend=self.backend, seed=self.seed)
                self.titles.append(title)
                self.jobs.append(job)

    def fresh_cache(self) -> ResultCache:
        self.caches += 1
        return ResultCache(Path(self.tmp.name) / f"cache{self.caches}")

    def _summarize(self, wall, rows, counts=None) -> Repeat:
        """``rows``: per job ``(stats or None, simulated here, error)``."""
        errors = [
            f"{job.label}: {error or 'point failed'}"
            for job, (stats, _, error) in zip(self.jobs, rows)
            if stats is None
        ]
        prints = [equivalence_fingerprint(s) if s else "failed" for s, _, _ in rows]
        cycles = {
            (title, job.label): stats.cycles
            for title, job, (stats, _, _) in zip(self.titles, self.jobs, rows)
            if stats is not None
        }
        return Repeat(
            wall,
            sum(s.cycles for s, simulated, _ in rows if s is not None and simulated),
            _sha(prints),
            attempted=len(self.jobs),
            errors=errors,
            counts=counts or {},
            detail={"fingerprints": prints, "cycles": cycles},
        )

    def repeat(self) -> Repeat:
        cache = self.fresh_cache()
        start = time.perf_counter()
        results = run_jobs(self.jobs, workers=1, cache=cache, on_error="record")
        wall = time.perf_counter() - start
        return self._summarize(
            wall, [(r.stats, not r.cached, r.error) for r in results]
        )

    def traced_repeat(self, tracer: Tracer) -> Repeat:
        self.cache = cache = self.fresh_cache()
        counts: dict[str, float] = {"sweep.points": len(self.jobs)}
        done: dict[str, object] = {}
        rows = []
        with tracer.span("repeat") as span:
            for job in self.jobs:
                with tracer.span("sweep.key"):
                    key = job_key(job.config, job.workload, cache.fingerprint.value())
                    fresh = key not in done and cache.lookup(key) is None
                if fresh:
                    machine, done[key] = traced_point(
                        tracer, job.label, job.config, job.workload.build(),
                        cache=cache, key=key,
                    )
                    add_counts(counts, machine_counts(machine, done[key]))
                else:
                    add_counts(counts, {"sweep.reused": 1})
                rows.append((done[key], fresh, None))
        return self._summarize(span["end"] - span["start"], rows, counts)

    def warm_pass(self) -> dict[str, float]:
        """A second sweep over the cache the traced repeat filled."""
        cache = self.cache
        hits = cache.hits
        start = time.perf_counter()
        results = run_jobs(self.jobs, workers=1, cache=cache, on_error="record")
        wall = time.perf_counter() - start
        assert all(r.cached for r in results), "warm pass re-simulated a point"
        return {"sweep.warm_pass_s": wall, "sweep.cache_hits": cache.hits - hits}

    def checks(self, first: Repeat) -> tuple[int, list[str]]:
        if self.size["figures"][0] != 64:  # what the claims are about
            return 0, []
        return figure_shape_checks(first.detail["cycles"])


class Figures64Native(Figures64):
    """The same grid on the compiled engine, checked point by point
    against the ``reference`` engine before any speed is reported."""

    name = "figures64_native"
    backend = "native"
    backends = ("native", "reference")

    def checks(self, first: Repeat) -> tuple[int, list[str]]:
        attempted, failures = super().checks(first)
        results = run_jobs(
            [
                Job(job.label, job.config.with_(backend="reference"), job.workload)
                for job in self.jobs
            ],
            workers=1,
            on_error="record",
        )
        for job, result, mine in zip(self.jobs, results, first.detail["fingerprints"]):
            if result.stats is None or equivalence_fingerprint(result.stats) != mine:
                failures.append(f"{job.label}: native differs from reference")
        return attempted + len(self.jobs), failures


# ----------------------------------------------------------------------
# Fabric and kernel only
# ----------------------------------------------------------------------


class PacketStorm(LadderWorkload):
    """A bare native simulator and wormhole mesh: every delivery releases
    its packet to the pool and sends the next one."""

    name = "packetstorm"
    backends = ("native",)
    side = 8

    def traced_repeat(self, tracer: Tracer) -> Repeat:
        with tracer.span("repeat"):
            start = time.perf_counter()
            bundle = get_backend("native")
            sim = bundle.make_simulator()
            net = bundle.wormhole_class(sim, Mesh2D(self.side, self.side))
            pool = (bundle.make_pool or PacketPool)(enabled=True)
            n = self.side * self.side
            remaining = [self.size["storm_events"]]
            rreq = Op.RREQ

            def make_handler(node: int):
                def handler(packet: Packet) -> None:
                    address = packet.address
                    pool.release(packet)
                    if remaining[0] > 0:
                        remaining[0] -= 1
                        dst = (node * 7 + sim.now) % n if node % 3 else 0
                        net.send(pool.protocol(node, dst, rreq, address))

                return handler

            for node in range(n):
                net.attach(node, make_handler(node))
            rng = random.Random(self.seed)
            for node in range(n):
                address = rng.randrange(4096) * 16
                net.send(Packet(node, rng.randrange(n), rreq, address=address))
            with tracer.span("sim.run"):
                sim.run()
            wall = time.perf_counter() - start
        s = net.stats
        return Repeat(
            wall,
            sim.now,
            _sha([sim.events_executed, sim.now, s.packets, s.words, s.hops,
                  s.total_latency, s.contention_cycles]),
            attempted=1,
            counts={
                "sim.events": sim.events_executed,
                "machine.sim_cycles": sim.now,
                "machine.points_executed": 1,
                "network.packets": s.packets,
                "network.words": s.words,
                "network.hops": s.hops,
                "network.contention_cycles": s.contention_cycles,
                "network.pool_allocated": pool.allocated,
                "network.pool_recycled": pool.recycled,
            },
        )

    def checks(self, first: Repeat) -> tuple[int, list[str]]:
        # one send per delivery until the budget is spent, then the
        # packets in flight drain: the fabric may neither lose nor invent
        expected = self.size["storm_events"] + self.side * self.side
        sent = first.counts["network.packets"]
        return 1, [] if sent == expected else [
            f"packetstorm: {sent} packets sent, expected {expected}"
        ]


# ----------------------------------------------------------------------
# The job server, cold and warm
# ----------------------------------------------------------------------


def percentile(values: list[float], p: float) -> float:
    ordered = sorted(values)
    rank = max(1, round(p / 100.0 * len(ordered)))
    return ordered[min(rank, len(ordered)) - 1]


class ServeMix(LadderWorkload):
    """One closed-loop client against a fresh server per repeat: each
    cold job (submit, then follow the NDJSON stream to ``done``) is
    followed by four warm re-submissions of the same payload."""

    name = "serve_mix"
    backends = ("reference",)
    profiled = False  # the simulation runs in the pool workers
    server = None

    def setup(self) -> None:
        # One request is in flight, so at most one of client, server
        # thread and pool worker runs at any time.  Left to the scheduler
        # they spread over the cores and every hand-over is a cross-core
        # wake-up, whose cost is the hypervisor's and came in two modes
        # (warm p50 0.93 or 1.3 ms, the schedule 1.9 or 2.2 s) that a run
        # fell into at random.  On one core the hand-overs are context
        # switches.  Set before the server boots: its thread and the pool
        # workers inherit it.
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
        super().setup()
        self.boots = 0
        self.boot_s: list[float] = []
        self.server = self._boot()

    def _boot(self) -> BackgroundServer:
        """A server whose pool workers are already forked and imported."""
        start = time.perf_counter()
        self.boots += 1
        service = SweepService(
            workers=2,
            cache=ResultCache(Path(self.tmp.name) / f"cache{self.boots}"),
            queue_depth=16,
        )
        server = BackgroundServer(service).__enter__()
        for n in range(2):  # one untimed job per pool worker
            self._cold(server, self._payload(-1 - n), Tracer(enabled=False))
        self.boot_s.append(time.perf_counter() - start)
        return server

    def _payload(self, index: int) -> dict:
        return {
            "label": f"ladder-{index}",
            "config": {
                "n_procs": 16,
                "protocol": "limitless",
                "max_cycles": 2_000_000,
                # a distinct seed is a distinct cache key: every job is cold
                "seed": self.seed * 1_000 + index + 10,
            },
            "workload": {"name": "hotspot", "params": {"rounds": 2}},
        }

    @staticmethod
    def _request(server, method: str, path: str, body=None):
        conn = http.client.HTTPConnection(server.host, server.port, timeout=120)
        try:
            conn.request(method, path, json.dumps(body) if body is not None else None)
            response = conn.getresponse()
            return response.status, response.read()
        finally:
            conn.close()

    def _cold(self, server, payload, tracer: Tracer) -> dict:
        """Submit and follow to completion; raises on any protocol error."""
        start = time.perf_counter()
        with tracer.span("submit"):
            status, body = self._request(server, "POST", "/jobs", payload)
        submitted = time.perf_counter()
        if status not in (200, 202):
            raise RuntimeError(f"cold submit answered {status}")
        job_id = json.loads(body)["job"]["id"]
        with tracer.span("stream"):
            status, body = self._request(server, "GET", f"/jobs/{job_id}/stream")
        end = time.perf_counter()
        if status != 200:
            raise RuntimeError(f"stream answered {status}")
        final = json.loads(body.splitlines()[-1])
        if final.get("event") != "job" or final.get("state") != "done":
            raise RuntimeError(f"cold job ended {final.get('state')!r}")
        job = final["job"]
        return {
            "client_s": end - start,
            "submit_s": submitted - start,
            "stream_s": end - submitted,
            "service_s": job["service_seconds"],
            "sim_s": job["results"][0]["wall_seconds"],
            "cycles": job["results"][0]["cycles"],
        }

    def _warm(self, server, payload, cycles: int) -> float:
        start = time.perf_counter()
        status, body = self._request(server, "POST", "/jobs", payload)
        elapsed = time.perf_counter() - start
        if status != 200:
            raise RuntimeError(f"warm submit answered {status}")
        job = json.loads(body)["job"]
        if not job["warm"] or job["state"] != "done":
            raise RuntimeError("warm reply not flagged warm")
        if job["results"][0]["cycles"] != cycles:
            raise RuntimeError("warm cycles differ from the cold reply")
        return elapsed

    def traced_repeat(self, tracer: Tracer) -> Repeat:
        server = self.server or self._boot()
        self.server = None  # each repeat consumes one fresh server
        cold, warm, errors, cycles = [], [], [], []
        try:
            with tracer.span("repeat") as span:
                start = time.perf_counter()
                for index in range(self.size["serve_cold"]):
                    payload = self._payload(index)
                    with tracer.span("request", index=index):
                        try:
                            sample = self._cold(server, payload, tracer)
                        except (RuntimeError, OSError, ValueError, KeyError) as exc:
                            errors.append(f"cold {index}: {exc}")
                            # its warm follow-ups cannot succeed either
                            errors += [f"warm {index}: no cold result"] * WARM_PER_COLD
                            continue
                    cold.append(sample)
                    cycles.append(sample["cycles"])
                    for _ in range(WARM_PER_COLD):
                        try:
                            with tracer.span("request", index=index, warm=True):
                                warm.append(
                                    self._warm(server, payload, sample["cycles"])
                                )
                        except (RuntimeError, OSError, ValueError, KeyError) as exc:
                            errors.append(f"warm {index}: {exc}")
                wall = time.perf_counter() - start
            metrics = json.loads(self._request(server, "GET", "/metrics")[1])
        finally:
            server.shutdown()
        return Repeat(
            wall,
            sum(cycles),
            _sha(cycles),
            attempted=self.size["serve_cold"] * (1 + WARM_PER_COLD),
            errors=errors,
            counts={
                "machine.sim_cycles": sum(cycles),
                "machine.points_executed": len(cold),
                # the two boot jobs went through the pool and the cache too
                "serve.pool_invocations": metrics["pool_invocations"],
                "serve.cache_hit_ratio": metrics["cache_hit_ratio"],
            },
            detail={"cold": cold, "warm": warm},
        )

    def client_metrics(self, repeats: list[Repeat]) -> dict[str, float]:
        """Pooled client-side latencies of every repeat's samples, in ms."""
        cold = [s for r in repeats for s in r.detail["cold"]]
        warm = [w * 1e3 for r in repeats for w in r.detail["warm"]]
        metrics = {"serve.boot_s": statistics.median(self.boot_s)}
        if not cold or not warm:
            return metrics

        def med(key: str) -> float:
            return statistics.median(s[key] for s in cold) * 1e3

        client = [s["client_s"] * 1e3 for s in cold]
        metrics.update({
            "serve.cold_p50_ms": percentile(client, 50),
            "serve.cold_p95_ms": percentile(client, 95),
            "serve.warm_p50_ms": percentile(warm, 50),
            "serve.warm_p99_ms": percentile(warm, 99),
            "serve.submit_ms": med("submit_s"),
            "serve.stream_ms": med("stream_s"),
            "serve.cold_client_ms": med("client_s"),
            "serve.cold_service_ms": med("service_s"),
            "serve.cold_sim_ms": med("sim_s"),
            "serve.cold_overhead_ms": statistics.median(
                s["client_s"] - s["sim_s"] for s in cold
            ) * 1e3,
            "serve.warm_client_ms": statistics.median(warm),
        })
        return metrics

    def close(self) -> None:
        if self.server is not None:
            self.server.shutdown()
        super().close()


WORKLOADS = {
    cls.name: cls
    for cls in (
        Figures64, Figures64Native, HitStorm64, PacketStorm,
        ReadShare64, WriteShare64, ServeMix,
    )
}

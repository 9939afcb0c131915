"""Spans and profile bucketing for the traced run.

The harness, not the program, owns the trace: spans are recorded around
public calls into each ``src/repro`` package and kept in memory until
the benchmark writes them out, and ``cProfile`` rows are bucketed by
source path into the same package names, so "layer" means the same
thing in both views.
"""

from __future__ import annotations

import cProfile
import time
from contextlib import contextmanager, nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[2]
SRC = ROOT / "src" / "repro"
BENCH = Path(__file__).resolve().parent

#: ``src/repro`` package -> layer.  Every package must appear here (the
#: selftest compares this against the directory listing), so a new
#: package cannot land silently in ``other``.  Packages that are off the
#: run path on every workload are named and sent to ``other`` on purpose.
PACKAGE_LAYER = {
    "sim": "sim",
    "backend": "backend",
    "network": "network",
    "cache": "cache",
    "coherence": "coherence",
    "mem": "mem",
    "proc": "proc",
    "sync": "sync",
    "workloads": "workloads",
    "stats": "stats",
    "verify": "verify",
    "machine": "machine",
    "sweep": "sweep",
    "serve": "serve",
    "experiments": "other",
    "extensions": "other",
    "faults": "other",
    "model": "other",
    "modelcheck": "other",
    "profiling": "other",
    "recover": "other",
}

#: layers reported as ``<layer>.self_s`` / ``<layer>.calls``
LAYERS = (
    "sim", "backend", "backend.native", "network", "cache", "coherence",
    "mem", "proc", "sync", "workloads", "stats", "verify", "machine",
    "sweep", "serve", "bench", "other",
)


def layer_of(code) -> str:
    """The layer a cProfile row belongs to.

    ``code`` is a code object, or for C functions the string cProfile
    shows for them; compiled-extension frames carry ``_native`` there.
    """
    if isinstance(code, str):
        return "backend.native" if "_native" in code else "other"
    path = Path(code.co_filename)
    if path.is_relative_to(SRC):
        parts = path.relative_to(SRC).parts
        # top-level modules (cli.py, __init__.py) have no package
        return PACKAGE_LAYER.get(parts[0], "other") if len(parts) > 1 else "other"
    if path.is_relative_to(BENCH):
        return "bench"
    return "other"


class Tracer:
    """In-memory span recorder; a disabled tracer records nothing."""

    def __init__(self, enabled: bool = True):
        self.enabled = enabled
        self.spans: list[dict] = []
        self._open: list[int] = []

    def span(self, name: str, **attrs):
        return self._span(name, attrs) if self.enabled else nullcontext()

    @contextmanager
    def _span(self, name: str, attrs: dict):
        record = {
            "id": len(self.spans),
            "name": name,
            "parent": self._open[-1] if self._open else None,
            "start": time.perf_counter(),
            "end": None,
            **attrs,
        }
        self.spans.append(record)
        self._open.append(record["id"])
        try:
            yield record
        finally:
            self._open.pop()
            record["end"] = time.perf_counter()

    def durations(self, root: int) -> tuple[dict[str, float], float]:
        """Under span ``root``: seconds per leaf-span name, and the
        seconds no leaf span covers (the self time of ``root`` and of
        every span that has children)."""
        children: dict[int, list[dict]] = {}
        for span in self.spans:
            children.setdefault(span["parent"], []).append(span)
        by_name: dict[str, float] = {}
        uncovered = 0.0
        pending = [self.spans[root]]
        while pending:
            span = pending.pop()
            length = span["end"] - span["start"]
            kids = children.get(span["id"], [])
            if kids:
                uncovered += length - sum(k["end"] - k["start"] for k in kids)
                pending.extend(kids)
            else:
                by_name[span["name"]] = by_name.get(span["name"], 0.0) + length
        return by_name, uncovered


def malformed_spans(spans: list[dict]) -> list[str]:
    """Reasons the span list is not one well-formed tree (empty = fine)."""
    problems = []
    roots = [s for s in spans if s["parent"] is None]
    if len(roots) != 1:
        problems.append(f"{len(roots)} root spans, expected 1")
    for span in spans:
        if span["end"] is None or span["end"] < span["start"]:
            problems.append(f"span {span['id']} ({span['name']}) never closed")
            continue
        if span["parent"] is None:
            continue
        parent = spans[span["parent"]]
        if parent["id"] >= span["id"]:
            problems.append(f"span {span['id']} precedes its parent")
        elif not (parent["start"] <= span["start"] and span["end"] <= parent["end"]):
            problems.append(
                f"span {span['id']} ({span['name']}) leaves its parent "
                f"{parent['id']} ({parent['name']})"
            )
    return problems


@contextmanager
def profiled(into: dict):
    """Run the block under cProfile; fill ``into`` with per-layer self
    seconds and call counts plus the block's wall time."""
    profiler = cProfile.Profile()
    start = time.perf_counter()
    profiler.enable()
    try:
        yield
    finally:
        profiler.disable()
        into["wall_s"] = time.perf_counter() - start
        self_s = dict.fromkeys(LAYERS, 0.0)
        calls = dict.fromkeys(LAYERS, 0)
        for row in profiler.getstats():
            layer = layer_of(row.code)
            self_s[layer] += row.inlinetime
            calls[layer] += row.callcount
        into["self_s"] = self_s
        into["calls"] = calls

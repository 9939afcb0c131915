"""Process-level chaos: seeded SIGKILLs with a bit-identical oracle.

These are real forked processes dying under real signals, so the tests
keep the grid tiny; the full campaign runs in CI's recovery-smoke job
and via ``repro faults --process-chaos``.
"""

from __future__ import annotations

import pytest

from repro.recover.chaos import chaos_points, run_chaos_campaign

pytestmark = pytest.mark.skipif(
    "fork" not in __import__("multiprocessing").get_all_start_methods(),
    reason="chaos campaign forks its victims",
)


def _campaign(tmp_path, *, protocols=("limitless",), kills=1):
    points = chaos_points(
        procs=8, protocols=protocols, workloads=("weather",), iters=1
    )
    return run_chaos_campaign(
        points,
        kills=kills,
        seed=3,
        every=200,
        kill_window=(0.01, 0.08),
        workdir=str(tmp_path),
        out=None,
        echo=lambda _line: None,
    )


def test_process_kill_recovers_bit_identical(tmp_path):
    report = _campaign(tmp_path, protocols=("fullmap", "limitless"))
    assert report["summary"]["points"] == 2
    assert report["summary"]["failed"] == 0, report["points"]
    for row in report["points"]:
        assert row["recovered"], row


def test_zero_kills_matches_golden(tmp_path):
    """The chaos harness itself must not perturb results."""
    report = _campaign(tmp_path, kills=0)
    row = report["points"][0]
    assert row["recovered"] and row["kills_delivered"] == 0, row

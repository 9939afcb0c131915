"""Tests for the parallel cached sweep runner and the figure grids."""

from __future__ import annotations

import json
from types import SimpleNamespace

import pytest

import repro.sweep.grids as grids_module
from repro.machine import AlewifeConfig
from repro.sweep import (
    FIGURE_CLAIMS,
    Job,
    ResultCache,
    WorkloadSpec,
    check_claims,
    figure_grids,
    run_figure_suite,
    run_jobs,
)
from repro.sweep.cli import main as sweep_main


def small_job(label="full", protocol="fullmap", rounds=2, **overrides) -> Job:
    config = AlewifeConfig(
        n_procs=4, protocol=protocol, max_cycles=2_000_000, **overrides
    )
    return Job(label, config, WorkloadSpec("hotspot", {"rounds": rounds}))


class TestRunJobs:
    def test_runs_jobs_in_order(self):
        jobs = [small_job("a"), small_job("b", protocol="limited", pointers=1)]
        results = run_jobs(jobs)
        assert [r.job.label for r in results] == ["a", "b"]
        assert all(r.stats.cycles > 0 for r in results)
        assert not any(r.cached for r in results)

    def test_identical_jobs_simulate_once(self):
        jobs = [small_job("first"), small_job("duplicate")]
        results = run_jobs(jobs)
        assert results[0].cached is False
        assert results[1].cached is True
        assert results[1].stats.cycles == results[0].stats.cycles

    def test_cache_hit_on_second_call(self, tmp_path):
        cache = ResultCache(tmp_path)
        first = run_jobs([small_job()], cache=cache)
        assert not first[0].cached
        second = run_jobs([small_job()], cache=cache)
        assert second[0].cached
        assert second[0].stats.cycles == first[0].stats.cycles

    def test_parallel_matches_serial(self, tmp_path):
        jobs = [
            small_job("full"),
            small_job("dir1", protocol="limited", pointers=1),
            small_job("dir2", protocol="limited", pointers=2),
            small_job("ll", protocol="limitless", pointers=1, ts=25),
        ]
        serial = run_jobs(jobs)
        parallel = run_jobs(jobs, workers=2)
        assert [r.stats.cycles for r in serial] == [r.stats.cycles for r in parallel]
        assert [r.stats.network.packets for r in serial] == (
            [r.stats.network.packets for r in parallel]
        )

    def test_progress_fires_once_per_job(self):
        seen = []
        jobs = [small_job("a"), small_job("a-dup")]
        run_jobs(jobs, progress=lambda r, done, total: seen.append((done, total)))
        assert sorted(seen) == [(1, 2), (2, 2)]


class TestFailuresAndTimeouts:
    def test_worker_exception_raises_by_default(self, monkeypatch):
        import repro.sweep.runner as runner

        def boom(config, workload):
            raise ValueError("injected failure")

        monkeypatch.setattr(runner, "run_experiment", boom)
        with pytest.raises(RuntimeError, match="grid point 'a' failed.*injected"):
            run_jobs([small_job("a")])

    def test_on_error_record_returns_failed_result(self, monkeypatch, tmp_path):
        import repro.sweep.runner as runner

        def boom(config, workload):
            raise ValueError("injected failure")

        monkeypatch.setattr(runner, "run_experiment", boom)
        cache = ResultCache(tmp_path)
        (result,) = run_jobs([small_job()], cache=cache, on_error="record")
        assert not result.ok
        assert result.stats is None
        assert result.error == "ValueError: injected failure"
        # Failed points must never poison the cache.
        assert cache.stores == 0

    def test_duplicates_inherit_their_primary_error(self, monkeypatch):
        import repro.sweep.runner as runner

        monkeypatch.setattr(
            runner,
            "run_experiment",
            lambda c, w: (_ for _ in ()).throw(ValueError("nope")),
        )
        results = run_jobs(
            [small_job("first"), small_job("dup")], on_error="record"
        )
        assert [r.ok for r in results] == [False, False]
        assert results[1].cached and results[1].error == results[0].error

    def test_timeout_reclaims_a_hung_point(self, monkeypatch):
        import time as time_module

        import repro.sweep.runner as runner

        def hang(config, workload):
            time_module.sleep(10)

        monkeypatch.setattr(runner, "run_experiment", hang)
        (result,) = run_jobs([small_job()], timeout=1, on_error="record")
        assert not result.ok
        assert "JobTimeout" in result.error
        assert result.wall_seconds < 5

    def test_invalid_on_error_rejected(self):
        with pytest.raises(ValueError, match="on_error"):
            run_jobs([small_job()], on_error="ignore")

    def test_progress_printer_reports_failures(self, monkeypatch):
        import io

        import repro.sweep.runner as runner

        monkeypatch.setattr(
            runner,
            "run_experiment",
            lambda c, w: (_ for _ in ()).throw(ValueError("boom")),
        )
        stream = io.StringIO()
        run_jobs(
            [small_job()],
            on_error="record",
            progress=runner.ProgressPrinter(stream),
        )
        assert "FAILED: ValueError: boom" in stream.getvalue()


class TestProgressTracker:
    """Structured progress records with the ETA guards the serve layer
    relies on."""

    @staticmethod
    def fake_result(label="p", cached=False, wall=1.0, cycles=100, error=None):
        from unittest.mock import Mock

        from repro.sweep.runner import JobResult

        stats = None if error else Mock(cycles=cycles)
        return JobResult(
            Mock(label=label), stats, cached, wall, "k" * 8, error=error
        )

    def test_no_eta_before_first_execution(self):
        from repro.sweep.runner import ProgressTracker

        tracker = ProgressTracker()
        record = tracker.record(self.fake_result(cached=True, wall=0.0), 1, 3)
        assert record["eta_seconds"] is None  # executed == 0: no rate yet
        assert record["cached"] is True

    def test_eta_appears_after_execution_and_clamps_nonnegative(self):
        from repro.sweep.runner import ProgressTracker

        tracker = ProgressTracker()
        tracker.record(self.fake_result(wall=2.0), 1, 3)
        record = tracker.record(self.fake_result(wall=4.0), 2, 3)
        assert record["eta_seconds"] == pytest.approx(3.0)  # mean 3s x 1 left
        final = tracker.record(self.fake_result(wall=1.0), 3, 3)
        assert final["eta_seconds"] == 0.0  # nothing remaining

    def test_zero_wall_executions_do_not_divide_by_zero(self):
        from repro.sweep.runner import ProgressTracker

        tracker = ProgressTracker()
        record = tracker.record(self.fake_result(wall=0.0), 1, 5)
        assert record["eta_seconds"] == 0.0
        # Negative wall clocks (clock skew) clamp instead of going negative.
        record = tracker.record(self.fake_result(wall=-1.0), 2, 5)
        assert record["eta_seconds"] == 0.0
        assert record["wall_seconds"] == 0.0

    def test_record_is_json_serializable(self):
        from repro.sweep.runner import ProgressTracker

        tracker = ProgressTracker()
        record = tracker.record(self.fake_result(), 1, 2)
        parsed = json.loads(json.dumps(record))
        assert parsed["event"] == "point"
        assert parsed["label"] == "p"
        assert parsed["cycles"] == 100

    def test_failed_point_record(self):
        from repro.sweep.runner import ProgressTracker

        tracker = ProgressTracker()
        record = tracker.record(
            self.fake_result(error="ValueError: boom"), 1, 1
        )
        assert record["ok"] is False
        assert record["cycles"] is None
        assert "boom" in ProgressTracker.describe(record)

    def test_printer_derives_line_from_record(self):
        import io

        from repro.sweep.runner import ProgressPrinter

        stream = io.StringIO()
        printer = ProgressPrinter(stream)
        printer(self.fake_result(label="weather", cycles=1234), 1, 2)
        assert len(printer.records) == 1
        line = stream.getvalue()
        assert "[1/2]" in line and "weather" in line and "1,234" in line


class TestFigureGrids:
    def test_grid_titles_cover_the_evaluation(self):
        grids = figure_grids(8, 2)
        titles = " ".join(grids)
        for fragment in ("Figure 7", "Figure 8", "Figure 9", "Figure 10", "5.2"):
            assert fragment in titles

    def test_shared_baselines_dedupe(self):
        from repro.sweep import job_key

        grids = figure_grids(8, 2)
        jobs = [job for js in grids.values() for job in js]
        keys = {job_key(j.config, j.workload, "fp") for j in jobs}
        # Full-Map/Weather and Dir4NB/Weather repeat across figures.
        assert len(keys) < len(jobs)

    def test_figure8_small_scale_keeps_ordering(self):
        jobs = figure_grids(16, 3)["Figure 8: Weather, limited and full-map"]
        cycles = {r.job.label: r.stats.cycles for r in run_jobs(jobs)}
        assert cycles["Dir1NB"] >= cycles["Dir4NB"] > cycles["Full-Map"]

    def test_run_figure_suite_writes_artifact(self, tmp_path):
        out = tmp_path / "BENCH_figures.json"
        artifact = run_figure_suite(
            4,
            2,
            cache=ResultCache(tmp_path / "cache"),
            only=["Figure 7"],
            out=out,
            echo=lambda line: None,
        )
        assert out.is_file()
        on_disk = json.loads(out.read_text())
        assert on_disk["figures"][0]["title"].startswith("Figure 7")
        rows = on_disk["figures"][0]["rows"]
        assert len(rows) == 4
        assert all(row["cycles"] > 0 for row in rows)
        assert artifact["simulated"] + artifact["reused"] == len(rows)

    def test_unknown_figure_filter_raises(self):
        with pytest.raises(ValueError, match="no figure matches"):
            run_figure_suite(4, 2, only=["Figure 99"], echo=lambda line: None)

    def test_optimized_figure_compares_against_its_full_map(self, tmp_path):
        lines = []
        run_figure_suite(
            4, 2, cache=ResultCache(tmp_path), only=["5.2"], echo=lines.append
        )
        assert "vs Full-Map" in "\n".join(lines)


#: ``figure_grids(64, 8)`` at seed 42, (cycles, traps) per row: the
#: figures as EXPERIMENTS.md records them.
RECORDED_64 = {
    "Figure 7: Static Multigrid": {
        "Dir4NB": (7_526, 0),
        "LimitLESS4 Ts=100": (9_079, 70),
        "LimitLESS4 Ts=50": (8_222, 68),
        "Full-Map": (7_600, 0),
    },
    "Figure 8: Weather, limited and full-map": {
        "Dir1NB": (38_694, 0),
        "Dir2NB": (37_240, 0),
        "Dir4NB": (18_015, 0),
        "Full-Map": (8_176, 0),
    },
    "§5.2: optimized Weather": {
        "Dir4NB (optimized)": (7_432, 0),
        "Full-Map (optimized)": (7_751, 0),
    },
    "Figure 9: Weather, LimitLESS Ts sweep": {
        "Dir4NB": (18_015, 0),
        "LimitLESS4 Ts=150": (12_274, 80),
        "LimitLESS4 Ts=100": (10_608, 76),
        "LimitLESS4 Ts=50": (9_271, 82),
        "LimitLESS4 Ts=25": (8_613, 74),
        "Full-Map": (8_176, 0),
    },
    "Figure 10: Weather, pointer sweep": {
        "Dir4NB": (18_015, 0),
        "LimitLESS1 Ts=50": (12_301, 1_405),
        "LimitLESS2 Ts=50": (10_443, 342),
        "LimitLESS4 Ts=50": (9_271, 82),
        "Full-Map": (8_176, 0),
    },
    "Ablation: exact vs approximation": {
        "LimitLESS4 exact": (9_271, 82),
        "LimitLESS4 approx": (9_627, 80),
        "Full-Map": (8_176, 0),
    },
}

#: Per claim (figure, index into its FIGURE_CLAIMS list), rows moved so
#: that this claim fails and every other still holds.  One number each,
#: except Figure 9's Ts=50 bound: Ts=50 <= Ts=100 = 1.30x Full-Map keeps
#: it inside 1.40x unless Ts=100 moves too.
BREAKS = [
    ("Figure 7: Static Multigrid", 0, {"Full-Map": (20_000, 0)}),
    ("Figure 8: Weather, limited and full-map", 0, {"Dir2NB": (40_000, 0)}),
    ("§5.2: optimized Weather", 0, {"Dir4NB (optimized)": (9_000, 0)}),
    ("Figure 9: Weather, LimitLESS Ts sweep", 0, {"Dir4NB": (12_000, 0)}),
    ("Figure 9: Weather, LimitLESS Ts sweep", 1, {"Full-Map": (6_800, 0)}),
    (
        "Figure 9: Weather, LimitLESS Ts sweep",
        2,
        {"LimitLESS4 Ts=50": (11_500, 82), "LimitLESS4 Ts=100": (12_000, 76)},
    ),
    ("Figure 9: Weather, LimitLESS Ts sweep", 3, {"LimitLESS4 Ts=100": (12_500, 76)}),
    ("Figure 10: Weather, pointer sweep", 0, {"Dir4NB": (12_000, 0)}),
    ("Figure 10: Weather, pointer sweep", 1, {"LimitLESS1 Ts=50": (11_000, 1_405)}),
    ("Figure 10: Weather, pointer sweep", 2, {"LimitLESS4 Ts=50": (9_271, 400)}),
    ("Ablation: exact vs approximation", 0, {"LimitLESS4 approx": (12_000, 80)}),
]


def recorded_rows(title, **moved):
    table = {**RECORDED_64[title], **moved}
    return {
        label: SimpleNamespace(cycles=cycles, traps_taken=traps)
        for label, (cycles, traps) in table.items()
    }


class TestFigureClaims:
    def test_claims_cover_every_figure_in_order(self):
        assert list(FIGURE_CLAIMS) == list(figure_grids(8, 2))
        for title, jobs in figure_grids(8, 2).items():
            assert list(RECORDED_64[title]) == [job.label for job in jobs]

    def test_every_claim_holds_on_the_recorded_figures(self):
        for title in FIGURE_CLAIMS:
            verdicts = check_claims(title, recorded_rows(title))
            assert all(verdicts.values()), (title, verdicts)

    def test_every_claim_has_a_break(self):
        assert [(title, index) for title, index, _ in BREAKS] == [
            (title, index)
            for title, claims in FIGURE_CLAIMS.items()
            for index in range(len(claims))
        ]

    @pytest.mark.parametrize(
        "title,index,moved", BREAKS, ids=[f"{t[:9]}-{i}" for t, i, _ in BREAKS]
    )
    def test_moving_a_number_breaks_only_its_claim(self, title, index, moved):
        verdicts = check_claims(title, recorded_rows(title, **moved))
        assert [i for i, holds in enumerate(verdicts.values()) if not holds] == [index]

    def test_claims_not_checked_off_the_papers_machine(self, tmp_path):
        lines = []
        artifact = run_figure_suite(
            4, 2, cache=ResultCache(tmp_path), only=["5.2"], echo=lines.append
        )
        assert artifact["figures"][0]["claims"] is None
        assert any("claims not checked" in line for line in lines)
        assert not any(line.startswith("claims:") for line in lines)

    def test_verdict_per_figure_on_the_papers_machine(self, tmp_path, monkeypatch):
        monkeypatch.setattr(grids_module, "CLAIMS_PROCS", 4)
        lines = []
        artifact = run_figure_suite(
            4,
            2,
            cache=ResultCache(tmp_path),
            only=["5.2", "Figure 7"],
            echo=lines.append,
        )
        for figure in artifact["figures"]:
            assert list(figure["claims"]) == [
                claim for claim, _ in FIGURE_CLAIMS[figure["title"]]
            ]
        verdict_lines = [line for line in lines if line.startswith("claims:")]
        assert len(verdict_lines) == 2
        assert not any("not checked" in line for line in lines)


class TestSweepCli:
    def test_list_prints_grids(self, capsys):
        assert sweep_main(["--list", "--procs", "4", "--iters", "2"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "multigrid" in out

    def test_small_run_end_to_end(self, tmp_path, capsys):
        out = tmp_path / "BENCH_figures.json"
        code = sweep_main(
            [
                "--procs", "4",
                "--iters", "2",
                "--figures", "5.2",
                "--cache-dir", str(tmp_path / "cache"),
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.is_file()
        assert "optimized Weather" in capsys.readouterr().out

    def test_no_cache_writes_nothing_into_the_cache(self, tmp_path, capsys):
        cache_dir = tmp_path / "cache"
        code = sweep_main(
            [
                "--procs", "4",
                "--iters", "2",
                "--figures", "5.2",
                "--no-cache",
                "--cache-dir", str(cache_dir),
                "--out", "",
            ]
        )
        assert code == 0
        assert not cache_dir.exists()

    def test_resume_without_cache_is_an_error(self, tmp_path, capsys):
        code = sweep_main(
            ["--resume", "--no-cache", "--cache-dir", str(tmp_path), "--out", ""]
        )
        assert code == 2
        assert "--no-cache" in capsys.readouterr().out

    def test_unknown_figure_errors(self, tmp_path, capsys):
        code = sweep_main(
            ["--figures", "nope", "--cache-dir", str(tmp_path), "--out", ""]
        )
        assert code == 2

    def test_clear_cache(self, tmp_path, capsys):
        code = sweep_main(["--clear-cache", "--cache-dir", str(tmp_path)])
        assert code == 0
        assert "removed" in capsys.readouterr().out

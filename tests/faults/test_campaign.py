"""Tests for the chaos-campaign grid and the ``repro faults`` CLI."""

from __future__ import annotations

import json

import pytest

from repro.faults.campaign import campaign_jobs, classify_error, run_campaign
from repro.faults.cli import main as faults_main


class TestGrid:
    def test_grid_is_the_full_cross_product(self):
        jobs = campaign_jobs(
            procs=4,
            protocols=["fullmap", "limited"],
            workloads=["weather", "synthetic"],
            rates=[1e-3, 1e-2],
            seeds=[0, 1, 2],
        )
        assert len(jobs) == 2 * 2 * 2 * 3
        assert len({job.label for job in jobs}) == len(jobs)

    def test_rates_land_in_the_config(self):
        (job,) = campaign_jobs(
            procs=4,
            protocols=["fullmap"],
            workloads=["weather"],
            rates=[2e-3],
            seeds=[7],
            corrupt_rate=1e-4,
            stall_rate=0.1,
        )
        cfg = job.config
        assert cfg.fault_drop_rate == cfg.fault_dup_rate == 2e-3
        assert cfg.fault_delay_rate == 2e-3
        assert cfg.fault_corrupt_rate == 1e-4
        assert cfg.fault_stall_rate == 0.1
        assert cfg.seed == 7

    def test_unknown_workload_raises(self):
        with pytest.raises(ValueError, match="unknown workload 'nope'"):
            campaign_jobs(procs=4, workloads=["nope"])


class TestClassify:
    def test_buckets(self):
        assert classify_error(None) == "survived"
        assert classify_error("CoherenceViolation: block 0x0 ...") == "violation"
        assert classify_error("LivenessError: no forward progress") == "liveness"
        assert classify_error("JobTimeout: exceeded 5s wall clock") == "timeout"
        assert classify_error("ZeroDivisionError: boom") == "crash"


class TestRunCampaign:
    def test_small_campaign_survives_and_writes_report(self, tmp_path):
        out = tmp_path / "BENCH_faults.json"
        lines: list[str] = []
        report = run_campaign(
            procs=4,
            protocols=["fullmap", "limited"],
            workloads=["weather"],
            rates=[5e-3],
            seeds=[0, 1],
            iters=1,
            out=out,
            echo=lines.append,
        )
        assert report["summary"]["points"] == 4
        assert report["summary"]["failed"] == 0
        assert report["summary"]["by_protocol"]["fullmap"]["survived"] == 2
        on_disk = json.loads(out.read_text())
        assert on_disk["summary"] == report["summary"]
        point = on_disk["points"][0]
        assert point["outcome"] == "survived"
        assert point["cycles"] > 0
        assert "retransmissions" in point
        assert any("survived" in line for line in lines)

    def test_failed_points_are_recorded_not_raised(self, tmp_path, monkeypatch):
        # A 1.0 drop rate wedges every run; the watchdog converts that to
        # a LivenessError, which must land in the report as a failure.
        report = run_campaign(
            procs=4,
            protocols=["fullmap"],
            workloads=["weather"],
            rates=[1.0],
            seeds=[0],
            iters=1,
            timeout=60.0,
            out=tmp_path / "r.json",
            echo=lambda line: None,
        )
        assert report["summary"]["failed"] == 1
        (point,) = report["points"]
        assert point["outcome"] == "liveness"
        assert "LivenessError" in point["error"]


class TestCli:
    def test_cli_end_to_end_exit_zero(self, tmp_path, capsys):
        out = tmp_path / "BENCH_faults.json"
        code = faults_main(
            [
                "--procs", "4",
                "--protocols", "fullmap",
                "--workloads", "weather",
                "--rates", "0.005",
                "--seeds", "0",
                "--iters", "1",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert out.is_file()
        assert "survived" in capsys.readouterr().out

    def test_cli_exit_one_on_failure(self, tmp_path, capsys):
        code = faults_main(
            [
                "--procs", "4",
                "--protocols", "fullmap",
                "--workloads", "weather",
                "--rates", "1.0",
                "--seeds", "0",
                "--iters", "1",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 1

    def test_unknown_workload_is_exit_2_not_a_traceback(self, capsys):
        with pytest.raises(SystemExit) as exit_info:
            faults_main(["--workloads", "bogus"])
        assert exit_info.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'bogus'" in err
        assert "weather-optimized" in err

    def test_registered_as_repro_subcommand(self, tmp_path, capsys):
        from repro.cli import main as repro_main

        code = repro_main(
            [
                "faults",
                "--procs", "4",
                "--protocols", "fullmap",
                "--workloads", "weather",
                "--rates", "0.002",
                "--seeds", "0",
                "--iters", "1",
                "--out", str(tmp_path / "r.json"),
            ]
        )
        assert code == 0

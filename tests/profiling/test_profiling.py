"""The unified profiling layer: harness, folded stacks, CLI, shim."""

from __future__ import annotations

import json

import pytest

from repro.cli import main as cli_main
from repro.machine import AlewifeConfig
from repro.profiling import ProfileReport, folded_stacks, profile_run
from repro.workloads import HotSpotWorkload


class TestFoldedStacks:
    def test_dominant_caller_chain(self):
        # cProfile raw stats: func -> (cc, nc, tt, ct, callers)
        main = ("app.py", 1, "main")
        work = ("app.py", 10, "work")
        leaf = ("app.py", 20, "leaf")
        raw = {
            main: (1, 1, 0.0, 3.0, {}),
            work: (1, 1, 1.0, 3.0, {main: (1, 1, 1.0, 3.0)}),
            leaf: (5, 5, 2.0, 2.0, {work: (5, 5, 2.0, 2.0)}),
        }
        lines = folded_stacks(raw)
        assert "app.py:1:main;app.py:10:work;app.py:20:leaf 2000000" in lines
        assert "app.py:1:main;app.py:10:work 1000000" in lines
        # main has tt == 0: no line of its own
        assert not any(line.startswith("app.py:1:main ") for line in lines)

    def test_caller_cycle_terminates(self):
        a = ("x.py", 1, "a")
        b = ("x.py", 2, "b")
        raw = {
            a: (1, 1, 1.0, 2.0, {b: (1, 1, 1.0, 2.0)}),
            b: (1, 1, 0.5, 2.0, {a: (1, 1, 0.5, 2.0)}),
        }
        lines = folded_stacks(raw)  # must not loop forever
        assert len(lines) == 2


def _small_config(**overrides) -> AlewifeConfig:
    defaults = dict(n_procs=8, protocol="limitless", pointers=2, ts=50)
    defaults.update(overrides)
    return AlewifeConfig(**defaults)


class TestProfileRun:
    def test_report_contents(self):
        report = profile_run(
            _small_config(),
            HotSpotWorkload(rounds=3),
            top=5,
            alloc_top=3,
            folded=True,
            worker_sets=True,
        )
        assert isinstance(report, ProfileReport)
        assert report.stats.cycles > 0
        assert report.events_per_sec > 0
        assert len(report.hot) == 5
        assert report.allocations  # tracemalloc saw the run
        att = report.attribution
        assert att["cycle_budget"] == report.stats.cycles * 8
        assert 0 < att["cpu_busy_cycles"] <= att["cycle_budget"]
        assert report.pool["enabled"] == 1
        assert report.pool["recycled"] > 0
        assert report.folded and all(" " in line for line in report.folded)
        assert report.worker_sets  # the hot block overflowed 2 pointers
        rendered = report.render()
        assert "cycle attribution" in rendered
        assert "packet pool" in rendered
        json.dumps(report.to_dict())  # must be serializable

    def test_pool_off_profile(self):
        report = profile_run(
            _small_config(packet_pool=False),
            HotSpotWorkload(rounds=2),
            alloc_top=0,
        )
        assert report.pool["enabled"] == 0
        assert report.pool["recycled"] == 0
        assert report.allocations == []


class TestProfileCli:
    def test_subcommand_smoke(self, capsys, tmp_path):
        out = tmp_path / "profile.json"
        rc = cli_main(
            [
                "profile",
                "--workload",
                "hotspot",
                "--procs",
                "8",
                "--iterations",
                "2",
                "--top",
                "4",
                "--alloc-top",
                "0",
                "--out",
                str(out),
            ]
        )
        assert rc == 0
        printed = capsys.readouterr().out
        assert "cycle attribution" in printed
        assert "hot function" in printed
        report = json.loads(out.read_text())
        assert report["events_per_sec"] > 0
        assert report["cycle_attribution"]["simulated_cycles"] == report["cycles"]

    def test_help_lists_profile(self, capsys):
        with pytest.raises(SystemExit):
            cli_main(["--help"])
        assert "profile" in capsys.readouterr().out


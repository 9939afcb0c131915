"""Tests for the command-line experiment runner."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.faults.campaign import campaign_jobs
from repro.sweep.spec import SCALED_WORKLOADS, WorkloadSpec, scaled_workload


class TestParser:
    def test_defaults(self):
        args = build_parser().parse_args([])
        assert args.protocol == "limitless"
        assert args.workload == "weather"
        assert args.procs == 64

    def test_rejects_unknown_protocol(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--protocol", "mesi"])

    def test_rejects_unknown_workload(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["--workload", "linpack"])

    def test_workload_factories_build(self):
        for name in SCALED_WORKLOADS:
            assert scaled_workload(name, 8, 2).build().describe()


class _Built(Exception):
    """Raised by a stubbed ``WorkloadSpec.build`` to stop a run early."""


class TestOneScalingTable:
    @pytest.mark.parametrize("procs", [3, 16])
    @pytest.mark.parametrize("name", SCALED_WORKLOADS)
    def test_run_builds_the_campaign_spec(self, monkeypatch, name, procs):
        built: list[WorkloadSpec] = []

        def build(spec):
            built.append(spec)
            raise _Built

        monkeypatch.setattr(WorkloadSpec, "build", build)
        with pytest.raises(_Built):
            main(["run", "--workload", name, "--procs", str(procs),
                  "--iterations", "2"])
        (job,) = campaign_jobs(
            procs=procs, protocols=["limitless"], workloads=[name],
            seeds=[0], iters=2,
        )
        assert built == [job.workload]

    def test_synthetic_keeps_a_worker_set_of_two_on_three_procs(self):
        spec = scaled_workload("synthetic", 3, 2)
        assert spec.params["worker_sets"] == [[2, 4], [2, 1]]


class TestMain:
    def test_list(self, capsys):
        assert main(["--list"]) == 0
        out = capsys.readouterr().out
        assert "limitless" in out
        assert "weather" in out

    def test_single_run(self, capsys):
        code = main(
            [
                "--workload", "hotspot",
                "--procs", "4",
                "--protocol", "fullmap",
                "--iterations", "2",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "Full-Map" in out
        assert "cycles" in out

    def test_compare_prints_chart(self, capsys):
        code = main(
            [
                "--workload", "hotspot",
                "--procs", "4",
                "--iterations", "2",
                "--pointers", "1",
                "--compare", "fullmap", "limited",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "vs base" in out
        assert "#" in out  # the bar chart

    def test_compare_rejects_unknown(self, capsys):
        code = main(
            ["--workload", "hotspot", "--procs", "4", "--compare", "bogus"]
        )
        assert code == 2

    def test_verbose_prints_counters(self, capsys):
        code = main(
            [
                "--workload", "migratory",
                "--procs", "4",
                "--protocol", "fullmap",
                "--iterations", "2",
                "--verbose",
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "hit rate" in out
        assert "worker-set size" in out

    def test_weak_ordering_flag(self, capsys):
        code = main(
            [
                "--workload", "producer-consumer",
                "--procs", "4",
                "--protocol", "fullmap",
                "--iterations", "2",
                "--memory-model", "wo",
            ]
        )
        assert code == 0

    def test_topology_flag(self, capsys):
        code = main(
            [
                "--workload", "hotspot",
                "--procs", "8",
                "--protocol", "fullmap",
                "--iterations", "2",
                "--topology", "omega",
            ]
        )
        assert code == 0

    @pytest.mark.parametrize(
        "flags, message",
        [
            (["run", "--ts", "-5"], "error: ts must be >= 0, got -5"),
            (["run", "--procs", "0"], "error: need at least one processor"),
            (["run", "--pointers", "-1"], "error: pointer count must be >= 0"),
            (["profile", "--backend", "bogus"], "invalid choice: 'bogus'"),
            (["profile", "--ts", "-5"], "error: ts must be >= 0, got -5"),
            (["profile", "--procs", "0"], "error: need at least one processor"),
        ],
    )
    def test_invalid_config_is_exit_2_not_a_traceback(
        self, capsys, flags, message
    ):
        command, *rest = flags
        try:
            code = main([command, "--workload", "hotspot", "--procs", "4", *rest])
        except SystemExit as exc:  # argparse rejects a bad choice itself
            code = exc.code
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--shards", "--shard-workers", "--fabric"])
    def test_removed_sharding_flags_are_unknown(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--workload", "hotspot", "--procs", "4", flag, "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

"""Tests for the command-line experiment runner."""

from __future__ import annotations

import pytest

from repro.cli import WORKLOADS, build_parser, main


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
        args = build_parser().parse_args(["--procs", "8", "--iterations", "2"])
        for name, factory in WORKLOADS.items():
            workload = factory(args)
            assert workload.describe()


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
            (["--ts", "-5"], "error: ts must be >= 0, got -5"),
            (["--procs", "0"], "error: need at least one processor"),
            (["--pointers", "-1"], "error: pointer count must be >= 0"),
        ],
    )
    def test_invalid_config_is_exit_2_not_a_traceback(
        self, capsys, flags, message
    ):
        code = main(["run", "--workload", "hotspot", "--procs", "4", *flags])
        assert code == 2
        assert message in capsys.readouterr().err

    @pytest.mark.parametrize("flag", ["--shards", "--shard-workers", "--fabric"])
    def test_removed_sharding_flags_are_unknown(self, capsys, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["run", "--workload", "hotspot", "--procs", "4", flag, "2"])
        assert exit_info.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

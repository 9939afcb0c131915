"""The CI perf-regression gate in benchmarks/check_perf_regression.py."""

from __future__ import annotations

import importlib.util
import json
import pathlib

_SCRIPT = (
    pathlib.Path(__file__).resolve().parents[2]
    / "benchmarks"
    / "check_perf_regression.py"
)
_spec = importlib.util.spec_from_file_location("check_perf_regression", _SCRIPT)
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)


BASELINE = {"kernel": {"events_per_sec": 100_000}, "hot": {"events_per_sec": 50_000}}


class TestCheck:
    def test_within_tolerance_passes(self):
        fresh = {"kernel": {"events_per_sec": 85_000}, "hot": {"events_per_sec": 60_000}}
        assert gate.check(fresh, BASELINE, 0.20) == []

    def test_regression_fails_with_message(self):
        fresh = {"kernel": {"events_per_sec": 70_000}, "hot": {"events_per_sec": 50_000}}
        problems = gate.check(fresh, BASELINE, 0.20)
        assert len(problems) == 1
        assert "kernel" in problems[0] and "30.0%" in problems[0]

    def test_missing_scenario_fails(self):
        problems = gate.check({"kernel": {"events_per_sec": 100_000}}, BASELINE, 0.20)
        assert problems == ["hot: scenario missing from fresh run"]

    def test_extra_fresh_scenarios_ignored(self):
        fresh = dict(BASELINE, new_scenario={"events_per_sec": 1})
        assert gate.check(fresh, BASELINE, 0.20) == []


class TestEndToEnd:
    def test_main_exit_codes(self, tmp_path, monkeypatch, capsys):
        base = tmp_path / "base.json"
        base.write_text(json.dumps({"scenarios": BASELINE}))
        good = tmp_path / "good.json"
        good.write_text(json.dumps({"scenarios": BASELINE}))
        bad = tmp_path / "bad.json"
        bad.write_text(
            json.dumps({"scenarios": {"kernel": {"events_per_sec": 1}, "hot": {"events_per_sec": 1}}})
        )
        monkeypatch.setattr(
            "sys.argv",
            ["check", "--fresh", str(good), "--baseline", str(base)],
        )
        assert gate.main() == 0
        assert "perf gate passed" in capsys.readouterr().out
        monkeypatch.setattr(
            "sys.argv",
            ["check", "--fresh", str(bad), "--baseline", str(base)],
        )
        assert gate.main() == 1
        assert "FAILED" in capsys.readouterr().err

    def test_committed_baselines_parse(self):
        root = pathlib.Path(__file__).resolve().parents[2]
        for name in ("BENCH_scaling.json", "BENCH_serve.json"):
            scenarios = gate.load_scenarios(str(root / "benchmarks" / name))
            assert scenarios, name
            for record in scenarios.values():
                gated = [record.get(metric) for metric, _unit in gate._METRICS]
                assert any(value and value > 0 for value in gated), record
            # a baseline passes its own gate
            assert gate.check(scenarios, scenarios, 0.0) == []

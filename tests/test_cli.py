"""CLI entry points."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_validates_experiment(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["run", "bogus"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "table6" in out and "ddr3_off" in out

    def test_run_table8(self, capsys):
        assert main(["run", "table8"]) == 0
        out = capsys.readouterr().out
        assert "Cost model" in out

    def test_solve_default_state(self, capsys):
        assert main(["solve", "ddr3_off"]) == 0
        out = capsys.readouterr().out
        assert "DRAM max" in out and "dram4" in out

    def test_solve_explicit_state_with_options(self, capsys):
        assert main(["solve", "ddr3_off", "0-0-2b-2a", "--f2f", "--wirebond"]) == 0
        out = capsys.readouterr().out
        assert "BD=F2F" in out and "WB=Y" in out


class TestPlanCommand:
    def test_summary(self, capsys):
        assert main(["plan", "ddr3_off"]) == 0
        out = capsys.readouterr().out
        assert "plan hash:" in out
        assert "add_layer" in out and "tsv" in out

    def test_json_output_is_a_valid_plan(self, capsys):
        from repro.pdn.plan import StackPlan

        assert main(["plan", "ddr3_off", "--json"]) == 0
        plan = StackPlan.from_json(capsys.readouterr().out)
        assert plan.benchmark == "ddr3_off"

    def test_out_then_diff_against_file(self, capsys, tmp_path):
        from repro.pdn.plan import StackPlan

        path = tmp_path / "base.json"
        assert main(["plan", "ddr3_off", "--out", str(path)]) == 0
        baseline = StackPlan.from_json(path.read_text())
        capsys.readouterr()
        # An override diffed against the saved file shows the TSV edit.
        assert main(
            ["plan", "ddr3_off", "--tsv-count", "240", "--diff", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "ops unchanged" in out
        assert baseline.plan_hash in out

    def test_diff_against_benchmark(self, capsys):
        assert main(["plan", "ddr3_off", "--diff", "wideio"]) == 0
        out = capsys.readouterr().out
        assert "ops unchanged" in out

    def test_diff_identical(self, capsys):
        assert main(["plan", "ddr3_off", "--diff", "ddr3_off"]) == 0
        assert "plans identical" in capsys.readouterr().out

    def test_rejects_unknown_benchmark(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["plan", "bogus"])


class TestExplainCommand:
    def test_default_report(self, capsys):
        assert main(["explain", "ddr3_off"]) == 0
        out = capsys.readouterr().out
        assert "Worst-node supply-path decomposition" in out
        assert "Plan-op attribution" in out
        assert "0 orphans" in out

    def test_json_artifact_validates(self, capsys, tmp_path):
        import json

        from repro.pdn.diagnose import validate_explain_dict

        path = tmp_path / "explain.json"
        assert main(
            ["explain", "ddr3_off", "--format", "json", "--out", str(path)]
        ) == 0
        data = json.loads(path.read_text())
        validate_explain_dict(data)
        assert data["benchmark"] == "ddr3_off"
        printed, _ = json.JSONDecoder().raw_decode(capsys.readouterr().out)
        assert printed["plan_hash"] == data["plan_hash"]

    def test_heatmaps_and_npz_export(self, capsys, tmp_path):
        import numpy as np

        path = tmp_path / "maps.npz"
        assert main(
            ["explain", "ddr3_off", "--heatmaps", "--heatmap-out", str(path)]
        ) == 0
        out = capsys.readouterr().out
        assert "shared scale" in out
        with np.load(path) as maps:
            keys = set(maps.files)
            assert "drop_mv__dram4__M1" in keys
            assert "dissipation_w__dram4__M1" in keys

    def test_explain_with_overrides(self, capsys):
        assert main(["explain", "ddr3_off", "0-0-0-1", "--tsv-count", "66"]) == 0
        out = capsys.readouterr().out
        assert "TC=66" in out

    def test_requires_benchmark_without_diff(self, capsys):
        assert main(["explain"]) == 2

    def test_diff_between_history_refs(self, capsys, tmp_path, monkeypatch):
        monkeypatch.setenv("REPRO_HISTORY_DIR", str(tmp_path / "history"))
        assert main(["explain", "ddr3_off", "--history", "--quiet"]) == 0
        assert main(["explain", "ddr3_off", "--history", "--quiet"]) == 0
        capsys.readouterr()
        assert main(["explain", "--diff", "last~1", "last"]) == 0
        out = capsys.readouterr().out
        assert "# attribution drift" in out
        assert "attribution: unchanged" in out


class TestSimCommand:
    FIXTURE = "tests/data/ramulator_1k.trace"
    CSV_FIXTURE = "tests/data/drampower_1k.csv"

    def test_sim_ramulator_fixture(self, capsys):
        assert main(["sim", "--trace", self.FIXTURE]) == 0
        out = capsys.readouterr().out
        assert "1000 requests" in out
        assert "engine: event" in out
        assert "ACT=" in out

    def test_sim_drampower_fixture_with_energy(self, capsys):
        assert main(["sim", "--trace", self.CSV_FIXTURE, "--energy"]) == 0
        out = capsys.readouterr().out
        assert "1000 requests" in out
        assert "energy (command path):" in out
        assert "energy (occupancy path):" in out

    def test_sim_legacy_agrees_with_event(self, capsys):
        assert main(["sim", "--trace", self.FIXTURE]) == 0
        event_out = capsys.readouterr().out
        assert main(["sim", "--trace", self.FIXTURE, "--legacy"]) == 0
        legacy_out = capsys.readouterr().out
        pick = lambda s: [  # noqa: E731
            ln for ln in s.splitlines()
            if "requests (" in ln or "commands:" in ln or "bandwidth" in ln
        ]
        assert pick(event_out) == pick(legacy_out)

    def test_sim_ir_policy_needs_lut(self, capsys):
        assert main(["sim", "--trace", self.FIXTURE, "--policy", "ir_fcfs"]) == 2
        captured = capsys.readouterr()
        assert "--lut" in captured.out + captured.err

    def test_sim_ir_policy_with_lut(self, capsys, tmp_path, ddr3_lut_json):
        lut_path = tmp_path / "lut.json"
        lut_path.write_text(ddr3_lut_json)
        assert main([
            "sim", "--trace", self.FIXTURE,
            "--policy", "ir_distr", "--lut", str(lut_path),
            "--constraint", "24.0",
        ]) == 0
        out = capsys.readouterr().out
        assert "ir_distr" in out
        assert "max IR drop:" in out

    def test_sim_malformed_trace_reports_context(self, tmp_path, capsys):
        bad = tmp_path / "bad.trace"
        bad.write_text("0x0 R\nnot a line\n")
        assert main(["sim", "--trace", str(bad)]) == 2
        out = capsys.readouterr().out
        assert "TraceError" in out
        assert f"path={bad}" in out
        assert "line=2" in out
        assert "Traceback" not in out

    def test_sim_missing_trace_exits_2(self, tmp_path, capsys):
        missing = tmp_path / "missing.csv"
        assert main(["sim", "--trace", str(missing)]) == 2
        out = capsys.readouterr().out
        assert "TraceError: cannot open trace" in out
        assert f"path={missing}" in out


class TestUserErrors:
    def test_bogus_solver_env_exits_2(self, monkeypatch, capsys):
        # "amg" was a backend once; it now fails like any unknown name.
        for name in ("bogus", "amg"):
            monkeypatch.setenv("REPRO_SOLVER", name)
            assert main(["solve", "ddr3_off", "0-0-0-2"]) == 2
            out = capsys.readouterr().out
            assert f"ConfigurationError: unknown solver backend '{name}'" in out
            assert "known: ['direct', 'cg']" in out
            assert "REPRO_SOLVER" in out

    def test_solver_flag_rejects_amg(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["solve", "ddr3_off", "0-0-0-2", "--solver", "amg"])
        assert exc.value.code == 2
        assert "invalid choice: 'amg'" in capsys.readouterr().err

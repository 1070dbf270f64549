"""End-to-end CLI checks: formats, manifests, exit codes, determinism."""

import csv
import io
import json
import subprocess
import sys

import pytest

from guardzone.cli import main, parse_grid, InputError

FIG1 = "fig1"


def run_cli(args, capsys):
    code = main(args)
    out = capsys.readouterr().out
    return code, out


def parse_csv(text):
    lines = [ln for ln in text.splitlines() if not ln.startswith("#")]
    comments = [ln for ln in text.splitlines() if ln.startswith("#")]
    rows = list(csv.DictReader(io.StringIO("\n".join(lines))))
    return rows, comments


class TestGridParsing:
    def test_log_spec(self):
        import numpy as np
        g = parse_grid("1:100:5", None)
        assert len(g) == 5 and g[0] == 1.0 and g[-1] == pytest.approx(100.0)

    def test_list_spec(self):
        assert list(parse_grid("10,30,50", None)) == [10.0, 30.0, 50.0]

    def test_bad_specs(self):
        for bad in ("5:1:10", "1:10:1", "abc", "1:2"):
            with pytest.raises(InputError):
                parse_grid(bad, None)


class TestCorrelation:
    def test_row_count_and_summary(self, capsys):
        code, out = run_cli(["correlation", "--scenario", FIG1,
                             "--grid", "0.1:10:25"], capsys)
        assert code == 0
        rows, comments = parse_csv(out)
        assert len(rows) == 26  # grid + chi_star summary row
        starred = [r for r in rows if r["is_chi_star"] == "1"]
        assert len(starred) == 1
        assert float(starred[0]["chi"]) == pytest.approx(2.08, abs=0.02)
        assert any("chi_star" in c for c in comments)

    def test_sweep_density(self, capsys):
        code, out = run_cli(["correlation", "--scenario", FIG1,
                             "--sweep-density"], capsys)
        assert code == 0
        rows, _ = parse_csv(out)
        assert len(rows) == 150  # 3 regimes x 50 coefficients
        assert {r["delta"] for r in rows} == {"0.333333333333", "0.5",
                                              "0.666666666667"}

    def test_json_format(self, capsys):
        code, out = run_cli(["correlation", "--scenario", FIG1,
                             "--grid", "1,2,3", "--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["columns"][0] == "chi"
        assert len(doc["rows"]) == 4


class TestRisk:
    def test_summary_and_sensitivities(self, capsys):
        code, out = run_cli(["risk", "--scenario", FIG1,
                             "--grid", "5:100:20"], capsys)
        assert code == 0
        rows, comments = parse_csv(out)
        assert len(rows) == 21
        opt = [r for r in rows if r["is_optimum"] == "1"]
        assert float(opt[0]["r_O"]) == pytest.approx(21.11, abs=0.01)
        assert any("dr_dlambda" in c for c in comments)

    def test_irregular_cost_rejected(self, capsys, tmp_path):
        bad = tmp_path / "cost.json"
        bad.write_text('{"c00": 1, "c01": 1, "c10": 1, "c11": 1}')
        code, _ = run_cli(["risk", "--scenario", FIG1,
                           "--cost", str(bad), "--grid", "10,20"], capsys)
        assert code == 2


class TestRoc:
    def test_operating_points_labeled(self, capsys):
        code, out = run_cli(["roc", "--scenario", FIG1,
                             "--grid", "1:200:10"], capsys)
        assert code == 0
        rows, _ = parse_csv(out)
        labels = {r["label"] for r in rows if r["label"]}
        assert {"r_T", "r_DI", "r_MM", "r_EE", "r_corr", "r_risk"} <= labels
        by_label = {r["label"]: float(r["r_O"]) for r in rows if r["label"]}
        assert by_label["r_T"] <= by_label["r_DI"] <= by_label["r_MM"]


class TestFadingCompare:
    def test_wrong_exponent_rejected(self, capsys):
        code, _ = run_cli(["fading-compare", "--scenario", FIG1], capsys)
        assert code == 2

    def test_fig4_runs(self, capsys):
        code, out = run_cli(["fading-compare", "--scenario", "fig4",
                             "--grid", "5:50:8"], capsys)
        assert code == 0
        rows, _ = parse_csv(out)
        assert len(rows) == 8
        assert all(r["ilt_converged"] == "1" for r in rows)


class TestMultiobs:
    def test_rule_table(self, capsys):
        code, out = run_cli(["multiobs", "--scenario", "fig5"], capsys)
        assert code == 0
        rows, comments = parse_csv(out)
        assert len(rows) == 16
        best = [r for r in rows if r["is_best"] == "1"]
        worst = [r for r in rows if r["is_worst"] == "1"]
        assert best[0]["rule"] == "0101"
        assert worst[0]["rule"] == "1010"

    def test_multi_radius_grid_rejected(self, capsys):
        code, _ = run_cli(["multiobs", "--scenario", "fig5",
                           "--grid", "10,20"], capsys)
        assert code == 2


class TestValidate:
    ARGS = ["validate", "--scenario", FIG1, "--trials", "10000",
            "--grid", "20,50"]

    def test_passes_and_deterministic(self, capsys):
        code, out1 = run_cli(self.ARGS, capsys)
        assert code == 0
        assert "VALIDATION PASSED" in out1
        code, out2 = run_cli(self.ARGS, capsys)
        assert out1 == out2  # identical report bytes for a fixed seed

    def test_json_report(self, capsys):
        code, out = run_cli(self.ARGS + ["--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        statuses = {r["status"] for r in doc["rows"]}
        assert statuses <= {"PASS", "SKIP"}

    def test_out_writes_manifest_with_seed(self, tmp_path, capsys):
        out = tmp_path / "v.txt"
        code, stdout = run_cli(self.ARGS + ["--seed", "7", "--out", str(out)],
                               capsys)
        assert code == 0 and stdout == ""
        manifest = json.loads((tmp_path / "v.txt.manifest.json").read_text())
        assert manifest["command"] == "validate"
        assert manifest["seed"] == 7
        first_line = out.read_text().splitlines()[0]
        assert first_line == f"# manifest {manifest['config_hash']}"


class TestPlumbing:
    def test_missing_scenario_is_input_error(self, capsys):
        code, _ = run_cli(["correlation", "--scenario", "/no/such.json"],
                          capsys)
        assert code == 2

    def test_malformed_scenario(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text('{"n": 2}')
        code, _ = run_cli(["correlation", "--scenario", str(bad)], capsys)
        assert code == 2

    def test_analytic_command_rejects_oracle_flags(self, capsys):
        # --seed and --trials belong to validate only
        with pytest.raises(SystemExit) as exc:
            main(["correlation", "--scenario", FIG1, "--seed", "1"])
        assert exc.value.code == 2

    def test_out_writes_file_and_manifest(self, tmp_path, capsys):
        out = tmp_path / "corr.csv"
        code, _ = run_cli(["correlation", "--scenario", FIG1,
                           "--grid", "1,2", "--out", str(out)], capsys)
        assert code == 0
        text = out.read_text()
        assert text.startswith("# manifest ")
        manifest = json.loads((tmp_path / "corr.csv.manifest.json").read_text())
        assert manifest["command"] == "correlation"
        assert manifest["config_hash"] in text
        assert "timestamp" in manifest and "timestamp" not in text

    def test_console_script_installed(self):
        proc = subprocess.run([sys.executable, "-m", "guardzone.cli",
                               "--version"], capture_output=True, text=True)
        assert proc.returncode == 0

"""End-to-end CLI checks: formats, manifests, exit codes, determinism."""

import csv
import io
import json
import os
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import guardzone
from guardzone import cli, correlation, montecarlo
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
        for bad in ("5:1:10", "1:10:1", "abc", "1:2", "inf", "nan", "-inf,5",
                    "1:inf:3", "1e400"):
            with pytest.raises(InputError):
                parse_grid(bad, None)

    def test_non_finite_grid_exits_2(self, capsys):
        assert main(["multiobs", "--scenario", "fig5", "--grid", "inf"]) == 2
        assert capsys.readouterr().err == (
            "error: bad grid spec 'inf': values must be finite\n")


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

    def test_overflowing_grid(self, capsys):
        code, out = run_cli(["correlation", "--scenario", "fig4",
                             "--grid", "1e-6:1e6:97"], capsys)
        assert code == 0
        rows, _ = parse_csv(out)
        assert rows[96]["f1"] == rows[96]["f2"] == "-inf"

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

    def test_derivative_column(self, capsys):
        _, out = run_cli(["risk", "--scenario", FIG1, "--grid", "5,10,50"],
                         capsys)
        rows, _ = parse_csv(out)
        slope = [float(r["risk_deriv"]) for r in rows]
        # the risk falls to its optimum near r_O = 21 and rises beyond
        assert slope[0] < 0 and slope[1] < 0 < slope[2]
        assert abs(slope[3]) < 1e-12 * abs(slope[0])

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

    def test_one_inversion_per_row(self, capsys, monkeypatch):
        # one transform evaluation covers every row, and rho_nofading
        # reuses the row's posterior instead of inverting again
        from guardzone import nofading
        calls = []
        transform = nofading.lt_nofade_given_void

        def counted(*args):
            calls.append(np.size(args[1]))
            return transform(*args)

        monkeypatch.setattr(nofading, "lt_nofade_given_void", counted)
        code, out = run_cli(["fading-compare", "--scenario", "fig4"], capsys)
        assert code == 0
        assert len(parse_csv(out)[0]) == 80
        assert calls == [80]

    def test_unconverged_row(self, capsys, monkeypatch):
        # a row that misses the ILT target is nan and flagged, with the
        # error it reached; a row that converged is unaffected
        from guardzone import nofading
        args = ["fading-compare", "--scenario", "fig4", "--grid", "5,150",
                "--format", "json"]
        _, out = run_cli(args, capsys)
        unpatched = json.loads(out)["rows"]
        # one doubling, and a target between the errors at r_O = 5 and 150
        monkeypatch.setattr(nofading, "_DOUBLINGS", 1)
        monkeypatch.setattr(nofading, "_TARGET", 1e-14)
        with pytest.raises(nofading.IltConvergenceError) as exc:
            nofading.posterior_nofade(cli._load_input("scenario", "fig4"), 150.0)
        code, out = run_cli(args, capsys)
        assert code == 0
        converged, failed = json.loads(out)["rows"]
        assert converged == unpatched[0]
        assert converged["ilt_converged"] == 1
        assert np.isnan(failed["posterior_nofading"])
        assert np.isnan(failed["rho_nofading"])
        assert failed["ilt_converged"] == 0
        assert failed["ilt_error"] == pytest.approx(exc.value.achieved,
                                                    abs=1e-13)


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


class TestJsonColumns:
    @pytest.mark.parametrize("args", [
        ["correlation", "--scenario", FIG1, "--grid", "1,2"],
        ["correlation", "--scenario", FIG1, "--sweep-density"],
        ["risk", "--scenario", "fig2", "--grid", "5,50"],
        ["roc", "--scenario", "fig3", "--grid", "5,50"],
        ["fading-compare", "--scenario", "fig4", "--grid", "5,50"],
        ["multiobs", "--scenario", "fig5"],
        ["validate", "--scenario", "fig4", "--trials", "10240",
         "--grid", "20"]],
        ids=["correlation", "sweep", "risk", "roc", "fading-compare",
             "multiobs", "validate"])
    def test_row_keys_are_the_columns(self, capsys, args):
        # each row's keys in the order of the columns, as in the CSV
        code, out = run_cli(args + ["--format", "json"], capsys)
        assert code == 0
        doc = json.loads(out)
        assert doc["rows"]
        for row in doc["rows"]:
            assert list(row) == doc["columns"]
        code, text = run_cli(args, capsys)
        header = next(ln for ln in text.splitlines() if not ln.startswith("#"))
        if args[0] != "validate":  # validate's text report has no header
            assert header.split(",") == doc["columns"]


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


    def test_aloha_file_hashes_as_its_values(self, tmp_path, capsys):
        # the preset and a copy of it elsewhere give the same report
        from importlib import resources
        copy = tmp_path / "aloha.json"
        copy.write_text((resources.files("guardzone") / "scenarios"
                         / "aloha_n1.json").read_text())
        args = ["validate", "--scenario", "fig4", "--grid", "10",
                "--trials", "10240", "--seed", "1", "--aloha"]
        _, by_name = run_cli(args + ["aloha_n1"], capsys)
        _, by_path = run_cli(args + [str(copy)], capsys)
        assert by_name == by_path

    ALOHA_ARGS = ["validate", "--scenario", "fig4", "--aloha", "aloha_n2",
                  "--grid", "10,15,20,25", "--trials", "20480", "--format",
                  "json"]

    def test_one_kernel_call_and_one_inversion(self, capsys, monkeypatch):
        # the Aloha rows of every K read one joint law, and the no-fading
        # rows of every radius one inversion
        from guardzone import multi_obs, nofading
        calls = []

        def counted(name, fn):
            def call(*args, **kwargs):
                calls.append(name)
                return fn(*args, **kwargs)
            return call

        for mod, name in ((multi_obs, "_cells"), (nofading, "_invert")):
            monkeypatch.setattr(mod, name, counted(name, getattr(mod, name)))
        code, _ = run_cli(self.ALOHA_ARGS, capsys)
        assert code == 0
        assert sorted(calls) == ["_cells", "_invert"]

    def test_aloha_rows_are_the_accessors(self, capsys):
        from guardzone import multi_obs
        code, out = run_cli(self.ALOHA_ARGS, capsys)
        assert code == 0
        rows = {r["quantity"]: r["analytic"] for r in json.loads(out)["rows"]}
        p = cli._load_input("scenario", "fig4")
        aloha = cli._load_input("aloha", "aloha_n2")
        laws = multi_obs.aloha_laws(p, aloha, 10.0)
        for k in range(aloha.N + 1):
            for name in ("p_K", "p_h_given_K", "p_d_given_K"):
                assert rows[f"{name}[K={k}]"] == getattr(laws, name)[k]
            for d_obs in (0, 1):
                assert rows[f"posterior[K={k},d={d_obs}]"] == (
                    laws.posterior[k, d_obs])

    def test_unconverged_nofading_row_exits_3(self, capsys, monkeypatch):
        # the settings of TestFadingCompare.test_unconverged_row, where
        # r_O = 150 misses the target
        from guardzone import nofading
        monkeypatch.setattr(nofading, "_DOUBLINGS", 1)
        monkeypatch.setattr(nofading, "_TARGET", 1e-14)
        code = main(["validate", "--scenario", "fig4", "--grid", "5,150",
                     "--trials", "10240"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: ILT error estimate ")
        assert err.endswith(" above target 1.000e-14\n")

    def test_nan_analytic_fails(self, capsys, monkeypatch):
        from guardzone import cli
        monkeypatch.setattr(cli, "prior_success", lambda p: float("nan"))
        code, out = run_cli(self.ARGS, capsys)
        assert code == 1
        assert "FAIL prior " in out and "VALIDATION FAILED" in out


class TestZeroCountGate:
    """A 0/n or n/n count has no standard error; it is held to the exact
    binomial (Clopper-Pearson) bound at the 3-SE level instead."""

    def test_far_guard_zone_passes(self, capsys):
        # the zone of radius 50 is clear with probability 1.5e-7, and none
        # of the 10240 trials draws it clear
        code, out = run_cli(["validate", "--scenario", "fig4", "--grid", "50",
                             "--trials", "10240", "--seed", "0"], capsys)
        assert code == 0
        assert "VALIDATION PASSED" in out
        assert "PASS evidence[r_O=50]" in out

    def test_bound_can_fail(self):
        from guardzone.cli import _check
        from guardzone.montecarlo import Estimate
        n = 10240  # 1 - Q(3)**(1/n) = 6.45e-4
        none, every = Estimate(0.0, 0.0, n), Estimate(1.0, 0.0, n)
        assert _check("q", 1.5e-7, none)["status"] == "PASS"
        assert _check("q", 6.4e-4, none)["status"] == "PASS"
        assert _check("q", 1e-3, none)["status"] == "FAIL"
        assert _check("q", 1.0 - 1.5e-7, every)["status"] == "PASS"
        assert _check("q", 1.0 - 1e-3, every)["status"] == "FAIL"
        assert _check("q", 1e-3, none)["z"] == float("inf")

    def test_exact_pvalue(self):
        from guardzone.cli import _check
        from guardzone.montecarlo import Estimate
        n = 10240
        got = _check("q", 1e-3, Estimate(0.0, 0.0, n))["p"]
        assert got == pytest.approx(2.0 * (1.0 - 1e-3) ** n, rel=1e-12)
        got = _check("q", 1.0 - 1e-4, Estimate(1.0, 0.0, n))["p"]
        assert got == pytest.approx(2.0 * (1.0 - 1e-4) ** n, rel=1e-12)
        assert _check("q", 0.0, Estimate(0.0, 0.0, n))["p"] == 1.0


class TestNanCheck:
    """Only a low-confidence estimate is skipped; a nan anywhere else in a
    check fails it, alone and in a family."""

    @pytest.mark.parametrize("analytic,value,stderr", [
        (float("nan"), 0.5, 0.01), (0.5, 0.5, float("nan")),
        (0.5, float("nan"), 0.01), (float("nan"), 0.0, 0.0)],
        ids=["analytic", "stderr", "estimate", "zero-count"])
    def test_nan_fails(self, analytic, value, stderr):
        from guardzone.cli import _check, _holm
        from guardzone.montecarlo import Estimate
        row = _check("q", analytic, Estimate(value, stderr, 1000))
        assert row["status"] == "FAIL"
        family = [row] + [_check(f"q{i}", 0.5, Estimate(0.5, 0.01, 1000))
                          for i in range(44)]
        _holm(family)
        assert [c["status"] for c in family] == ["FAIL"] + ["PASS"] * 44


class TestFamilyGate:
    """validate decides its checks together, by Holm-Bonferroni at the
    family-wise level of a single 3-SE test."""

    @staticmethod
    def family(zs):
        from guardzone.cli import _check, _holm
        from guardzone.montecarlo import Estimate
        checks = [_check(f"q{i}", 0.5, Estimate(0.5 + 0.01 * z, 0.01, 1000))
                  for i, z in enumerate(zs)]
        _holm(checks)
        return [c["status"] for c in checks]

    def test_single_check_is_3_se(self):
        assert self.family([2.99]) == ["PASS"]
        assert self.family([3.2]) == ["FAIL"]

    def test_corrected_over_the_family(self):
        # 2 Q(3.2) = 1.4e-3 fails alone, not as the worst of 45; a z of 4.5
        # (p = 6.8e-6) stays below 2 Q(3) / 45 = 6.0e-5
        assert self.family([3.2] + [0.0] * 44) == ["PASS"] * 45
        assert self.family([4.5] + [0.0] * 44) == ["FAIL"] + ["PASS"] * 44

    def test_step_down(self):
        # p = 5.7e-7 (z = 5) < alpha/3 fails; then p = 5.2e-4 (z = 3.47)
        # < alpha/2, and p = 1.4e-3 (z = 3.2) < alpha fail too
        assert self.family([5.0, 3.2, 3.47]) == ["FAIL"] * 3
        # p = 1.4e-3 is not below alpha/2, so it passes, and with it the
        # larger p = 1.9e-3 (z = 3.1), which is below alpha
        assert self.family([5.0, 3.2, 3.1]) == ["FAIL", "PASS", "PASS"]

    def test_zero_count_in_family(self):
        from guardzone.cli import _check, _holm
        from guardzone.montecarlo import Estimate
        zero = _check("zero", 1e-3, Estimate(0.0, 0.0, 10240))
        _holm([zero])
        assert zero["status"] == "FAIL" and zero["z"] == float("inf")

    def test_level_in_report(self, capsys):
        code, out = run_cli(TestValidate.ARGS, capsys)
        assert code == 0
        assert "# family-wise level 0.0027 (Holm-Bonferroni over 13 checks)" \
            in out.splitlines()
        code, out = run_cli(TestValidate.ARGS + ["--format", "json"], capsys)
        assert json.loads(out)["notes"] == [
            "family-wise level 0.0027 (Holm-Bonferroni over 13 checks)"]


class TestExitCodes:
    @pytest.mark.parametrize("exc", [
        correlation.BracketError, RuntimeError, ZeroDivisionError,
        OverflowError, FloatingPointError])
    def test_numerical_failure_exits_3(self, capsys, monkeypatch, exc):
        def fail(p):
            raise exc("boom")

        monkeypatch.setattr(correlation, "chi_star", fail)
        code = main(["correlation", "--scenario", FIG1, "--grid", "1,2"])
        assert code == 3
        assert capsys.readouterr().err == "numerical failure: boom\n"

    def test_value_error_stays_input_error(self, capsys, monkeypatch):
        def fail(p):
            raise ValueError("bad")

        monkeypatch.setattr(correlation, "chi_star", fail)
        assert main(["correlation", "--scenario", FIG1, "--grid", "1,2"]) == 2
        assert capsys.readouterr().err == "error: bad\n"


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


# report cells: every float (nan, +-inf, -0.0 and subnormals included),
# ints, and strings that csv must quote or json must escape
_CELLS = st.one_of(
    st.floats(), st.sampled_from([-0.0, 5e-324, float("nan")]),
    st.integers(), st.text(max_size=6),
    st.sampled_from(["a,b", 'say "hi"', "two\nlines", "\r", "r\u00e9sum\u00e9",
                     "\u03c7*", ""]))


@st.composite
def _reports(draw):
    """Named columns of equal length, arrays or lists, and notes."""
    n = draw(st.integers(0, 5))
    columns = {}
    for name in draw(st.lists(st.text(max_size=4), min_size=1, max_size=4,
                              unique=True)):
        kind = draw(st.sampled_from(["list", "floats", "ints"]))
        if kind == "list":
            columns[name] = draw(st.lists(_CELLS, min_size=n, max_size=n))
        elif kind == "floats":
            columns[name] = np.array(draw(st.lists(
                st.floats(), min_size=n, max_size=n)), dtype=float)
        else:
            columns[name] = np.array(draw(st.lists(
                st.integers(-2**62, 2**62), min_size=n, max_size=n)),
                dtype=np.int64)
    return columns, draw(st.lists(st.text(max_size=8), max_size=2))


class TestRendering:
    """The renderers take named columns; the reference writes the same
    report from row dicts, one row at a time."""

    @staticmethod
    def reference(columns, notes, cfg_hash, fmt):
        values = [c.tolist() if isinstance(c, np.ndarray) else c
                  for c in columns.values()]
        rows = [dict(zip(columns, row)) for row in zip(*values)]
        if fmt == "json":
            return json.dumps({"manifest": cfg_hash, "notes": notes,
                               "columns": list(columns), "rows": rows},
                              indent=2, default=str) + "\n"
        buf = io.StringIO()
        buf.write(f"# manifest {cfg_hash}\n")
        for note in notes:
            buf.write(f"# {note}\n")
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        for row in rows:
            writer.writerow([cli._fmt(row[c]) for c in columns])
        return buf.getvalue()

    @given(_reports(), st.sampled_from(["csv", "json"]))
    @settings(max_examples=300, deadline=None)
    def test_same_text_as_rows(self, report, fmt):
        columns, notes = report
        args = SimpleNamespace(command="roc", format=fmt, out=None)
        scenario = SimpleNamespace(to_dict=lambda: {"n": 2})
        buf = io.StringIO()
        with redirect_stdout(buf):
            cli._emit(args, scenario, columns, notes, {"grid": [1.0]})
        cfg_hash = cli._digest({"command": "roc", "scenario": {"n": 2},
                                "grid": [1.0]})
        assert buf.getvalue() == self.reference(columns, notes, cfg_hash, fmt)


class TestOneParser:
    """A process builds its parser once and keeps no command in it."""

    def test_same_bytes_as_a_fresh_process(self, capsys, monkeypatch):
        # help text wraps at the terminal width, which COLUMNS fixes
        monkeypatch.setenv("COLUMNS", "80")
        env = dict(os.environ,
                   PYTHONPATH=str(Path(guardzone.__file__).parents[1]))
        main(["correlation", "--scenario", FIG1, "--grid", "1,2"])
        capsys.readouterr()
        for argv in (["roc", "--scenario", "fig3", "--grid", "5,50"],
                     ["multiobs", "--scenario", "fig5"],
                     ["--version"], ["--help"], ["roc", "--help"],
                     ["no-such-command"], ["roc"],
                     ["roc", "--scenario", FIG1, "--seed", "1"]):
            try:
                code = main(argv)
            except SystemExit as exc:
                code = exc.code
            got = capsys.readouterr()
            fresh = subprocess.run(
                [sys.executable, "-m", "guardzone.cli", *argv], env=env,
                capture_output=True, text=True)
            assert (code, got.out, got.err) == (
                fresh.returncode, fresh.stdout, fresh.stderr), argv

    def test_rebound_command_runs(self, capsys, monkeypatch):
        # a benchmark tracer rebinds cli.cmd_* after the parser is built
        argv = ["roc", "--scenario", "fig3", "--grid", "5,50"]
        main(argv)
        assert cli.build_parser() is cli.build_parser()
        calls = []
        roc = cli.cmd_roc

        def traced(args, p):
            calls.append(args.command)
            return roc(args, p)

        monkeypatch.setattr(cli, "cmd_roc", traced)
        first = capsys.readouterr().out
        assert main(argv) == 0
        assert calls == ["roc"]
        assert capsys.readouterr().out == first


class TestInputFiles:
    @pytest.mark.parametrize("args, what", [
        (["correlation", "--scenario"], "scenario"),
        (["risk", "--scenario", FIG1, "--grid", "10,20", "--cost"],
         "cost matrix"),
        (["multiobs", "--scenario", "fig5", "--aloha"], "Aloha parameters")],
        ids=["scenario", "cost", "aloha"])
    @pytest.mark.parametrize("content", [None, "{not json", '{"c00": 0}',
                                         "[0, 1]"],
                             ids=["missing", "bad-json", "missing-key",
                                  "not-object"])
    def test_bad_file_is_input_error(self, capsys, tmp_path, args, what,
                                     content):
        path = tmp_path / "params.json"
        if content is not None:
            path.write_text(content)
        assert main(args + [str(path)]) == 2
        assert f"cannot load {what} {str(path)!r}" in capsys.readouterr().err


class TestBadNumbers:
    SCENARIO = '{"n": 2, "lambda": 2e-4, "alpha": 3, "beta": 5, "r_T": 10}'

    @pytest.mark.parametrize("args, option, content", [
        (["multiobs", "--scenario", "fig5"], "--aloha", '{"p": 0.5, "N": 2.7}'),
        (["multiobs", "--scenario", "fig5"], "--aloha", '{"p": 0.5, "N": true}'),
        (["correlation"], "--scenario", SCENARIO.replace('"n": 2', '"n": 2.9')),
        (["risk", "--grid", "10,20"], "--scenario",
         SCENARIO.replace('"beta": 5', '"beta": Infinity')),
        (["correlation"], "--scenario",
         SCENARIO.replace('"lambda": 2e-4', '"lambda": Infinity'))],
        ids=["aloha-N-float", "aloha-N-bool", "scenario-n-float",
             "scenario-beta-inf", "scenario-lambda-inf"])
    def test_exits_2(self, capsys, tmp_path, args, option, content):
        # counts must be integers and the real parameters finite
        path = tmp_path / "params.json"
        path.write_text(content)
        assert main(args + [option, str(path)]) == 2
        assert "cannot load" in capsys.readouterr().err

    def test_integral_float_count(self, capsys, tmp_path):
        path = tmp_path / "aloha.json"
        path.write_text('{"p": 0.5, "N": 2.0}')
        code, out = run_cli(["multiobs", "--scenario", "fig5", "--aloha",
                             str(path)], capsys)
        assert code == 0 and "# best 010101 " in out


class TestResolutionGuard:
    def test_validate_exits_3(self, capsys):
        # fig4's no-fading region is R = 560, where (0.1 / R)**2 < 2**-24
        code = main(["validate", "--scenario", "fig4", "--grid", "0.1",
                     "--trials", "10240"])
        assert code == 3
        err = capsys.readouterr().err
        assert err.startswith("numerical failure: guard zone r_O = 0.1 ")
        assert "2**-24" in err


class TestManifestHash:
    def test_validate_names_generator(self, capsys, monkeypatch):
        args = ["validate", "--scenario", "fig4", "--grid", "50",
                "--trials", "10240"]
        _, out = run_cli(args, capsys)
        monkeypatch.setattr(montecarlo, "_BIT_GENERATOR", np.random.Philox)
        _, other = run_cli(args, capsys)
        assert out.startswith("# manifest ") and other.startswith("# manifest ")
        assert other.splitlines()[0] != out.splitlines()[0]

    @pytest.mark.parametrize("args, digest", [
        (["correlation", "--scenario", "fig1", "--grid", "1,2"], "5076671f54dc"),
        (["roc", "--scenario", "fig3", "--grid", "5,50"], "9a6a9590dd9f")])
    def test_analytic_hashes_unchanged(self, capsys, args, digest):
        _, out = run_cli(args, capsys)
        assert out.splitlines()[0] == f"# manifest {digest}"


class TestPresets:
    @pytest.mark.parametrize("name", ["fig2", "fig3", "fig5"])
    def test_same_scenario_as_fig1(self, name, capsys):
        assert cli._resolve_preset(name) == cli._resolve_preset("fig1")
        _, out = run_cli(["risk", "--scenario", name], capsys)
        _, ref = run_cli(["risk", "--scenario", "fig1"], capsys)
        assert out == ref


class TestWithoutScipy:
    def test_every_command_runs_with_scipy_blocked(self):
        # the library needs numpy alone: with ``import scipy`` failing,
        # each subcommand exits as usual, including the Rayleigh,
        # no-fading and Aloha rows of validate
        commands = [["correlation", "--scenario", "fig1"],
                    ["correlation", "--scenario", "fig1", "--sweep-density"],
                    ["risk", "--scenario", "fig2"],
                    ["roc", "--scenario", "fig3"],
                    ["fading-compare", "--scenario", "fig4"],
                    ["multiobs", "--scenario", "fig5", "--aloha", "aloha_n2"],
                    ["validate", "--scenario", "fig4", "--aloha", "aloha_n2",
                     "--grid", "10,15,20,25", "--trials", "20480",
                     "--seed", "1"]]
        code = f"""
import contextlib, io, sys
sys.modules["scipy"] = None
import guardzone.cli
codes = []
for args in {commands!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(guardzone.cli.main(args))
print(codes)
"""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(guardzone.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.strip() == str([0] * len(commands))


class TestStartup:
    def test_import_skips_thread_pool(self):
        # concurrent.futures loads with the first simulation, not with the
        # CLI: a command that simulates nothing never pays for it
        code = """
import contextlib, io, sys
import guardzone.cli
print("concurrent.futures" in sys.modules)
with contextlib.redirect_stdout(io.StringIO()):
    guardzone.cli.main(["validate", "--scenario", "fig1", "--trials",
                        "10240", "--grid", "50"])
print("concurrent.futures" in sys.modules)
"""
        env = dict(os.environ,
                   PYTHONPATH=str(Path(guardzone.__file__).parents[1]))
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              capture_output=True, text=True)
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.split() == ["False", "True"]

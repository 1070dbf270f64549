"""The benchmark's checkers must flag perturbed outputs.

Run from the repository root: ``python3 -m pytest -q perfbench``.
"""

import json
import math
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import checks as C  # noqa: E402
import layers  # noqa: E402
import reference as R  # noqa: E402
import run  # noqa: E402
import workloads as W  # noqa: E402

GRID = (10.0, 30.0, 50.0, 80.0)
TRIALS = 10_240


def _program_rho_se(pH, pD, pHD, T):
    """The simulator's joint-count-only standard error of rho."""
    return math.sqrt(pHD * (1 - pHD) / T) / math.sqrt(pH * (1 - pH) * pD * (1 - pD))


@pytest.fixture(scope="module")
def validate_case():
    """A validate report whose Monte Carlo column equals the reference."""
    refs, cells = W._single_refs(R.FIG1, GRID)
    rows = []
    for name, ref in refs.items():
        if name in cells:
            se, mc = _program_rho_se(*cells[name], TRIALS), ref
        else:
            mc = round(ref * TRIALS) / TRIALS
            se = math.sqrt(mc * (1 - mc) / TRIALS)
        rows.append({"quantity": name, "status": "PASS", "analytic": ref,
                     "mc": mc, "stderr": se, "z": 0.0, "samples": TRIALS})
    return rows, refs, cells


def test_validate_clean_report_passes(validate_case):
    rows, refs, cells = validate_case
    assert C.check_validate(rows, refs, cells) == []


def test_rho_shifted_by_5_se_is_flagged(validate_case):
    rows, refs, cells = validate_case
    bad = [dict(r) for r in rows]
    row = next(r for r in bad if r["quantity"] == "rho[r_O=30]")
    row["mc"] += 5 * row["stderr"]
    problems = C.check_validate(bad, refs, cells)
    assert len(problems) == 1 and "rho[r_O=30]" in problems[0]


def test_analytic_column_off_is_flagged(validate_case):
    rows, refs, cells = validate_case
    bad = [dict(r) for r in rows]
    bad[0]["analytic"] *= 1 + 1e-5
    assert C.check_validate(bad, refs, cells)


def test_zero_count_judged_by_exact_binomial():
    assert C.binomial_pvalue(0, TRIALS, 1.5e-7, 1.5e-7) == pytest.approx(1.0, abs=0.01)
    assert C.binomial_pvalue(0, TRIALS, 0.01, 0.01) < 1e-40


@pytest.fixture(scope="module")
def rules_case():
    rc, text = W.cli_call(["multiobs", "--scenario", "fig5", "--aloha",
                           "aloha_n2", "--format", "json"])
    assert rc == 0
    mo = R.multiobs(R.FIG1, W.ALOHA_P, 2, W.FIG5_R_O)
    cells = {k: float(v) for k, v in mo["cell"].items()}
    prior = float(R.prior(R.FIG1, lam=W.ALOHA_P * R.FIG1["lam"]))
    return C.parse_json(text), cells, prior


def test_rules_report_passes(rules_case):
    (notes, rows), cells, prior = rules_case
    assert C.check_rules(rows, notes, 2, cells, prior) == []


def test_one_rule_p_I_shifted_by_1e_9_is_flagged(rules_case):
    (notes, rows), cells, prior = rules_case
    bad = [dict(r) for r in rows]
    bad[37]["p_I"] += 1e-9
    problems = C.check_rules(bad, notes, 2, cells, prior)
    assert any("not additive" in p for p in problems)


def test_unconverged_ilt_row_is_flagged():
    rc, text = W.cli_call(["fading-compare", "--scenario", "fig4"])
    _, rows = C.parse_csv(text)
    assert rc == 0 and C.check_fading_compare(rows, {}) == []
    rows[5]["ilt_converged"] = "0"
    assert any("not converged" in p for p in C.check_fading_compare(rows, {}))


def test_changed_report_bytes_are_flagged():
    outputs = iter([(0, "a,b\n1,2\n"), (0, "a,b\n1,3\n")])
    op = W.Op("fake", lambda: next(outputs), lambda out: [], "python")
    outs = run.run_passes([op], 0.0, 2).outputs
    problems, failing = run.judge([op], outs)
    assert failing == 0 and problems == ["pass 1: report of fake changed"]


def test_benchmark_json_lists_the_reported_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    assert per_layer == layers.metric_units()
    assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
    assert [w["name"] for w in spec["workloads"]] == list(W.WORKLOADS)


# chi = r**alpha/sigma spans 3e-8 to 5e3 on fig1 and 1e-10 to 2e5 on fig4,
# on both sides of the series switch at chi = 1/2 and of specfn's tail
# switch at chi = 10
RADII = (0.05, 0.3, 1.0, 3.0, 7.0, 10.0, 15.0, 18.0, 22.0, 37.0, 80.0, 300.0)


@pytest.mark.parametrize("sc", [R.FIG1, R.FIG4], ids=["fig1", "fig4"])
def test_row_reference_agrees_with_mpmath(sc):
    fast = R.single_rows(sc, np.array(RADII))
    for i, r in enumerate(RADII):
        for name, ref in R.single(sc, r).items():
            got = np.broadcast_to(fast[name], len(RADII))[i]
            assert got == pytest.approx(float(ref), rel=1e-10), (r, name)


@pytest.mark.parametrize("a, delta", [(1e-3, 1 / 3), (0.05, 0.5), (1.0, 2 / 3),
                                      (10.0, 2 / 3)])
def test_chi_star_reference_agrees_with_mpmath(a, delta):
    assert R.chi_star_fast(a, delta) == pytest.approx(float(R.chi_star(a, delta)),
                                                      rel=1e-12)


def test_cpu_seconds_counts_a_live_child():
    """A child that is still running, as a pool's worker would be, is
    counted; getrusage(RUSAGE_CHILDREN) alone would miss it."""
    burn = ("import sys, time\n"
            "t = time.process_time()\n"
            "while time.process_time() - t < 0.5: pass\n"
            "print('done', flush=True)\n"
            "sys.stdin.read()\n")
    c0 = run.cpu_seconds()
    child = subprocess.Popen([sys.executable, "-c", burn], stdin=subprocess.PIPE,
                             stdout=subprocess.PIPE, text=True)
    try:
        assert child.stdout.readline() == "done\n"
        assert child.poll() is None
        assert run.cpu_seconds() - c0 >= 0.45
    finally:
        child.stdin.close()
        child.wait()


def test_sampler_never_runs_beside_a_busy_child():
    """The calibration loop must not compete with program code: while a
    child process is runnable, the Sampler takes no sample."""
    burn = ("import time\n"
            "t = time.process_time()\n"
            "while time.process_time() - t < 1.0: pass\n")
    child = subprocess.Popen([sys.executable, "-c", burn])
    try:
        with run.Sampler("python") as busy:
            time.sleep(0.4)
    finally:
        child.wait()
    with run.Sampler("python") as idle:
        time.sleep(0.4)
    assert len(busy.durations) <= 1 and len(idle.durations) >= 4

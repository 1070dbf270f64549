"""The four workloads: fixed lists of operations on the public CLI and
library, each with the check that judges its output.

An operation's output is a value whose ``repr`` is its report: the CLI's
exit code and standard output, or a library return value. The checks
compare outputs with :mod:`reference` and with properties the method
must have; they run once per run, after the timed passes.
"""

from __future__ import annotations

import functools
import io
import json
import random
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import checks as C
import reference as R

WORKLOADS = ("oracle-fig1", "oracle-mixed", "figures", "rules")

FIG1_TRIALS = 10_240     # ten whole simulator chunks, above its 10^4 minimum
MIXED_TRIALS = 20_480
ALOHA_P = 0.5
FIG5_R_O = 20.0          # multiobs default: 2 * r_T

FAULT_POSTERIOR = ("single_obs.posterior: the completeness subtraction "
                   "(pH - p11*pD)/(1 - pD) cancels for small r_O")
FAULT_ZERO_SE = ("cli._check: demands analytic == mc whenever the standard "
                 "error is 0, so a zero count fails against a tiny probability")


@dataclass
class Op:
    name: str
    call: Callable[[], object]
    check: Callable[[object], list]
    # calibration loop whose speed scales the op's times, "python" or
    # "numpy" (see run.calibration_loop)
    kind: str
    fault: str | None = None  # a failing check counts the op as failed


def cli_call(argv: list[str]) -> tuple[int, str]:
    """Run ``guardzone <argv>`` in this process; (exit code, stdout)."""
    from guardzone import cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def _cli_op(name, argv, check, kind="python", fault=None) -> Op:
    return Op(name, lambda: cli_call(argv), check, kind, fault)


def _parsed(out, fmt, allowed=(0,)):
    rc, text = out
    problems = C.check_exit(rc, allowed)
    if problems:
        return problems, None, None
    notes, rows = C.parse_json(text) if fmt == "json" else C.parse_csv(text)
    return [], notes, rows


# ------------------------------------------------------------------ figures

# The Gil-Pelaez reference costs about sigma/r_O**alpha panels: under 0.2 s
# a row from r_O = 5 up on fig4, but 6 s at r_O = 2.
NOFADE_REF_MIN_R = 5.0


def _figures(seed: int, work: Path) -> list[Op]:
    fig1, fig4 = R.FIG1, R.FIG4

    @functools.cache
    def chi_star():
        return float(R.chi_star_scenario(fig1))

    @functools.cache
    def r_opt():
        return float(R.r_opt_uniform(fig1))

    def radii(sc, chis):
        return (np.asarray(chis, dtype=float) * float(R.sigma(sc))) ** (1 / sc["alpha"])

    def correlation(out):
        problems, notes, rows = _parsed(out, "csv")
        if rows is None:
            return problems
        chis = [r["chi"] for r in rows if r["is_chi_star"] == "0"]
        rho = R.single_rows(fig1, radii(fig1, chis))["rho"]
        return C.check_correlation(rows, notes, chi_star(), rho)

    def sweep(out):
        problems, _, rows = _parsed(out, "json")
        if rows is None:
            return problems
        return C.check_sweep(rows, [R.chi_star_fast(r["coeff"], r["delta"])
                                    for r in rows])

    def risk(out):
        problems, notes, rows = _parsed(out, "csv")
        if rows is None:
            return problems
        r_O = [float(r["r_O"]) for r in rows if r["is_optimum"] == "0"]
        return C.check_risk(rows, notes, r_opt(), R.single_rows(fig1, r_O)["risk"])

    def roc(out):
        problems, _, rows = _parsed(out, "csv")
        if rows is None:
            return problems
        r_mm = [r["r_O"] for r in rows if r["label"] == "r_MM"]
        named = {"r_corr": float(R.r_of_chi(fig1, chi_star())), "r_risk": r_opt(),
                 "prior": float(R.prior(fig1)),
                 "evidence_at_r_MM": float(R.evidence(fig1, r_mm[0])) if r_mm else 0.0,
                 "sigma": float(R.sigma(fig1)), "alpha": fig1["alpha"]}
        ref = R.single_rows(fig1, [float(r["r_O"]) for r in rows if r["label"] == ""])
        return C.check_roc(rows, named, {c: ref[c] for c in ("p_I", "p_II", "rho",
                                                             "risk")})

    def fading(out):
        problems, _, rows = _parsed(out, "csv")
        if rows is None:
            return problems
        every = range(len(rows))
        ref = R.single_rows(fig4, [float(r["r_O"]) for r in rows])
        near = [i for i in every if float(rows[i]["r_O"]) >= NOFADE_REF_MIN_R]
        refs = {"posterior_fading": (every, ref["posterior_d1"], C.ROW_TOL, 0.0),
                "rho_fading": (every, ref["rho"], C.ROW_TOL, 0.0),
                # the library's ILT targets 1e-6
                "posterior_nofading": (near, [R.post_clear_nofade(
                    fig4, float(rows[i]["r_O"])) for i in near], 0.0, 1e-5)}
        problems = C.check_fading_compare(rows, refs)
        low = min(float(r["posterior_nofading"]) for r in rows)
        if not low >= float(R.levy_prior(fig4)) - 1e-5:
            problems.append(f"fading-compare: posterior_nofading {low} below "
                            "the no-fading prior")
        return problems

    ops = [
        _cli_op("correlation", ["correlation", "--scenario", "fig1"], correlation),
        _cli_op("correlation-sweep", ["correlation", "--scenario", "fig1",
                                      "--sweep-density", "--format", "json"], sweep),
        _cli_op("risk", ["risk", "--scenario", "fig2"], risk),
        _cli_op("roc", ["roc", "--scenario", "fig3"], roc),
        _cli_op("fading-compare", ["fading-compare", "--scenario", "fig4"], fading),
        _cli_op("multiobs-n1", ["multiobs", "--scenario", "fig5", "--aloha",
                                "aloha_n1", "--format", "json"], _multiobs_check(1)),
        _cli_op("multiobs-n2", ["multiobs", "--scenario", "fig5", "--aloha",
                                "aloha_n2", "--format", "json"], _multiobs_check(2)),
    ]
    ops += [_posterior_busy_op(ratio) for ratio in (1e-5, 1e-4, 1e-3, 1e-2)]
    random.Random(seed).shuffle(ops)
    return ops


def _posterior_busy_op(ratio: float) -> Op:
    """posterior(fig1, r_O).p_h1_d0 at r_O = ratio * r_T against mpmath."""
    import guardzone as gz
    sc = R.FIG1
    p = gz.ModelParams(n=sc["n"], density=sc["lam"], alpha=sc["alpha"],
                       beta=sc["beta"], r_T=sc["r_T"], eta=sc["eta"])
    r = ratio * sc["r_T"]

    def check(value):
        return C.mismatch(f"posterior(fig1, {r:g}).p_h1_d0", value,
                           float(R.single(sc, r)["posterior_d0"]), 1e-6)

    return Op(f"posterior-busy-{ratio:g}", lambda: gz.posterior(p, r).p_h1_d0,
              check, "python", FAULT_POSTERIOR)


# -------------------------------------------------------------------- rules

def _multiobs_check(N: int):
    def check(out):
        problems, notes, rows = _parsed(out, "json")
        if rows is None:
            return problems
        mo = R.multiobs(R.FIG1, ALOHA_P, N, FIG5_R_O)
        return C.check_rules(rows, notes, N,
                             {k: float(v) for k, v in mo["cell"].items()},
                             float(R.prior(R.FIG1, lam=ALOHA_P * R.FIG1["lam"])))
    return check


def _rules(seed: int, work: Path) -> list[Op]:
    ops = []
    for N in (3, 4, 5):
        path = work / f"aloha_n{N}.json"
        path.write_text(json.dumps({"p": ALOHA_P, "N": N}) + "\n")
        ops.append(_cli_op(f"multiobs-n{N}", ["multiobs", "--scenario", "fig5",
                                               "--aloha", str(path),
                                               "--format", "json"],
                           _multiobs_check(N)))
    random.Random(seed).shuffle(ops)
    return ops


# ------------------------------------------------------------------- oracles

def _single_refs(sc, grid):
    """Reference values and rho cells for validate's single-obs rows."""
    refs, cells = {}, {}
    for r in grid:
        s = {k: float(v) for k, v in R.single(sc, r).items()}
        if not refs:
            refs["prior"] = s["prior"]
        for q in ("evidence", "posterior_d1", "posterior_d0", "rho", "p_I", "p_II"):
            refs[f"{q}[r_O={r:g}]"] = s[q]
        cells[f"rho[r_O={r:g}]"] = (s["prior"], s["evidence"],
                                    s["posterior_d1"] * s["evidence"])
    return refs, cells


def _validate_check(sc, grid, aloha_N=None):
    def check(out):
        problems, _, rows = _parsed(out, "json", allowed=(0, 1))
        if rows is None:
            return problems
        refs, cells = _single_refs(sc, grid)
        tol = {}
        if sc["alpha"] == 2 * sc["n"]:
            refs["prior_nofading"] = float(R.levy_prior(sc))
            for r in grid:
                name = f"posterior_nofading[r_O={r:g}]"
                refs[name] = R.post_clear_nofade(sc, r)
                tol[name] = (0.0, 1e-5)  # the library's ILT targets 1e-6
        if aloha_N is not None:
            mo = R.multiobs(sc, ALOHA_P, aloha_N, grid[0])
            for k in range(aloha_N + 1):
                for q in ("p_K", "p_h_given_K", "p_d_given_K"):
                    refs[f"{q}[K={k}]"] = float(mo[q][k])
                for d in (0, 1):
                    refs[f"posterior[K={k},d={d}]"] = float(mo["posterior"][(k, d)])
        return C.check_validate(rows, refs, cells, tol)
    return check


def _oracle_fig1(seed: int, work: Path) -> list[Op]:
    grid = (10.0, 30.0, 50.0, 80.0)
    argv = ["validate", "--scenario", "fig1", "--trials", str(FIG1_TRIALS),
            "--seed", str(seed), "--format", "json"]
    return [_cli_op("validate-fig1", argv, _validate_check(R.FIG1, grid),
                    "numpy")]


def _oracle_mixed(seed: int, work: Path) -> list[Op]:
    grid = (10.0, 15.0, 20.0, 25.0)
    argv = ["validate", "--scenario", "fig4", "--aloha", "aloha_n2", "--grid",
            "10,15,20,25", "--trials", str(MIXED_TRIALS), "--seed", str(seed),
            "--format", "json"]
    # Fixed seed, so the outcome does not depend on --seed: a guard zone of
    # radius 50 is clear with probability 1.5e-7, and seed 0 draws none.
    far = ["validate", "--scenario", "fig4", "--grid", "50", "--trials",
           str(FIG1_TRIALS), "--seed", "0"]
    ops = [_cli_op("validate-fig4-aloha", argv,
                   _validate_check(R.FIG4, grid, aloha_N=2), "numpy"),
           _cli_op("validate-fig4-far", far, lambda out: C.check_exit(out[0]),
                   "numpy", FAULT_ZERO_SE)]
    random.Random(seed).shuffle(ops)
    return ops


_OPS_OF = {"oracle-fig1": _oracle_fig1, "oracle-mixed": _oracle_mixed,
             "figures": _figures, "rules": _rules}


def build(workload: str, seed: int, work: Path) -> list[Op]:
    return _OPS_OF[workload](seed, work)

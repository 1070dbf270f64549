"""Command-line front end: figure-style data exports and oracle validation.

Subcommands mirror the library: ``correlation``, ``risk``, ``roc``,
``fading-compare``, ``multiobs`` compute analytic curves; ``validate``
runs the Monte Carlo oracle against every analytic quantity in scope.

Outputs are CSV (default) with a leading ``# manifest <hash>`` comment,
or JSON via ``--format json``. When ``--out`` is given, a sidecar
``<out>.manifest.json`` records scenario, command, seed (``validate``
only; null otherwise), version, timestamp, and the config hash; the
report itself never contains a timestamp, so identical inputs give
identical report bytes. ``--seed`` and ``--trials`` are options of
``validate`` only.

Exit codes: 0 success, 1 validation failure, 2 input error.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import sys
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, correlation, montecarlo, multi_obs, nofading, risk
from .correlation import BracketError
from .nofading import IltConvergenceError
from .params import ModelParams, chi_of_radius, derive, load_scenario, radius_of_chi
from .risk import CostMatrix, SingleObsRule
from .single_obs import evidence_success, posterior, prior_success


class InputError(Exception):
    """Bad file, flag, or precondition; maps to exit code 2."""


def _load_scenario(path: str) -> ModelParams:
    try:
        return load_scenario(_resolve_preset(path))
    except (OSError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot load scenario {path!r}: {exc}") from exc


def _resolve_preset(path: str):
    """Bare preset names like 'fig1' resolve to the shipped scenario files."""
    if "/" not in path and not path.endswith(".json"):
        preset = resources.files("guardzone") / "scenarios" / f"{path}.json"
        if preset.is_file():
            return preset
    return Path(path)


def _load_cost(path: str | None) -> CostMatrix:
    if path is None:
        return CostMatrix.uniform()
    try:
        with open(_resolve_preset(path)) as fh:
            d = json.load(fh)
        return CostMatrix(c00=float(d["c00"]), c01=float(d["c01"]),
                          c10=float(d["c10"]), c11=float(d["c11"]))
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot load cost matrix {path!r}: {exc}") from exc


def _load_aloha(path: str | None) -> multi_obs.AlohaParams:
    if path is None:
        return multi_obs.AlohaParams(p=0.5, N=1)
    try:
        with open(_resolve_preset(path)) as fh:
            d = json.load(fh)
        return multi_obs.AlohaParams(p=float(d["p"]), N=int(d["N"]))
    except (OSError, KeyError, ValueError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot load Aloha parameters {path!r}: {exc}") from exc


def parse_grid(spec: str | None, default: np.ndarray) -> np.ndarray:
    """Parse ``lo:hi:count`` (log-spaced) or a comma-separated value list."""
    if spec is None:
        return default
    try:
        if ":" in spec:
            lo_s, hi_s, count_s = spec.split(":")
            lo, hi, count = float(lo_s), float(hi_s), int(count_s)
            if not (0 < lo < hi and count >= 2):
                raise ValueError("need 0 < lo < hi and count >= 2")
            return np.geomspace(lo, hi, count)
        return np.array([float(tok) for tok in spec.split(",")])
    except ValueError as exc:
        raise InputError(f"bad grid spec {spec!r}: {exc}") from exc


# ---------------------------------------------------------------- output

def _config_hash(payload: dict) -> str:
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _render_csv(columns, rows, comments, cfg_hash) -> str:
    buf = io.StringIO()
    buf.write(f"# manifest {cfg_hash}\n")
    for c in comments:
        buf.write(f"# {c}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for row in rows:
        writer.writerow([_fmt(row[c]) for c in columns])
    return buf.getvalue()


def _render_json(columns, rows, comments, cfg_hash) -> str:
    return json.dumps({"manifest": cfg_hash, "notes": comments,
                       "columns": list(columns), "rows": rows},
                      indent=2, default=str) + "\n"


def _emit(args, columns, rows, comments, hash_payload, render_text=_render_csv) -> None:
    cfg_hash = _config_hash(hash_payload)
    render = _render_json if args.format == "json" else render_text
    text = render(columns, rows, comments, cfg_hash)
    if args.out:
        Path(args.out).write_text(text)
        manifest = {
            "command": args.command,
            "scenario": args.scenario,
            "output": args.out,
            "seed": getattr(args, "seed", None),
            "timestamp": datetime.now(timezone.utc).isoformat(),
            "version": __version__,
            "config_hash": cfg_hash,
        }
        Path(args.out + ".manifest.json").write_text(
            json.dumps(manifest, indent=2) + "\n")
    else:
        sys.stdout.write(text)


# -------------------------------------------------------------- commands

def cmd_correlation(args) -> int:
    p = _load_scenario(args.scenario)
    if args.sweep_density:
        coeffs = np.geomspace(1e-3, 10.0, 50)
        rows = [{"coeff": float(a), "delta": delta,
                 "chi_star": correlation.chi_star_from_coeff(a, delta)}
                for delta in (1.0 / 3.0, 0.5, 2.0 / 3.0) for a in coeffs]
        _emit(args, ("coeff", "delta", "chi_star"), rows, [],
              {"command": "correlation-sweep", "scenario": p.to_dict()})
        return 0
    grid = parse_grid(args.grid, np.geomspace(1e-3, 1e4, 400))
    rows = [{"chi": float(c), "rho": correlation.rho(p, c),
             "f1": correlation.f1(p, c), "f2": correlation.f2(p, c),
             "is_chi_star": 0} for c in grid]
    cs = correlation.chi_star(p)
    rows.append({"chi": cs, "rho": correlation.rho(p, cs),
                 "f1": correlation.f1(p, cs), "f2": correlation.f2(p, cs),
                 "is_chi_star": 1})
    comments = [f"chi_star {cs:.6g} r_O_star {radius_of_chi(derive(p), cs):.6g}"]
    _emit(args, ("chi", "rho", "f1", "f2", "is_chi_star"), rows, comments,
          {"command": "correlation", "scenario": p.to_dict(),
           "grid": [float(c) for c in grid]})
    return 0


def cmd_risk(args) -> int:
    p = _load_scenario(args.scenario)
    cost = _load_cost(args.cost)
    grid = parse_grid(args.grid, np.geomspace(0.01 * p.r_T, 100.0 * p.r_T, 400))
    columns = ("r_O", "risk", "risk_deriv_fd", "f_L", "f_R", "is_optimum")

    def row_at(r, flag):
        h = 1e-6 * r
        deriv = (risk.bayes_risk(p, cost, r + h)
                 - risk.bayes_risk(p, cost, r - h)) / (2.0 * h)
        return {"r_O": float(r), "risk": risk.bayes_risk(p, cost, r),
                "risk_deriv_fd": deriv, "f_L": risk._f_left(p, cost, r),
                "f_R": risk._f_right(p, r), "is_optimum": flag}

    try:
        cost.require_regular()
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    rows = [row_at(r, 0) for r in grid]
    comments = []
    opt = risk.optimal_radius(p, cost)
    if opt.exists:
        rows.append(row_at(opt.r_O, 1))
        comments.append(f"r_O_star {opt.r_O:.6g} risk_star {opt.risk:.6g}")
        if p.eta == 0:
            d_dlam, d_dsig = risk.sensitivities(p, cost)
            comments.append(f"dr_dlambda {d_dlam:.6g} dr_dsigma {d_dsig:.6g}")
    else:
        comments.append(
            f"no interior optimum; risk decreases toward {opt.risk:.6g} "
            "as r_O grows")
    _emit(args, columns, rows, comments,
          {"command": "risk", "scenario": p.to_dict(),
           "cost": [cost.c00, cost.c01, cost.c10, cost.c11],
           "grid": [float(r) for r in grid]})
    return 0


def _roc_row(p, r, label):
    d = derive(p)
    p_i, p_ii = risk.type_errors(p, r, SingleObsRule.identity())
    pH = prior_success(p)
    chi = chi_of_radius(d, r)
    return {"r_O": float(r), "chi": chi, "p_I": p_i, "p_II": p_ii,
            "risk": p_i * (1.0 - pH) + p_ii * pH,
            "rho": correlation.rho(p, chi), "label": label}


def cmd_roc(args) -> int:
    p = _load_scenario(args.scenario)
    grid = parse_grid(args.grid, np.geomspace(0.05 * p.r_T, 50.0 * p.r_T, 200))
    rows = [_roc_row(p, r, "") for r in grid]
    comments = []
    ops = risk.operating_points(p)
    named = [("r_T", p.r_T), ("r_MM", ops.r_MM), ("r_EE", ops.r_EE)]
    if ops.r_DI is not None:
        named.insert(1, ("r_DI", ops.r_DI))
    else:
        comments.append("r_DI omitted: noise alone exceeds the SINR margin "
                        "(1/sigma <= eta)")
    d = derive(p)
    named.append(("r_corr", radius_of_chi(d, correlation.chi_star(p))))
    opt = risk.optimal_radius(p, CostMatrix.uniform())
    if opt.exists:
        named.append(("r_risk", opt.r_O))
    rows.extend(_roc_row(p, r, label) for label, r in named)
    _emit(args, ("r_O", "chi", "p_I", "p_II", "risk", "rho", "label"),
          rows, comments,
          {"command": "roc", "scenario": p.to_dict(),
           "grid": [float(r) for r in grid]})
    return 0


def cmd_fading_compare(args) -> int:
    p = _load_scenario(args.scenario)
    if p.alpha != 2 * p.n:
        raise InputError(
            "fading comparison needs the no-fading closed forms, which "
            f"require alpha = 2n; scenario has n={p.n}, alpha={p.alpha}")
    grid = parse_grid(args.grid, np.geomspace(0.1 * p.r_T, 30.0 * p.r_T, 80))
    d = derive(p)
    rows = []
    for r in grid:
        chi = chi_of_radius(d, r)
        row = {"r_O": float(r), "chi": chi,
               "posterior_fading": posterior(p, r).p_h1_d1,
               "rho_fading": correlation.rho(p, chi)}
        try:
            ilt = nofading.posterior_nofade(p, r)
            row.update(posterior_nofading=ilt.value,
                       rho_nofading=nofading.rho_nofade(p, r),
                       ilt_error=ilt.error_estimate, ilt_converged=1)
        except IltConvergenceError as exc:
            row.update(posterior_nofading=math.nan, rho_nofading=math.nan,
                       ilt_error=exc.achieved, ilt_converged=0)
        rows.append(row)
    _emit(args, ("r_O", "chi", "posterior_fading", "posterior_nofading",
                 "rho_fading", "rho_nofading", "ilt_error", "ilt_converged"),
          rows, [],
          {"command": "fading-compare", "scenario": p.to_dict(),
           "grid": [float(r) for r in grid]})
    return 0


def cmd_multiobs(args) -> int:
    p = _load_scenario(args.scenario)
    aloha = _load_aloha(args.aloha)
    grid = parse_grid(args.grid, np.array([2.0 * p.r_T]))
    if len(grid) != 1:
        raise InputError("multiobs evaluates all rules at a single r_O; "
                         "pass exactly one grid value")
    r_O = float(grid[0])
    try:
        evals = multi_obs.enumerate_rules(p, aloha, r_O)
    except ValueError as exc:
        raise InputError(str(exc)) from exc
    best = min(evals, key=lambda e: e.risk)
    worst = max(evals, key=lambda e: e.risk)
    rows = [{"rule": e.rule.bits, "p_I": e.p_I, "p_II": e.p_II,
             "risk": e.risk, "is_best": int(e is best),
             "is_worst": int(e is worst)} for e in evals]
    comments = [f"best {best.rule.bits} risk {best.risk:.6g}",
                f"worst {worst.rule.bits} risk {worst.risk:.6g}"]
    _emit(args, ("rule", "p_I", "p_II", "risk", "is_best", "is_worst"),
          rows, comments,
          {"command": "multiobs", "scenario": p.to_dict(),
           "aloha": {"p": aloha.p, "N": aloha.N}, "r_O": r_O})
    return 0


# -------------------------------------------------------------- validate

def _check(name, analytic, est: montecarlo.Estimate):
    """One oracle comparison at 3 standard errors."""
    if est.low_confidence:
        return {"quantity": name, "status": "SKIP", "analytic": analytic,
                "mc": est.value, "stderr": est.stderr, "z": math.nan,
                "samples": est.count}
    if est.stderr == 0.0:
        ok = analytic == est.value
        z = 0.0 if ok else math.inf
    else:
        z = (est.value - analytic) / est.stderr
        ok = abs(z) <= 3.0
    return {"quantity": name, "status": "PASS" if ok else "FAIL",
            "analytic": analytic, "mc": est.value, "stderr": est.stderr,
            "z": z, "samples": est.count}


def _render_checks(columns, checks, comments, cfg_hash) -> str:
    """validate's text report: one line per check, then the verdict."""
    failures = sum(c["status"] == "FAIL" for c in checks)
    evaluated = sum(c["status"] != "SKIP" for c in checks)
    lines = [f"# manifest {cfg_hash}"]
    for c in checks:
        lines.append(
            f"{c['status']:4s} {c['quantity']:30s} "
            f"analytic={c['analytic']:.6f} mc={c['mc']:.6f} "
            f"se={c['stderr']:.2e} z={c['z']:+.2f} n={c['samples']}")
    verdict = "PASSED" if failures == 0 else "FAILED"
    lines.append(f"VALIDATION {verdict} "
                 f"({evaluated - failures}/{evaluated} checks)")
    return "\n".join(lines) + "\n"


def cmd_validate(args) -> int:
    p = _load_scenario(args.scenario)
    cfg = montecarlo.SimConfig(trials=args.trials, seed=args.seed)
    grid = parse_grid(args.grid, np.array([10.0, 30.0, 50.0, 80.0]))
    checks = []

    sim = montecarlo.estimate_single(p, grid, cfg)
    checks.append(_check("prior", prior_success(p), sim.prior))
    for i, r in enumerate(sim.r_O_grid):
        d_chi = chi_of_radius(derive(p), r)
        p_i, p_ii = risk.type_errors(p, r, SingleObsRule.identity())
        checks.append(_check(f"evidence[r_O={r:g}]",
                             evidence_success(p, r), sim.evidence[i]))
        checks.append(_check(f"posterior_d1[r_O={r:g}]",
                             posterior(p, r).p_h1_d1, sim.posterior_d1[i]))
        checks.append(_check(f"posterior_d0[r_O={r:g}]",
                             posterior(p, r).p_h1_d0, sim.posterior_d0[i]))
        checks.append(_check(f"rho[r_O={r:g}]",
                             correlation.rho(p, d_chi), sim.rho[i]))
        checks.append(_check(f"p_I[r_O={r:g}]", p_i, sim.p_I[i]))
        checks.append(_check(f"p_II[r_O={r:g}]", p_ii, sim.p_II[i]))

    if p.alpha == 2 * p.n:
        nf_cfg = montecarlo.SimConfig(trials=args.trials, seed=args.seed,
                                      fading="none")
        nf = montecarlo.estimate_single(p, grid, nf_cfg)
        checks.append(_check("prior_nofading", nofading.levy_prior(p), nf.prior))
        for i, r in enumerate(nf.r_O_grid):
            checks.append(_check(
                f"posterior_nofading[r_O={r:g}]",
                nofading.posterior_nofade(p, r).value, nf.posterior_d1[i]))

    if args.aloha is not None:
        aloha = _load_aloha(args.aloha)
        r_O = float(grid[0])
        mo = montecarlo.estimate_multiobs(p, aloha, r_O, cfg)
        for k in range(aloha.N + 1):
            checks.append(_check(f"p_K[K={k}]",
                                 multi_obs.p_K(p, aloha, r_O, k), mo.p_K[k]))
            checks.append(_check(f"p_h_given_K[K={k}]",
                                 multi_obs.p_h_given_K(p, aloha, r_O, k),
                                 mo.p_h_given_K[k]))
            checks.append(_check(f"p_d_given_K[K={k}]",
                                 multi_obs.p_d_given_K(p, aloha, r_O, k),
                                 mo.p_d_given_K[k]))
            for d_obs in (0, 1):
                checks.append(_check(
                    f"posterior[K={k},d={d_obs}]",
                    multi_obs.posterior_given_K_d(p, aloha, r_O, k, d_obs),
                    mo.posterior[(k, d_obs)]))

    hash_payload = {"command": "validate", "scenario": p.to_dict(),
                    "seed": args.seed, "trials": args.trials,
                    "grid": [float(r) for r in grid],
                    "aloha": args.aloha}
    _emit(args, ("quantity", "status", "analytic", "mc", "stderr", "z",
                 "samples"), checks, [], hash_payload, _render_checks)
    return 1 if any(c["status"] == "FAIL" for c in checks) else 0



# ------------------------------------------------------------------ main

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="guardzone",
        description="Closed-form protocol-vs-physical interference model "
                    "quantities for Poisson networks, with Monte Carlo "
                    "validation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, fn, help_text, cost=False, aloha=False, sweep=False,
            oracle=False):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--scenario", required=True,
                        help="scenario JSON path or preset name (fig1..fig5)")
        sp.add_argument("--grid", default=None,
                        help="'lo:hi:count' log grid or comma-separated values")
        if oracle:
            sp.add_argument("--seed", type=int, default=0)
            sp.add_argument("--trials", type=int, default=100_000)
        sp.add_argument("--format", choices=("csv", "json"), default="csv")
        sp.add_argument("--out", default=None)
        if cost:
            sp.add_argument("--cost", default=None,
                            help="cost JSON {c00,c01,c10,c11}; default uniform")
        if aloha:
            sp.add_argument("--aloha", default=None,
                            help="Aloha JSON {p,N}; default p=0.5, N=1")
        if sweep:
            sp.add_argument("--sweep-density", action="store_true",
                            help="emit chi_star vs. the density-SINR scale "
                                 "for three pathloss regimes")
        sp.set_defaults(fn=fn)
        return sp

    add("correlation", cmd_correlation,
        "indicator correlation vs. chi, with the maximizing chi", sweep=True)
    add("risk", cmd_risk, "Bayes risk curve and optimal guard-zone radius",
        cost=True)
    add("roc", cmd_roc, "Type I/II errors with named operating points")
    add("fading-compare", cmd_fading_compare,
        "paired Rayleigh vs. no-fading posterior and correlation curves")
    add("multiobs", cmd_multiobs,
        "all multi-observation decision rules at one radius", aloha=True)
    add("validate", cmd_validate,
        "Monte Carlo oracle vs. analytic quantities at 3 standard errors",
        aloha=True, oracle=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (BracketError, ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

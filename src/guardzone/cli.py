"""Command-line front end: figure-style data exports and oracle validation.

Subcommands mirror the library: ``correlation``, ``risk``, ``roc``,
``fading-compare``, ``multiobs`` compute analytic curves; ``validate``
runs the Monte Carlo oracle against every analytic quantity in scope.

Each subcommand computes its report as named columns of equal length,
which one renderer writes as CSV (default) with a leading
``# manifest <hash>`` comment, or as JSON via ``--format json``. The
config hash covers the command, the scenario's values and the
subcommand's own inputs. When ``--out`` is given, a sidecar
``<out>.manifest.json`` records scenario, command, seed (``validate``
only; null otherwise), version, timestamp, and the config hash; the
report itself never contains a timestamp, so identical inputs give
identical report bytes. ``--seed`` and ``--trials`` are options of
``validate`` only.

Exit codes: 0 success, 1 validation failure, 2 input error, 3 numerical
failure (a solver that cannot bracket or converge, or a floating-point
fault).
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from datetime import datetime, timezone
from importlib import resources
from pathlib import Path

import numpy as np

from . import __version__, correlation, montecarlo, multi_obs, nofading, risk
from .params import ModelParams, _digest, chi_of_radius, radius_of_chi
from .multi_obs import DecisionRuleTable, _uniform_risk
from .risk import CostMatrix
from .single_obs import evidence_success, posterior, prior_success
from .specfn import gauss_Q


class InputError(Exception):
    """Bad file, flag, or precondition; maps to exit code 2."""


# Presets with the scenario of another preset's file
_SAME_SCENARIO = {"fig2": "fig1", "fig3": "fig1", "fig5": "fig1"}


def _resolve_preset(path: str):
    """Bare preset names like 'fig1' resolve to the shipped scenario files."""
    if "/" not in path and not path.endswith(".json"):
        name = _SAME_SCENARIO.get(path, path)
        preset = resources.files("guardzone") / "scenarios" / f"{name}.json"
        if preset.is_file():
            return preset
    return Path(path)


# JSON inputs: name in error messages, value with no file, maker of value
_INPUT_FILES = {
    "scenario": ("scenario", None, ModelParams.from_dict),
    "cost": ("cost matrix", CostMatrix.uniform(), lambda d: CostMatrix(
        **{k: float(d[k]) for k in ("c00", "c01", "c10", "c11")})),
    "aloha": ("Aloha parameters", multi_obs.AlohaParams(p=0.5, N=1),
              lambda d: multi_obs.AlohaParams(p=float(d["p"]), N=d["N"])),
}


def _load_input(option: str, path: str | None):
    """The value of ``--<option>`` from a file or preset path."""
    what, default, build = _INPUT_FILES[option]
    if path is None:
        return default
    try:
        with open(_resolve_preset(path)) as fh:
            return build(json.load(fh))
    except (OSError, KeyError, TypeError, ValueError) as exc:
        raise InputError(f"cannot load {what} {path!r}: {exc}") from exc


def parse_grid(spec: str | None, default: np.ndarray) -> np.ndarray:
    """Parse ``lo:hi:count`` (log-spaced) or a comma-separated list of
    finite values."""
    if spec is None:
        return default
    try:
        if ":" in spec:
            lo_s, hi_s, count_s = spec.split(":")
            values, count = [float(lo_s), float(hi_s)], int(count_s)
        else:
            values = [float(tok) for tok in spec.split(",")]
        if not all(map(math.isfinite, values)):
            raise ValueError("values must be finite")
        if ":" not in spec:
            return np.array(values)
        lo, hi = values
        if not (0 < lo < hi and count >= 2):
            raise ValueError("need 0 < lo < hi and count >= 2")
        return np.geomspace(lo, hi, count)
    except ValueError as exc:
        raise InputError(f"bad grid spec {spec!r}: {exc}") from exc


# ---------------------------------------------------------------- output

def _fmt(v):
    if isinstance(v, float):
        return f"{v:.12g}"
    return str(v)


def _render_csv(columns, notes, cfg_hash) -> str:
    buf = io.StringIO()
    buf.write(f"# manifest {cfg_hash}\n")
    for c in notes:
        buf.write(f"# {c}\n")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    writer.writerows(zip(*(map(_fmt, c) for c in columns.values())))
    return buf.getvalue()


def _render_json(columns, notes, cfg_hash) -> str:
    rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
    return json.dumps({"manifest": cfg_hash, "notes": notes,
                       "columns": list(columns), "rows": rows},
                      indent=2, default=str) + "\n"


def _emit(args, p, columns, notes, payload, render_text=_render_csv) -> None:
    """Write a report of named ``columns`` of equal length: arrays, whose
    values become Python numbers, or lists. Its hash covers the command,
    the scenario ``p`` and ``payload``, whose keys take precedence."""
    cfg_hash = _digest({"command": args.command, "scenario": p.to_dict(),
                        **payload})
    columns = {name: c.tolist() if isinstance(c, np.ndarray) else c
               for name, c in columns.items()}
    render = _render_json if args.format == "json" else render_text
    text = render(columns, notes, cfg_hash)
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

def cmd_correlation(args, p) -> int:
    if args.sweep_density:
        coeffs = np.geomspace(1e-3, 10.0, 50)
        deltas = (1.0 / 3.0, 0.5, 2.0 / 3.0)
        columns = {"coeff": np.tile(coeffs, len(deltas)),
                   "delta": np.repeat(deltas, len(coeffs)),
                   "chi_star": np.concatenate([correlation.chi_star_from_coeff(
                       coeffs, delta) for delta in deltas])}
        _emit(args, p, columns, [], {"command": "correlation-sweep"})
        return 0
    grid = parse_grid(args.grid, np.geomspace(1e-3, 1e4, 400))
    cs = correlation.chi_star(p)
    chi = np.append(grid, cs)
    columns = {"chi": chi, "rho": correlation.rho(p, chi),
               "f1": correlation.f1(p, chi), "f2": correlation.f2(p, chi),
               "is_chi_star": [0] * len(grid) + [1]}
    comments = [f"chi_star {cs:.6g} r_O_star {radius_of_chi(p, cs):.6g}"]
    _emit(args, p, columns, comments, {"grid": grid.tolist()})
    return 0


def cmd_risk(args, p) -> int:
    cost = _load_input("cost", args.cost)
    grid = parse_grid(args.grid, np.geomspace(0.01 * p.r_T, 100.0 * p.r_T, 400))
    cost.require_regular()
    opt = risk.optimal_radius(p, cost)
    r = np.append(grid, opt.r_O) if opt.exists else grid
    columns = {"r_O": r, "risk": risk.bayes_risk(p, cost, r),
               "risk_deriv": risk.bayes_risk_derivative(p, cost, r),
               "f_L": risk._f_left(p, cost, r), "f_R": risk._f_right(p, r),
               "is_optimum": [0] * len(grid) + [1] * opt.exists}
    if opt.exists:
        comments = [f"r_O_star {opt.r_O:.6g} risk_star {opt.risk:.6g}"]
        if p.eta == 0:
            d_dlam, d_dsig = risk.sensitivities(p, cost)
            comments.append(f"dr_dlambda {d_dlam:.6g} dr_dsigma {d_dsig:.6g}")
    else:
        comments = [f"no interior optimum; risk decreases toward {opt.risk:.6g} "
                    "as r_O grows"]
    _emit(args, p, columns, comments,
          {"cost": [cost.c00, cost.c01, cost.c10, cost.c11],
           "grid": grid.tolist()})
    return 0


def cmd_roc(args, p) -> int:
    grid = parse_grid(args.grid, np.geomspace(0.05 * p.r_T, 50.0 * p.r_T, 200))
    comments = []
    ops = risk.operating_points(p)
    named = [("r_T", p.r_T), ("r_MM", ops.r_MM), ("r_EE", ops.r_EE)]
    if ops.r_DI is not None:
        named.insert(1, ("r_DI", ops.r_DI))
    else:
        comments.append("r_DI omitted: noise alone exceeds the SINR margin "
                        "(1/sigma <= eta)")
    named.append(("r_corr", radius_of_chi(p, correlation.chi_star(p))))
    opt = risk.optimal_radius(p, CostMatrix.uniform())
    if opt.exists:
        named.append(("r_risk", opt.r_O))
    labels, radii = zip(*named)
    r = np.append(grid, radii)
    chi = chi_of_radius(p, r)
    p_i, p_ii = risk.type_errors(p, r, DecisionRuleTable.follow_observation(0))
    columns = {"r_O": r, "chi": chi, "p_I": p_i, "p_II": p_ii,
               "risk": _uniform_risk(p, p_i, p_ii),
               "rho": correlation.rho(p, chi),
               "label": [""] * len(grid) + list(labels)}
    _emit(args, p, columns, comments, {"grid": grid.tolist()})
    return 0


def cmd_fading_compare(args, p) -> int:
    grid = parse_grid(args.grid, np.geomspace(0.1 * p.r_T, 30.0 * p.r_T, 80))
    chi = chi_of_radius(p, grid)
    ilt = nofading._invert(p, grid)
    columns = {"r_O": grid, "chi": chi,
               "posterior_fading": posterior(p, grid).p_h1_d1,
               "posterior_nofading": ilt.value,
               "rho_fading": correlation.rho(p, chi),
               "rho_nofading": nofading._rho_given_posterior(p, grid, ilt.value),
               "ilt_error": ilt.error_estimate,
               "ilt_converged": (ilt.terms_used > 0).astype(int)}
    _emit(args, p, columns, [], {"grid": grid.tolist()})
    return 0


def cmd_multiobs(args, p) -> int:
    aloha = _load_input("aloha", args.aloha)
    grid = parse_grid(args.grid, np.array([2.0 * p.r_T]))
    if len(grid) != 1:
        raise InputError("multiobs evaluates all rules at a single r_O; "
                         "pass exactly one grid value")
    r_O = float(grid[0])
    evals = multi_obs.enumerate_rules(p, aloha, r_O)
    best = min(evals, key=lambda e: e.risk)
    worst = max(evals, key=lambda e: e.risk)
    columns = {"rule": [e.rule.bits for e in evals],
               "p_I": [e.p_I for e in evals], "p_II": [e.p_II for e in evals],
               "risk": [e.risk for e in evals],
               "is_best": [int(e is best) for e in evals],
               "is_worst": [int(e is worst) for e in evals]}
    comments = [f"best {best.rule.bits} risk {best.risk:.6g}",
                f"worst {worst.rule.bits} risk {worst.risk:.6g}"]
    _emit(args, p, columns, comments,
          {"aloha": {"p": aloha.p, "N": aloha.N}, "r_O": r_O})
    return 0


# -------------------------------------------------------------- validate

# Family-wise level of validate's checks, that of a single two-sided test
# at 3 standard errors
_FAMILY_ALPHA = 2.0 * gauss_Q(3.0)


def _check(name, analytic, est: montecarlo.Estimate):
    """One oracle comparison with its two-sided p-value, decided alone:
    within 3 standard errors. :func:`_holm` decides a family of them.
    Only a low-confidence estimate is skipped (p is nan); a nan analytic
    value, estimate or standard error gets p = 0, so it fails."""
    row = {"quantity": name, "status": "SKIP", "analytic": analytic,
           "mc": est.value, "stderr": est.stderr, "z": math.nan,
           "samples": est.count, "p": math.nan}
    if est.low_confidence:
        return row
    if est.stderr == 0.0:
        row["p"] = _exact_pvalue(analytic, est)
    else:
        row["z"] = (est.value - analytic) / est.stderr
        row["p"] = 2.0 * gauss_Q(abs(row["z"]))
    if math.isnan(row["p"]):
        row["p"] = 0.0
    _holm([row])
    return row


def _exact_pvalue(analytic, est: montecarlo.Estimate) -> float:
    """Two-sided p-value of a count with no standard error: twice the
    binomial probability ``(1 - analytic)**n`` of 0/n, or ``analytic**n``
    of n/n. At ``_FAMILY_ALPHA`` this is the Clopper-Pearson bound of
    3 standard errors. Any other zero-error estimate must equal
    ``analytic``."""
    a = min(max(analytic, 0.0), 1.0)
    if est.value == 0.0:
        log_p = est.count * math.log1p(-a) if a < 1.0 else -math.inf
    elif est.value == 1.0:
        log_p = est.count * math.log(a) if a > 0.0 else -math.inf
    else:
        return 1.0 if analytic == est.value else 0.0
    return min(1.0, 2.0 * math.exp(log_p))


def _holm(checks) -> None:
    """Decide the checks with a p-value together by Holm-Bonferroni at
    the family-wise level ``_FAMILY_ALPHA``: the i-th smallest of m
    p-values fails while it, and each smaller one, is below
    ``alpha / (m - i)``. A zero-error check gets z = 0 if it passes, else
    infinity."""
    tested = sorted((c for c in checks if not math.isnan(c["p"])),
                    key=lambda c: c["p"])
    m = len(tested)
    rejecting = True
    for i, c in enumerate(tested):
        rejecting = rejecting and c["p"] < _FAMILY_ALPHA / (m - i)
        c["status"] = "FAIL" if rejecting else "PASS"
        if c["stderr"] == 0.0:
            c["z"] = math.inf if rejecting else 0.0


def _render_checks(columns, notes, cfg_hash) -> str:
    """validate's text report: the notes, one line per check, then the
    verdict."""
    status = columns["status"]
    failures = status.count("FAIL")
    evaluated = len(status) - status.count("SKIP")
    lines = [f"# manifest {cfg_hash}"] + [f"# {c}" for c in notes]
    names = ("status", "quantity", "analytic", "mc", "stderr", "z", "p",
             "samples")
    for s, q, a, mc, se, z, p, n in zip(*(columns[c] for c in names)):
        lines.append(f"{s:4s} {q:30s} analytic={a:.6f} mc={mc:.6f} "
                     f"se={se:.2e} z={z:+.2f} p={p:.2e} n={n}")
    verdict = "PASSED" if failures == 0 else "FAILED"
    lines.append(f"VALIDATION {verdict} "
                 f"({evaluated - failures}/{evaluated} checks)")
    return "\n".join(lines) + "\n"


def cmd_validate(args, p) -> int:
    cfg = montecarlo.SimConfig(trials=args.trials, seed=args.seed)
    grid = parse_grid(args.grid, np.array([10.0, 30.0, 50.0, 80.0]))
    checks = []

    sim = montecarlo.estimate_single(p, grid, cfg)
    estimates = [sim.config_hash]
    post = posterior(p, grid)
    p_i, p_ii = risk.type_errors(p, grid,
                                 DecisionRuleTable.follow_observation(0))
    # the analytic column of each estimate field, in report order
    analytic = {"evidence": evidence_success(p, grid),
                "posterior_d1": post.p_h1_d1, "posterior_d0": post.p_h1_d0,
                "rho": correlation.rho(p, chi_of_radius(p, grid)),
                "p_I": p_i, "p_II": p_ii}
    checks.append(_check("prior", prior_success(p), sim.prior))
    for i, r in enumerate(sim.r_O_grid):
        for name, column in analytic.items():
            checks.append(_check(f"{name}[r_O={r:g}]", float(column[i]),
                                 getattr(sim, name)[i]))

    if p.alpha == 2 * p.n:
        nf_cfg = montecarlo.SimConfig(trials=args.trials, seed=args.seed,
                                      fading="none")
        nf = montecarlo.estimate_single(p, grid, nf_cfg)
        estimates.append(nf.config_hash)
        checks.append(_check("prior_nofading", nofading.levy_prior(p), nf.prior))
        post_nf = nofading._invert(p, grid, strict=True).value
        for i, r in enumerate(nf.r_O_grid):
            checks.append(_check(f"posterior_nofading[r_O={r:g}]",
                                 float(post_nf[i]), nf.posterior_d1[i]))

    aloha = None
    if args.aloha is not None:
        aloha = _load_input("aloha", args.aloha)
        r_O = float(grid[0])
        mo = montecarlo.estimate_multiobs(p, aloha, r_O, cfg)
        estimates.append(mo.config_hash)
        laws = multi_obs._by_K(p, aloha, r_O)
        for k in range(aloha.N + 1):
            for name in ("p_K", "p_h_given_K", "p_d_given_K"):
                checks.append(_check(f"{name}[K={k}]", float(laws[name][k]),
                                     getattr(mo, name)[k]))
            for d_obs in (0, 1):
                checks.append(_check(
                    f"posterior[K={k},d={d_obs}]",
                    float(laws["posterior"][k, d_obs]),
                    mo.posterior[(k, d_obs)]))

    _holm(checks)
    columns = {name: [c[name] for c in checks] for name in checks[0]}
    evaluated = len(checks) - columns["status"].count("SKIP")
    notes = [f"family-wise level {_FAMILY_ALPHA:.4g} (Holm-Bonferroni over "
             f"{evaluated} checks)"]
    payload = {"seed": args.seed, "trials": args.trials,
               "grid": grid.tolist(),
               "aloha": None if aloha is None else vars(aloha),
               # each simulation's own hash, which names its generator
               "estimates": estimates}
    _emit(args, p, columns, notes, payload, _render_checks)
    return 1 if "FAIL" in columns["status"] else 0


# ------------------------------------------------------------------ main

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built once a process. It holds no command function:
    :func:`main` looks ``cmd_<command>`` up at each call, so a function
    rebound in this module, such as a tracing wrapper, is the one run."""
    parser = argparse.ArgumentParser(
        prog="guardzone",
        description="Closed-form protocol-vs-physical interference model "
                    "quantities for Poisson networks, with Monte Carlo "
                    "validation.")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    def add(name, help_text, cost=False, aloha=False, sweep=False,
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

    add("correlation",
        "indicator correlation vs. chi, with the maximizing chi", sweep=True)
    add("risk", "Bayes risk curve and optimal guard-zone radius", cost=True)
    add("roc", "Type I/II errors with named operating points")
    add("fading-compare",
        "paired Rayleigh vs. no-fading posterior and correlation curves")
    add("multiobs", "all multi-observation decision rules at one radius",
        aloha=True)
    add("validate",
        "Monte Carlo oracle vs. analytic quantities, Holm-Bonferroni at "
        "the level of 3 standard errors",
        aloha=True, oracle=True)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return command(args, _load_input("scenario", args.scenario))
    except (InputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    # BracketError and IltConvergenceError are RuntimeErrors
    except (RuntimeError, ArithmeticError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())

"""Checkers for the program's reports.

Each checker takes a parsed report plus reference values and returns a
list of problems; an empty list means the report is correct. The
reference values come from :mod:`reference` (or, in the tests, are
perturbed on purpose), never from the program under test.
"""

from __future__ import annotations

import csv
import json
import math

import numpy as np
from scipy import special, stats

# Family-wise false-alarm rate of the Monte Carlo comparisons in one report.
ALPHA_FAMILY = 1e-6
# The simulator truncates the network at a radius whose mean neglected
# interference is 1e-3 of the SINR margin; estimates may sit that far
# (absolute, in probability) from the infinite-network reference.
TRUNCATION_SLACK = 1e-3
# Relative tolerance for every row of a figure export against the double
# precision reference (worst today: roc p_II, 5e-8, from the program's
# cancellation in risk.type_errors).
ROW_TOL = 1e-6


def parse_csv(text: str) -> tuple[list[str], list[dict]]:
    """(comment lines without '# ', rows as dicts of strings)."""
    lines = text.splitlines()
    comments = [ln[2:] for ln in lines if ln.startswith("# ")]
    body = [ln for ln in lines if not ln.startswith("#")]
    return comments, list(csv.DictReader(body))


def parse_json(text: str) -> tuple[list[str], list[dict]]:
    doc = json.loads(text)
    return doc["notes"], doc["rows"]


def close(value: float, ref: float, rel: float, abs_tol: float = 0.0) -> bool:
    return abs(value - ref) <= max(rel * abs(ref), abs_tol)


def mismatch(label, value, ref, rel, abs_tol=0.0) -> list[str]:
    if close(value, ref, rel, abs_tol):
        return []
    return [f"{label}: got {float(value)!r}, reference {float(ref)!r}"]


def rows_mismatch(label, values, refs, rel, abs_tol=0.0) -> list[str]:
    """Every row must match its reference; one problem names the rows that
    do not (a NaN never matches)."""
    values = np.asarray(values, dtype=float)
    refs = np.asarray(refs, dtype=float)
    ok = np.abs(values - refs) <= np.maximum(rel * np.abs(refs), abs_tol)
    bad = np.flatnonzero(~ok)
    if bad.size == 0:
        return []
    i = bad[0]
    return [f"{label}: {bad.size} of {values.size} rows off; row {i}: got "
            f"{values[i]!r}, reference {refs[i]!r}"]


def same_bytes(first: dict[str, str], other: dict[str, str], label: str) -> list[str]:
    """Reports (op name -> text) must not change between passes or with
    tracing."""
    return [f"{label}: report of {op} changed"
            for op in first if other.get(op) != first[op]]


# ---------------------------------------------------------------- oracle

def rho_stderr(pH: float, pD: float, pHD: float, trials: int) -> float:
    """Delta-method standard error of the phi coefficient under the full
    multinomial model of the four (H, D) cells."""
    cells = np.array([pHD, pH - pHD, pD - pHD, 1.0 - pH - pD + pHD])

    def phi(c):
        h, d = c[0] + c[1], c[0] + c[2]
        return (c[0] - h * d) / math.sqrt(h * (1 - h) * d * (1 - d))

    step = 1e-7
    grad = np.array([(phi(cells + step * e) - phi(cells - step * e)) / (2 * step)
                     for e in np.eye(4)])
    var = (cells @ grad**2 - (cells @ grad) ** 2) / trials
    return math.sqrt(max(var, 0.0))


def binomial_pvalue(k: int, n: int, p_lo: float, p_hi: float) -> float:
    """Two-sided exact binomial p-value of k successes in n against any
    success probability in [p_lo, p_hi]."""
    p_lo, p_hi = max(p_lo, 0.0), min(p_hi, 1.0)
    low_tail = stats.binom.cdf(k, n, p_hi)
    high_tail = stats.binom.sf(k - 1, n, p_lo)
    return min(1.0, 2.0 * min(low_tail, high_tail))


def check_validate(rows: list[dict], refs: dict, rho_cells: dict,
                   analytic_tol: dict | None = None) -> list[str]:
    """Check a ``validate --format json`` report.

    ``refs`` maps each quantity name to its reference probability;
    ``rho_cells`` maps each ``rho[...]`` name to the reference (pH, pD,
    pHD) used for its calibrated standard error. The analytic column must
    match the reference to ``analytic_tol[name] = (relative, absolute)``,
    by default (1e-6, 1e-12); the Monte Carlo column must not be rejected
    at the family-wise
    rate ALPHA_FAMILY, with an exact binomial test for proportions (so a
    zero count is judged by its exact probability) and a z test with the
    calibrated standard error for rho.
    """
    analytic_tol = analytic_tol or {}
    problems = []
    names = [r["quantity"] for r in rows]
    if sorted(names) != sorted(refs):
        problems.append(f"quantities {sorted(set(names) ^ set(refs))} "
                        "missing or unexpected")
    tested = [r for r in rows if r["quantity"] in refs and r["samples"] > 0]
    alpha = ALPHA_FAMILY / max(len(tested), 1)
    z_crit = float(special.ndtri(1.0 - alpha / 2.0))
    for row in tested:
        name, ref = row["quantity"], refs[row["quantity"]]
        rel, abs_tol = analytic_tol.get(name, (1e-6, 1e-12))
        problems += mismatch(f"{name} analytic", row["analytic"], ref, rel,
                              abs_tol)
        n, mc = int(row["samples"]), float(row["mc"])
        if name in rho_cells:
            se = rho_stderr(*rho_cells[name], n)
            z = (abs(mc - ref) - TRUNCATION_SLACK) / se
            if z > z_crit:
                problems.append(f"{name}: mc {mc:.6g} is {z:.1f} calibrated "
                                f"SE from reference {ref:.6g}")
            continue
        k = round(mc * n)
        pv = binomial_pvalue(k, n, ref - TRUNCATION_SLACK, ref + TRUNCATION_SLACK)
        if pv < alpha:
            problems.append(f"{name}: mc {k}/{n} has p-value {pv:.2e} "
                            f"against reference {ref:.6g}")
    return problems


def check_exit(rc: int, allowed=(0,)) -> list[str]:
    return [] if rc in allowed else [f"exit code {rc}, expected {allowed}"]


# ---------------------------------------------------------------- rules

def check_rules(rows: list[dict], notes: list[str], N: int,
                cells: dict, prior_thin: float) -> list[str]:
    """Check a ``multiobs --format json`` report for Aloha history length N.

    ``cells[(K, d, h)]`` is the reference joint probability of history K,
    current observation d and physical outcome h; ``prior_thin`` is P(h=1).
    """
    width = 2 * (N + 1)
    problems = []
    if len(rows) != 4 ** (N + 1):
        problems.append(f"N={N}: {len(rows)} rules, expected {4 ** (N + 1)}")
    best = [r["rule"] for r in rows if r["is_best"]]
    worst = [r["rule"] for r in rows if r["is_worst"]]
    if best != ["01" * (N + 1)] or worst != ["10" * (N + 1)]:
        problems.append(f"N={N}: best {best}, worst {worst}")
    if not any(n.startswith("best " + "01" * (N + 1)) for n in notes):
        problems.append(f"N={N}: notes do not name the best rule")
    bits = np.array([[c == "1" for c in r["rule"]] for r in rows], dtype=float)
    if bits.shape[1:] != (width,):
        return problems + [f"N={N}: rule width {bits.shape[1:]}"]
    p_i = np.array([r["p_I"] for r in rows])
    p_ii = np.array([r["p_II"] for r in rows])
    risk = np.array([r["risk"] for r in rows])

    # Errors add over the (K, d) cells: compare each rule with the sum of
    # its single-cell rules, as reported.
    single = {r["rule"]: (r["p_I"], r["p_II"]) for r in rows
              if r["rule"].count("1") == 1}
    if len(single) != width:
        return problems + [f"N={N}: {len(single)} single-cell rules"]
    cell_i = np.array([single["0" * i + "1" + "0" * (width - i - 1)][0]
                       for i in range(width)])
    cell_ii = np.array([1.0 - single["0" * i + "1" + "0" * (width - i - 1)][1]
                        for i in range(width)])
    worst_i = np.max(np.abs(bits @ cell_i - p_i))
    worst_ii = np.max(np.abs(1.0 - bits @ cell_ii - p_ii))
    if max(worst_i, worst_ii) > 1e-12:
        problems.append(f"N={N}: rule errors not additive over cells "
                        f"(p_I off by {worst_i:.1e}, p_II by {worst_ii:.1e})")
    worst_risk = np.max(np.abs(p_i * (1 - prior_thin) + p_ii * prior_thin - risk))
    if worst_risk > 1e-12:
        problems.append(f"N={N}: risk column off by {worst_risk:.1e}")

    p_h0 = sum(v for (_, _, h), v in cells.items() if h == 0)
    for i in range(width):
        K, d = divmod(i, 2)
        problems += mismatch(f"N={N} cell ({K},{d}) p_I", cell_i[i],
                              cells[(K, d, 0)] / p_h0, 1e-9, 1e-15)
        problems += mismatch(f"N={N} cell ({K},{d}) P(cell|h=1)", cell_ii[i],
                              cells[(K, d, 1)] / prior_thin, 1e-9, 1e-15)
    return problems


# ---------------------------------------------------------------- figures

def check_correlation(rows, notes, chi_star_ref, rho_ref) -> list[str]:
    """``rho_ref``: reference rho of every grid row."""
    problems = []
    grid = [r for r in rows if r["is_chi_star"] == "0"]
    star = [r for r in rows if r["is_chi_star"] == "1"]
    if len(grid) != 400 or len(star) != 1:
        return [f"correlation: {len(grid)} grid rows, {len(star)} chi* rows"]
    problems += mismatch("correlation chi*", float(star[0]["chi"]),
                          chi_star_ref, 1e-9)
    rho = np.array([float(r["rho"]) for r in grid])
    if not float(star[0]["rho"]) >= rho.max():
        problems.append("correlation: rho(chi*) below a grid value")
    return problems + rows_mismatch("correlation rho", rho, rho_ref, ROW_TOL)


def check_sweep(rows, chi_star_ref) -> list[str]:
    """``chi_star_ref``: reference chi* of every row."""
    problems = []
    if len(rows) != 150:
        problems.append(f"sweep: {len(rows)} rows, expected 150")
    if not all(r["chi_star"] > 1.0 for r in rows):
        problems.append("sweep: chi* not above 1")
    return problems + rows_mismatch("sweep chi*", [r["chi_star"] for r in rows],
                                    chi_star_ref, ROW_TOL)


def _interior_minima(values) -> int:
    v = np.asarray(values)
    return int(np.sum((v[1:-1] < v[:-2]) & (v[1:-1] < v[2:])))


def check_risk(rows, notes, r_opt_ref, risk_ref) -> list[str]:
    """``risk_ref``: reference uniform-cost risk of every grid row."""
    problems = []
    grid = [r for r in rows if r["is_optimum"] == "0"]
    opt = [r for r in rows if r["is_optimum"] == "1"]
    if len(grid) != 400 or len(opt) != 1:
        return [f"risk: {len(grid)} grid rows, {len(opt)} optimum rows"]
    risk = [float(r["risk"]) for r in grid]
    if _interior_minima(risk) != 1:
        problems.append(f"risk: {_interior_minima(risk)} interior minima")
    problems += mismatch("risk r_O*", float(opt[0]["r_O"]), r_opt_ref, 1e-9)
    if not float(opt[0]["risk"]) <= min(risk):
        problems.append("risk: optimum above a grid value")
    sens = [n for n in notes if n.startswith("dr_dlambda")]
    if len(sens) != 1 or not all(float(x) > 0 for x in sens[0].split()[1::2]):
        problems.append(f"risk: sensitivities not both positive: {sens}")
    return problems + rows_mismatch("risk", risk, risk_ref, ROW_TOL)


def check_roc(rows, named_refs, grid_refs) -> list[str]:
    """``named_refs``: label -> reference radius (r_corr, r_risk), plus
    ``prior`` and ``sigma``/``alpha`` for the r_MM and r_DI identities;
    ``grid_refs``: column -> reference values of every grid row."""
    problems = []
    grid = [r for r in rows if r["label"] == ""]
    named = {r["label"]: r for r in rows if r["label"]}
    if len(grid) != 200:
        problems.append(f"roc: {len(grid)} grid rows")
    p_i = np.array([float(r["p_I"]) for r in grid])
    p_ii = np.array([float(r["p_II"]) for r in grid])
    if not (np.all(np.diff(p_i) <= 0) and p_i[-1] < p_i[0]):
        problems.append("roc: p_I does not fall along r_O")
    if not (np.all(np.diff(p_ii) >= 0) and p_ii[-1] > p_ii[0]):
        problems.append("roc: p_II does not rise along r_O")
    expected = {"r_T", "r_DI", "r_MM", "r_EE", "r_corr", "r_risk"}
    if set(named) != expected:
        return problems + [f"roc: named rows {sorted(named)}"]
    ee = named["r_EE"]
    problems += mismatch("roc r_EE p_I - p_II", float(ee["p_I"]),
                          float(ee["p_II"]), 1e-9)
    for label in ("r_corr", "r_risk"):
        problems += mismatch(f"roc {label}", float(named[label]["r_O"]),
                              named_refs[label], 1e-9)
    problems += mismatch("roc P(D)(r_MM)", named_refs["evidence_at_r_MM"],
                          named_refs["prior"], 1e-9)
    r_di = float(named["r_DI"]["r_O"])
    problems += mismatch("roc r_DI**alpha", r_di ** named_refs["alpha"],
                          named_refs["sigma"], 1e-9)
    for col, ref in grid_refs.items():
        problems += rows_mismatch(f"roc {col}", [r[col] for r in grid], ref,
                                  ROW_TOL)
    return problems


def check_fading_compare(rows, refs) -> list[str]:
    """``refs``: column -> (row indices, reference values, rel, abs).

    Both posteriors must also rise with r_O, as clearing a larger zone
    removes interferers."""
    problems = []
    if len(rows) != 80:
        problems.append(f"fading-compare: {len(rows)} rows")
    bad = [r["r_O"] for r in rows if r["ilt_converged"] != "1"]
    if bad:
        problems.append(f"fading-compare: ILT not converged at r_O {bad}")
    for col in ("posterior_fading", "posterior_nofading"):
        values = np.array([float(r[col]) for r in rows])
        if not np.all(np.diff(values) >= 0):
            problems.append(f"fading-compare: {col} falls along r_O")
    for col, (index, ref, rel, abs_tol) in refs.items():
        problems += rows_mismatch(f"fading-compare {col}",
                                  [rows[i][col] for i in index], ref, rel, abs_tol)
    return problems

"""Acceptance gate: the ten binding criteria, one test each.

Every test records a single PASS/FAIL line (printed in the terminal
summary) and asserts the criterion at its stated tolerance and runtime
budget. The Monte Carlo comparisons use the full trial budgets, so this
module dominates the suite's runtime.
"""

import math
import time
from dataclasses import replace

import numpy as np
from scipy import special

from guardzone import correlation, montecarlo as mc, multi_obs as mo
from guardzone import nofading, specfn
from guardzone.params import ModelParams, chi_of_radius, derive
from guardzone.risk import (CostMatrix, bayes_risk, operating_points,
                            optimal_radius, sensitivities, type_errors)
from guardzone.single_obs import evidence_success, posterior, prior_success

FIG1 = ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10)
FIG4 = ModelParams(n=2, density=2e-3, alpha=4, beta=5, r_T=10)
ALOHA = mo.AlohaParams(p=0.5, N=1)

RESULTS = []


def record(num, name, ok, detail):
    verdict = "PASS" if ok else "FAIL"
    RESULTS.append(f"{verdict} [criterion {num:2d}] {name}: {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def within_3se(analytic, est):
    return est.stderr > 0 and abs(est.value - analytic) <= 3.0 * est.stderr


def test_criterion_1_chi_star():
    t0 = time.perf_counter()
    cs = correlation.chi_star(FIG1)
    elapsed = time.perf_counter() - t0
    ok = abs(cs - 2.08) <= 0.02 and elapsed < 1.0
    record(1, "chi_star reproduction", ok,
           f"chi*={cs:.4f} (target 2.08+-0.02) in {elapsed:.2f}s")


def test_criterion_2_remark_values():
    t0 = time.perf_counter()
    single = posterior(FIG1.thinned(0.5), 50.0).p_h1_d0
    multi00, multi10 = mo.aloha_laws(FIG1, ALOHA, 50.0).posterior[:, 0]
    elapsed = time.perf_counter() - t0
    ok = (abs(single - 0.68) <= 0.01 and abs(multi00 - 0.67) <= 0.01
          and abs(multi10 - 0.72) <= 0.01 and elapsed < 1.0)
    record(2, "busy-zone posteriors", ok,
           f"single={single:.4f} (0.68), K=0: {multi00:.4f} (0.67), "
           f"K=1: {multi10:.4f} (0.72) in {elapsed:.2f}s")


def test_criterion_3_rule_optimality():
    t0 = time.perf_counter()
    ok = True
    details = []
    for N, count in ((1, 16), (2, 64)):
        evals = mo.enumerate_rules(FIG1, mo.AlohaParams(p=0.5, N=N),
                                   2.0 * FIG1.r_T)
        best = min(evals, key=lambda e: e.risk)
        worst = max(evals, key=lambda e: e.risk)
        ok &= (len(evals) == count
               and best.rule.bits == "01" * (N + 1)
               and worst.rule.bits == "10" * (N + 1))
        details.append(f"N={N}: {len(evals)} rules, "
                       f"best={best.rule.bits}, worst={worst.rule.bits}")
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 5.0
    record(3, "rule optimality", ok, "; ".join(details) + f" in {elapsed:.1f}s")


def test_criterion_4_single_obs_oracle():
    t0 = time.perf_counter()
    grid = [10.0, 30.0, 50.0, 80.0]
    est = mc.estimate_single(FIG1, grid, mc.SimConfig(trials=100_000, seed=11))
    checks = [("p_H", prior_success(FIG1), est.prior)]
    for i, r in enumerate(grid):
        chi = chi_of_radius(derive(FIG1), r)
        p_i, p_ii = type_errors(FIG1, r,
                                mo.DecisionRuleTable.follow_observation(0))
        checks += [
            (f"p_D@{r:g}", evidence_success(FIG1, r), est.evidence[i]),
            (f"p_H|D@{r:g}", posterior(FIG1, r).p_h1_d1, est.posterior_d1[i]),
            (f"rho@{r:g}", correlation.rho(FIG1, chi), est.rho[i]),
            (f"p_I@{r:g}", p_i, est.p_I[i]),
            (f"p_II@{r:g}", p_ii, est.p_II[i]),
        ]
    failures = [name for name, a, e in checks if not within_3se(a, e)]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 60.0
    record(4, "single-observation oracle", ok,
           f"{len(checks) - len(failures)}/{len(checks)} quantities within "
           f"3 SE (10^5 trials) in {elapsed:.0f}s"
           + (f"; failed: {failures}" if failures else ""))


def test_criterion_5_multi_obs_oracle():
    t0 = time.perf_counter()
    r_O = 50.0
    est = mc.estimate_multiobs(FIG1, ALOHA, r_O,
                               mc.SimConfig(trials=100_000, seed=13))
    laws = mo.aloha_laws(FIG1, ALOHA, r_O)
    checks = []
    for k in range(ALOHA.N + 1):
        checks += [
            (f"p_K@{k}", laws.p_K[k], est.p_K[k]),
            (f"p_H|K@{k}", laws.p_h_given_K[k], est.p_h_given_K[k]),
            (f"p_D|K@{k}", laws.p_d_given_K[k], est.p_d_given_K[k]),
        ]
        for d_obs in (0, 1):
            checks.append((f"p_H|K,D@({k},{d_obs})", laws.posterior[k, d_obs],
                           est.posterior[(k, d_obs)]))
    failures = [name for name, a, e in checks if not within_3se(a, e)]
    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    record(5, "multi-observation oracle", ok,
           f"{len(checks) - len(failures)}/{len(checks)} quantities within "
           f"3 SE (10^5 networks) in {elapsed:.0f}s"
           + (f"; failed: {failures}" if failures else ""))


def test_criterion_6_ilt_anchor():
    t0 = time.perf_counter()
    anchors = []
    for p in (FIG4,
              ModelParams(n=1, density=5e-3, alpha=2, beta=3, r_T=5),
              ModelParams(n=2, density=5e-4, alpha=4, beta=2, r_T=12)):
        gap = abs(nofading.posterior_nofade(p, 1e-3 * p.r_T).value
                  - nofading.levy_prior(p))
        anchors.append(gap)
    anchor_ok = max(anchors) < 1e-4

    grid = [5.0, 10.0, 15.0, 20.0, 25.0]
    est = mc.estimate_single(FIG4, grid,
                             mc.SimConfig(trials=100_000, seed=17,
                                          fading="none"))
    failures = [r for i, r in enumerate(grid) if not within_3se(
        nofading.posterior_nofade(FIG4, r).value, est.posterior_d1[i])]
    elapsed = time.perf_counter() - t0
    ok = anchor_ok and not failures
    record(6, "Laplace-inversion anchor", ok,
           f"max anchor gap {max(anchors):.1e} (<1e-4); "
           f"{len(grid) - len(failures)}/{len(grid)} no-fading posteriors "
           f"within 3 SE in {elapsed:.0f}s"
           + (f"; failed radii: {failures}" if failures else ""))


def test_criterion_7_fading_impact():
    grid = np.geomspace(5.0, 60.0, 60)
    nofade_peak = max(nofading.rho_nofade(FIG4, r) for r in grid)
    d = derive(FIG4)
    rayleigh_peak = max(correlation.rho(FIG4, chi_of_radius(d, r))
                        for r in grid)
    ok = abs(nofade_peak - 0.8) <= 0.05 and abs(rayleigh_peak - 0.4) <= 0.05
    record(7, "fading-impact magnitudes", ok,
           f"no-fading peak {nofade_peak:.3f} (0.80+-0.05), "
           f"Rayleigh peak {rayleigh_peak:.3f} (0.40+-0.05)")


def test_criterion_8_sensitivities():
    uniform = CostMatrix.uniform()
    scenarios = [FIG1,
                 ModelParams(n=2, density=5e-4, alpha=3.5, beta=2, r_T=8),
                 ModelParams(n=1, density=1e-2, alpha=2.2, beta=4, r_T=3)]
    worst = 0.0
    positive = True
    for p in scenarios:
        d_dlam, d_dsig = sensitivities(p, uniform)
        positive &= d_dlam > 0 and d_dsig > 0
        h = 1e-6
        lam, sigma = p.density, derive(p).sigma
        fd_lam = (optimal_radius(replace(p, density=lam * (1 + h)),
                                 uniform).r_O
                  - optimal_radius(replace(p, density=lam * (1 - h)),
                                   uniform).r_O) / (2 * h * lam)
        fd_sig = (optimal_radius(replace(p, beta=p.beta * (1 + h)),
                                 uniform).r_O
                  - optimal_radius(replace(p, beta=p.beta * (1 - h)),
                                   uniform).r_O) / (2 * h * sigma)
        worst = max(worst, abs(d_dlam / fd_lam - 1), abs(d_dsig / fd_sig - 1))
    ok = positive and worst < 1e-3
    record(8, "optimal-radius sensitivities", ok,
           f"max relative FD mismatch {worst:.1e} (<1e-3), all positive")


def test_criterion_9_limit_identity_suite():
    uniform = CostMatrix.uniform()
    pH = prior_success(FIG1)
    endpoint_gap = max(abs(bayes_risk(FIG1, uniform, 1e-8) - (1 - pH)),
                       abs(bayes_risk(FIG1, uniform, 1e8) - pH))

    ltp = max(abs(prior_success(FIG1)
                  - posterior(FIG1, r).p_h1_d1 * evidence_success(FIG1, r)
                  - posterior(FIG1, r).p_h1_d0
                  * (1 - evidence_success(FIG1, r)))
              for r in np.geomspace(0.5, 500.0, 40))

    kappa_gap = max(abs(specfn.kappa(d)
                        - special.gamma(1 + d) * special.gamma(1 - d))
                    for d in (1 / 3, 0.5, 2 / 3))
    int_gap = max(abs(specfn.int_I(u, d) + specfn.power_gap(u, d) - u**d)
                  for d in (1 / 3, 0.5, 2 / 3)
                  for u in (0.1, 1.0, 5.0, 9.0))

    # window sum under the tilted law vs. direct Poisson expectation of
    # (a^M)^k (1-a^M)^l, truncated far beyond the mean
    fd_gap = 0.0
    for nu, a in ((0.5, 0.3), (4.0, 0.6), (12.0, 0.9)):
        for k in range(6):
            for l in range(6):
                poisson = sum(
                    math.exp(-nu + m * math.log(nu) - math.lgamma(m + 1))
                    * a ** (m * k) * (1 - a**m) ** l
                    for m in range(int(nu + 15 * math.sqrt(nu) + 60)))
                fd_gap = max(fd_gap, abs(mo.f_d(nu, a, k, l) - poisson))

    order_ok = True
    for beta in (1.0, 2.0, 5.0, 20.0):
        p = replace(FIG1, beta=beta)
        ops = operating_points(p)
        # equality holds exactly at beta = 1; allow for roundoff there
        eps = 1e-9 * p.r_T
        order_ok &= p.r_T <= ops.r_DI + eps <= ops.r_MM + 2 * eps

    ok = (endpoint_gap < 1e-6 and ltp < 1e-10 and kappa_gap < 1e-10
          and int_gap < 1e-10 and fd_gap < 1e-10 and order_ok)
    record(9, "limit and identity suite", ok,
           f"endpoints {endpoint_gap:.1e}, total-probability {ltp:.1e}, "
           f"kappa {kappa_gap:.1e}, int_I {int_gap:.1e}, f_d {fd_gap:.1e}, "
           f"ordering {'ok' if order_ok else 'violated'}")


def test_criterion_10_unimodality():
    grid = np.geomspace(0.1, 1e4, 1000)
    vals = np.array([bayes_risk(FIG1, CostMatrix.uniform(), r) for r in grid])
    interior_minima = sum(
        1 for i in range(1, len(vals) - 1)
        if vals[i] < vals[i - 1] and vals[i] < vals[i + 1])
    ok = interior_minima == 1
    record(10, "risk unimodality", ok,
           f"{interior_minima} local minimum(s) on a 1000-point log grid")

"""Per-layer metrics: a traced run of the workload plus microbenchmarks.

Layers are the package's modules. For each, the traced passes give calls
and self time per pass of its public functions; the microbenchmarks time
single calls at fixed inputs with tracing off.
"""

from __future__ import annotations

import inspect
import statistics
import time

import numpy as np

from spans import Tracer, default_targets

CLI_COMMANDS = {"correlation": "cmd_correlation", "risk": "cmd_risk",
                "roc": "cmd_roc", "fading-compare": "cmd_fading_compare",
                "multiobs": "cmd_multiobs", "validate": "cmd_validate"}
SPANS = ("specfn.power_gap", "specfn.int_I", "params.derive",
         "single_obs.posterior", "correlation.rho",
         "correlation.chi_star_from_coeff", "risk.bayes_risk",
         "risk.type_errors", "nofading.posterior_nofade",
         "multi_obs.rule_errors", "multi_obs.f_d")
SELF_ONLY = ("multi_obs.enumerate_rules", "montecarlo.estimate_single",
             "montecarlo.estimate_multiobs")
MICRO = (("specfn.power_gap_quad_us", "us"), ("specfn.power_gap_tail_us", "us"),
         ("single_obs.posterior_us", "us"), ("correlation.chi_star_ms", "ms"),
         ("correlation.rho_curve_400_ms", "ms"), ("risk.optimal_radius_ms", "ms"),
         ("risk.operating_points_ms", "ms"), ("nofading.posterior_nofade_ms", "ms"))
DERIVED = (("nofading.ilt_terms", "count"), ("multi_obs.rules_per_s", "1/s"),
           ("montecarlo.interferers", "count"),
           ("montecarlo.ns_per_interferer", "ns"),
           ("montecarlo.trials_per_s", "1/s"))


def metric_units() -> dict[str, str]:
    """Every per-layer metric this module reports, with its unit."""
    units = {}
    for name in SPANS:
        units[f"{name}.calls"] = "count"
        units[f"{name}.self_s"] = "s"
    for name in SELF_ONLY:
        units[f"{name}.self_s"] = "s"
    for cmd in CLI_COMMANDS:
        units[f"cli.{cmd}.self_s"] = "s"
    units.update(MICRO)
    units.update(DERIVED)
    units["trace.overhead_s"] = "s"
    return units


def _simulation(fn, args, kwargs, thinning):
    """(params, interferer density, config) of one simulator call."""
    bound = inspect.signature(fn).bind(*args, **kwargs).arguments
    p, cfg = bound["p"], bound["cfg"]
    density = p.density * (bound["aloha"].p if thinning else 1.0)
    return p, density, cfg


def _summaries():
    """What to keep from the return of a few spans (fn name -> summarizer)."""
    from guardzone import montecarlo
    return {
        "nofading.posterior_nofade": lambda a, k, out: out.terms_used,
        "multi_obs.enumerate_rules": lambda a, k, out: len(out),
        "montecarlo.estimate_single": lambda a, k, out: _simulation(
            montecarlo.estimate_single, a, k, False),
        "montecarlo.estimate_multiobs": lambda a, k, out: _simulation(
            montecarlo.estimate_multiobs, a, k, True),
    }


def _interferers(sims) -> tuple[float, int]:
    """(expected sampled points, trials): trials * lam * c_n * R**n with R
    from the simulator's own ``auto_region_radius``; computed, not counted."""
    from guardzone import montecarlo
    from guardzone.params import derive
    points, trials = 0.0, 0
    for p, density, cfg in sims:
        R = cfg.region_radius or montecarlo.auto_region_radius(p, density, cfg.bias_tol)
        points += cfg.trials * p.density * derive(p).c_n * R**p.n
        trials += cfg.trials
    return points, trials


def traced_passes(ops, seconds, args, work, run_passes):
    """Run traced passes; return them and the per-layer metrics."""
    tracer = Tracer()
    restore = tracer.install(default_targets(), keep=_summaries())
    try:
        runs = run_passes(ops, seconds, 1, tracer)
    finally:
        restore()
    tracer.dump(work / f"trace-{args.workload}.npz")

    n = len(runs.walls)
    totals = tracer.totals()
    kept = tracer.returns
    zero = (0, 0.0, 0.0)
    out = {}
    for name in SPANS:
        calls, _, own = totals.get(name, zero)
        out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.self_s"] = (own / n, "s")
    for name in SELF_ONLY:
        out[f"{name}.self_s"] = (totals.get(name, zero)[2] / n, "s")
    for cmd, fn in CLI_COMMANDS.items():
        out[f"cli.{cmd}.self_s"] = (totals.get(f"cli.{fn}", zero)[2] / n, "s")

    out["nofading.ilt_terms"] = (sum(kept.get("nofading.posterior_nofade", [])) / n,
                                 "count")
    rules = sum(kept.get("multi_obs.enumerate_rules", []))
    enum_time = totals.get("multi_obs.enumerate_rules", zero)[1]
    out["multi_obs.rules_per_s"] = (rules / enum_time if enum_time else 0.0, "1/s")
    sims = (kept.get("montecarlo.estimate_single", [])
            + kept.get("montecarlo.estimate_multiobs", []))
    points, trials = _interferers(sims)
    sim_names = ("montecarlo.estimate_single", "montecarlo.estimate_multiobs")
    sim_self = sum(totals.get(s, zero)[2] for s in sim_names)
    sim_wall = sum(totals.get(s, zero)[1] for s in sim_names)
    out["montecarlo.interferers"] = (points / n, "count")
    out["montecarlo.ns_per_interferer"] = (1e9 * sim_self / points if points else 0.0,
                                           "ns")
    out["montecarlo.trials_per_s"] = (trials / sim_wall if sim_wall else 0.0, "1/s")

    out.update(micro())
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in out.items()}
    return runs, metrics


def _time_call(fn, batch_s=0.02, batches=7) -> float:
    """Median seconds per call over ``batches`` batches of ~batch_s each."""
    fn()
    reps = 1
    while True:
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        if time.perf_counter() - t0 >= batch_s:
            break
        reps *= 2
    per_call = []
    for _ in range(batches):
        t0 = time.perf_counter()
        for _ in range(reps):
            fn()
        per_call.append((time.perf_counter() - t0) / reps)
    return statistics.median(per_call)


def micro() -> dict[str, tuple[float, str]]:
    """Single calls at fixed inputs, tracing off (fig1 = fig2 = fig3)."""
    import guardzone as gz
    from guardzone import correlation, nofading, risk, specfn

    fig1 = gz.ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10)
    fig4 = gz.ModelParams(n=2, density=2e-3, alpha=4, beta=5, r_T=10)
    grid = np.geomspace(1e-3, 1e4, 400)
    uniform = gz.CostMatrix.uniform()
    cases = {
        "specfn.power_gap_quad_us": lambda: specfn.power_gap(5.0, 2.0 / 3.0),
        "specfn.power_gap_tail_us": lambda: specfn.power_gap(50.0, 2.0 / 3.0),
        "single_obs.posterior_us": lambda: gz.posterior(fig1, 50.0),
        "correlation.chi_star_ms": lambda: correlation.chi_star(fig1),
        "correlation.rho_curve_400_ms": lambda: correlation.rho_curve(fig1, grid),
        "risk.optimal_radius_ms": lambda: risk.optimal_radius(fig1, uniform),
        "risk.operating_points_ms": lambda: risk.operating_points(fig1),
        "nofading.posterior_nofade_ms": lambda: nofading.posterior_nofade(fig4, 10.0),
    }
    scale = {"us": 1e6, "ms": 1e3}
    return {name: (_time_call(cases[name]) * scale[unit], unit)
            for name, unit in MICRO}

"""Independent Monte Carlo estimator for every closed-form quantity.

Deliberately shares no formulas with the analytic modules: networks are
sampled point by point, the SINR test is applied literally, and the
guard zone is checked by counting interferers inside the ball. The only
approximation is the finite simulation region, whose radius is chosen so
the neglected mean interference biases the SINR margin by less than
``bias_tol`` relative to the threshold.

Radial positions are drawn through the volume substitution
``u = (r / R)**n ~ U(0, 1)``: pathloss is ``R**-alpha * u**(-1/delta)``
and the inside-ball test is ``u < (r_O / R)**n``, so no radii, angles, or
coordinates are ever materialized.

Trials are processed in fixed-size chunks, each with its own Philox
stream keyed by ``SeedSequence([seed, chunk_index])``. Chunks run
concurrently on a thread pool (numpy's generators and ufuncs release the
interpreter lock) and their integer tallies are summed, so results are
reproducible for a given seed and independent of how many chunks run at
once.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .multi_obs import AlohaParams
from .params import ModelParams, derive

_CHUNK = 1024
# Points per pathloss/fade slice: bounds a chunk's float64 working memory.
_SLICE = 1 << 16
# Chunks run at once; tests set it to check that results do not depend on it.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# Conditional estimates from fewer samples than this are flagged.
_LOW_CONFIDENCE_COUNT = 100


@dataclass(frozen=True)
class SimConfig:
    trials: int = 100_000
    seed: int = 0
    fading: str = "rayleigh"
    region_radius: float | None = None  # None: auto-sized from bias_tol
    bias_tol: float = 1e-3

    def __post_init__(self):
        if self.trials < 10_000:
            raise ValueError(f"at least 10000 trials required, got {self.trials}")
        if self.fading not in ("rayleigh", "none"):
            raise ValueError(f"fading must be 'rayleigh' or 'none', got {self.fading!r}")
        if self.region_radius is not None and not self.region_radius > 0:
            raise ValueError("region_radius must be positive")
        if not self.bias_tol > 0:
            raise ValueError("bias_tol must be positive")


@dataclass(frozen=True)
class Estimate:
    """A point estimate with its standard error and sample count."""

    value: float
    stderr: float
    count: int

    @property
    def low_confidence(self) -> bool:
        return self.count < _LOW_CONFIDENCE_COUNT

    @classmethod
    def binomial(cls, successes: float, count: float) -> "Estimate":
        if count <= 0:
            return cls(value=math.nan, stderr=math.inf, count=0)
        phat = successes / count
        return cls(value=phat,
                   stderr=math.sqrt(max(phat * (1.0 - phat), 0.0) / count),
                   count=int(count))


def auto_region_radius(p: ModelParams, interferer_density: float,
                       bias_tol: float) -> float:
    """Smallest region radius whose truncation bias is below tolerance.

    Mean interference from beyond radius R is
    ``density * c_n * n * R**(n - alpha) / (alpha - n)``; scaled by sigma
    it is the relative perturbation of the SINR margin.
    """
    d = derive(p)
    coeff = d.sigma * interferer_density * d.c_n * p.n / (p.alpha - p.n)
    return (coeff / bias_tol) ** (1.0 / (p.alpha - p.n))


def _chunk_rng(seed: int, chunk_idx: int) -> np.random.Generator:
    return np.random.Generator(
        np.random.Philox(np.random.SeedSequence([seed, chunk_idx])))


def _chunk_sizes(trials: int) -> list[int]:
    full, rem = divmod(trials, _CHUNK)
    return [_CHUNK] * full + ([rem] if rem else [])


def _sum_over_chunks(kernel, cfg: SimConfig) -> np.ndarray:
    """Sum the integer tallies ``kernel(rng, size)`` over every chunk.

    Up to ``_WORKERS`` chunks run at once. Each draws only from its own
    stream and integer sums do not depend on order, so neither does the
    result.
    """
    jobs = list(enumerate(_chunk_sizes(cfg.trials)))

    def run(job):
        chunk_idx, size = job
        return kernel(_chunk_rng(cfg.seed, chunk_idx), size)

    with ThreadPoolExecutor(max_workers=min(_WORKERS, len(jobs))) as pool:
        return sum(pool.map(run, jobs))


def _interference(u: np.ndarray, ends: np.ndarray, pathloss_scale: float,
                  inv_delta: float, rng: np.random.Generator | None) -> np.ndarray:
    """Per-trial sums of ``pathloss_scale * u**(-inv_delta) * fade``.

    Trial ``t`` owns the points ``u[ends[t-1]:ends[t]]``. Fades are Exp(1)
    draws from ``rng`` in point order, or all ones when ``rng`` is None.
    Points are processed in slices of whole trials, so float64 working
    memory stays near ``_SLICE`` points whatever the chunk's size.
    """
    counts = np.diff(ends, prepend=0)
    out = np.zeros(len(ends))
    # reduceat cannot express an empty segment: sum nonempty trials only
    busy = np.flatnonzero(counts)
    busy_ends = ends[busy]
    busy_starts = busy_ends - counts[busy]
    buf = np.empty(min(len(u), max(_SLICE, int(counts.max()))))
    fade = np.empty_like(buf) if rng is not None else None
    lo = 0
    while lo < len(busy):
        # the most whole trials from busy[lo] on that fit in buf
        hi = int(np.searchsorted(busy_ends, busy_starts[lo] + len(buf),
                                 side="right"))
        a, b = busy_starts[lo], busy_ends[hi - 1]
        seg = buf[:b - a]
        seg[...] = u[a:b]
        seg **= -inv_delta
        seg *= pathloss_scale
        if rng is not None:
            rng.standard_exponential(out=fade[:b - a])
            seg *= fade[:b - a]
        out[busy[lo:hi]] = np.add.reduceat(seg, busy_starts[lo:hi] - a)
        lo = hi
    return out


@dataclass(frozen=True)
class SingleObsEstimates:
    """Monte Carlo estimates for one scenario over a radius grid."""

    r_O_grid: tuple
    prior: Estimate
    evidence: tuple          # P(guard zone clear), one per radius
    posterior_d1: tuple      # P(physical success | clear)
    posterior_d0: tuple      # P(physical success | busy)
    rho: tuple               # indicator correlation
    p_I: tuple               # P(clear | physical failure), identity rule
    p_II: tuple              # P(busy | physical success), identity rule
    trials: int
    config_hash: str


def estimate_single(p: ModelParams, r_O_grid, cfg: SimConfig) -> SingleObsEstimates:
    """Estimate prior, evidence, posteriors, and correlation by simulation."""
    grid = np.asarray(r_O_grid, dtype=float)
    if grid.ndim != 1 or len(grid) == 0 or not np.all(grid > 0):
        raise ValueError("r_O grid must be a nonempty 1-d array of positive radii")
    d = derive(p)
    R = cfg.region_radius or auto_region_radius(p, p.density, cfg.bias_tol)
    if np.any(grid >= R):
        raise ValueError("guard-zone radii must be smaller than the region radius")
    mean_pts = p.density * d.c_n * R**p.n
    thresholds = (grid / R) ** p.n
    margin = 1.0 / d.sigma - p.eta  # no-fading success needs I below this
    inv_delta = 1.0 / d.delta
    pathloss_scale = R ** (-p.alpha)

    rayleigh = cfg.fading == "rayleigh"
    k = len(grid)

    def chunk(rng, size):
        counts = rng.poisson(mean_pts, size=size)
        ends = np.cumsum(counts)
        u = rng.random(int(ends[-1]), dtype=np.float32)
        # (0, 1] rather than [0, 1): u = 0 would put a point on the receiver
        np.subtract(1.0, u, out=u)
        interference = _interference(u, ends, pathloss_scale, inv_delta,
                                     rng if rayleigh else None)
        if rayleigh:
            own_fade = rng.exponential(size=size)
            H = own_fade >= d.sigma * (p.eta + interference)
        else:
            H = interference <= margin
        # Guard-zone tests run only on points inside the largest ball. The
        # scan stays in float32: no float32 lies strictly between a threshold
        # and its float32 rounding, so it keeps every point with u < thr.
        near = np.flatnonzero(u <= np.float32(thresholds.max()))
        u_near = u[near]
        trial_near = np.searchsorted(ends, near, side="right")
        tallies = np.empty(1 + 2 * k, dtype=np.int64)
        tallies[0] = H.sum()
        for i, thr in enumerate(thresholds):
            D = np.ones(size, dtype=bool)
            D[trial_near[u_near < thr]] = False
            tallies[1 + i] = D.sum()
            tallies[1 + k + i] = (H & D).sum()
        return tallies

    tallies = _sum_over_chunks(chunk, cfg)
    T = cfg.trials
    n_H, n_D, n_HD = int(tallies[0]), tallies[1:1 + k], tallies[1 + k:]
    prior = Estimate.binomial(n_H, T)
    evidence, post1, post0, rho, p_I, p_II = [], [], [], [], [], []
    for i in range(len(grid)):
        nD, nHD = int(n_D[i]), int(n_HD[i])
        evidence.append(Estimate.binomial(nD, T))
        post1.append(Estimate.binomial(nHD, nD))
        post0.append(Estimate.binomial(n_H - nHD, T - nD))
        p_I.append(Estimate.binomial(nD - nHD, T - n_H))
        p_II.append(Estimate.binomial(n_H - nHD, n_H))
        pH, pD, pHD = n_H / T, nD / T, nHD / T
        denom = math.sqrt(max(pH * (1 - pH) * pD * (1 - pD), 0.0))
        if denom > 0:
            # stderr via the delta method, keeping only the joint-count
            # term, which dominates the variance of the numerator
            rho.append(Estimate(value=(pHD - pH * pD) / denom,
                                stderr=math.sqrt(pHD * (1 - pHD) / T) / denom,
                                count=T))
        else:
            rho.append(Estimate(value=math.nan, stderr=math.inf, count=0))
    return SingleObsEstimates(
        r_O_grid=tuple(float(r) for r in grid), prior=prior,
        evidence=tuple(evidence), posterior_d1=tuple(post1),
        posterior_d0=tuple(post0), rho=tuple(rho),
        p_I=tuple(p_I), p_II=tuple(p_II), trials=T,
        config_hash=config_hash(p, cfg, grid))


@dataclass(frozen=True)
class MultiObsEstimates:
    """Monte Carlo estimates for the Aloha history scenario at one radius."""

    r_O: float
    p_K: tuple                   # marginal history distribution
    p_h_given_K: tuple           # P(physical success | K)
    p_d_given_K: tuple           # P(protocol success | K)
    posterior: dict              # (K, d) -> Estimate of P(success | K, d)
    trials: int
    config_hash: str


def estimate_multiobs(p: ModelParams, aloha: AlohaParams, r_O: float,
                      cfg: SimConfig) -> MultiObsEstimates:
    """Simulate N observed Aloha slots plus a decision slot.

    Node positions are fixed per trial; each slot thins them
    independently with probability ``p``. The region is sized from the
    thinned (active) density, which is what drives the truncation bias.
    """
    if p.eta != 0:
        raise ValueError("multi-observation simulation assumes eta = 0")
    if cfg.fading != "rayleigh":
        raise ValueError("multi-observation simulation requires Rayleigh fading")
    if not r_O > 0:
        raise ValueError(f"r_O must be positive, got {r_O}")
    d = derive(p)
    R = cfg.region_radius or auto_region_radius(
        p, aloha.p * p.density, cfg.bias_tol)
    if r_O >= R:
        raise ValueError("guard-zone radius must be smaller than the region radius")
    mean_pts = p.density * d.c_n * R**p.n
    thr = (r_O / R) ** p.n
    inv_delta = 1.0 / d.delta
    pathloss_scale = R ** (-p.alpha)
    N = aloha.N

    def chunk(rng, size):
        counts = rng.poisson(mean_pts, size=size)
        ends = np.cumsum(counts)
        total = int(ends[-1])
        u = rng.random(total, dtype=np.float32)
        np.subtract(1.0, u, out=u)  # (0, 1], see estimate_single
        inside = np.flatnonzero(u < thr)

        # K: count observed slots whose guard zone had no active node.
        # Only inside-ball points need contention marks for the history.
        inside_trials = np.searchsorted(ends, inside, side="right")
        K = np.zeros(size, dtype=np.int64)
        for _slot in range(N):
            active = rng.random(len(inside_trials)) < aloha.p
            busy = np.bincount(inside_trials[active], minlength=size) > 0
            K += ~busy

        # Decision slot: full thinning, literal SINR and guard-zone tests.
        active = rng.random(total) < aloha.p
        active_ends = np.searchsorted(np.flatnonzero(active), ends)
        interference = _interference(u[active], active_ends, pathloss_scale,
                                     inv_delta, rng)
        H = rng.exponential(size=size) >= d.sigma * interference
        busy = np.bincount(inside_trials[active[inside]], minlength=size) > 0
        D = ~busy
        return np.stack([np.bincount(K[m], minlength=N + 1)
                         for m in (slice(None), H, D, H & D)])

    n_K, n_HK, n_DK, n_HDK = _sum_over_chunks(chunk, cfg)
    trials = cfg.trials
    pK = tuple(Estimate.binomial(int(n_K[k]), trials) for k in range(N + 1))
    pHK = tuple(Estimate.binomial(int(n_HK[k]), int(n_K[k])) for k in range(N + 1))
    pDK = tuple(Estimate.binomial(int(n_DK[k]), int(n_K[k])) for k in range(N + 1))
    posterior = {}
    for k in range(N + 1):
        posterior[(k, 1)] = Estimate.binomial(int(n_HDK[k]), int(n_DK[k]))
        posterior[(k, 0)] = Estimate.binomial(
            int(n_HK[k] - n_HDK[k]), int(n_K[k] - n_DK[k]))
    return MultiObsEstimates(
        r_O=r_O, p_K=pK, p_h_given_K=pHK, p_d_given_K=pDK,
        posterior=posterior, trials=trials,
        config_hash=config_hash(p, cfg, [r_O], aloha))


def config_hash(p: ModelParams, cfg: SimConfig, r_O_grid,
                aloha: AlohaParams | None = None) -> str:
    """Short stable digest of everything that determines the estimates."""
    payload = {
        "params": p.to_dict(),
        "trials": cfg.trials,
        "seed": cfg.seed,
        "fading": cfg.fading,
        "region_radius": cfg.region_radius,
        "bias_tol": cfg.bias_tol,
        "r_O_grid": [float(r) for r in r_O_grid],
    }
    if aloha is not None:
        payload["aloha"] = {"p": aloha.p, "N": aloha.N}
    blob = json.dumps(payload, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()[:12]

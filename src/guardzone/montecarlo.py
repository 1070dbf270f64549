"""Monte Carlo estimator for every closed-form quantity.

Networks are sampled point by point and the guard zone is checked by
counting interferers inside the ball. The physical test depends on the
fading:

* No fading: the SINR test is applied literally to the sampled
  interference. The only approximation is the finite simulation region,
  whose radius is chosen so the neglected mean interference biases the
  SINR margin by less than ``bias_tol`` relative to the threshold.
  A point at volume index ``k < k_kill`` (:func:`_kill_index`) fails its
  trial alone. A trial draws these near points first, a Poisson(mu q)
  count, ``q = (k_kill - 1) * 2**-24``; on fig4 three trials in four hold
  one and end there. A trial with none draws one Poisson count for each
  ring of the rest, k >= k_kill (:func:`_rings`): by Poisson
  splitting, the same process. The pathloss falls with k, so the counts
  bound the trial's interference from both sides, and it draws positions
  only in the rings whose bounds leave the SINR test open
  (:func:`_settle`): on fig4 about 22, of the 1974 points in the ball.
  Every guard zone is a union of rings, so its indicator needs none.
  :func:`_kill_index` and :func:`_settle` are the only places the test
  is applied.
* Rayleigh fading: no fade is drawn. For unit-mean exponential fades
  ``E[exp(-s F)] = 1/(1 + s)``, so given the interferer positions the
  receiver succeeds with probability exactly
  ``h = exp(-sigma*eta) * prod_i 1/(1 + sigma * r_i**-alpha)``
  (:func:`_success`). The
  interferers beyond the region contribute the Poisson PGFL factor
  ``exp(-density * int_R^inf n c_n r**(n-1) / (1 + r**alpha/sigma) dr)``,
  which :func:`_far_field_log` evaluates by its own quadrature, so the
  Rayleigh estimates carry no truncation bias. Every H-dependent
  estimate averages h (and h times the guard-zone indicator) in place
  of success indicators. The oracle thereby shares the fade transform
  ``1/(1 + s)`` and the far-field PGFL with the formulas it checks, but
  nothing else: no special function and no closed form.

  So only the near field is simulated: by default a ball whose shell
  beyond the largest guard zone holds ``_SHELL_COUNT`` interferers, kept
  within ``_SHELL_CLAMP`` times that zone's radius and the no-fading
  region. Every guard-zone indicator depends only on points inside it,
  and Poisson points on disjoint sets are independent, so replacing the
  product over the points beyond it by its expectation is a
  Rao-Blackwellisation: no bias, and no more variance than sampling them.

Radial positions are drawn through the volume substitution
``u = (r / R)**n ~ U(0, 1)``: pathloss is ``R**-alpha * u**(-alpha/n)``
and the inside-ball test is ``u < (r_O / R)**n``, so no radii, angles, or
coordinates are ever materialized. ``u`` is ``k * 2**-24`` with the
integer ``k`` from 1 to 2**24, taken from the generator's raw 64-bit
words by :func:`_volume_draw`: the same values as 1 minus a float32
uniform, in 4 bytes a point and with no float32 array. So a guard zone
with ``(r_O / R)**n`` at most 2**-24 would never be busy; both estimators
raise ``RuntimeError`` for one. The guard-zone tests compare ``k`` with
the thresholds times 2**24, which is exact; a single-slot trial's least
``k`` decides them all. When ``2*alpha/n`` is an integer from 3 to 8
(every shipped scenario), ``k**(alpha/n)`` is formed by a square root or
a product, then multiplications, rather than ``pow``.

Trials are processed in fixed-size chunks, each with its own PCG64
stream keyed by ``SeedSequence([seed, chunk_index])``. Chunks run
concurrently on a thread pool kept for the life of the process (numpy's
generators and ufuncs release the interpreter lock). Each returns float64
sums of h, h**2, the guard-zone indicator D, and of h and h**2 on each
side (D = 1 and D = 0). The sums are added in chunk order, so results are
reproducible for a given seed and independent of how many chunks run at
once. Standard errors come from these second moments.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass

import numpy as np

from .multi_obs import AlohaParams
from .params import ModelParams, _digest

_CHUNK = 1024
# Points per pathloss slice: bounds a chunk's float64 working memory.
_SLICE = 1 << 16
# Largest m = 2*alpha/n for which u**(m/2) is built without pow.
_MAX_HALF_POWER = 8
# Bit generator of every chunk stream; its name enters the config hash.
_BIT_GENERATOR = np.random.PCG64
# Chunks run at once; tests set it to check that results do not depend on it.
_WORKERS = (len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity")
            else os.cpu_count() or 1)
# Rings that split the no-fading ball beyond the near field (_rings):
# on fig4, 5 to 12 rings took within 4 % of the time 8 take, and 16 took
# 13 % more. And the least relative margin of a decision by bounds.
_RINGS = 8
_BOUND_MARGIN = 1e-12
# Conditional estimates from fewer samples than this are flagged.
_LOW_CONFIDENCE_COUNT = 100
# Spacing of the volume coordinate u = k * 2**-24: a guard zone with
# (r_O / R)**n at most this holds no point.
_U_RESOLUTION = 2.0 ** -24
# Default Rayleigh region: the ball whose shell beyond the largest guard
# zone holds _SHELL_COUNT interferers on average, clamped to _SHELL_CLAMP
# times that zone's radius. The shell keeps sampled spread in every
# estimate: at the zone's radius the clear-zone posterior is a constant.
_SHELL_COUNT = 10.0
_SHELL_CLAMP = (1.5, 10.0)
# Far-field quadrature: points of each Gauss-Legendre panel, and where
# the integrand is cut, in e-folds below its value at the knee
_FAR_POINTS = 32
_FAR_CUT = 40.0


@dataclass(frozen=True)
class SimConfig:
    trials: int = 100_000
    seed: int = 0
    fading: str = "rayleigh"
    # None: auto-sized from bias_tol with no fading; under Rayleigh fading
    # the smaller of that and the shell-sized ball of _region_radius
    region_radius: float | None = None
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

    @classmethod
    def ratio(cls, y: float, yy: float, xy: float, x: float,
              xx: float) -> "Estimate":
        """``sum(y) / sum(x)`` over independent trials, from the sums of
        y, y**2, x*y, x and x**2.

        The standard error is the delta method's,
        ``sqrt(sum((y - value * x)**2)) / sum(x)``. For 0/1 values it
        equals the binomial error of :meth:`binomial`. The count is
        ``sum(x)`` rounded: the number of trials, or their expected
        number, that the ratio conditions on.
        """
        if x <= 0:
            return cls(value=math.nan, stderr=math.inf, count=0)
        value = y / x
        resid = yy - 2.0 * value * xy + value * value * xx
        return cls(value=value, stderr=math.sqrt(max(resid, 0.0)) / x,
                   count=round(x))

    @classmethod
    def mean(cls, y: float, yy: float, n: float) -> "Estimate":
        """Mean of ``n`` per-trial values with sum ``y`` and sum of
        squares ``yy``."""
        return cls.ratio(y, yy, y, n, n)


def _rho(T: int, s_h: float, s_hh: float, s_d: float, s_hd: float,
         s_hhd: float) -> Estimate:
    """Correlation of the success indicators H and D from per-trial sums.

    With ``a = mean(h)``, ``b = mean(D)`` and ``c = mean(h*D)`` estimating
    P(H=1), P(D=1) and P(H=1, D=1), rho is
    ``(c - a*b) / sqrt(a*(1-a) * b*(1-b))``. Its standard error is the
    delta method over (a, b, c), with their covariance from the sums.
    """
    a, b, c = s_h / T, s_d / T, s_hd / T
    var_a, var_b = a * (1.0 - a), b * (1.0 - b)
    if not var_a * var_b > 0:
        return Estimate(value=math.nan, stderr=math.inf, count=0)
    root = math.sqrt(var_a * var_b)
    value = (c - a * b) / root
    grad = np.array([-b / root - value * (1.0 - 2.0 * a) / (2.0 * var_a),
                     -a / root - value * (1.0 - 2.0 * b) / (2.0 * var_b),
                     1.0 / root])
    e_hhd = s_hhd / T
    cov = np.array([[s_hh / T - a * a, c - a * b, e_hhd - a * c],
                    [c - a * b, var_b, c * (1.0 - b)],
                    [e_hhd - a * c, c * (1.0 - b), e_hhd - c * c]])
    return Estimate(value=value,
                    stderr=math.sqrt(max(grad @ cov @ grad, 0.0) / T),
                    count=T)


def auto_region_radius(p: ModelParams, interferer_density: float,
                       bias_tol: float) -> float:
    """Smallest region radius whose truncation bias is below tolerance.

    Mean interference from beyond radius R is
    ``density * c_n * n * R**(n - alpha) / (alpha - n)``; scaled by sigma
    it is the relative perturbation of the SINR margin. Only the
    no-fading estimates carry that bias and use this radius as their
    default region; under Rayleigh fading it only caps the default
    shell-sized region of :func:`_region_radius`.
    """
    coeff = p.sigma * interferer_density * p.c_n * p.n / (p.alpha - p.n)
    return (coeff / bias_tol) ** (1.0 / (p.alpha - p.n))


def _region_radius(p: ModelParams, interferer_density: float, r_max: float,
                   cfg: SimConfig) -> float:
    """Radius R of the simulated ball, for guard zones up to ``r_max``.

    An explicit ``cfg.region_radius`` is used as given. With no fading the
    default is :func:`auto_region_radius`; under Rayleigh fading, where
    the points beyond R enter exactly through :func:`_far_field_log`, it
    is the smaller of that and the radius whose shell beyond ``r_max``
    holds ``_SHELL_COUNT`` interferers on average, clamped to
    ``_SHELL_CLAMP`` times ``r_max``.
    """
    if cfg.region_radius is not None:
        return cfg.region_radius
    R = auto_region_radius(p, interferer_density, cfg.bias_tol)
    if cfg.fading == "rayleigh":
        shell = _SHELL_COUNT / (interferer_density * p.c_n)
        R = min(max((r_max**p.n + shell) ** (1.0 / p.n),
                    _SHELL_CLAMP[0] * r_max), _SHELL_CLAMP[1] * r_max, R)
    return R


def _check_resolution(r_O: float, R: float, n: int) -> None:
    """Raise ``RuntimeError`` if a guard zone of radius ``r_O`` in a region
    of radius ``R`` is too small for the volume draws, multiples of
    2**-24, to ever find busy: its estimates would be silently wrong."""
    if (r_O / R) ** n <= _U_RESOLUTION:
        raise RuntimeError(
            f"guard zone r_O = {r_O:g} is below the simulator's resolution "
            f"in a region of radius R = {R:g}: (r_O/R)**n = "
            f"{(r_O / R) ** n:.3g} is at most the float32 spacing 2**-24 "
            f"= {_U_RESOLUTION:.3g}")


@functools.cache
def _gauss_legendre() -> tuple[np.ndarray, np.ndarray]:
    """Nodes and weights of the _FAR_POINTS-point Gauss-Legendre rule on
    [-1, 1]; numpy.polynomial loads on first use only."""
    from numpy.polynomial.legendre import leggauss

    return leggauss(_FAR_POINTS)


def _far_field_log(p: ModelParams, interferer_density: float,
                   R: float) -> float:
    """Log of the Rayleigh success factor of the interferers beyond R.

    By the PGFL of the Poisson process it is
    ``-density * int_R^inf n c_n r**(n-1) / (1 + r**alpha / sigma) dr``.
    Under ``t = log(r / R)`` the integral is
    ``n R**n int_0^inf exp(n t) / (1 + k exp(alpha t)) dt`` with
    ``k = R**alpha / sigma``. The integrand rises like exp(n t) up to the
    knee ``r = sigma**(1/alpha)`` and falls like exp(-(alpha - n) t)
    beyond it, so it is cut where it is below e**-_FAR_CUT of its value
    at the knee: 40/n before, 40/(alpha - n) after. Its poles lie pi/alpha
    off the real line above the knee, so a composite Gauss-Legendre rule
    on panels of width 6/alpha, split at the knee, is within 1e-15 of the
    integral, for a region far inside the knee (small guard zones) as well
    as far beyond.
    """
    log_k = p.alpha * math.log(R) - math.log(p.sigma)
    knee = max(-log_k / p.alpha, 0.0)
    width = 6.0 / p.alpha
    edges = [np.linspace(a, b, math.ceil((b - a) / width) + 1)
             for a, b in ((max(knee - _FAR_CUT / p.n, 0.0), knee),
                          (knee, knee + _FAR_CUT / (p.alpha - p.n)))]
    edges = np.concatenate([edges[0][:-1], edges[1]])
    mid, half = (edges[1:] + edges[:-1]) / 2.0, (edges[1:] - edges[:-1]) / 2.0
    nodes, weights = _gauss_legendre()
    t = mid[:, None] + half[:, None] * nodes
    # 1 + k e^(alpha t) = e^s (e^-s + e^(x-s)) with s = max(x, 0), so that
    # no exp overflows
    x = p.alpha * t + log_k
    s = np.maximum(x, 0.0)
    f = np.exp(p.n * t - s) / (np.exp(-s) + np.exp(x - s))
    integral = float((f * (half[:, None] * weights)).sum())
    return -interferer_density * p.c_n * p.n * R**p.n * integral


def _ball(p: ModelParams, interferer_density: float, r_min: float,
          r_max: float, cfg: SimConfig) -> tuple:
    """The simulated ball for guard zones from ``r_min`` to ``r_max``: its
    radius R (:func:`_region_radius`), the mean count of points in it,
    and, under Rayleigh fading, the log success factor of the interferers
    beyond it (:func:`_far_field_log`), else None.

    Raises ``ValueError`` for a zone as large as the ball, and
    ``RuntimeError`` for one below its resolution.
    """
    R = _region_radius(p, interferer_density, r_max, cfg)
    if r_max >= R:
        raise ValueError("guard-zone radii must be smaller than the region "
                         "radius")
    _check_resolution(r_min, R, p.n)
    far_log = (_far_field_log(p, interferer_density, R)
               if cfg.fading == "rayleigh" else None)
    return R, p.density * p.c_n * R**p.n, far_log


def _chunk_rng(seed: int, chunk_idx: int) -> np.random.Generator:
    return np.random.Generator(
        _BIT_GENERATOR(np.random.SeedSequence([seed, chunk_idx])))


def _chunk_sizes(trials: int) -> list[int]:
    full, rem = divmod(trials, _CHUNK)
    return [_CHUNK] * full + ([rem] if rem else [])


def _volume_draw(rng: np.random.Generator, n: int) -> np.ndarray:
    """``n`` volume draws as int32 ``k``, with ``u = k * 2**-24`` in (0, 1].

    A float32 uniform is ``(w >> 8) * 2**-24`` over 32-bit words ``w``,
    and PCG64 hands out each 64-bit word as its low half, then its high
    half. So ``k = 2**24 - (w >> 8)`` over the halves of ``(n + 1) // 2``
    raw words is ``2**24 * (1 - rng.random(n, dtype=np.float32))``, bit for
    bit, and leaves the stream where that draw would for a 64-bit draw; a
    32-bit one would first use a half word kept back, which raw words skip.
    ``u`` = 0 would put a point on the receiver, so the draw is 1 minus the
    uniform. The little-endian view fixes the word order on every platform.
    """
    raw = rng.bit_generator.random_raw((n + 1) // 2)
    w = raw.astype("<u8", copy=False).view("<u4")[:n]
    np.right_shift(w, 8, out=w)
    np.subtract(1 << 24, w, out=w)
    return w.view("<i4")


@functools.cache
def _pool(workers: int):
    """A pool of ``workers`` threads, kept for the life of the process.
    ``concurrent.futures`` loads here, so a command that simulates nothing
    does not import it."""
    from concurrent.futures import ThreadPoolExecutor

    return ThreadPoolExecutor(max_workers=workers)


# A forked child holds the pools but none of their threads: it makes its own
if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_pool.cache_clear)


def _sum_over_chunks(kernel, cfg: SimConfig) -> np.ndarray:
    """Sum the float64 sums ``kernel(rng, size)`` over every chunk.

    Up to ``_WORKERS`` chunks run at once, on the pool of :func:`_pool`,
    whose threads start with the first simulation and serve every later
    one. Each chunk draws only from its own stream, and ``pool.map``
    yields the results in chunk order, so they are added in the same
    order, and the result is the same bits, at any worker count.
    """
    def run(job):
        chunk_idx, size = job
        return kernel(_chunk_rng(cfg.seed, chunk_idx), size)

    return sum(_pool(_WORKERS).map(run, enumerate(_chunk_sizes(cfg.trials))))


def _half_power(x: np.ndarray, m: int) -> np.ndarray:
    """``x**(m/2)`` for an integer ``3 <= m <= _MAX_HALF_POWER``: the square
    root of ``x`` for odd m, else ``x * x``, then times ``x`` until the
    power is reached. At m = 4 the result is ``x * x`` formed in place;
    else a new array."""
    k, odd = divmod(m, 2)
    if odd:
        acc = np.sqrt(x)
    else:
        acc = np.multiply(x, x, out=x if m == 4 else None)
    for _ in range(k if odd else k - 2):
        acc *= x
    return acc


def _pathloss(k: np.ndarray, scale: float, exponent: float) -> np.ndarray:
    """``x = scale * u**(-exponent)`` at the volume draws ``k`` of
    :func:`_volume_draw`, ``u = k * 2**-24``, as a new float64 array.

    If ``m = 2 * exponent`` is an integer from 3 to ``_MAX_HALF_POWER``
    (``ModelParams`` has alpha > n, so m > 2), ``k**(m/2)`` is built by
    :func:`_half_power` and ``scale * 2**(12*m)`` divided by it: scaling
    by a power of two commutes with rounded ``*``, ``/`` and ``sqrt``, and
    ``k**(m/2) <= 2**96``, so this is ``scale / u**(m/2)`` to the bit.
    Else ``k`` is scaled to ``u``, also exactly, and ``np.power`` forms
    ``u**-exponent``. Each step is rounded monotonically, so x never rises
    with k.
    """
    x = k.astype(float)
    m = 2.0 * exponent
    if m.is_integer() and 3 <= m <= _MAX_HALF_POWER:
        return np.divide(scale * 2.0 ** (12 * m), _half_power(x, int(m)),
                         out=x)
    x *= _U_RESOLUTION
    np.power(x, -exponent, out=x)
    x *= scale
    return x


def _success(k: np.ndarray, starts: np.ndarray, counts: np.ndarray,
             p: ModelParams, R: float, far_log: float) -> np.ndarray:
    """Per-trial Rayleigh success probability h at the volume draws ``k``:
    ``exp(far_log - sigma*eta - sum(log1p(sigma * x)))`` over the
    :func:`_pathloss` ``x`` of each trial's points.

    Trial ``t`` owns the ``counts[t]`` points from ``k[starts[t]]`` on, and
    each trial's points follow the last one's. Points are processed in
    slices of whole trials, so float64 working memory stays near
    ``_SLICE`` points (plus one trial) whatever the chunk's size.
    """
    # alpha / n, unlike 1 / delta, is exact for integer alpha and n
    scale, exponent = p.sigma * R ** (-p.alpha), p.alpha / p.n
    log_fade = np.zeros(len(counts))
    n = len(k)
    # the trials at the end with no point start at n, past reduceat's reach
    top = int(np.searchsorted(starts, n))
    lo = 0
    while lo < top:
        # the trials from lo on that start within _SLICE points of it
        a = int(starts[lo])
        hi = min(int(np.searchsorted(starts, a + _SLICE)), top)
        b = int(starts[hi]) if hi < len(starts) else n
        seg = _pathloss(k[a:b], scale, exponent)
        np.log1p(seg, out=seg)
        log_fade[lo:hi] = np.add.reduceat(seg, starts[lo:hi] - a)
        lo = hi
    # reduceat gives a trial with no point the value of the point after it
    log_fade[counts == 0] = 0.0
    return np.exp(far_log - p.sigma * p.eta - log_fade)


def _kill_index(p: ModelParams, R: float) -> int:
    """Least k at which a lone point's :func:`_pathloss` is within the
    no-fading margin ``1/sigma - eta`` (2**24 + 1 if no k is), by
    bisection: a point below it fails any trial, as a float sum is never
    below its largest term."""
    margin = 1.0 / p.sigma - p.eta
    scale, exponent = R ** (-p.alpha), p.alpha / p.n
    lo, hi = 1, (1 << 24) + 1
    while lo < hi:
        mid = (lo + hi) // 2
        if _pathloss(np.array([mid]), scale, exponent)[0] <= margin:
            hi = mid
        else:
            lo = mid + 1
    return lo


def _rings(k_kill: int, cuts: np.ndarray, p: ModelParams,
           R: float) -> tuple[np.ndarray, np.ndarray]:
    """Rings ``e_j <= k < e_{j+1}`` that split the volume indices from
    ``e_0 = k_kill`` to ``2**24 + 1``: ``_RINGS`` log-spaced in k, and
    every guard-zone cut above ``k_kill`` (``k < cut`` is
    ``k < ceil(cut)``), so that each zone is a union of rings. Beyond the
    lattice (``k_kill = 2**24 + 1``) there is none.

    Returns the edges, and the :func:`_pathloss` of the no-fading test at
    each ring's last index (row 0) and its first (row 1).
    """
    top = (1 << 24) + 1
    edges = np.concatenate([np.rint(np.geomspace(k_kill, top, _RINGS + 1)),
                            np.ceil(cuts)]).astype(np.int64)
    edges = np.unique(edges[(edges >= k_kill) & (edges <= top)])
    return edges, _pathloss(np.stack([edges[1:] - 1, edges[:-1]]),
                            R ** (-p.alpha), p.alpha / p.n)


def _settle(rng: np.random.Generator, counts: np.ndarray, edges: np.ndarray,
            bounds: np.ndarray, p: ModelParams,
            R: float) -> tuple[np.ndarray, np.ndarray]:
    """No-fading outcomes of trials known by their ring counts.

    ``counts[j, t]`` is trial t's number of points in ring j of
    :func:`_rings`, and ``bounds`` the pathloss at each ring's last index
    and its first. As the pathloss falls with k, a ring's count times
    these bounds its interference from below and from above. A trial fails when
    the lower bound of its sum exceeds the margin ``1/sigma - eta``, and
    succeeds when the upper bound is within it; on each side by a relative
    margin ``eps`` wider than any float sum of the trial's points can
    stray, so that the outcome is that of the float sum over all of them.
    Pass j takes ring j: each trial still open draws that ring's
    positions (``rng.integers`` within it) and replaces the ring's bounds
    by their exact sum. A trial open after the last ring is decided by
    that sum.

    Returns the 0/1 outcomes, and the first index of each trial's first
    ring with points (``2**24 + 1`` if none), which decides every zone
    that is a union of rings.
    """
    J, n = counts.shape
    margin = 1.0 / p.sigma - p.eta
    eps = max(_BOUND_MARGIN,
              2.0 ** -51 * (int(counts.sum(axis=0).max(initial=0)) + J))
    below, above = margin - eps * abs(margin), margin + eps * abs(margin)
    scale, exponent = R ** (-p.alpha), p.alpha / p.n
    # the lower and upper bounds of the rings from j on, in row j; row J is 0
    low, high = tails = np.zeros((2, J + 1, n))
    np.cumsum((counts * bounds[:, :, None])[:, ::-1], axis=1,
              out=tails[:, -2::-1])
    first = np.where(counts > 0, np.arange(J)[:, None], J).min(axis=0,
                                                               initial=J)
    nearest = edges[first]
    h = np.zeros(n)
    trials, exact = np.arange(n), np.zeros(n)
    for j in range(J):
        lo = low[j].take(trials)
        lo += exact
        hi = high[j].take(trials)
        hi += exact
        win = hi <= below
        h[trials[win]] = 1.0
        left = ~win
        left &= lo <= above
        trials, exact = trials[left], exact[left]
        if not len(trials):
            return h, nearest
        c = counts[j].take(trials)
        total = int(c.sum())
        if total:
            pts = rng.integers(edges[j], edges[j + 1], total, np.int32)
            exact += np.bincount(np.repeat(np.arange(len(c)), c),
                                 _pathloss(pts, scale, exponent), len(c))
    # every ring drawn: the sum decides
    h[trials[exact <= margin]] = 1.0
    return h, nearest


def _chunk_sums(h: np.ndarray, kmin: np.ndarray,
                cuts: np.ndarray) -> np.ndarray:
    """A chunk's ``2 + 5 * len(cuts)`` sums for :func:`estimate_single`,
    from each trial's h and the volume index ``kmin`` of its nearest point:
    h and h**2, then for each cut the trials whose zone is clear (D = 1),
    and h and h**2 summed where D = 1 and where D = 0."""
    k = len(cuts)
    hh = h * h
    sums = np.empty(2 + 5 * k)
    sums[0], sums[1] = h.sum(), hh.sum()
    for i, cut in enumerate(cuts):
        # A zone is clear when the trial's nearest point lies outside it.
        D = kmin >= cut
        sums[2 + i] = D.sum()
        # Each side is summed, not taken as total minus the other: a side
        # whose h is tiny next to the total would keep no digits.
        busy = ~D
        sums[2 + k + i], sums[2 + 2 * k + i] = h[D].sum(), hh[D].sum()
        sums[2 + 3 * k + i] = h[busy].sum()
        sums[2 + 4 * k + i] = hh[busy].sum()
    return sums


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
    R, mean_pts, far_log = _ball(p, p.density, float(grid.min()),
                                 float(grid.max()), cfg)
    # u < thr exactly when k < thr * 2**24, a product that is exact
    cuts = (grid / R) ** p.n / _U_RESOLUTION
    k = len(grid)

    def rayleigh(rng, size):
        counts = rng.poisson(mean_pts, size=size)
        ends = np.cumsum(counts)
        starts = ends - counts
        draws = _volume_draw(rng, int(ends[-1]))
        h = _success(draws, starts, counts, p, R, far_log)
        # An empty trial's 2**24 is above every cut, so its zones are clear.
        kmin = np.full(size, 1 << 24, dtype=draws.dtype)
        seen = np.flatnonzero(counts)
        kmin[seen] = np.minimum.reduceat(draws, starts[seen])
        return _chunk_sums(h, kmin, cuts)

    if cfg.fading == "none":
        # q: the share of the ball where one point fails the SINR test alone
        k_kill = _kill_index(p, R) if 1.0 / p.sigma > p.eta else 1
        q = (k_kill - 1) * _U_RESOLUTION
        edges, bounds = _rings(k_kill, cuts, p, R)
        ring_means = mean_pts * _U_RESOLUTION * np.diff(edges)[:, None]

    def nofading(rng, size):
        # Near points, k < k_kill, fail their trial alone (there are none
        # if eta >= 1/sigma, where k_kill is 1). The trials with none are
        # settled by their ring counts.
        closed = np.empty(0, np.int32)
        if k_kill > 1:
            inner = rng.poisson(mean_pts * q, size=size)
            near = rng.integers(1, k_kill, int(inner.sum()), np.int32)
            c = inner[inner > 0]
            closed = np.minimum.reduceat(near, np.cumsum(c) - c)
        counts = rng.poisson(ring_means, size=(len(ring_means),
                                               size - len(closed)))
        h, nearest = _settle(rng, counts, edges, bounds, p, R)
        # the closed trials go last, with h = 0 and their nearest near point
        return _chunk_sums(np.concatenate([h, np.zeros(len(closed))]),
                           np.concatenate([nearest, closed]), cuts)

    sums = _sum_over_chunks(nofading if cfg.fading == "none" else rayleigh,
                            cfg)
    T = cfg.trials
    s_h, s_hh = float(sums[0]), float(sums[1])
    prior = Estimate.mean(s_h, s_hh, T)
    evidence, post1, post0, rho, p_I, p_II = [], [], [], [], [], []
    for i in range(k):
        # h and h**2 summed where D = 1 (s_hd, s_hhd) and D = 0 (s_hb, s_hhb)
        s_d, s_hd, s_hhd, s_hb, s_hhb = (float(sums[2 + j * k + i])
                                         for j in range(5))
        evidence.append(Estimate.binomial(int(s_d), T))
        post1.append(Estimate.mean(s_hd, s_hhd, s_d))
        post0.append(Estimate.mean(s_hb, s_hhb, T - s_d))
        rho.append(_rho(T, s_h, s_hh, s_d, s_hd, s_hhd))
        # p_I: sum((1-h) D) / sum(1-h); p_II: sum(h (1-D)) / sum(h)
        fail_d2 = s_d - 2.0 * s_hd + s_hhd  # sum((1-h)**2 D)
        p_I.append(Estimate.ratio(s_d - s_hd, fail_d2, fail_d2, T - s_h,
                                  T - 2.0 * s_h + s_hh))
        p_II.append(Estimate.ratio(s_hb, s_hhb, s_hhb, s_h, s_hh))
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
    independently with probability ``p``. The region is sized by
    :func:`_region_radius` at the thinned (active) density, and the far
    field beyond it enters at that density.
    """
    if p.eta != 0:
        raise ValueError("multi-observation simulation assumes eta = 0")
    if cfg.fading != "rayleigh":
        raise ValueError("multi-observation simulation requires Rayleigh fading")
    if not r_O > 0:
        raise ValueError(f"r_O must be positive, got {r_O}")
    R, mean_pts, far_log = _ball(p, aloha.p * p.density, r_O, r_O, cfg)
    # u < thr exactly when k < thr * 2**24, that is k < inside_cut
    inside_cut = math.ceil((r_O / R) ** p.n / _U_RESOLUTION)
    N = aloha.N

    def chunk(rng, size):
        counts = rng.poisson(mean_pts, size=size)
        ends = np.cumsum(counts)
        total = int(ends[-1])
        draws = _volume_draw(rng, total)
        inside = np.flatnonzero(draws < inside_cut)

        # K: count observed slots whose guard zone had no active node.
        # Only inside-ball points need contention marks for the history.
        inside_trials = np.searchsorted(ends, inside, side="right")
        K = np.zeros(size, dtype=np.int64)
        for _slot in range(N):
            active = rng.random(len(inside_trials)) < aloha.p
            busy = np.bincount(inside_trials[active], minlength=size) > 0
            K += ~busy

        # Decision slot: full thinning, then the success probability of
        # the active interferers and the literal guard-zone test.
        active = rng.random(total) < aloha.p
        active_ends = np.searchsorted(np.flatnonzero(active), ends)
        active_counts = np.diff(active_ends, prepend=0)
        h = _success(draws[active], active_ends - active_counts,
                     active_counts, p, R, far_log)
        hh = h * h
        D = np.bincount(inside_trials[active[inside]], minlength=size) == 0
        # per K cell, where D = 1 and where D = 0 (each summed, as in
        # estimate_single): trials, sums of h and h**2
        cells = []
        for m in (D, ~D):
            cells += [np.bincount(K[m], minlength=N + 1),
                      np.bincount(K[m], weights=h[m], minlength=N + 1),
                      np.bincount(K[m], weights=hh[m], minlength=N + 1)]
        return np.stack(cells)

    n_DK, s_hdK, s_hhdK, n_BK, s_hbK, s_hhbK = _sum_over_chunks(chunk, cfg)
    trials = cfg.trials
    pK, pHK, pDK, posterior = [], [], [], {}
    for k in range(N + 1):
        nDK, nBK = int(n_DK[k]), int(n_BK[k])
        s_hd, s_hhd, s_hb, s_hhb = (float(s[k])
                                    for s in (s_hdK, s_hhdK, s_hbK, s_hhbK))
        nK = nDK + nBK
        pK.append(Estimate.binomial(nK, trials))
        pHK.append(Estimate.mean(s_hd + s_hb, s_hhd + s_hhb, nK))
        pDK.append(Estimate.binomial(nDK, nK))
        posterior[(k, 1)] = Estimate.mean(s_hd, s_hhd, nDK)
        posterior[(k, 0)] = Estimate.mean(s_hb, s_hhb, nBK)
    return MultiObsEstimates(
        r_O=r_O, p_K=tuple(pK), p_h_given_K=tuple(pHK), p_d_given_K=tuple(pDK),
        posterior=posterior, trials=trials,
        config_hash=config_hash(p, cfg, [r_O], aloha))


def config_hash(p: ModelParams, cfg: SimConfig, r_O_grid,
                aloha: AlohaParams | None = None) -> str:
    """Short stable digest of everything that determines the estimates."""
    payload = {
        "rng": _BIT_GENERATOR.__name__,
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
    return _digest(payload)

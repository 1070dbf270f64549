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
the thresholds times 2**24, which is exact; a trial's least ``k`` (in
the Aloha decision slot, among its active points) decides them all.
When ``2*alpha/n`` is an integer from 3 to 8 (every shipped scenario),
``k**(alpha/n)`` is formed by a square root or a product, then
multiplications, rather than ``pow``.

Trials are processed in fixed-size chunks, each with its own PCG64
stream keyed by ``SeedSequence([seed, chunk_index])``. The chunks are cut
into contiguous blocks, one per worker of a thread pool kept for the life
of the process, and at most ``_BLOCK`` chunks each, which bounds their
working memory. A block draws from each chunk's stream in turn, in the
order the chunk alone would, then runs its arithmetic once over all of
its trials: the kernels are bound by the cost of a numpy call, not by
its size, and fewer calls also hold the interpreter lock less. One
Rayleigh kernel (:func:`_rayleigh`) serves both estimators: at N = 0
slots and with no contention it is the single-slot chunk. Each chunk's
sums (:func:`_chunk_sums`) are still taken over its own trials: for
each Aloha history cell K (one for a single slot), the count and the
float64 sums of h and h**2 over the cell's trials, then over each side
(D = 1 and D = 0) at each radius. With no fading they are counts, exact
in any order, and a block takes them at once. The sums are added in
chunk order, so results are reproducible for a given seed and
independent of the worker count and block size. Standard errors come
from these second moments.
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
# Most chunks a block takes at once (_sum_over_chunks): bounds a block's
# working memory whatever the trial count.
_BLOCK = 16
# Points per pathloss slice: bounds a chunk's float64 working memory.
_SLICE = 1 << 16
# Largest m = 2*alpha/n for which u**(m/2) is built without pow.
_MAX_HALF_POWER = 8
# Bit generator of every chunk stream; its name enters the config hash.
_BIT_GENERATOR = np.random.PCG64
# Blocks run at once; tests set it to check that results do not depend on it.
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
    """Sum the float64 sums of every chunk.

    The chunks are cut into contiguous blocks of ``ceil(chunks /
    _WORKERS)``; when that is more than ``_BLOCK``, into as few rounds of
    ``_WORKERS`` blocks of at most ``_BLOCK`` as hold them, each block of
    about the same size. ``kernel(rngs, sizes)`` takes one block, the
    streams and trial counts of its chunks, and returns the sums of
    :func:`_chunk_sums`, one array per chunk, or a single one for the
    block when its sums are integer counts, exact in any order. Up to
    ``_WORKERS`` blocks run at once, on the pool of :func:`_pool`, whose
    threads start with the first simulation and serve every later one.
    Each chunk draws only from its own stream, and ``pool.map`` yields the
    blocks in order, so the sums are added in chunk order, and the result
    is the same bits at any worker count and block size.
    """
    sizes = _chunk_sizes(cfg.trials)
    rounds = -(-len(sizes) // (_WORKERS * _BLOCK))
    per = -(-len(sizes) // (_WORKERS * rounds))

    def run(first):
        block = sizes[first:first + per]
        return kernel([_chunk_rng(cfg.seed, first + i)
                       for i in range(len(block))], block)

    blocks = _pool(_WORKERS).map(run, range(0, len(sizes), per))
    return sum(row for rows in blocks for row in rows)


def _segment_reduce(ufunc, x: np.ndarray, sizes) -> np.ndarray:
    """``ufunc`` over the consecutive segments of ``x`` of the given sizes,
    each reduced from a 0 put before it. For ``np.add`` that is each
    segment's ``sum()`` to the bit, as numpy's sum also starts from 0
    before its pairwise steps; for ``np.maximum`` over x >= 0 it is
    ``max(initial=0)``. An empty segment gives 0."""
    at = np.cumsum(sizes) - sizes
    return ufunc.reduceat(np.insert(x, at, 0), at + np.arange(len(at)))


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


def _settle(rngs: list, counts: np.ndarray, sizes, edges: np.ndarray,
            bounds: np.ndarray, p: ModelParams,
            R: float) -> tuple[np.ndarray, np.ndarray]:
    """No-fading outcomes of the open trials of a block of chunks, known
    by their ring counts.

    ``counts[j, t]`` is trial t's number of points in ring j of
    :func:`_rings`: the first ``sizes[0]`` trials are chunk 0's, drawing
    from ``rngs[0]``, the next ``sizes[1]`` chunk 1's, and so on.
    ``bounds`` is the pathloss at each ring's last index and its first.
    As the pathloss falls with k, a ring's count times these bounds its
    interference from below and from above. A trial fails when the lower
    bound of its sum exceeds the margin ``1/sigma - eta``, and succeeds
    when the upper bound is within it; on each side by a relative margin
    ``eps``, its chunk's, wider than any float sum of the points of a
    trial of that chunk can stray, so that the outcome is that of the
    float sum over all of them. Pass j takes ring j over every trial of
    the block still open: each draws that ring's positions and replaces
    the ring's bounds by their exact sum. The positions come from one
    ``rng.integers`` within the ring per chunk with an open trial that
    holds points there, the chunk's trials in order, as the chunk alone
    would draw them. A trial open after the last ring is decided by that
    sum.

    Returns the 0/1 outcomes, and the first index of each trial's first
    ring with points (``2**24 + 1`` if none), which decides every zone
    that is a union of rings.
    """
    J, n = counts.shape
    margin = 1.0 / p.sigma - p.eta
    # each chunk's eps, from the most points a trial of it holds
    eps = np.repeat(np.maximum(_BOUND_MARGIN, 2.0 ** -51 * (_segment_reduce(
        np.maximum, counts.sum(axis=0), sizes) + J)), sizes)
    below, above = margin - eps * abs(margin), margin + eps * abs(margin)
    # where each chunk's trials start, and where the last one's end
    splits = np.concatenate(([0], np.cumsum(sizes)))
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
        below, above = below[left], above[left]
        if not len(trials):
            return h, nearest
        c = counts[j].take(trials)
        ends = np.concatenate(([0], np.cumsum(c)))
        if ends[-1]:
            # each chunk's points, from its own stream
            pts = np.concatenate([
                rng.integers(edges[j], edges[j + 1], m, np.int32)
                for rng, m in zip(rngs, np.diff(
                    ends[np.searchsorted(trials, splits)]).tolist()) if m])
            exact += np.bincount(np.repeat(np.arange(len(c)), c),
                                 _pathloss(pts, scale, exponent), len(c))
    # every ring drawn: the sum decides
    h[trials[exact <= margin]] = 1.0
    return h, nearest


def _chunk_sums(h: np.ndarray, kmin: np.ndarray, cuts: np.ndarray, sizes,
                K: np.ndarray | None = None, cells: int = 1) -> np.ndarray:
    """The sums of each run of ``sizes[c]`` consecutive trials, from each
    trial's h, the volume index ``kmin`` of its nearest point, and its
    history cell ``K``, 0 to ``cells - 1`` (None: one cell).

    Returns an array indexed [run, cell, sum, side]: the sums are the
    count, h and h**2 of the cell's trials; the sides are all of them,
    then those whose zone is clear (D = 1) at each cut, then those whose
    zone is busy (D = 0) at each cut. Each is the ``sum()`` of the run's
    values, in trial order (:func:`_segment_reduce`)."""
    # A zone is clear when the trial's nearest point lies outside it. Each
    # side is summed, not taken as total minus the other: a side whose h
    # is tiny next to the total would keep no digits.
    D = kmin >= cuts[:, None]
    mask = np.concatenate([np.ones((1, len(h)), bool), D, ~D])
    if K is not None:
        # rows of cell 0, then of cell 1, and so on
        mask = np.vstack(mask & (K == np.arange(cells)[:, None, None]))
    n = np.add.reduceat(mask, np.cumsum(sizes) - sizes, axis=1)
    # the selected trials, row by row: each flat index of the mask less
    # its row's start
    at = np.flatnonzero(mask)
    at -= np.repeat(np.arange(0, mask.size, len(h)), n.sum(axis=1))
    s_h, s_hh = (_segment_reduce(np.add, x.take(at),
                                 n.ravel()).reshape(n.shape)
                 for x in (h, h * h))
    return np.stack([n, s_h, s_hh]).reshape(
        3, cells, 1 + 2 * len(cuts), len(sizes)).transpose(3, 1, 0, 2)


def _rayleigh(rngs: list, sizes, p: ModelParams, R: float, mean_pts: float,
              far_log: float, cuts: np.ndarray,
              aloha: AlohaParams | None = None) -> np.ndarray:
    """Rayleigh sums (:func:`_chunk_sums`) of a block of chunks: chunk c
    draws ``sizes[c]`` trials from ``rngs[c]``, first each trial's Poisson
    count of points in the ball, then their volume indices.

    Given ``aloha``, each chunk then draws its contention marks: in each
    observed slot for its points inside the guard zone ``cuts[0]`` (only
    they enter the history), then in the decision slot for all of its
    points. A trial's cell K counts the observed slots where none of its
    points inside the zone contends, and only the points that contend in
    the decision slot interfere and enter the zone's test.
    """
    counts = [rng.poisson(mean_pts, size=size)
              for rng, size in zip(rngs, sizes)]
    totals = [int(c.sum()) for c in counts]
    draws = np.concatenate([_volume_draw(rng, total)
                            for rng, total in zip(rngs, totals)])
    counts = np.concatenate(counts)
    K, cells = None, 1
    if aloha is not None:
        ends = np.cumsum(counts)
        inside = np.flatnonzero(draws < cuts[0])
        # Each chunk's marks, thresholded into its share of the block's
        # arrays, a byte a point.
        observed = np.empty((aloha.N, len(inside)), bool)
        active = np.empty(len(draws), bool)
        stops = np.cumsum(totals)
        at = np.searchsorted(inside, stops).tolist()
        stops = stops.tolist()
        for rng, a, b, c, d in zip(rngs, [0] + at, at, [0] + stops, stops):
            for marks in observed:
                np.less(rng.random(b - a), aloha.p, out=marks[a:b])
            np.less(rng.random(d - c), aloha.p, out=active[c:d])
        trial = np.searchsorted(ends, inside, side="right")
        K, cells = np.zeros(len(counts), np.int64), aloha.N + 1
        for marks in observed:
            K += np.bincount(trial[marks], minlength=len(counts)) == 0
        counts = np.diff(np.searchsorted(np.flatnonzero(active), ends),
                         prepend=0)
        draws = draws[active]
    starts = np.cumsum(counts) - counts
    h = _success(draws, starts, counts, p, R, far_log)
    # An empty trial's 2**24 is above every cut, so its zones are clear.
    kmin = np.full(len(counts), 1 << 24, dtype=draws.dtype)
    seen = np.flatnonzero(counts)
    kmin[seen] = np.minimum.reduceat(draws, starts[seen])
    return _chunk_sums(h, kmin, cuts, sizes, K, cells)


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
    if cfg.fading == "none":
        # q: the share of the ball where one point fails the SINR test alone
        k_kill = _kill_index(p, R) if 1.0 / p.sigma > p.eta else 1
        q = (k_kill - 1) * _U_RESOLUTION
        edges, bounds = _rings(k_kill, cuts, p, R)
        ring_means = mean_pts * _U_RESOLUTION * np.diff(edges)[:, None]

    def nofading(rngs, sizes):
        # Near points, k < k_kill, fail their trial alone (there are none
        # if eta >= 1/sigma, where k_kill is 1). The trials with none are
        # settled by their ring counts.
        inner, near, counts = [], [], []
        for rng, size in zip(rngs, sizes):
            if k_kill > 1:
                inner.append(rng.poisson(mean_pts * q, size=size))
                near.append(rng.integers(1, k_kill, int(inner[-1].sum()),
                                         np.int32))
                size -= np.count_nonzero(inner[-1])
            counts.append(rng.poisson(ring_means,
                                      size=(len(ring_means), size)))
        closed = np.empty(0, np.int32)
        if k_kill > 1:
            c = np.concatenate(inner)
            c = c[c > 0]
            closed = np.minimum.reduceat(np.concatenate(near),
                                         np.cumsum(c) - c)
        h, nearest = _settle(rngs, np.concatenate(counts, axis=1),
                             [m.shape[1] for m in counts], edges, bounds, p,
                             R)
        # The closed trials go last, with h = 0 and their nearest near
        # point. The sums are counts: one row serves the block.
        return _chunk_sums(np.concatenate([h, np.zeros(len(closed))]),
                           np.concatenate([nearest, closed]), cuts,
                           [len(h) + len(closed)])

    sums = _sum_over_chunks(nofading if cfg.fading == "none" else (
        lambda rngs, sizes: _rayleigh(rngs, sizes, p, R, mean_pts, far_log,
                                      cuts)), cfg)[0].T.tolist()
    T = cfg.trials
    _, s_h, s_hh = sums[0]
    prior = Estimate.mean(s_h, s_hh, T)
    evidence, post1, post0, rho, p_I, p_II = [], [], [], [], [], []
    for i in range(k):
        # trials, h and h**2 where D = 1 (s_d, s_hd, s_hhd) and D = 0
        (s_d, s_hd, s_hhd), (s_b, s_hb, s_hhb) = sums[1 + i], sums[1 + k + i]
        evidence.append(Estimate.binomial(int(s_d), T))
        post1.append(Estimate.mean(s_hd, s_hhd, s_d))
        post0.append(Estimate.mean(s_hb, s_hhb, s_b))
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
    # u < thr exactly when k < thr * 2**24, a product that is exact
    cuts = np.array([(r_O / R) ** p.n / _U_RESOLUTION])
    sums = _sum_over_chunks(lambda rngs, sizes: _rayleigh(
        rngs, sizes, p, R, mean_pts, far_log, cuts, aloha), cfg)
    trials = cfg.trials
    pK, pHK, pDK, posterior = [], [], [], {}
    for k in range(aloha.N + 1):
        # the cell's trials, then where D = 1, then where D = 0
        (nK, nDK, nBK), (s_h, s_hd, s_hb), (s_hh, s_hhd, s_hhb) = (
            sums[k].tolist())
        pK.append(Estimate.binomial(nK, trials))
        pHK.append(Estimate.mean(s_h, s_hh, nK))
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

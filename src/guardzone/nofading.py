"""No-fading branch at characteristic exponent 1/2 (pathloss = 2n).

Without fading the sum interference has a one-sided stable law of index
1/2 (a Levy law), whose CDF is explicit in the normal CCDF, giving the
prior in closed form. Conditioning on a clear guard zone destroys the
closed form, but the Laplace transform survives:

    E[exp(-s*I) | clear] = exp(-density * c_n * J(s, r_O**(-2n)))
    J(s, u) = sqrt(pi*s)*(1 - 2Q(sqrt(2su))) - (1 - exp(-su))/sqrt(u)

and the posterior is the numerically inverted CDF transform
``(1/s) * LT(s)`` evaluated at ``t = 1/sigma - eta``.

Inversion is the Euler-summed Bromwich series (Abate & Whitt, 1992) on
the nodes ``s_k = (18.4 + 2*pi*i*k) / (2t)``: with m terms, the binomially
weighted mean of the partial sums m..2m. The transform is evaluated once
per grid, as one (radii x 385) array over the nodes that 192 terms need,
and every term count reads one cumulative sum along the nodes; 24 terms
are doubled until two estimates agree to 1e-6 at every radius.

A Talbot contour is unusable here: with the guard zone in place each
interferer contributes at most ``r_O**(-alpha)``, so the transform is
entire and grows doubly-exponentially for Re(s) < 0, which breaks any
method that deforms into the left half-plane. The Bromwich line stays
in Re(s) > 0 where the transform is tame.

Its complex erfcx (see :func:`J`) is within 2.9e-14 of scipy's, relative,
at the nodes of every default ``fading-compare`` row.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from . import specfn
from .params import ModelParams
from .single_obs import evidence_success


class IltConvergenceError(RuntimeError):
    """Inversion failed to reach the requested precision."""

    def __init__(self, achieved: float, target: float):
        self.achieved = achieved
        self.target = target
        super().__init__(
            f"ILT error estimate {achieved:.3e} above target {target:.3e}")


# Euler-inversion schedule: start with _TERMS terms, double up to
# _DOUBLINGS times until consecutive estimates agree within _TARGET
_TERMS = 24
_DOUBLINGS = 3
_TARGET = 1e-6
# discretization-control exponent: e^-_DECAY bounds the aliasing error
_DECAY = 18.4
# J's power series in x = s*u: where |x| is at most _J_SERIES_MAX, its
# coefficients (-1)**(k+1) / (k! (2k-1)), k = 14 down to 1, for Horner's rule
_J_SERIES_MAX = 0.25
_J_SERIES = tuple((-1) ** (k + 1) / (math.factorial(k) * (2 * k - 1))
                  for k in range(14, 0, -1))


@dataclass(frozen=True)
class IltResult:
    """Floats, or arrays with an entry per radius (see :func:`_invert`)."""

    value: float
    error_estimate: float
    terms_used: int


def _require_half(p: ModelParams) -> None:
    if p.alpha != 2 * p.n:
        raise ValueError(
            "the no-fading closed forms require alpha = 2n "
            f"(characteristic exponent 1/2); got n={p.n}, alpha={p.alpha}")


def levy_prior(p: ModelParams) -> float:
    """Unconditional no-fading success probability (Levy-law CDF).

    ``2*Q(c_n * density * sqrt((pi/2) / (1/sigma - eta)))``; requires the
    threshold to be reachable without interference (``1/sigma > eta``).
    """
    _require_half(p)
    margin = 1.0 / p.sigma - p.eta
    if not margin > 0:
        raise ValueError(
            "SINR threshold unreachable even without interference "
            f"(1/sigma = {1.0 / p.sigma:g} <= eta = {p.eta:g})")
    arg = p.c_n * p.density * math.sqrt((math.pi / 2.0) / margin)
    return math.erfc(arg / math.sqrt(2.0))


def J(s, u):
    """The guard-zone-truncated exponent ``(1/2) int_0^u (1-e^{-sy}) y^{-3/2} dy``.

    Takes a complex scalar or array ``s`` with ``Re(s) >= 0`` and a positive
    scalar or array ``u``, which broadcast together. Evaluated in
    the cancellation-free form

        sqrt(pi*s) - 1/sqrt(u) + e^{-su} * (1/sqrt(u) - sqrt(pi*s)*erfcx(sqrt(su)))

    stable on the whole Bromwich line, with Weideman's N = 32 rational erfcx
    (SIAM J. Numer. Anal. 31, 1994), 3.1e-13 relative or better for |sqrt(su)|
    from 1e-8 to 1e6. The principal square-root branch keeps Re(sqrt(su)) >= 0
    and erfcx bounded. Where ``|su| <= 1/4`` that form cancels (its terms
    are about ``sqrt(pi/|su|)`` times J) and the series

        u**-0.5 * sum_{k>=1} (-1)**(k+1) (su)**k / (k! (2k-1))

    is summed instead, to 14 terms by Horner's rule. Against 40-digit
    mpmath, J is within 1e-14 relative at the fig4 Bromwich nodes for r_O
    from 1 to 300 (down to ``|su| = 6e-5``). ``J(0, u) = 0`` and
    ``J(s, inf) = sqrt(pi*s)``.
    """
    if not np.all(u > 0):
        raise ValueError(f"u must be positive, got {u}")
    s = np.asarray(s, dtype=complex)
    if np.any(s.real < 0):
        raise ValueError("J is evaluated for Re(s) >= 0 only")
    root_pis = np.sqrt(math.pi * s)
    ru = 1.0 / np.sqrt(u)
    su = s * u
    out = np.asarray(root_pis - ru + np.exp(-s * u) * (
        ru - root_pis * _erfcx(np.sqrt(su))))
    small = np.abs(su) <= _J_SERIES_MAX
    if small.any():
        x = su[small]
        acc = np.full_like(x, _J_SERIES[0])
        for c in _J_SERIES[1:]:
            acc *= x
            acc += c
        out[small] = acc * x * np.broadcast_to(ru, out.shape)[small]
    return out[()]


@functools.cache
def _weideman_coefficients() -> tuple[float, tuple[float, ...]]:
    """Weideman's L and p's coefficients (N = 32), highest degree first."""
    n = 32
    L = math.sqrt(n / math.sqrt(2.0))
    k = np.arange(1 - 2 * n, 2 * n)
    t = L * np.tan(k * (math.pi / (4 * n)))
    f = np.exp(-t * t) * (L * L + t * t)
    # the real part of Weideman's FFT of f, a cosine sum as f is even
    m = np.arange(n, 0, -1)[:, None]
    coeffs = np.cos(m * k * (math.pi / (2 * n))) @ f / (4 * n)
    return L, tuple(coeffs.tolist())


def _erfcx(z: np.ndarray) -> np.ndarray:
    """``e^{z^2} erfc(z) = w(iz)`` for complex ``z``, ``Re(z) >= 0``: with
    ``d = L + z`` and ``Z = (L - z)/d``, ``(2*p(Z)/d + 1/sqrt(pi))/d``."""
    L, coeffs = _weideman_coefficients()
    d = L + z
    Z = (L - z) / d
    p = np.full_like(Z, coeffs[0])
    for c in coeffs[1:]:
        p *= Z
        p += c
    return (2.0 * p / d + 1.0 / math.sqrt(math.pi)) / d


def lt_nofade_given_void(p: ModelParams, r_O, s):
    """LT of the no-fading interference given a clear guard zone of radius
    r_O, at a complex scalar or array ``s``; ``r_O`` and ``s`` broadcast."""
    _require_half(p)
    r_O = np.asarray(r_O, dtype=float)
    if not np.all(r_O > 0):
        raise ValueError(f"r_O must be positive, got {r_O}")
    return np.exp(-p.density * p.c_n * J(s, r_O ** (-p.alpha)))


@functools.cache
def _euler_weights(terms: int) -> np.ndarray:
    """The binomial weights ``C(terms, j) / 2**terms``, j = 0 .. terms;
    read-only, because every call shares them."""
    weights = np.array([math.comb(terms, j) for j in range(terms + 1)],
                       dtype=float) * 2.0 ** (-terms)
    weights.flags.writeable = False
    return weights


def _invert(p: ModelParams, r_O: np.ndarray, strict: bool = False) -> IltResult:
    """:func:`posterior_nofade` at each radius of a 1-d array, from one
    transform evaluation, as arrays. A radius that misses the target gets
    value nan, ``terms_used`` 0 and the error of the last doubling; or,
    if ``strict``, the first such radius raises
    :class:`IltConvergenceError`."""
    t = 1.0 / p.sigma - p.eta
    if not t > 0:
        raise ValueError("SINR threshold unreachable even without interference")
    k = np.arange(2 * (_TERMS << _DOUBLINGS) + 1)
    s = (_DECAY + 2j * math.pi * k) / (2.0 * t)
    vals = (lt_nofade_given_void(p, r_O[:, None], s) / s).real * (-1.0) ** k
    vals[:, 0] *= 0.5
    partial = np.cumsum(vals, axis=1)
    scale = math.exp(_DECAY / 2.0) / t

    def estimate(terms):
        # binomially weighted mean of the partial sums terms .. 2*terms, a
        # sum along each row alone: a matrix product's summation order
        # depends on the number of rows
        return scale * (partial[:, terms:2 * terms + 1]
                        * _euler_weights(terms)).sum(axis=1)

    value, error = np.full(len(r_O), math.nan), np.empty(len(r_O))
    terms_used = np.zeros(len(r_O), dtype=int)
    prev = estimate(_TERMS)
    for i in range(1, _DOUBLINGS + 1):
        cur = estimate(_TERMS << i)
        open_ = terms_used == 0
        error[open_] = np.abs(cur - prev)[open_]
        done = open_ & (error <= _TARGET)
        value[done] = np.clip(cur[done], 0.0, 1.0)
        terms_used[done] = _TERMS << i
        if terms_used.all():
            break
        prev = cur
    if strict and not terms_used.all():
        raise IltConvergenceError(achieved=float(error[terms_used.argmin()]),
                                  target=_TARGET)
    return IltResult(value, error, terms_used)


def posterior_nofade(p: ModelParams, r_O: float) -> IltResult:
    """No-fading success probability given a clear guard zone of radius r_O:
    the inverted conditional interference CDF at ``1/sigma - eta``, clamped
    to [0, 1], with the difference of the last two term counts, doubled
    until it is within the precision target, as its error estimate.
    Raises :class:`IltConvergenceError` when the target is not met."""
    res = _invert(p, np.array([r_O], dtype=float), strict=True)
    return IltResult(float(res.value[0]), float(res.error_estimate[0]),
                     int(res.terms_used[0]))


def rho_nofade(p: ModelParams, r_O: float) -> float:
    """Correlation of protocol and no-fading physical success indicators.

    Same Bernoulli-correlation identity as the fading case, assembled
    from the Levy prior, the inverted posterior, and the shared void
    probability. Inversion failures propagate.
    """
    return _rho_given_posterior(p, r_O, posterior_nofade(p, r_O).value)


def _rho_given_posterior(p: ModelParams, r_O, post):
    """The correlation from the no-fading posterior ``post`` at r_O, for
    a caller that has already inverted the transform; floats or arrays."""
    prior = levy_prior(p)
    pD = evidence_success(p, r_O)
    return (post / prior - 1.0) * specfn._ops(pD).sqrt(
        prior * pD / ((1.0 - prior) * (1.0 - pD)))

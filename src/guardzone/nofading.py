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
weighted mean of the partial sums m..2m. The transform is evaluated once,
at the 385 nodes that 192 terms need, and every term count reads one
cumulative sum; 24 terms are doubled until two estimates agree to 1e-6.

A Talbot contour is unusable here: with the guard zone in place each
interferer contributes at most ``r_O**(-alpha)``, so the transform is
entire and grows doubly-exponentially for Re(s) < 0, which breaks any
method that deforms into the left half-plane. The Bromwich line stays
in Re(s) > 0 where the transform is tame.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import special

from .params import ModelParams, derive
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


@dataclass(frozen=True)
class IltResult:
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
    d = derive(p)
    margin = 1.0 / d.sigma - p.eta
    if not margin > 0:
        raise ValueError(
            "SINR threshold unreachable even without interference "
            f"(1/sigma = {1.0 / d.sigma:g} <= eta = {p.eta:g})")
    arg = d.c_n * p.density * math.sqrt((math.pi / 2.0) / margin)
    return float(special.erfc(arg / math.sqrt(2.0)))


def J(s, u: float):
    """The guard-zone-truncated exponent ``(1/2) int_0^u (1-e^{-sy}) y^{-3/2} dy``.

    Takes a complex scalar or array ``s`` with ``Re(s) >= 0``. Evaluated in
    the cancellation-free form

        sqrt(pi*s) - 1/sqrt(u) + e^{-su} * (1/sqrt(u) - sqrt(pi*s)*erfcx(sqrt(su)))

    using the scaled complementary error function, stable on the whole
    Bromwich line. Principal square-root branch throughout, so
    Re(sqrt(su)) >= 0 and erfcx stays bounded. ``J(0, u) = 0`` and
    ``J(s, inf) = sqrt(pi*s)``.
    """
    if not u > 0:
        raise ValueError(f"u must be positive, got {u}")
    s = np.asarray(s, dtype=complex)
    if np.any(s.real < 0):
        raise ValueError("J is evaluated for Re(s) >= 0 only")
    root_pis = np.sqrt(math.pi * s)
    ru = 1.0 / math.sqrt(u)
    return root_pis - ru + np.exp(-s * u) * (ru - root_pis * special.erfcx(np.sqrt(s * u)))


def lt_nofade_given_void(p: ModelParams, r_O: float, s):
    """LT of the no-fading interference given a clear guard zone, at a
    complex scalar or array ``s``."""
    _require_half(p)
    if not r_O > 0:
        raise ValueError(f"r_O must be positive, got {r_O}")
    d = derive(p)
    return np.exp(-p.density * d.c_n * J(s, r_O ** (-p.alpha)))


def _euler_sum(partial: np.ndarray, terms: int) -> float:
    """Binomially weighted mean of the partial sums ``terms .. 2*terms``."""
    weights = np.array([math.comb(terms, j) for j in range(terms + 1)],
                       dtype=float) * 2.0 ** (-terms)
    return float(np.dot(weights, partial[terms:2 * terms + 1]))


def posterior_nofade(p: ModelParams, r_O: float) -> IltResult:
    """No-fading success probability given a clear guard zone of radius r_O.

    The conditional interference CDF is recovered by numerical inversion
    and evaluated at ``1/sigma - eta``. The returned value is clamped to
    [0, 1]; the error estimate comes from doubling the term count until
    two consecutive inversions agree within the precision target.
    Raises :class:`IltConvergenceError` when the target is not met.
    """
    _require_half(p)
    d = derive(p)
    t = 1.0 / d.sigma - p.eta
    if not t > 0:
        raise ValueError("SINR threshold unreachable even without interference")
    k = np.arange(2 * (_TERMS << _DOUBLINGS) + 1)
    s = (_DECAY + 2j * math.pi * k) / (2.0 * t)
    vals = (lt_nofade_given_void(p, r_O, s) / s).real * (-1.0) ** k
    vals[0] *= 0.5
    partial = np.cumsum(vals)
    scale = math.exp(_DECAY / 2.0) / t

    prev = scale * _euler_sum(partial, _TERMS)
    for i in range(1, _DOUBLINGS + 1):
        cur = scale * _euler_sum(partial, _TERMS << i)
        err = abs(cur - prev)
        if err <= _TARGET:
            return IltResult(value=min(max(cur, 0.0), 1.0),
                             error_estimate=err, terms_used=_TERMS << i)
        prev = cur
    raise IltConvergenceError(achieved=err, target=_TARGET)


def rho_nofade(p: ModelParams, r_O: float) -> float:
    """Correlation of protocol and no-fading physical success indicators.

    Same Bernoulli-correlation identity as the fading case, assembled
    from the Levy prior, the inverted posterior, and the shared void
    probability. Inversion failures propagate.
    """
    prior = levy_prior(p)
    post = posterior_nofade(p, r_O).value
    pD = evidence_success(p, r_O)
    return (post / prior - 1.0) * math.sqrt(
        prior * pD / ((1.0 - prior) * (1.0 - pD)))

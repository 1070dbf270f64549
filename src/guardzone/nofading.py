"""No-fading branch at characteristic exponent 1/2 (pathloss = 2n).

Without fading the sum interference has a one-sided stable law of index
1/2 (a Levy law), whose CDF is explicit in the normal CCDF, giving the
prior in closed form. Conditioning on a clear guard zone destroys the
closed form, but the Laplace transform survives:

    E[exp(-s*I) | clear] = exp(-density * c_n * J(s, r_O**(-2n)))
    J(s, u) = sqrt(pi*s)*(1 - 2Q(sqrt(2su))) - (1 - exp(-su))/sqrt(u)

and the posterior is the numerically inverted CDF transform
``(1/s) * LT(s)`` evaluated at ``1/sigma - eta``.

Inversion uses Euler summation of the Bromwich-line Fourier series.  A
Talbot contour is unusable here: with the guard zone in place each
interferer contributes at most ``r_O**(-alpha)``, so the transform is
entire and grows doubly-exponentially for Re(s) < 0, which breaks any
method that deforms into the left half-plane. The Bromwich line stays
in Re(s) > 0 where the transform is tame.
"""

from __future__ import annotations

import cmath
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


@dataclass(frozen=True)
class IltConfig:
    """Controls for the numerical Laplace inversion.

    ``terms`` is the number of Euler-averaged terms per evaluation; the
    error is estimated by re-running with the term count doubled, up to
    ``max_doublings`` times.
    """

    terms: int = 24
    precision_target: float = 1e-6
    max_doublings: int = 3

    def __post_init__(self):
        if self.terms < 8:
            raise ValueError("terms must be at least 8")
        if not self.precision_target > 0:
            raise ValueError("precision_target must be positive")
        if self.max_doublings < 1:
            raise ValueError("max_doublings must be at least 1")


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


def J(s: complex, u: float) -> complex:
    """The guard-zone-truncated exponent ``(1/2) int_0^u (1-e^{-sy}) y^{-3/2} dy``.

    Evaluated in the cancellation-free form

        sqrt(pi*s) - 1/sqrt(u) + e^{-su} * (1/sqrt(u) - sqrt(pi*s)*erfcx(sqrt(su)))

    using the scaled complementary error function, stable on the whole
    Bromwich line. Principal square-root branch throughout, so
    Re(sqrt(su)) >= 0 and erfcx stays bounded. ``J(s, inf) = sqrt(pi*s)``.
    """
    if not u > 0:
        raise ValueError(f"u must be positive, got {u}")
    s = complex(s)
    if s.real < 0:
        raise ValueError("J is evaluated for Re(s) >= 0 only")
    if s == 0:
        return 0.0j
    root_su = cmath.sqrt(s * u)
    root_pis = cmath.sqrt(math.pi * s)
    ru = 1.0 / math.sqrt(u)
    return root_pis - ru + cmath.exp(-s * u) * (ru - root_pis * special.erfcx(root_su))


def lt_nofade_given_void(p: ModelParams, r_O: float, s: complex) -> complex:
    """LT of the no-fading interference given a clear guard zone."""
    _require_half(p)
    if not r_O > 0:
        raise ValueError(f"r_O must be positive, got {r_O}")
    d = derive(p)
    return cmath.exp(-p.density * d.c_n * J(s, r_O ** (-p.alpha)))


def _euler_invert_cdf(transform, t: float, terms: int, decay: float = 18.4) -> float:
    """Invert ``transform(s)/s`` at ``t`` via Euler-summed Bromwich series.

    ``decay`` is the discretization-control exponent; e^{-decay} bounds
    the aliasing error, while ``terms`` binomially-averaged partial sums
    control truncation.
    """
    n_burn = terms
    k = np.arange(0, n_burn + terms + 1)
    s = (decay + 2j * math.pi * k) / (2.0 * t)
    vals = np.array([(transform(sv) / sv).real for sv in s])
    vals *= (-1.0) ** k
    vals[0] *= 0.5
    partial = np.cumsum(vals)[n_burn:]
    weights = np.array([math.comb(terms, j) for j in range(terms + 1)],
                       dtype=float) * 2.0 ** (-terms)
    return float(math.exp(decay / 2.0) / t * np.dot(weights, partial))


def posterior_nofade(p: ModelParams, r_O: float, cfg: IltConfig | None = None) -> IltResult:
    """No-fading success probability given a clear guard zone of radius r_O.

    The conditional interference CDF is recovered by numerical inversion
    and evaluated at ``1/sigma - eta``. The returned value is clamped to
    [0, 1]; the error estimate comes from doubling the term count until
    two consecutive inversions agree within the precision target.
    Raises :class:`IltConvergenceError` when the target is not met.
    """
    _require_half(p)
    cfg = cfg or IltConfig()
    d = derive(p)
    t = 1.0 / d.sigma - p.eta
    if not t > 0:
        raise ValueError("SINR threshold unreachable even without interference")
    if not r_O > 0:
        raise ValueError(f"r_O must be positive, got {r_O}")

    def transform(s):
        return lt_nofade_given_void(p, r_O, s)

    terms = cfg.terms
    prev = _euler_invert_cdf(transform, t, terms)
    for _ in range(cfg.max_doublings):
        terms *= 2
        cur = _euler_invert_cdf(transform, t, terms)
        err = abs(cur - prev)
        if err <= cfg.precision_target:
            return IltResult(value=min(max(cur, 0.0), 1.0),
                             error_estimate=err, terms_used=terms)
        prev = cur
    raise IltConvergenceError(achieved=err, target=cfg.precision_target)


def rho_nofade(p: ModelParams, r_O: float, cfg: IltConfig | None = None) -> float:
    """Correlation of protocol and no-fading physical success indicators.

    Same Bernoulli-correlation identity as the fading case, assembled
    from the Levy prior, the inverted posterior, and the shared void
    probability. Inversion failures propagate.
    """
    prior = levy_prior(p)
    post = posterior_nofade(p, r_O, cfg).value
    pD = evidence_success(p, r_O)
    return (post / prior - 1.0) * math.sqrt(
        prior * pD / ((1.0 - prior) * (1.0 - pD)))

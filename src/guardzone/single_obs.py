"""Prior, evidence, and posterior for one protocol observation (Rayleigh fading).

Success under the physical model means the receiver SINR clears the
threshold; success under the protocol model means the guard zone of
radius ``r_O`` around the receiver is free of interferers. Three
nonnegative exponents capture every distribution involved:

    A            -- prior exponent:     P(physical success)  = exp(-A)
    B(r_O)       -- evidence exponent:  P(guard zone clear)  = exp(-B)
    C(r_O)       -- coupling exponent:  P(both)              = exp(-A-C)

so the posterior given a clear guard zone is ``exp(-T)``, ``T = A - B + C``.
With the scale ``a = density * c_n * sigma**delta`` and ``chi = r_O**alpha/sigma``,

    A = a * kappa(delta) + sigma * eta,   B = a * chi**delta,
    C = a * int_I(chi, delta),            B - C = a * power_gap(chi, delta),
    T = a * power_tail(chi, delta) + sigma * eta.

Each is defined once, below, and every other module builds on these
definitions. All probabilities are assembled in log-space and
exponentiated once: ``B`` alone overflows ``exp`` for large radii while
``B - C`` stays bounded by ``a * kappa``, and ``T`` is small next to ``A``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

from . import specfn
from .params import DerivedParams, ModelParams, chi_of_radius, derive


@dataclass(frozen=True)
class AbcTerms:
    """The three exponents; ``A`` does not depend on the radius."""

    A: float
    B: float
    C: float


@dataclass(frozen=True)
class PosteriorTable:
    """Conditional success probabilities P(physical | protocol) for all
    four (hypothesis, observation) combinations.

    Columns sum to one: ``p_h1_d1 + p_h0_d1 == 1`` and likewise for d=0.
    """

    p_h1_d1: float
    p_h1_d0: float
    p_h0_d1: float
    p_h0_d0: float


def _scale(p: ModelParams, d: DerivedParams) -> float:
    """a = density * c_n * sigma**delta, the scale of every exponent."""
    return p.density * d.c_n * d.sigma**d.delta


def _coordinates(p: ModelParams, r_O: float) -> tuple[float, float, float]:
    """(a, delta, chi) at guard-zone radius r_O: the arguments of B, C, B - C."""
    d = derive(p)
    return _scale(p, d), d.delta, chi_of_radius(d, r_O)


def _B(a: float, delta: float, chi: float) -> float:
    """Evidence exponent ``a * chi**delta = density * c_n * r_O**n``."""
    return a * chi**delta


def _C(a: float, delta: float, chi: float) -> float:
    """Coupling exponent ``a * int_I(chi)``."""
    return a * specfn.int_I(chi, delta)


def _BmC(a: float, delta: float, chi: float) -> float:
    """B - C, taken directly as ``a * power_gap(chi)``: it stays below
    ``a * kappa`` for every chi, while B and C both diverge."""
    return a * specfn.power_gap(chi, delta)


def _tail(a: float, delta: float, chi: float) -> float:
    """T without its noise term: ``a * power_tail(chi)``, the interference
    exponent of the nodes outside the guard zone."""
    return a * specfn.power_tail(chi, delta)


def prior_exponent(p: ModelParams, d: DerivedParams | None = None) -> float:
    """Exponent A with ``P(physical success) = exp(-A)``."""
    d = d or derive(p)
    return _scale(p, d) * d.kappa_delta + d.sigma * p.eta


def _exponents(p: ModelParams, r_O: float) -> tuple[float, float, float, float]:
    """(A, B, C, T) at a positive guard-zone radius r_O, T = A - (B - C)."""
    if not r_O > 0:
        raise ValueError(f"r_O must be positive, got {r_O}")
    d = derive(p)
    args = _scale(p, d), d.delta, chi_of_radius(d, r_O)
    T = _tail(*args) + d.sigma * p.eta
    return prior_exponent(p, d), _B(*args), _C(*args), T


def prior_success(p: ModelParams) -> float:
    """Unconditional probability the reference SINR clears the threshold."""
    return math.exp(-prior_exponent(p))


def evidence_success(p: ModelParams, r_O: float) -> float:
    """Void probability of the guard zone, ``exp(-density * c_n * r_O**n)``."""
    return math.exp(-_B(*_coordinates(p, r_O)))


def abc_terms(p: ModelParams, r_O: float) -> AbcTerms:
    """Evaluate A, B(r_O), C(r_O) for a positive guard-zone radius."""
    A, B, C, _ = _exponents(p, r_O)
    return AbcTerms(A=A, B=B, C=C)


def posterior(p: ModelParams, r_O: float) -> PosteriorTable:
    """Posterior distribution of physical success given the protocol outcome.

    Rejects ``r_O = 0`` and non-finite radii: conditioning on a failed
    (resp. clear) guard zone is then a null event. The limiting values
    are exposed by :func:`posterior_limit_small` / ``..._large`` instead.
    """
    if not (r_O > 0 and math.isfinite(r_O)):
        raise ValueError(
            f"posterior requires a finite positive r_O, got {r_O}")
    A, B, C, T = _exponents(p, r_O)
    # P(H=1, D=0) / P(D=0) = (e^-A - e^(-A-C)) / (1 - e^-B) is of order
    # r_O**alpha; expm1 keeps it exact where both differences are tiny
    p10 = math.exp(-A) * math.expm1(-C) / math.expm1(-B)
    return PosteriorTable(p_h1_d1=math.exp(-T), p_h1_d0=p10,
                          p_h0_d1=-math.expm1(-T), p_h0_d0=1.0 - p10)


def posterior_limit_small(p: ModelParams) -> float:
    """Limit of P(success | clear) as r_O -> 0: the unconditional prior."""
    return prior_success(p)


def posterior_limit_large(p: ModelParams) -> float:
    """Limit of P(success | clear) as r_O -> inf: the no-interference
    ceiling ``exp(-sigma*eta)``."""
    d = derive(p)
    return math.exp(-d.sigma * p.eta)


def lt_interference_given_void(p: ModelParams, r_O: float, s: float) -> float:
    """Laplace transform E[exp(-s * I)] of the sum interference seen at the
    receiver, conditioned on an interferer-free ball of radius ``r_O``.

    ``log LT = density*c_n*(r_O**n - kappa*s**delta - s**delta*I(r_O**alpha/s))``.
    At ``s = sigma``, multiplied by ``exp(-sigma*eta)``, this is the
    posterior P(success | clear).
    """
    if s < 0:
        raise ValueError(f"s must be nonnegative, got {s}")
    if r_O < 0:
        raise ValueError(f"r_O must be nonnegative, got {r_O}")
    if s == 0.0:
        return 1.0
    # the posterior's exponents with sigma replaced by s, and no noise
    d = replace(derive(p), sigma=s)
    return math.exp(-_tail(_scale(p, d), d.delta, chi_of_radius(d, r_O)))

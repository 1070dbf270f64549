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

The exponents, :func:`evidence_success` and :func:`posterior` take a
float radius or a numpy array of radii, and return floats or arrays to
match; :func:`guardzone.specfn._ops` picks ``math`` or numpy for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


def _coordinates(p: ModelParams, r_O) -> tuple:
    """(a, delta, chi) at guard-zone radius r_O: the arguments of B, C, B - C."""
    d = derive(p)
    return _scale(p, d), d.delta, chi_of_radius(d, r_O)


def _B(a: float, delta: float, chi):
    """Evidence exponent ``a * chi**delta = density * c_n * r_O**n``."""
    return a * chi**delta


def _C(a: float, delta: float, chi):
    """Coupling exponent ``a * int_I(chi)``."""
    return a * specfn.int_I(chi, delta)


def _BmC(a: float, delta: float, chi):
    """B - C, taken directly as ``a * power_gap(chi)``: it stays below
    ``a * kappa`` for every chi, while B and C both diverge."""
    return a * specfn.power_gap(chi, delta)


def _tail(a: float, delta: float, chi):
    """T without its noise term: ``a * power_tail(chi)``, the interference
    exponent of the nodes outside the guard zone."""
    return a * specfn.power_tail(chi, delta)


def prior_exponent(p: ModelParams, d: DerivedParams | None = None) -> float:
    """Exponent A with ``P(physical success) = exp(-A)``."""
    d = d or derive(p)
    return _scale(p, d) * d.kappa_delta + d.sigma * p.eta


def _exponents(p: ModelParams, r_O):
    """(A, B, C, T) at a positive guard-zone radius r_O, T = A - (B - C).

    A is a float; B, C and T are floats or arrays, as r_O is."""
    if not specfn._all(r_O > 0):
        raise ValueError(f"r_O must be positive, got {r_O}")
    d = derive(p)
    args = _scale(p, d), d.delta, chi_of_radius(d, r_O)
    T = _tail(*args) + d.sigma * p.eta
    return prior_exponent(p, d), _B(*args), _C(*args), T


def prior_success(p: ModelParams) -> float:
    """Unconditional probability the reference SINR clears the threshold."""
    return math.exp(-prior_exponent(p))


def evidence_success(p: ModelParams, r_O):
    """Void probability of the guard zone, ``exp(-density * c_n * r_O**n)``."""
    B = _B(*_coordinates(p, r_O))
    return specfn._ops(B).exp(-B)


def abc_terms(p: ModelParams, r_O: float) -> AbcTerms:
    """Evaluate A, B(r_O), C(r_O) for a positive guard-zone radius."""
    A, B, C, _ = _exponents(p, r_O)
    return AbcTerms(A=A, B=B, C=C)


def posterior(p: ModelParams, r_O) -> PosteriorTable:
    """Posterior distribution of physical success given the protocol outcome.

    Rejects ``r_O = 0`` and non-finite radii: conditioning on a failed
    (resp. clear) guard zone is then a null event; P(success | clear)
    tends to :func:`prior_success` as r_O -> 0 and to ``exp(-sigma*eta)``
    as r_O -> inf. An array of radii gives a table of arrays.
    """
    if not specfn._all((r_O > 0) & (r_O < math.inf)):
        raise ValueError(
            f"posterior requires a finite positive r_O, got {r_O}")
    A, B, C, T = _exponents(p, r_O)
    xp = specfn._ops(B)
    # P(H=1, D=0) / P(D=0) = (e^-A - e^(-A-C)) / (1 - e^-B) is of order
    # r_O**alpha; expm1 keeps it exact where both differences are tiny
    p10 = math.exp(-A) * xp.expm1(-C) / xp.expm1(-B)
    return PosteriorTable(p_h1_d1=xp.exp(-T), p_h1_d0=p10,
                          p_h0_d1=-xp.expm1(-T), p_h0_d0=1.0 - p10)

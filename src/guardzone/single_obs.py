"""Prior, evidence, and posterior for one protocol observation (Rayleigh fading).

Success under the physical model means the receiver SINR clears the
threshold; success under the protocol model means the guard zone of
radius ``r_O`` around the receiver is free of interferers. Three
nonnegative exponents capture every distribution involved:

    A            -- prior exponent:     P(physical success)  = exp(-A)
    B(r_O)       -- evidence exponent:  P(guard zone clear)  = exp(-B)
    C(r_O)       -- coupling exponent:  P(both)              = exp(-A-C)

so the posterior given a clear guard zone is ``exp(-T)``, ``T = A - B + C``.
The joint law of the protocol outcome d and the physical outcome h has
four cells, each a product of positive factors or a sum of positive terms:

    P(d=1, h=1) = exp(-B-T),            P(d=1, h=0) = exp(-B) (1 - exp(-T)),
    P(d=0, h=1) = exp(-A) (1 - exp(-C)),
    P(d=0, h=0) = (1 - exp(-B)) (1 - exp(-T)) + exp(-T) (1 - exp(-(B-C))):

the nodes outside the guard zone spoil the slot, or they do not and a
node inside does (:func:`_busy_failure`). None is a completeness
subtraction, so each keeps its relative accuracy where it is small next
to the others, as the busy-zone failure is in a sparse network.
With the scale ``a = density * c_n * sigma**delta`` and ``chi = r_O**alpha/sigma``,

    A = a * kappa(delta) + sigma * eta,   B = a * chi**delta,
    C = a * int_I(chi, delta),            B - C = a * power_gap(chi, delta),
    T = a * power_tail(chi, delta) + sigma * eta.

The scale and A are attributes of the scenario, ``p.a`` and ``p.A``
(:class:`guardzone.params.ModelParams`); B, C and T are each defined
once, below. Every other module builds on these definitions. All
probabilities are assembled in log-space and exponentiated once: ``B``
alone overflows ``exp`` for large radii while ``B - C`` stays bounded by
``a * kappa``, and ``T`` is small next to ``A``.

The exponents, :func:`evidence_success` and :func:`posterior` take a
float radius or a numpy array of radii, and return floats or arrays to
match; :func:`guardzone.specfn._ops` picks ``math`` or numpy for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import specfn
from .params import ModelParams, chi_of_radius


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

    Columns sum to one within rounding: ``p_h1_d1 + p_h0_d1`` and
    ``p_h1_d0 + p_h0_d0``, each formed from its own cells, not as ``1 -``
    the other.
    """

    p_h1_d1: float
    p_h1_d0: float
    p_h0_d1: float
    p_h0_d0: float


def _coordinates(p: ModelParams, r_O) -> tuple:
    """(a, delta, chi) at guard-zone radius r_O: the arguments of B, C, B - C."""
    return p.a, p.delta, chi_of_radius(p, r_O)


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


def _exponents(p: ModelParams, r_O):
    """(A, B, C, T) at a positive guard-zone radius r_O, T = A - (B - C).

    A is a float; B, C and T are floats or arrays, as r_O is."""
    if not specfn._all(r_O > 0):
        raise ValueError(f"r_O must be positive, got {r_O}")
    args = _coordinates(p, r_O)
    T = _tail(*args) + p.sigma * p.eta
    return p.A, _B(*args), _C(*args), T


def _busy_failure(p: ModelParams, r_O, B, T):
    """P(d=0, h=0) at radius r_O, given its B and T: two positive terms,
    with B - C taken from :func:`_BmC`, never as a difference."""
    xp, gap = specfn._ops(B), _BmC(*_coordinates(p, r_O))
    return xp.expm1(-B) * xp.expm1(-T) - xp.exp(-T) * xp.expm1(-gap)


def prior_success(p: ModelParams) -> float:
    """Unconditional probability the reference SINR clears the threshold."""
    return math.exp(-p.A)


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
    busy = -xp.expm1(-B)
    return PosteriorTable(
        p_h1_d1=xp.exp(-T), p_h1_d0=math.exp(-A) * -xp.expm1(-C) / busy,
        p_h0_d1=-xp.expm1(-T), p_h0_d0=_busy_failure(p, r_O, B, T) / busy)

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

    A = a * kappa(delta) + sigma * eta,   B = density * c_n * r_O**n,
    C = a * int_I(chi, delta),            B - C = a * power_gap(chi, delta),
    T = a * power_tail(chi, delta) + sigma * eta.

B is taken from the radius, not as ``a * chi**delta``, a power of a
power of r_O whose few ulps ``exp(-B)`` would multiply by B. The gap
and T come from one series pass (:func:`guardzone.specfn._gap_tail`),
and C from ``int_I``. The scale and A are attributes of the scenario,
``p.a`` and ``p.A`` (:class:`guardzone.params.ModelParams`).

The joint law of the protocol outcome d and the physical outcome h at
one radius is :func:`_law`, the one home of these exponents and of the
four cells, each a product of positive factors or a sum of positive
terms:

    P(d=1, h=1) = exp(-B-T),            P(d=1, h=0) = exp(-B) (1 - exp(-T)),
    P(d=0, h=1) = exp(-A) (1 - exp(-C)),
    P(d=0, h=0) = (1 - exp(-B)) (1 - exp(-T)) + exp(-T) (1 - exp(-(B-C))):

the nodes outside the guard zone spoil the slot, or they do not and a
node inside does. None is a completeness subtraction, so each keeps its
relative accuracy where it is small next to the others, as the busy-zone
failure is in a sparse network. The law also gives P(d | h=1), in which
a huge A cancels. It checks the radius, once: every form that reads it
raises ``ValueError`` for a radius that is not finite and positive.
Every other single-slot form reads the law and forms no exponent of its
own; :mod:`guardzone.correlation` writes B and C in chi, as its
equations are.

The law, :func:`evidence_success` and :func:`posterior` take a float
radius or a numpy array of radii, and return floats or arrays to
match; :func:`guardzone.specfn._ops` picks ``math`` or numpy for them.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

from . import specfn
from .params import ModelParams, chi_of_radius


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


class _Law(NamedTuple):
    """The joint law of (d, h) at one radius: A, a float, and B, C, T, the
    gap B - C and chi, floats or arrays, as r_O is."""

    A: float
    B: object
    C: object
    T: object
    gap: object
    chi: object

    @property
    def cells(self) -> tuple:
        """P(d, h), indexed [d][h], each a product of positive factors or a
        sum of positive terms."""
        xp = specfn._ops(self.B)
        # 1 - e^-B, 1 - e^-T and 1 - e^-(B-C), each by expm1
        busy, fail, spoil = (-xp.expm1(-x) for x in (self.B, self.T, self.gap))
        return ((busy * fail + xp.exp(-self.T) * spoil,
                 math.exp(-self.A) * -xp.expm1(-self.C)),
                (xp.exp(-self.B) * fail, xp.exp(-self.B - self.T)))

    @property
    def given_success(self) -> tuple:
        """P(d | h=1), d = 0, 1, in which a huge A cancels."""
        xp = specfn._ops(self.C)
        return -xp.expm1(-self.C), xp.exp(-self.C)


def _law(p: ModelParams, r_O) -> _Law:
    """The :class:`_Law` at a finite positive guard-zone radius r_O, a
    float or an array; raises ``ValueError`` for any other."""
    if not specfn._all((r_O > 0) & (r_O < math.inf)):
        raise ValueError(f"r_O must be finite and positive, got {r_O}")
    chi = chi_of_radius(p, r_O)
    gap, tail = specfn._gap_tail(chi, p.delta)
    return _Law(A=p.A, B=p.density * p.c_n * r_O**p.n,
                C=p.a * specfn.int_I(chi, p.delta),
                T=p.a * tail + p.sigma * p.eta, gap=p.a * gap, chi=chi)


def prior_success(p: ModelParams) -> float:
    """Unconditional probability the reference SINR clears the threshold."""
    return math.exp(-p.A)


def evidence_success(p: ModelParams, r_O):
    """Void probability of the guard zone, ``exp(-density * c_n * r_O**n)``."""
    B = _law(p, r_O).B
    return specfn._ops(B).exp(-B)


def posterior(p: ModelParams, r_O) -> PosteriorTable:
    """Posterior distribution of physical success given the protocol outcome.

    Rejects ``r_O = 0`` and non-finite radii: conditioning on a failed
    (resp. clear) guard zone is then a null event; P(success | clear)
    tends to :func:`prior_success` as r_O -> 0 and to ``exp(-sigma*eta)``
    as r_O -> inf. An array of radii gives a table of arrays.
    """
    law = _law(p, r_O)
    xp = specfn._ops(law.B)
    # P(H=1, D=0) / P(D=0) = (e^-A - e^(-A-C)) / (1 - e^-B) is of order
    # r_O**alpha; expm1 keeps it exact where both differences are tiny
    busy = -xp.expm1(-law.B)
    (h0, h1), _ = law.cells
    return PosteriorTable(p_h1_d1=xp.exp(-law.T), p_h1_d0=h1 / busy,
                          p_h0_d1=-xp.expm1(-law.T), p_h0_d0=h0 / busy)

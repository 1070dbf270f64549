"""Bayes risk of guard-zone decision rules, the optimal radius, and the ROC.

A decision rule maps the protocol observation (guard zone clear or not)
to a prediction of physical success: it is a
:class:`guardzone.multi_obs.DecisionRuleTable` with N = 0, no past
slots, such as ``follow_observation(0)``. Every form here reads the
joint law of (d, h) at its radius, ``single_obs._law``, and forms no
exponent of its own: the risk is the law's cells weighted by a 2x2 cost
matrix, and a rule's errors are the cells it gets wrong in a column
over the sum of that column. So each form raises ``ValueError`` for a
radius that is not finite and positive, as the law does.

The expected cost of following the observation is quasi-convex in the
radius; its interior minimizer solves a monotone-vs-monotone crossing
equation, which certifies bracketing for the root finder. Under uniform
costs the two conditional risks are the Type I (false rejection of
physical failure) and Type II (false acceptance) error probabilities
traced out as the ROC.

``bayes_risk``, ``type_errors`` and the two sides of the crossing
equation take a float radius or an array of radii, so a risk or ROC
curve is one call; the solvers call them with floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from . import specfn
from .multi_obs import DecisionRuleTable
from .params import ModelParams, chi_of_radius
from .single_obs import _law, prior_success


@dataclass(frozen=True)
class CostMatrix:
    """Costs c_ij of deciding i when hypothesis j holds (j=1: success)."""

    c00: float
    c01: float
    c10: float
    c11: float

    def __post_init__(self):
        if min(self.c00, self.c01, self.c10, self.c11) < 0:
            raise ValueError("cost entries must be nonnegative")

    @classmethod
    def uniform(cls) -> "CostMatrix":
        """Unit cost for errors, zero for correct decisions."""
        return cls(0.0, 1.0, 1.0, 0.0)

    @property
    def gamma(self) -> float:
        """c10 - c00, the extra cost of a false 'success' call."""
        return self.c10 - self.c00

    @property
    def nu(self) -> float:
        """c01 - c11, the extra cost of a false 'failure' call."""
        return self.c01 - self.c11

    def require_regular(self):
        if not (self.gamma > 0 and self.nu > 0):
            raise ValueError(
                "optimization requires wrong decisions to cost more than "
                f"right ones (c10 > c00 and c01 > c11); got {self}")


@dataclass(frozen=True)
class OptimalRadius:
    """Result of the risk minimization.

    ``exists`` is False when the interior-optimum condition
    ``log(1 + nu/gamma) > sigma*eta`` fails; the risk then decreases
    toward its boundary value as r_O -> inf and ``r_O`` is ``inf``.
    """

    exists: bool
    r_O: float
    risk: float


def bayes_risk(p: ModelParams, cost: CostMatrix, r_O):
    """Expected cost of the identity rule at guard-zone radius r_O: the
    sum over (d, h) of c_dh P(d, h)."""
    (p00, p01), (p10, p11) = _law(p, r_O).cells
    return cost.c00 * p00 + cost.c01 * p01 + cost.c10 * p10 + cost.c11 * p11


def bayes_risk_derivative(p: ModelParams, cost: CostMatrix, r_O):
    """d/dr_O of :func:`bayes_risk`, in closed form: B grows like r_O**n,
    so ``dB/dr_O = n B / r_O``, and ``dC/dr_O = chi/(1+chi) dB/dr_O``."""
    law = _law(p, r_O)
    xp = specfn._ops(law.B)
    return -p.n * law.B / r_O * (
        (cost.c10 - cost.c00) * xp.exp(-law.B)
        + (cost.c11 + cost.c00 - cost.c10 - cost.c01) * law.chi
        / (1.0 + law.chi) * xp.exp(-law.A - law.C))


def _f_left(p: ModelParams, cost: CostMatrix, r_O):
    """log(1 + 1/chi) - log(1 + nu/gamma); decreasing from +inf."""
    chi = chi_of_radius(p, r_O)
    return specfn._ops(chi).log1p(1.0 / chi) - math.log1p(cost.nu / cost.gamma)


def _f_right(p: ModelParams, r_O):
    """-T = -A + B - C; increasing from -A up to -sigma*eta."""
    return -_law(p, r_O).T


def optimal_radius(p: ModelParams, cost: CostMatrix) -> OptimalRadius:
    """Radius minimizing the identity-rule Bayes risk.

    The stationarity condition is the crossing of a decreasing and an
    increasing function of r_O, so once a sign change is bracketed the
    root is unique. Nonexistence (noise too strong relative to the cost
    asymmetry) is returned as a tagged boundary outcome, not raised.
    """
    cost.require_regular()
    if not math.log1p(cost.nu / cost.gamma) > p.sigma * p.eta:
        boundary = cost.c00 * -math.expm1(-p.A) + cost.c01 * prior_success(p)
        return OptimalRadius(exists=False, r_O=math.inf, risk=boundary)

    def h(r):
        return _f_left(p, cost, r) - _f_right(p, r)

    r_star = _solve_up(h, p, "the optimal radius")
    return OptimalRadius(exists=True, r_O=r_star,
                         risk=bayes_risk(p, cost, r_star))


def _solve_up(f, p: ModelParams, what: str) -> float:
    """The radius where ``f``, positive at small radii, turns negative:
    the bracket [1e-6 r_T, 2 r_T] is doubled at its upper end until it
    holds the sign change, up to the radius where chi = r**alpha / sigma
    reaches 1e300, short of the float range."""
    lo, hi = specfn._expand(lambda r: f(r) > 0, 1e-6 * p.r_T, 2.0 * p.r_T,
                            (p.sigma * 1e300) ** (1 / p.alpha), what)
    return specfn._find_root(f, lo, hi, 1e-14, 1e-15)


def sensitivities(p: ModelParams, cost: CostMatrix) -> tuple[float, float]:
    """(d r*/d density, d r*/d sigma) at the optimal radius, for eta = 0.

    Both are strictly positive: denser networks and stricter SINR
    requirements both push the optimal guard zone outward.
    """
    if p.eta != 0:
        raise ValueError("sensitivities are defined for the noiseless case only")
    opt = optimal_radius(p, cost)
    if not opt.exists:
        raise ValueError("no interior optimum; sensitivities undefined")
    r = opt.r_O
    A, B, C, T, _, chi = _law(p, r)
    denom = p.alpha * (1.0 + p.delta * B)
    d_dlam = r * (1.0 + chi) * T / (p.density * denom)
    bracket = 1.0 + p.delta * ((1.0 + chi) * (A + C) - chi * B)
    d_dsig = r * bracket / (p.sigma * denom)
    return d_dlam, d_dsig


def type_errors(p: ModelParams, r_O, rule: DecisionRuleTable) -> tuple:
    """(Type I, Type II) error probabilities of an N = 0 ``rule`` at radius
    r_O: the cells (d, h=0) it calls a success over P(h=0), and the
    chance P(d | h=1) of the outcomes d it calls a failure, over the sum
    of that column.

    Type I: predicting success when the SINR test fails; Type II:
    predicting failure when it succeeds.
    """
    if rule.N != 0:
        raise ValueError(f"a single-observation rule has N=0, got N={rule.N}")
    law = _law(p, r_O)
    # over d = 0, 1: the cells P(d, h=0), and P(d | h=1)
    h0, h1 = [row[0] for row in law.cells], law.given_success
    p_I = sum(c for c, g in zip(h0, rule.bits) if g == "1") / sum(h0)
    p_II = sum(c for c, g in zip(h1, rule.bits) if g == "0") / sum(h1)
    return p_I, p_II


@dataclass(frozen=True)
class OperatingPoints:
    """Named radii on the ROC.

    ``r_DI``: smallest guard zone excluding any single interferer able to
    break the SINR threshold on its own (None when noise alone already
    does). ``r_MM``: radius where protocol and physical success
    probabilities match. ``r_EE``: equal Type I / Type II errors.
    """

    r_DI: float | None
    r_MM: float
    r_EE: float


def operating_points(p: ModelParams) -> OperatingPoints:
    inv = 1.0 / p.sigma - p.eta
    r_di = inv ** (-1.0 / p.alpha) if inv > 0 else None
    # B(r_MM) = A
    r_mm = (p.A / (p.density * p.c_n)) ** (1.0 / p.n)

    rule = DecisionRuleTable.follow_observation(0)

    def gap(r):
        pi, pii = type_errors(p, r, rule)
        return pi - pii

    # p_I starts at 1 (> p_II)
    r_ee = _solve_up(gap, p, "the equal-error radius")
    return OperatingPoints(r_DI=r_di, r_MM=r_mm, r_EE=r_ee)

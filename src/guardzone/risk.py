"""Bayes risk of guard-zone decision rules, the optimal radius, and the ROC.

A decision rule maps the protocol observation (guard zone clear or not)
to a prediction of physical success. The expected cost under a 2x2 cost
matrix is quasi-convex in the radius; its interior minimizer solves a
monotone-vs-monotone crossing equation, which certifies bracketing for
the root finder. Under uniform costs the two conditional risks are the
Type I (false rejection of physical failure) and Type II (false
acceptance) error probabilities traced out as the ROC.

``bayes_risk``, ``type_errors`` and the two sides of the crossing
equation take a float radius or an array of radii, so a risk or ROC
curve is one call; the solvers call them with floats.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfn
from .params import ModelParams, chi_of_radius
from .single_obs import _exponents, abc_terms, prior_success


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
class SingleObsRule:
    """Prediction (g0, g1) made on observing a busy / clear guard zone."""

    g0: int
    g1: int

    def __post_init__(self):
        if self.g0 not in (0, 1) or self.g1 not in (0, 1):
            raise ValueError("rule outputs must be 0 or 1")

    @classmethod
    def identity(cls):
        return cls(0, 1)

    @classmethod
    def complement(cls):
        return cls(1, 0)

    @classmethod
    def always(cls, h: int):
        return cls(h, h)


ALL_SINGLE_OBS_RULES = (SingleObsRule(0, 0), SingleObsRule(0, 1),
                        SingleObsRule(1, 0), SingleObsRule(1, 1))


@dataclass(frozen=True)
class RocPoint:
    r_O: float
    p_I: float
    p_II: float
    risk: float


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
    """Expected cost of the identity rule at guard-zone radius r_O."""
    A, B, C, _ = _exponents(p, r_O)
    xp = specfn._ops(B)
    return (cost.c00
            + (cost.c01 - cost.c00) * math.exp(-A)
            + (cost.c10 - cost.c00) * xp.exp(-B)
            + (cost.c11 + cost.c00 - cost.c10 - cost.c01) * xp.exp(-A - C))


def bayes_risk_derivative(p: ModelParams, cost: CostMatrix, r_O):
    """d/dr_O of :func:`bayes_risk`, in closed form: B grows like r_O**n,
    so ``dB/dr_O = n B / r_O``, and ``dC/dr_O = chi/(1+chi) dB/dr_O``."""
    A, B, C, _ = _exponents(p, r_O)
    chi = chi_of_radius(p, r_O)
    xp = specfn._ops(B)
    return -p.n * B / r_O * (
        (cost.c10 - cost.c00) * xp.exp(-B)
        + (cost.c11 + cost.c00 - cost.c10 - cost.c01) * chi / (1.0 + chi)
        * xp.exp(-A - C))


def _f_left(p: ModelParams, cost: CostMatrix, r_O):
    """log(1 + 1/chi) - log(1 + nu/gamma); decreasing from +inf."""
    chi = chi_of_radius(p, r_O)
    return specfn._ops(chi).log1p(1.0 / chi) - math.log1p(cost.nu / cost.gamma)


def _f_right(p: ModelParams, r_O):
    """-T = -A + B - C; increasing from -A up to -sigma*eta."""
    return -_exponents(p, r_O)[3]


def optimal_radius(p: ModelParams, cost: CostMatrix) -> OptimalRadius:
    """Radius minimizing the identity-rule Bayes risk.

    The stationarity condition is the crossing of a decreasing and an
    increasing function of r_O, so once a sign change is bracketed the
    root is unique. Nonexistence (noise too strong relative to the cost
    asymmetry) is returned as a tagged boundary outcome, not raised.
    """
    cost.require_regular()
    if not math.log1p(cost.nu / cost.gamma) > p.sigma * p.eta:
        boundary = cost.c00 + (cost.c01 - cost.c00) * prior_success(p)
        return OptimalRadius(exists=False, r_O=math.inf, risk=boundary)

    def h(r):
        return _f_left(p, cost, r) - _f_right(p, r)

    r_star = _solve_up(h, p, "the optimal radius")
    chi = chi_of_radius(p, r_star)
    t = abc_terms(p, r_star)
    risk_min = (cost.c00 + (cost.c01 - cost.c00) * math.exp(-t.A)
                - (cost.c10 - cost.c00) / chi * math.exp(-t.B))
    return OptimalRadius(exists=True, r_O=r_star, risk=risk_min)


def _solve_up(f, p: ModelParams, what: str) -> float:
    """The radius where ``f``, positive at small radii, turns negative:
    the bracket [1e-6 r_T, 2 r_T] is doubled at its upper end until it
    holds the sign change."""
    lo, hi = specfn._expand(lambda r: f(r) > 0, 1e-6 * p.r_T, 2.0 * p.r_T,
                            1e15 * p.r_T, what)
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
    chi = chi_of_radius(p, r)
    A, B, C, T = _exponents(p, r)
    denom = p.alpha * (1.0 + p.delta * B)
    d_dlam = r * (1.0 + chi) * T / (p.density * denom)
    bracket = 1.0 + p.delta * ((1.0 + chi) * (A + C) - chi * B)
    d_dsig = r * bracket / (p.sigma * denom)
    return d_dlam, d_dsig


def type_errors(p: ModelParams, r_O, rule: SingleObsRule) -> tuple:
    """(Type I, Type II) error probabilities of ``rule`` at radius r_O.

    Type I: predicting success when the SINR test fails; Type II:
    predicting failure when it succeeds.
    """
    A, B, C, T = _exponents(p, r_O)
    xp = specfn._ops(B)
    h0 = -math.expm1(-A)
    # P(D=d | H=0) = (P(D=d) - P(D=d, H=1)) / P(H=0) and P(D=0 | H=1),
    # written with expm1 so that none cancels when its exponents are small
    d1_h0 = -xp.exp(-B) * xp.expm1(-T) / h0
    d0_h0 = (math.exp(-A) * xp.expm1(-C) - xp.expm1(-B)) / h0
    p_I = _predicts(rule.g1, rule.g0, d1_h0, d0_h0)
    p_II = _predicts(1 - rule.g1, 1 - rule.g0, xp.exp(-C), -xp.expm1(-C))
    return p_I, p_II


def _predicts(g1: int, g0: int, on_d1, on_d0):
    """Probability of a rule's output being 1, given the probabilities of
    a clear (``on_d1``) and a busy (``on_d0``) guard zone."""
    if g1 == g0:
        if isinstance(on_d1, np.ndarray):
            return np.full(on_d1.shape, float(g1))
        return float(g1)
    return on_d1 if g1 else on_d0


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

    rule = SingleObsRule.identity()

    def gap(r):
        pi, pii = type_errors(p, r, rule)
        return pi - pii

    # p_I starts at 1 (> p_II)
    r_ee = _solve_up(gap, p, "the equal-error radius")
    return OperatingPoints(r_DI=r_di, r_MM=r_mm, r_EE=r_ee)


def roc_curve(p: ModelParams, r_O_grid, rule: SingleObsRule | None = None) -> list[RocPoint]:
    """Evaluate (p_I, p_II, uniform-cost risk) along an increasing grid."""
    grid = np.asarray(r_O_grid, dtype=float)
    if not (np.all(np.diff(grid) > 0) and grid[0] > 0):
        raise ValueError("r_O grid must be strictly increasing and positive")
    rule = rule or SingleObsRule.identity()
    pH = prior_success(p)
    p_i, p_ii = type_errors(p, grid, rule)
    risk = p_i * (1.0 - pH) + p_ii * pH
    return [RocPoint(r_O=r, p_I=a, p_II=b, risk=c) for r, a, b, c in
            zip(grid.tolist(), p_i.tolist(), p_ii.tolist(), risk.tolist())]

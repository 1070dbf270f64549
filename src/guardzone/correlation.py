"""Correlation of the protocol and physical success indicators.

In the dimensionless variable ``chi = r_O**alpha / sigma`` the Pearson
correlation of the two Bernoulli indicators is

    rho(chi) = expm1(B - C) / sqrt(expm1(A) * expm1(B))

with the exponents A, B, C of :mod:`guardzone.single_obs`, which defines
B, C and B - C as functions of chi and of the single scale
``a = density * c_n * sigma**delta``. The correlation
vanishes at both extremes and peaks at some ``chi > 1`` solving

    (1 - chi) * exp(B) + (1 + chi) * exp(C) = 2.

Uniqueness of that stationary point is conjectured, not proven, so the
solver scans for every root in its certified bracket, as one array
evaluation of the residual on a log grid, refines each sign change with
:func:`guardzone.specfn._find_root`, and returns the global maximizer.
The residual is divided by exp(C) and written with ``expm1``, so it has
no terms of order 1 that cancel at a small scale. ``rho``, ``f1``,
``f2`` and the residual take a float chi or an array of chi values;
:func:`chi_star_from_coeff` takes a float scale or an array of scales,
and solves for every scale at once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import specfn
from .params import ModelParams
from .single_obs import _B, _BmC, _C
from .specfn import BracketError


@dataclass(frozen=True)
class CorrelationCurve:
    chi_grid: np.ndarray
    rho_values: np.ndarray


def _scaled_rho(a: float, delta: float, chi):
    """rho * sqrt(expm1(A)): the part of the correlation that depends on chi."""
    B = _B(a, delta, chi)
    xp = specfn._ops(B)
    # expm1(B) = exp(B) * (-expm1(-B)); keeping exp(-B/2) outside the
    # square root avoids overflow for large chi, where B is huge but the
    # numerator stays bounded by expm1(a * kappa)
    return xp.expm1(_BmC(a, delta, chi)) * xp.exp(-0.5 * B) / xp.sqrt(
        -xp.expm1(-B))


def rho(p: ModelParams, chi):
    """Correlation of the two success indicators at dimensionless chi > 0,
    a float or an array."""
    if not specfn._all(chi > 0):
        raise ValueError(f"chi must be positive, got {chi}")
    if p.A <= 0:
        raise ValueError("degenerate scenario: prior exponent is zero")
    return _scaled_rho(p.a, p.delta, chi) / math.sqrt(math.expm1(p.A))


def rho_curve(p: ModelParams, chi_grid) -> CorrelationCurve:
    grid = np.asarray(chi_grid, dtype=float)
    return CorrelationCurve(grid, rho(p, grid))


def _times_exp(c, x):
    """``c * exp(x)`` for a float or an array: +-inf where exp overflows
    (x > 709.78) and c is nonzero, 0 where c is 0, with no OverflowError
    and no warning."""
    if isinstance(x, np.ndarray):
        with np.errstate(over="ignore", invalid="ignore"):
            return np.where(c == 0, 0.0, c * np.exp(x))
    if c == 0:
        return 0.0
    try:
        return c * math.exp(x)
    except OverflowError:
        return math.copysign(math.inf, c)


def f1(p: ModelParams, chi):
    """(1 - chi) * exp(B(chi)); intersects f2 at the maximizing chi.
    -inf for chi > 1 once exp(B) overflows, and 0 at chi = 1."""
    return _times_exp(1.0 - chi, _B(p.a, p.delta, chi))


def f2(p: ModelParams, chi):
    """2 - (1 + chi) * exp(C(chi)), concave decreasing; -inf once exp(C)
    overflows."""
    return 2.0 - _times_exp(1.0 + chi, _C(p.a, p.delta, chi))


def _stationarity(a: float, delta: float, chi):
    """Scaled residual of the stationarity equation.

    Dividing (1-chi)e^B + (1+chi)e^C - 2 by e^C keeps everything bounded:
    B - C <= a*kappa regardless of chi. Written as
    ``(1-chi) expm1(B-C) - 2 expm1(-C)``, it has no terms of order 1 that
    cancel: both are of order a, so a small scale does not cost digits.
    """
    xp = specfn._ops(chi)
    return ((1.0 - chi) * xp.expm1(_BmC(a, delta, chi))
            - 2.0 * xp.expm1(-_C(a, delta, chi)))


# Largest chi_hat bracketed: chi_hat is about 2/(a kappa) <= 2/a, so every
# scale a >= 1e-30 is certified
_CHI_HAT_CAP = 1e32


def _chi_hat(a, delta: float):
    """The upper end of the certified bracket of chi*, for a float scale
    or elementwise for an array: the root of
    ``B - C = log((chi+1)/(chi-1))``, whose right side is formed as
    ``log1p(2/(chi-1))``, so that it stays positive however large chi is.
    The upper end is doubled until the left side (increasing to
    ``a * kappa``) passes the right (decreasing to 0)."""
    log1p = specfn._ops(a).log1p

    def g_diff(chi):
        return _BmC(a, delta, chi) - log1p(2.0 / (chi - 1.0))

    lo, hi = specfn._expand(lambda chi: g_diff(chi) < 0, 1.0 + 1e-12,
                            np.full(a.shape, 2.0) if np.ndim(a) else 2.0,
                            _CHI_HAT_CAP, "chi_hat")
    return specfn._find_root(g_diff, lo, hi, 1e-13, 1e-14)


def chi_star_from_coeff(a, delta: float):
    """Maximizing chi as a function of the scale a = density*c_n*sigma**delta,
    a float or a 1-d array of scales (one chi each).

    The bracket [1, chi_hat] is certified: chi_hat solves
    ``B - C = log((1+chi)/(chi-1))`` (monotone increasing vs. monotone
    decreasing), where the scaled residual is strictly negative, while it
    is strictly positive at chi = 1. Additional sign changes inside the
    bracket are scanned for on a log grid; the global maximizer of rho
    among all roots is returned. For an array every step is one call:
    the brackets, the grid of every scale, and the refinement of every
    sign change.
    """
    array = np.ndim(a) > 0
    a = np.asarray(a, dtype=float) if array else float(a)
    if not specfn._all(a > 0):
        raise ValueError("coefficient a must be positive")
    chi_hat = _chi_hat(a, delta)

    # for an array, one column of grid points per scale
    grid = np.geomspace(1.0 + 1e-9, chi_hat, 64)
    vals = _stationarity(a, delta, grid)
    # a zero on the grid is a root; a sign change brackets one
    zero = vals[:-1] == 0.0
    hit = zero | (vals[:-1] * vals[1:] < 0)
    if not array:
        nodes = grid.tolist()
        roots = [nodes[i] if zero[i] else specfn._find_root(
                     lambda chi: _stationarity(a, delta, chi), nodes[i],
                     nodes[i + 1], 1e-14, 1e-14)
                 for i in np.flatnonzero(hit).tolist()]
        if not roots:
            raise BracketError(
                "no stationary point found in the certified bracket "
                f"[1, {chi_hat:g}]")
        return max(roots, key=lambda chi: _scaled_rho(a, delta, chi))
    col, row = np.nonzero(hit.T)
    lo, hi, zero = grid[row, col], grid[row + 1, col], zero[row, col]
    roots = lo.copy()
    open_ = ~zero
    roots[open_] = specfn._find_root(
        lambda chi: _stationarity(a[col[open_]], delta, chi),
        lo[open_], hi[open_], 1e-14, 1e-14)
    # per scale, the first of its roots with the largest rho
    order = np.lexsort((-_scaled_rho(a[col], delta, roots), col))
    first = order[np.flatnonzero(np.diff(col[order], prepend=-1))]
    if len(first) < len(a):
        k = np.setdiff1d(np.arange(len(a)), col)[0]
        raise BracketError(
            "no stationary point found in the certified bracket "
            f"[1, {chi_hat[k]:g}] of a = {a[k]:g}")
    return roots[first]


def chi_star(p: ModelParams) -> float:
    """Dimensionless radius maximizing the indicator correlation."""
    return chi_star_from_coeff(p.a, p.delta)


def chi_star_low_density_limit(delta: float) -> float:
    """Limit of chi_star as the scale a -> 0: the root of
    ``int_I(chi, delta) = ((chi-1)/(chi+1)) * chi**delta``."""

    def h(chi):  # the stationarity equation at first order in a, over a
        return _C(1.0, delta, chi) - (chi - 1.0) / (chi + 1.0) * _B(1.0, delta, chi)

    lo, hi = specfn._expand(lambda chi: h(chi) > 0, 1.0 + 1e-12, 2.0, 1e18,
                            "the low-density limit")
    return specfn._find_root(h, lo, hi, 1e-13, 1e-14)

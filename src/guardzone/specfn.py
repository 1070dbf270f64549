"""Special functions shared by every closed form in the library.

* ``kappa(delta)`` -- the constant ``pi*delta/sin(pi*delta)``, equal to
  ``Gamma(1+delta)*Gamma(1-delta)``, which scales the unconditional
  interference exponent.
* ``int_I(u, delta)`` -- the increasing function
  ``delta * int_0^u t**delta / (1+t) dt`` appearing in every
  void-conditioned Laplace transform.
* ``power_gap = u**delta - int_I`` and ``power_tail = kappa - power_gap``,
  exposed because each difference is what an exponent needs.
* ``gauss_Q(z)`` -- the standard normal CCDF, needed by the Levy-law
  prior and by Monte Carlo confidence intervals.
* ``_find_root`` and ``_expand`` -- the bracketed root solver of every
  equation the library solves, and the doubling search that brackets it.

The three integrals are sums of positive terms, with no library
function but ``pow``. By Pfaff's transformation each is a factor times
``F_c(x) = 2F1(1, 1; c; x) = sum_k k!/(c)_k x**k`` at ``x < 1``:

* for u <= 1, with ``x = u/(1+u)``,
  ``power_gap = u**delta/(1+u) * F_{1+delta}(x)`` and
  ``int_I = delta/(1+delta) * u**(1+delta)/(1+u) * F_{2+delta}(x)``;
* for u >= 1, with ``v = 1/u`` and ``y = v/(1+v)``,
  ``power_tail = delta/(1-delta) * v**(1-delta)/(1+v) * F_{2-delta}(y)``.

On the other side of u = 1, ``power_gap`` and ``power_tail`` are each
kappa minus the other. ``int_I`` keeps its series up to u = 3 (x = 3/4)
and is ``u**delta - kappa + power_tail`` only beyond: just above u = 1
that difference cancels as delta -> 1 (9e-13 off at delta = 0.99,
u = 1.01). It is never ``u**delta - power_gap``, which cancels for small
u, where int_I is of order ``u**(1+delta)``.

``F_c`` is evaluated by one polynomial of degree 7 on each of 48 pieces of
width 1/64 of x, summed by Estrin's scheme. The coefficients depend only
on delta. They are computed once per delta and cached, as a scenario's
derived constants are (:class:`guardzone.params.ModelParams`). Each
polynomial is the Taylor series of ``F_c`` about its piece's midpoint,
whose coefficients are sums of positive terms, economized by Chebyshev
polynomials (see :func:`_taylor_map`). All three functions are accurate to a few units in
1e-14, relative, for u from 1e-12 (``power_tail`` from 1e-30) to 1e12 and
delta from 0.01 to 0.99.

Each takes a float or a numpy array ``u`` and returns the same. A float
takes Python floats only, with no array overhead. An array takes the
same operations elementwise, each side of the split on its own
subarray, so an element's value does not depend on the rest of its
array, and the float and array paths differ only where numpy's ``pow``
and the C library's round apart, by 2 ulp at most. The float/array choice of
the other closed forms lives here as well: :func:`_ops` gives them
``math`` for a float and numpy for an array, and :func:`_where`,
:func:`_all` and :func:`_any` a Python ``if`` for a float. The root
solver is one iteration written with these: it solves one equation in
Python floats, or many at once, elementwise, in arrays, and both give
the same root to the bit where ``f`` does.
"""

from __future__ import annotations

import functools
import math
import sys
from itertools import repeat
from types import SimpleNamespace

import numpy as np

_FLOAT_OPS = SimpleNamespace(exp=math.exp, expm1=math.expm1, log=math.log,
                             log1p=math.log1p, sqrt=math.sqrt, minimum=min,
                             maximum=max)
_ARRAY_OPS = SimpleNamespace(exp=np.exp, expm1=np.expm1, log=np.log,
                             log1p=np.log1p, sqrt=np.sqrt, minimum=np.minimum,
                             maximum=np.maximum)


def _ops(x) -> SimpleNamespace:
    """The exp, expm1, log, log1p, sqrt, minimum and maximum that apply to
    ``x``: numpy's for an array, those of ``math`` and the builtins for
    anything else, a float (numpy's float64 is one), with none of a
    ufunc's per-call cost."""
    return _ARRAY_OPS if isinstance(x, np.ndarray) else _FLOAT_OPS


def _all(cond) -> bool:
    """Whether ``cond`` holds: a bool for a float, every element of a
    boolean array for an array."""
    return cond.all() if isinstance(cond, np.ndarray) else cond


def _any(cond) -> bool:
    """Whether ``cond`` holds anywhere; see :func:`_all`."""
    return cond.any() if isinstance(cond, np.ndarray) else cond


def _where(cond, x, y):
    """``x`` where ``cond`` holds, else ``y``: by a Python ``if`` for a
    bool, elementwise for a boolean array. ``x`` and ``y`` may be tuples
    of as many values, picked alike: one call for a bool, one
    ``np.where`` per value for an array."""
    if isinstance(cond, np.ndarray):
        if isinstance(x, tuple):
            return tuple(map(np.where, repeat(cond), x, y))
        return np.where(cond, x, y)
    return x if cond else y


def kappa(delta: float) -> float:
    """Evaluate ``pi*delta/sin(pi*delta)`` for ``delta`` in (0, 1).

    Increasing from 1 (at delta -> 0) and diverging as delta -> 1. The
    sine is taken of pi times the smaller of delta and the exact
    ``1 - delta``: near delta = 1 the rounding of ``pi * delta`` would
    cost sin(pi*delta) its relative accuracy (1e-14 at delta = 0.99).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    return math.pi * delta / math.sin(math.pi * min(delta, 1.0 - delta))


# F_c(x) = sum_k k!/(c)_k x**k is one polynomial of degree 7 on each piece
# [i/64, (i+1)/64] of x, in h = 128 x - (2i + 1), which spans [-1, 1] there.
# The last piece ends at 3/4, where the series of int_I ends.
_PIECES = 48
_EDGES = np.arange(1, _PIECES) / 64.0
_ODD_ARRAY = 2.0 * np.arange(_PIECES) + 1.0
_TERMS = 8       # of each piece's polynomial
_TAYLOR = 14     # Taylor terms economized to _TERMS
_SERIES = 160    # terms of F_c in each Taylor coefficient
# int_I takes its series up to x = u/(1+u) = 3/4, and the difference
# u**delta - kappa + power_tail beyond
_INT_SERIES_MAX = 3.0


@functools.cache
def _taylor_map() -> np.ndarray:
    """The matrix that takes the coefficients ``k!/(c)_k`` of F_c, as a
    column, to the polynomial of every piece: rows ``i*_TERMS`` on hold
    piece i's coefficients, highest power of h first.

    A piece with midpoint x0 starts from the Taylor coefficients of F_c in
    h, ``128**-j sum_k C(k, j) x0**(k-j) k!/(c)_k``, sums of positive terms
    and so exact to an ulp or two. As the nearest singularity of F_c is
    x = 1, they fall like (1/128 / (1 - x0))**j, at least 33**-j. Each
    power h**j from _TERMS on is then traded for ``h**j - 2**(1-j) T_j(h)``,
    of lower degree, at an error of at most 2**(1-j) times its
    coefficient on [-1, 1] (Lanczos' economization by the Chebyshev
    polynomials T_j). Eight terms leave F_c to the rounding of their sum,
    an ulp or two.
    """
    j = np.arange(_TAYLOR)[:, None]
    k = np.arange(_SERIES)
    ratios = (k - j[:-1]) / (j[:-1] + 1.0)
    binom = np.cumprod(np.vstack([np.ones(_SERIES), ratios]), axis=0)
    x0 = _ODD_ARRAY[:, None, None] / 128.0
    taylor = binom * x0 ** (k - j) * 128.0 ** -j.astype(float)
    cheb = np.zeros((_TAYLOR, _TAYLOR))  # row n: the powers of T_n
    cheb[0, 0] = cheb[1, 1] = 1.0
    for n in range(2, _TAYLOR):
        cheb[n, 1:] = 2.0 * cheb[n - 1, :-1]
        cheb[n] -= cheb[n - 2]
    econ = np.eye(_TAYLOR)  # Taylor coefficients to economized ones
    for n in range(_TAYLOR - 1, _TERMS - 1, -1):
        econ -= np.outer(econ[:, n], cheb[n] / cheb[n, n])
    return (econ[:, _TERMS - 1::-1].T @ taylor).reshape(-1, _SERIES)


class _Table:
    """What :func:`power_gap`, :func:`power_tail` and :func:`int_I` need
    at one delta: kappa, and three series, each with its constant factor.
    ``gap`` is power_gap's below u = 1, ``tail`` power_tail's above u = 1
    (in 1/u), ``int`` int_I's below u = 3. Each piece holds its 2i + 1 and
    then its coefficients c0..c7 (c0 that of h**7) in the order c0, c4,
    c2, c6, c1, c5, c3, c7 of Estrin's pairs. For a float, ``gap``,
    ``tail`` and ``int`` hold one tuple a piece, the last twice, for x up
    to 3/4 inclusive. For an array, ``gap_rows``, ``tail_rows`` and
    ``int_rows`` hold the same, one column a piece."""

    __slots__ = ("kappa", "gap", "tail", "int", "gap_rows", "tail_rows",
                 "int_rows")


# The order of the coefficients in a piece
_ESTRIN_ORDER = [0, 4, 2, 6, 1, 5, 3, 7]


@functools.lru_cache(maxsize=64)
def _table(delta: float) -> _Table:
    """The :class:`_Table` of ``delta``, built once: a few hundred flops
    and one product with :func:`_taylor_map`."""
    t = _Table()
    t.kappa = kappa(delta)  # raises for a delta outside (0, 1)
    c = np.array([1.0 + delta, 2.0 - delta, 2.0 + delta])
    scale = np.array([1.0, delta / (1.0 - delta), delta / (1.0 + delta)])
    k = np.arange(1.0, _SERIES)[:, None]
    # scale * k!/(c)_k, k = 0, 1, ...
    series = np.cumprod(np.vstack([scale, k / (c + k - 1.0)]), axis=0)
    coeffs = (_taylor_map() @ series).reshape(_PIECES, _TERMS, 3)
    gap, tail, int_ = (np.vstack([_ODD_ARRAY, coeffs[:, _ESTRIN_ORDER, s].T])
                       for s in range(3))
    t.gap, t.tail, t.int = (
        tuple(map(tuple, rows.T.tolist() + [rows[:, -1].tolist()]))
        for rows in (gap, tail, int_))
    t.gap_rows, t.tail_rows, t.int_rows = gap, tail, int_
    return t


def _ratio(pieces: tuple, w: float, e: float) -> float:
    """``w**e/(1+w) * F(x)`` at ``x = w/(1+w)`` in [0, 3/4], with F the
    series of ``pieces``. The polynomial is summed by Estrin's scheme: in
    pairs, the pairs in pairs in h**2, and those two in h**4. ``w**e``,
    whose ``pow`` may differ from numpy's by an ulp, is the last factor:
    one rounding after it keeps the float and array paths 2 ulp apart."""
    s = 1.0 + w
    x = w / s
    odd, c0, c4, c2, c6, c1, c5, c3, c7 = pieces[int(64.0 * x)]
    h = 128.0 * x - odd
    h2 = h * h
    return (((c0 * h + c1) * h2 + (c2 * h + c3)) * (h2 * h2)
            + ((c4 * h + c5) * h2 + (c6 * h + c7))) / s * w**e


def _ratio_array(rows: np.ndarray, w: np.ndarray, e: float) -> np.ndarray:
    """:func:`_ratio` elementwise, by the same operations, with ``rows``
    one of the array series of a :class:`_Table`."""
    s = 1.0 + w
    x = w / s
    c = rows.take(np.searchsorted(_EDGES, x, side="right"), axis=1)
    h = 128.0 * x - c[0]
    h2 = h * h
    f = c[1:5] * h + c[5:]  # c0 h + c1, c4 h + c5, c2 h + c3, c6 h + c7
    f = f[:2] * h2 + f[2:]
    return (f[0] * (h2 * h2) + f[1]) / s * w**e


def _split(u, above, lower, upper) -> np.ndarray:
    """``upper`` of the elements of ``u`` where ``above`` holds and
    ``lower`` of the rest, with ``u`` taken as a float array and checked
    to be nonnegative; ``above`` is a test that holds from some positive
    u on.

    Each side is evaluated on its own subarray, by the same operations
    whatever else the array holds, so an element's value does not depend
    on the other elements; an array all on one side is passed whole.
    """
    u = np.asarray(u, dtype=float)
    hi = above(u)
    if hi.all():  # and so none is negative
        return upper(u)
    neg = u < 0.0
    if neg.any():
        raise ValueError(f"u must be nonnegative, got {u[neg].min()}")
    if not hi.any():
        return lower(u)
    out = np.empty_like(u)
    out[hi] = upper(u[hi])
    lo = ~hi
    out[lo] = lower(u[lo])
    return out


def _nan_or_raise(u: float) -> float:
    """``u`` if it is nan; else ``u`` is negative, and this raises."""
    if u < 0.0:
        raise ValueError(f"u must be nonnegative, got {u}")
    return u


def power_gap(u, delta: float):
    """Compute ``delta * int_0^u t**(delta-1)/(1+t) dt``.

    Equals ``u**delta - int_I(u, delta)``; increases from 0 to
    ``kappa(delta)`` as u grows.
    """
    t = _table(delta)
    if isinstance(u, float):
        if u > 1.0:
            return t.kappa - _ratio(t.tail, 1.0 / u, 1.0 - delta)
        if u >= 0.0:
            return _ratio(t.gap, u, delta)
        return _nan_or_raise(u)
    return _split(u, lambda v: v > 1.0,
                  lambda v: _ratio_array(t.gap_rows, v, delta),
                  lambda v: t.kappa - _ratio_array(t.tail_rows, 1.0 / v,
                                                   1.0 - delta))


def power_tail(u, delta: float):
    """Compute ``delta * int_u^inf t**(delta-1)/(1+t) dt``.

    Equals ``kappa(delta) - power_gap(u, delta)``; decreases from
    ``kappa(delta)`` to 0 as u grows.
    """
    t = _table(delta)
    if isinstance(u, float):
        if u >= 1.0:
            return _ratio(t.tail, 1.0 / u, 1.0 - delta)
        if u >= 0.0:
            return t.kappa - _ratio(t.gap, u, delta)
        return _nan_or_raise(u)
    return _split(u, lambda v: v >= 1.0,
                  lambda v: t.kappa - _ratio_array(t.gap_rows, v, delta),
                  lambda v: _ratio_array(t.tail_rows, 1.0 / v, 1.0 - delta))


def int_I(u, delta: float):
    """Evaluate ``delta * int_0^u t**delta/(1+t) dt``.

    Nonnegative, strictly increasing in u, with derivative
    ``delta*u**delta/(1+u)`` and ``int_I(0) = 0``.
    """
    t = _table(delta)
    if isinstance(u, float):
        if u > _INT_SERIES_MAX:
            # numpy's pow, as in the array path: libm's ulp could sum to 3
            return ((np.array([u]) ** delta).item() - t.kappa
                    + _ratio(t.tail, 1.0 / u, 1.0 - delta))
        if u >= 0.0:
            return _ratio(t.int, u, 1.0 + delta)
        return _nan_or_raise(u)
    return _split(u, lambda v: v > _INT_SERIES_MAX,
                  lambda v: _ratio_array(t.int_rows, v, 1.0 + delta),
                  lambda v: v**delta - t.kappa
                  + _ratio_array(t.tail_rows, 1.0 / v, 1.0 - delta))


def gauss_Q(z: float) -> float:
    """Standard normal CCDF, ``P(Z >= z)`` for ``Z ~ N(0,1)``."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


# Iterations of _find_root before it gives up; bisection alone needs fewer
# than 70 to take a bracket of 40 decades to 4 ulps.
_MAX_ITER = 100
# Smallest relative tolerance of _find_root, as scipy's brentq: a bracket of
# a few ulps around a root can still be told apart.
_MIN_RTOL = 4.0 * sys.float_info.epsilon


class BracketError(RuntimeError):
    """An equation's root could not be bracketed by a sign change."""


def _expand(short, lo, hi, cap: float, what: str):
    """The bracket ``(lo, hi)`` with ``hi`` doubled, elementwise, while
    ``short(hi)`` holds, and ``lo`` raised to the last such ``hi``.

    Raises :class:`BracketError` naming ``what`` once any ``hi`` passes
    ``cap``.
    """
    while True:
        low = short(hi)
        if not _any(low):
            return lo, hi
        lo, hi = _where(low, hi, lo), _where(low, 2.0 * hi, hi)
        if _any(hi > cap):
            raise BracketError(f"failed to bracket {what}")


def _find_root(f, lo, hi, xtol: float, rtol: float):
    """A root of ``f`` in ``[lo, hi]``, with ``0 < lo < hi`` and a sign
    change (or a zero) between ``f(lo)`` and ``f(hi)``.

    ``lo`` and ``hi`` are floats, and ``f`` takes and returns floats; or
    either is an array, and ``f`` maps an array of that shape to its
    values, so that every equation is solved at once. Chandrupatla's
    method (AIAA J. 35, 1997; scipy's elementwise ``find_root``) keeps
    the root bracketed. Its first step is the secant. Then it steps by
    inverse quadratic interpolation through the last three points where
    that is monotone on the bracket, and else bisects in log x, so a
    bracket that spans decades is halved in decades. It stops, like
    scipy's ``brentq``, once the bracket is narrower than
    ``xtol + rtol * |x|``, with ``rtol`` at least ``_MIN_RTOL``, and
    returns the end with the smaller ``|f|``; in an array, an element
    stays where it converged.

    One iteration serves both: :func:`_where`, :func:`_all`,
    :func:`_any` and :func:`_ops` take a float through Python floats,
    with no array overhead, and an array elementwise, with no Python loop
    per element.

    Raises :class:`BracketError` without a sign change, and
    ``RuntimeError`` after ``_MAX_ITER`` steps.
    """
    rtol = max(rtol, _MIN_RTOL)
    a, b = lo, hi
    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        a, b = np.broadcast_arrays(np.asarray(a, dtype=float),
                                   np.asarray(b, dtype=float))
    xp = _ops(a)
    # a converged element divides by its zero-width bracket, and one that
    # fails Chandrupatla's test may divide by zero forming the root of
    # the inverse quadratic; both values are discarded
    with np.errstate(divide="ignore", invalid="ignore"):
        fa, fb = f(a), f(b)
        if _any(((fa < 0) == (fb < 0)) & (fa != 0) & (fb != 0)):
            raise BracketError(f"no sign change between {a} and {b}")
        c = fc = None
        for _ in range(_MAX_ITER):
            x, fx = _where(abs(fa) <= abs(fb), (a, fa), (b, fb))
            tol = xtol + rtol * abs(x)
            span = b - a
            width = abs(span)
            done = (fx == 0) | (width < tol)
            if _all(done):
                return x
            if c is None:
                t = fa / (fa - fb)  # the secant
            else:
                # the geometric mean, or, where Chandrupatla's test finds
                # the inverse quadratic through the newest point a, the
                # other end b and the point c that a replaced monotone on
                # the bracket, its root
                t = (xp.sqrt(a) * xp.sqrt(b) - a) / span
                xi, phi = (a - b) / (c - b), (fa - fb) / (fc - fb)
                iqi = (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)
                # a Python float, whose failed test is False, skips that
                # root: it would raise where fc - fa is 0
                if iqi is not False:
                    t = _where(iqi, fa / (fb - fa) * fc / (fb - fc) + (c - a)
                               / span * fa / (fc - fa) * fb / (fc - fb), t)
            # at least tol / 2 inside the bracket
            lim = 0.5 * tol / width
            x = _where(done, a,
                       a + xp.minimum(xp.maximum(t, lim), 1.0 - lim) * span)
            fx = f(x)
            c, fc, b, fb = _where((fx < 0) == (fa < 0), (a, fa, b, fb),
                                  (b, fb, a, fa))
            a, fa = x, fx
    raise RuntimeError(f"root solver did not converge in {_MAX_ITER} steps")

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

The integrals are closed forms in scipy's special functions, with no
quadrature or series, and none is a difference of the others:

* ``power_gap = delta * int_0^u t**(delta-1)/(1+t) dt`` becomes, under
  ``t = s/(1-s)``, ``kappa * I_x(delta, 1-delta)`` at ``x = u/(1+u)``,
  with ``I`` the regularized incomplete beta function, and
  ``power_tail = delta * int_u^inf t**(delta-1)/(1+t) dt`` becomes
  ``kappa * I_{1/(1+u)}(1-delta, delta)``. On the side of u = 1 where
  it is the larger, each is kappa times ``1 - I`` of the other, because
  ``u/(1+u)`` rounds towards 1 and loses the tail as u grows (scipy's
  ``betaincc`` is off by 8e-11 at ``x = 4e-20``).
* ``int_I = delta/(1+delta) * u**(1+delta) * 2F1(1, 1+delta; 2+delta; -u)``,
  never ``u**delta - power_gap``, which cancels for small u, where
  ``int_I`` is of order ``u**(1+delta)``.

All three are accurate to a few units in 1e-14, relative, for u from
1e-12 (``power_tail`` from 1e-30) to 1e12 and delta from 0.01 to 0.99.

Each takes a float or a numpy array ``u`` and returns the same. The
float/array choice of the whole library lives here: :func:`_ops` gives
a closed form the functions to apply (``math`` and scipy's compiled
scalar kernels for a float, numpy and scipy ufuncs for an array), and
:func:`_share` picks a piecewise branch by a Python ``if`` for a float
and by a boolean mask for an array. A float pays no array overhead.
The root solver follows the same convention: it solves one equation in
Python floats, or many at once, elementwise, in arrays.
"""

from __future__ import annotations

import math
import sys
from types import SimpleNamespace

import numpy as np
from scipy import special
from scipy.special import cython_special

_FLOAT_OPS = SimpleNamespace(exp=math.exp, expm1=math.expm1, log=math.log,
                             log1p=math.log1p, sqrt=math.sqrt,
                             betainc=cython_special.betainc,
                             hyp2f1=cython_special.hyp2f1)
_ARRAY_OPS = SimpleNamespace(exp=np.exp, expm1=np.expm1, log=np.log,
                             log1p=np.log1p, sqrt=np.sqrt,
                             betainc=special.betainc, hyp2f1=special.hyp2f1)


def _ops(x) -> SimpleNamespace:
    """The exp, expm1, log, log1p, sqrt, betainc and hyp2f1 that apply to
    ``x``.

    For an array: numpy and ``scipy.special``. For anything else, a float
    (numpy's float64 is one): ``math`` and scipy's ``cython_special``,
    which return floats with none of a ufunc's per-call cost. The two
    agree to an ulp or so, and the scipy pairs bit for bit.
    """
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
    bool, elementwise for a boolean array."""
    if isinstance(cond, np.ndarray):
        return np.where(cond, x, y)
    return x if cond else y


def _share(direct, u, delta, f, g):
    """``f(ops, u, delta)`` where ``direct`` holds, ``1 - g(ops, u, delta)``
    elsewhere, with ``ops`` from :func:`_ops`.

    ``f + g = 1``; the caller marks by ``direct`` where ``f`` itself is
    accurate. ``direct`` is a bool for a float ``u``, and a Python
    ``if`` picks the branch; it is a mask for an array ``u``.
    """
    if not isinstance(u, np.ndarray):
        return f(_FLOAT_OPS, u, delta) if direct else 1.0 - g(_FLOAT_OPS, u, delta)
    out = np.empty(u.shape)
    out[direct] = f(_ARRAY_OPS, u[direct], delta)
    other = ~direct
    out[other] = 1.0 - g(_ARRAY_OPS, u[other], delta)
    return out


def _below(ops, u, delta):
    """``I_{u/(1+u)}(delta, 1-delta)``, the share of kappa below u."""
    return ops.betainc(delta, 1.0 - delta, u / (1.0 + u))


def _above(ops, u, delta):
    """``I_{1/(1+u)}(1-delta, delta)``, the share of kappa above u."""
    return ops.betainc(1.0 - delta, delta, 1.0 / (1.0 + u))


def kappa(delta: float) -> float:
    """Evaluate ``pi*delta/sin(pi*delta)`` for ``delta`` in (0, 1).

    Increasing from 1 (at delta -> 0) and diverging as delta -> 1.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    return math.pi * delta / math.sin(math.pi * delta)


def power_gap(u, delta: float):
    """Compute ``delta * int_0^u t**(delta-1)/(1+t) dt``.

    Equals ``u**delta - int_I(u, delta)``; increases from 0 to
    ``kappa(delta)`` as u grows.
    """
    u = _check(u, delta)
    return kappa(delta) * _share(u <= 1.0, u, delta, _below, _above)


def power_tail(u, delta: float):
    """Compute ``delta * int_u^inf t**(delta-1)/(1+t) dt``.

    Equals ``kappa(delta) - power_gap(u, delta)``; decreases from
    ``kappa(delta)`` to 0 as u grows.
    """
    u = _check(u, delta)
    return kappa(delta) * _share(u >= 1.0, u, delta, _above, _below)


def int_I(u, delta: float):
    """Evaluate ``delta * int_0^u t**delta/(1+t) dt``.

    Nonnegative, strictly increasing in u, with derivative
    ``delta*u**delta/(1+u)`` and ``int_I(0) = 0``.
    """
    u = _check(u, delta)
    if not isinstance(u, np.ndarray):
        if u == math.inf:
            return math.inf
    elif np.isinf(u).any():  # inf there; the product below would be inf * 0
        out = np.full(u.shape, math.inf)
        finite = np.isfinite(u)
        out[finite] = int_I(u[finite], delta)
        return out
    # u * 2F1(...) tends to (1+delta)/delta, so this product cannot overflow
    # before the value itself does
    u_f = u * _ops(u).hyp2f1(1.0, 1.0 + delta, 2.0 + delta, -u)
    return delta / (1.0 + delta) * u**delta * u_f


def _check(u, delta: float):
    """Validate the arguments; return ``u`` as a float, or as a float array."""
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    if isinstance(u, float):
        if u < 0:
            raise ValueError(f"u must be nonnegative, got {u}")
        return u
    u = np.asarray(u, dtype=float)
    if (u < 0).any():
        raise ValueError(f"u must be nonnegative, got {u[u < 0].min()}")
    return u


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
    returns the end with the smaller ``|f|``.

    The iteration is written twice, once in Python floats and once in
    arrays, so that a float pays no array overhead and an array no
    Python loop per element.

    Raises :class:`BracketError` without a sign change, and
    ``RuntimeError`` after ``_MAX_ITER`` steps.
    """
    rtol = max(rtol, _MIN_RTOL)
    if isinstance(lo, np.ndarray) or isinstance(hi, np.ndarray):
        lo, hi = np.broadcast_arrays(np.asarray(lo, dtype=float),
                                     np.asarray(hi, dtype=float))
        # a converged element divides by its zero-width bracket; its step
        # is discarded
        with np.errstate(divide="ignore", invalid="ignore"):
            return _root_array(f, lo, hi, xtol, rtol)
    return _root_float(f, lo, hi, xtol, rtol)


def _unbracketed(fa, fb) -> bool:
    """Whether ``f`` has the same nonzero sign at both ends, anywhere."""
    return _any(((fa < 0) == (fb < 0)) & (fa != 0) & (fb != 0))


def _interpolates(a, fa, b, fb, c, fc):
    """Chandrupatla's test: whether the inverse quadratic through the
    newest point ``a``, the other end ``b`` of the bracket and the point
    ``c`` that ``a`` replaced is monotone on the bracket."""
    xi = (a - b) / (c - b)
    phi = (fa - fb) / (fc - fb)
    return (phi * phi < xi) & ((1.0 - phi) * (1.0 - phi) < 1.0 - xi)


def _interpolated(a, fa, b, fb, c, fc):
    """The root of that inverse quadratic, as a fraction of b - a from a."""
    return (fa / (fb - fa) * fc / (fb - fc)
            + (c - a) / (b - a) * fa / (fc - fa) * fb / (fc - fb))


def _root_float(f, a: float, b: float, xtol: float, rtol: float) -> float:
    """:func:`_find_root` in Python floats."""
    fa, fb = f(a), f(b)
    if _unbracketed(fa, fb):
        raise BracketError(f"no sign change between {a} and {b}")
    c = fc = None
    for _ in range(_MAX_ITER):
        x, fx = (a, fa) if abs(fa) <= abs(fb) else (b, fb)
        tol = xtol + rtol * abs(x)
        if fx == 0 or abs(b - a) < tol:
            return x
        if c is None:
            t = fa / (fa - fb)  # the secant
        elif _interpolates(a, fa, b, fb, c, fc):
            t = _interpolated(a, fa, b, fb, c, fc)
        else:  # the geometric mean
            t = (math.sqrt(a) * math.sqrt(b) - a) / (b - a)
        # at least tol / 2 inside the bracket
        lim = 0.5 * tol / abs(b - a)
        x = a + min(max(t, lim), 1.0 - lim) * (b - a)
        fx = f(x)
        if (fx < 0) == (fa < 0):
            c, fc = a, fa
        else:
            c, fc, b, fb = b, fb, a, fa
        a, fa = x, fx
    raise RuntimeError(f"root solver did not converge in {_MAX_ITER} steps")


def _root_array(f, a: np.ndarray, b: np.ndarray, xtol: float,
                rtol: float) -> np.ndarray:
    """:func:`_find_root` in arrays; an element stays where it converged."""
    fa, fb = f(a), f(b)
    if _unbracketed(fa, fb):
        raise BracketError(f"no sign change between {a} and {b}")
    c = fc = None
    for _ in range(_MAX_ITER):
        first = np.abs(fa) <= np.abs(fb)
        x, fx = np.where(first, a, b), np.where(first, fa, fb)
        tol = xtol + rtol * np.abs(x)
        done = (fx == 0) | (np.abs(b - a) < tol)
        if done.all():
            return x
        if c is None:
            t = fa / (fa - fb)
        else:
            t = np.where(_interpolates(a, fa, b, fb, c, fc),
                         _interpolated(a, fa, b, fb, c, fc),
                         (np.sqrt(a) * np.sqrt(b) - a) / (b - a))
        lim = 0.5 * tol / np.abs(b - a)
        x = np.where(done, a,
                     a + np.minimum(np.maximum(t, lim), 1.0 - lim) * (b - a))
        fx = f(x)
        same = (fx < 0) == (fa < 0)
        c, fc = np.where(same, a, b), np.where(same, fa, fb)
        b, fb = np.where(same, b, a), np.where(same, fb, fa)
        a, fa = x, fx
    raise RuntimeError(f"root solver did not converge in {_MAX_ITER} steps")

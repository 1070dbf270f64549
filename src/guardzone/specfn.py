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
"""

from __future__ import annotations

import math
from types import SimpleNamespace

import numpy as np
from scipy import special
from scipy.special import cython_special

_FLOAT_OPS = SimpleNamespace(exp=math.exp, expm1=math.expm1, log1p=math.log1p,
                             sqrt=math.sqrt, betainc=cython_special.betainc,
                             hyp2f1=cython_special.hyp2f1)
_ARRAY_OPS = SimpleNamespace(exp=np.exp, expm1=np.expm1, log1p=np.log1p,
                             sqrt=np.sqrt, betainc=special.betainc,
                             hyp2f1=special.hyp2f1)


def _ops(x) -> SimpleNamespace:
    """The exp, expm1, log1p, sqrt, betainc and hyp2f1 that apply to ``x``.

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

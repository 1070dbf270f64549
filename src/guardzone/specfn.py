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
"""

from __future__ import annotations

import math

from scipy import special


def kappa(delta: float) -> float:
    """Evaluate ``pi*delta/sin(pi*delta)`` for ``delta`` in (0, 1).

    Increasing from 1 (at delta -> 0) and diverging as delta -> 1.
    """
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")
    return math.pi * delta / math.sin(math.pi * delta)


def power_gap(u: float, delta: float) -> float:
    """Compute ``delta * int_0^u t**(delta-1)/(1+t) dt``.

    Equals ``u**delta - int_I(u, delta)``; increases from 0 to
    ``kappa(delta)`` as u grows.
    """
    _check(u, delta)
    k = kappa(delta)
    if u <= 1.0:
        return k * float(special.betainc(delta, 1.0 - delta, u / (1.0 + u)))
    return k * (1.0 - float(special.betainc(1.0 - delta, delta, 1.0 / (1.0 + u))))


def power_tail(u: float, delta: float) -> float:
    """Compute ``delta * int_u^inf t**(delta-1)/(1+t) dt``.

    Equals ``kappa(delta) - power_gap(u, delta)``; decreases from
    ``kappa(delta)`` to 0 as u grows.
    """
    _check(u, delta)
    k = kappa(delta)
    if u >= 1.0:
        return k * float(special.betainc(1.0 - delta, delta, 1.0 / (1.0 + u)))
    return k * (1.0 - float(special.betainc(delta, 1.0 - delta, u / (1.0 + u))))


def int_I(u: float, delta: float) -> float:
    """Evaluate ``delta * int_0^u t**delta/(1+t) dt``.

    Nonnegative, strictly increasing in u, with derivative
    ``delta*u**delta/(1+u)`` and ``int_I(0) = 0``.
    """
    _check(u, delta)
    if u == math.inf:
        return math.inf
    # u * 2F1(...) tends to (1+delta)/delta, so this product cannot overflow
    # before the value itself does
    u_f = u * float(special.hyp2f1(1.0, 1.0 + delta, 2.0 + delta, -u))
    return delta / (1.0 + delta) * u**delta * u_f


def _check(u: float, delta: float) -> None:
    if u < 0:
        raise ValueError(f"u must be nonnegative, got {u}")
    if not 0.0 < delta < 1.0:
        raise ValueError(f"delta must lie in (0,1), got {delta}")


def gauss_Q(z: float) -> float:
    """Standard normal CCDF, ``P(Z >= z)`` for ``Z ~ N(0,1)``."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))

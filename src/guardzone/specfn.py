"""Special functions shared by every closed form in the library.

Three primitives cover all analytic expressions downstream:

* ``kappa(delta)`` -- the constant ``pi*delta/sin(pi*delta)``, equal to
  ``Gamma(1+delta)*Gamma(1-delta)``, which scales the unconditional
  interference exponent.
* ``int_I(u, delta)`` -- the increasing function
  ``delta * int_0^u t**delta / (1+t) dt`` appearing in every
  void-conditioned Laplace transform.
* ``gauss_Q(z)`` -- the standard normal CCDF, needed by the Levy-law
  prior and by Monte Carlo confidence intervals.

``power_gap(u, delta) = u**delta - int_I(u, delta)`` is exposed as well
because the difference itself is what the posterior exponent needs.

Both integrals have closed forms, evaluated by scipy's special functions
with no quadrature and no series:

* ``power_gap = delta * int_0^u t**(delta-1)/(1+t) dt`` becomes, under
  ``t = s/(1-s)``, ``kappa * I_x(delta, 1-delta)`` at ``x = u/(1+u)``,
  with ``I`` the regularized incomplete beta function. For ``u > 1`` it
  is taken as ``kappa * (1 - I_{1/(1+u)}(1-delta, delta))``, because
  ``u/(1+u)`` rounds towards 1 and loses the tail as u grows.
* ``int_I = delta/(1+delta) * u**(1+delta) * 2F1(1, 1+delta; 2+delta; -u)``
  is evaluated directly, never as ``u**delta - power_gap``: that
  difference cancels catastrophically for small u, where both terms are
  close to ``u**delta`` and ``int_I`` is of order ``u**(1+delta)``.

Both are accurate to a few units in 1e-14, relative, for u from 1e-12 to
1e12 and delta from 0.01 to 0.99.
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

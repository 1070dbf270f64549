"""Reference values computed from the model's definition with mpmath.

Nothing here imports guardzone. Every probability is assembled from the
Poisson Laplace functional evaluated by quadrature, or from a direct sum
over the Poisson count of guard-zone nodes, never from the library's
special functions or closed forms:

* Rayleigh fading, a node at distance s is harmless with probability
  ``1/(1 + sigma*s**-alpha)``, so with ``L(r) = E[exp(-sigma*I) | ball r
  empty]`` and ``mu(r) = lam*c_n*r**n``:
  ``P(H) = L(0)``, ``P(D) = exp(-mu)``, ``P(H, D) = L(r)*P(D)`` and
  ``P(H, not D) = L(r)*exp(-mu)*expm1(Hn)`` where ``Hn`` is the in-ball
  mass weighted by ``s**alpha/(sigma + s**alpha)``.
* No fading, alpha = 2n: the prior is the Levy CDF (erfc), the clear-zone
  posterior is the Gil-Pelaez inversion of the characteristic function
  (the library inverts the Laplace transform on a Bromwich line instead).
* Slotted Aloha: given M nodes in the ball, K ~ Binomial(N, pbar**M) and
  each node is harmless in the decision slot with probability
  ``pbar + p*E[1/(1 + sigma*s**-alpha)]``; sums run over M ~ Poisson(mu).

Scenarios are plain dicts ``{n, lam, alpha, beta, r_T, eta}``.
"""

from __future__ import annotations

import math

import mpmath as mp
import numpy as np
from scipy import optimize, special

mp.mp.dps = 30

FIG1 = {"n": 2, "lam": 2e-4, "alpha": 3, "beta": 5, "r_T": 10, "eta": 0}
FIG4 = {"n": 2, "lam": 2e-3, "alpha": 4, "beta": 5, "r_T": 10, "eta": 0}
# the fig2, fig3 and fig5 presets share fig1's physical parameters

_BALL = {1: mp.mpf(2), 2: mp.pi, 3: 4 * mp.pi / 3}


def sigma(sc) -> mp.mpf:
    return mp.mpf(sc["beta"]) * mp.mpf(sc["r_T"]) ** sc["alpha"]


def chi_of_r(sc, r) -> mp.mpf:
    return mp.mpf(r) ** sc["alpha"] / sigma(sc)


def r_of_chi(sc, chi) -> mp.mpf:
    return (mp.mpf(chi) * sigma(sc)) ** (mp.mpf(1) / sc["alpha"])


def _mass(sc, lam) -> mp.mpf:
    return mp.mpf(lam) * _BALL[sc["n"]] * sc["n"]


def _split(sc, lo, hi):
    """Quadrature nodes with a break at the pathloss knee s = sigma**(1/alpha)."""
    knee = sigma(sc) ** (mp.mpf(1) / sc["alpha"])
    return [lo, knee, hi] if lo < knee < hi else [lo, hi]


def _outside(sc, r, lam):
    """lam * int_{|x|>r} sigma/(sigma + |x|**alpha) dx."""
    n, a, s = sc["n"], sc["alpha"], sigma(sc)
    f = lambda x: x ** (n - 1) * s / (s + x**a)
    return _mass(sc, lam) * mp.quad(f, _split(sc, mp.mpf(r), mp.inf))


def _inside_hits(sc, r, lam):
    """lam * int_{|x|<r} |x|**alpha/(sigma + |x|**alpha) dx (the Hn term)."""
    n, a, s = sc["n"], sc["alpha"], sigma(sc)
    f = lambda x: x ** (n - 1 + a) / (s + x**a)
    return _mass(sc, lam) * mp.quad(f, _split(sc, mp.mpf(0), mp.mpf(r)))


def _lam(sc, lam):
    return sc["lam"] if lam is None else lam


def prior(sc, lam=None) -> mp.mpf:
    """P(physical success), Rayleigh fading."""
    return mp.exp(-sigma(sc) * sc["eta"] - _outside(sc, 0, _lam(sc, lam)))


def evidence(sc, r, lam=None) -> mp.mpf:
    """P(guard zone of radius r is empty)."""
    return mp.exp(-mp.mpf(_lam(sc, lam)) * _BALL[sc["n"]] * mp.mpf(r) ** sc["n"])


def post_clear(sc, r, lam=None) -> mp.mpf:
    """P(physical success | guard zone clear): the void-conditioned
    Laplace functional."""
    return mp.exp(-sigma(sc) * sc["eta"] - _outside(sc, r, _lam(sc, lam)))


def single(sc, r, lam=None) -> dict:
    """Every single-observation quantity at radius r, cancellation-free."""
    lam = _lam(sc, lam)
    pH, pD, L = prior(sc, lam), evidence(sc, r, lam), post_clear(sc, r, lam)
    mu = -mp.log(pD)
    # P(H and busy) = L * exp(-mu) * expm1(Hn); P(H and clear) = L * pD
    h_busy = L * pD * mp.expm1(_inside_hits(sc, r, lam))
    p_hd = L * pD
    rho = (p_hd - pH * pD) / mp.sqrt(pH * (1 - pH) * pD * (1 - pD))
    return {"prior": pH, "evidence": pD, "posterior_d1": L,
            "posterior_d0": h_busy / -mp.expm1(-mu), "rho": rho,
            "p_I": (pD - p_hd) / (1 - pH), "p_II": h_busy / pH,
            "risk": pH + pD - 2 * p_hd}


# ------------------------------------------------- every row, double precision
# mpmath takes ~30 ms per radius, too slow for every row of a figure export.
# The rows are checked against the same Laplace functional written with
# regularized incomplete beta functions instead of quadrature
# (x = chi/(1+chi), chi = r**alpha/sigma, delta = n/alpha):
#   delta * int_0^chi t**(delta-1)/(1+t) dt = kappa(delta) * I_x(delta, 1-delta)
# and the in-ball harm Hn by its power series below chi = 1/2, where
# chi**delta - kappa*I_x cancels.

def _kappa(delta: float) -> float:
    return math.pi * delta / math.sin(math.pi * delta)


def _harm_in(chi: np.ndarray, delta: float) -> np.ndarray:
    """delta * int_0^chi t**delta/(1+t) dt, elementwise."""
    direct = chi**delta - _kappa(delta) * special.betainc(delta, 1 - delta,
                                                          chi / (1 + chi))
    small = np.minimum(chi, 0.5)
    k = np.arange(80.0)[:, None]
    series = delta * np.sum((-1.0) ** k * small ** (delta + k + 1)
                            / (delta + k + 1), axis=0)
    return np.where(chi < 0.5, series, direct)


def single_rows(sc, r, lam=None) -> dict:
    """:func:`single` at every radius of the array ``r``, in double precision."""
    lam = float(_lam(sc, lam))
    delta = sc["n"] / sc["alpha"]
    s = float(sigma(sc))
    chi = np.asarray(r, dtype=float) ** sc["alpha"] / s
    a = lam * float(_BALL[sc["n"]]) * s**delta
    log_pH = -s * sc["eta"] - a * _kappa(delta)
    pH = math.exp(log_pH)
    mu = a * chi**delta
    pD, busy = np.exp(-mu), -np.expm1(-mu)
    # log L - log P(H): the outside-ball harm the empty ball removes
    gain = a * _kappa(delta) * special.betainc(delta, 1 - delta, chi / (1 + chi))
    L = pH * np.exp(gain)
    # P(H, busy) = L * pD * expm1(Hn), in logs so that pD may underflow
    hn = a * _harm_in(chi, delta)
    h_busy = L * np.exp(hn - mu + np.log(-np.expm1(-hn)))
    return {"prior": pH, "evidence": pD, "posterior_d1": L,
            "posterior_d0": h_busy / busy,
            "rho": pD * pH * np.expm1(gain) / np.sqrt(pH * (1 - pH) * pD * busy),
            "p_I": pD * -np.expm1(log_pH + gain) / (1 - pH),
            "p_II": h_busy / pH, "risk": pH + pD - 2 * L * pD}


def chi_star_fast(a: float, delta: float) -> float:
    """:func:`chi_star` in double precision, from the same stationarity
    condition with G = a*kappa*I_x(delta, 1-delta)."""
    kap = _kappa(delta)

    def f(chi):
        G = a * kap * special.betainc(delta, 1 - delta, chi / (1 + chi))
        return 2 * -math.expm1(-a * chi**delta) / (1 + chi) + math.expm1(-G)

    lo = 1.0
    while f(2 * lo) > 0:
        lo *= 2
        if lo > 1e18:
            raise ArithmeticError("no sign change found")
    return optimize.brentq(f, lo, 2 * lo, xtol=1e-300, rtol=1e-15)


def _bracket_root(f, lo, grow=2.0, limit=80):
    """Find [a, b] with a sign change of f, scanning geometrically from lo."""
    a, fa = mp.mpf(lo), f(mp.mpf(lo))
    for _ in range(limit):
        b = a * grow
        fb = f(b)
        if fa * fb <= 0:
            return a, b
        a, fa = b, fb
    raise ArithmeticError("no sign change found")


def _solve(f, lo, hi):
    return mp.findroot(f, (lo, hi), solver="anderson")


def chi_star(a, delta) -> mp.mpf:
    """Stationary point of rho in chi for scale a = lam*c_n*sigma**delta.

    d rho / d chi = 0 reduces to ``2*(1 - exp(-B))/(1 + chi) = 1 - exp(-G)``
    with ``B = a*chi**delta`` the ball mass and ``G`` the in-ball harm
    ``a*delta*int_0^chi t**(delta-1)/(1+t) dt``.
    """
    a, delta = mp.mpf(a), mp.mpf(delta)

    def f(chi):
        G = a * delta * mp.quad(lambda t: t ** (delta - 1) / (1 + t), [0, 1, chi]
                                if chi > 1 else [0, chi])
        return 2 * -mp.expm1(-a * chi**delta) / (1 + chi) + mp.expm1(-G)

    lo, hi = _bracket_root(f, mp.mpf(1))
    return _solve(f, lo, hi)


def chi_star_scenario(sc) -> mp.mpf:
    delta = mp.mpf(sc["n"]) / sc["alpha"]
    a = sc["lam"] * _BALL[sc["n"]] * sigma(sc) ** delta
    return chi_star(a, delta)


def r_opt_uniform(sc) -> mp.mpf:
    """Minimizer of the uniform-cost risk P(H) + P(D) - 2 P(H, D).

    Its derivative vanishes where ``2*L(r) = 1 + 1/chi(r)``.
    """
    f = lambda r: 2 * post_clear(sc, r) - 1 - 1 / chi_of_r(sc, r)
    lo, hi = _bracket_root(f, mp.mpf(sc["r_T"]) / 64)
    return _solve(f, lo, hi)


def levy_prior(sc) -> mp.mpf:
    """No-fading P(I <= 1/sigma - eta) for alpha = 2n: a Levy CDF."""
    t = 1 / sigma(sc) - sc["eta"]
    return mp.erfc(sc["lam"] * _BALL[sc["n"]] * mp.sqrt(mp.pi) / (2 * mp.sqrt(t)))


def post_clear_nofade(sc, r) -> float:
    """No-fading P(I <= 1/sigma - eta | ball r empty), alpha = 2n.

    Gil-Pelaez inversion of the characteristic function
    ``phi(w) = exp(-(lam*c_n/2) * int_0^u (1 - exp(i*w*y)) * y**-1.5 dy)``,
    ``u = r**-alpha``, whose inner integral is written with the lower
    incomplete gamma function ``gamma(1/2, z) = sqrt(pi)*erf(sqrt(z))``.
    The oscillatory outer integral is summed panel by panel with
    Gauss-Legendre nodes in double precision (numpy/scipy, not mpmath:
    mpmath's complex erf makes one value take seconds). Panels are a
    half period wide, or narrower where ``exp(i*w*u)`` turns faster, so
    the cost grows with ``u*sigma``; keep r where that is O(10) or less.
    """
    if sc["alpha"] != 2 * sc["n"]:
        raise ValueError("no-fading reference needs alpha = 2n")
    t = 1.0 / float(sigma(sc)) - sc["eta"]
    u = float(r) ** -sc["alpha"]
    half_mass = sc["lam"] * float(_BALL[sc["n"]]) / 2

    def log_phi(w):
        c = -1j * w
        inner = (-2 / math.sqrt(u) * (1 - np.exp(1j * w * u))
                 + 2 * np.sqrt(math.pi * c) * special.erf(np.sqrt(c * u)))
        return -half_mass * inner

    width = math.pi * min(1.0, t / u)
    x_max = width
    while abs(np.exp(log_phi(np.array([x_max / t]))[0])) > 1e-17:
        x_max *= 1.25
    nodes, weights = np.polynomial.legendre.leggauss(32)
    left = np.arange(math.ceil(x_max / width))[:, None] * width
    x = left + width / 2 * (1 + nodes[None, :])
    g = np.imag(np.exp(-1j * x + log_phi(x / t))) / x
    return 0.5 - float((g * weights).sum()) * width / 2 / math.pi


def multiobs(sc, p, N, r) -> dict:
    """Aloha history quantities at radius r by direct Poisson sums.

    Returns ``p_K[k]``, ``p_h_given_K[k]``, ``p_d_given_K[k]``,
    ``posterior[(k, d)]`` and the joint cell masses ``cell[(k, d, h)]``.
    """
    p = mp.mpf(p)
    pbar = 1 - p
    n, a, s = sc["n"], sc["alpha"], sigma(sc)
    mu = mp.mpf(sc["lam"]) * _BALL[n] * mp.mpf(r) ** n
    # decision-slot harmlessness of one ball node at uniform position
    spread = lambda x: n * x ** (n - 1) / mp.mpf(r) ** n * x**a / (x**a + s)
    g = pbar + p * mp.quad(spread, _split(sc, mp.mpf(0), mp.mpf(r)))
    L = post_clear(sc, r, lam=p * sc["lam"])
    m_max = int(mu + 40 * math.sqrt(float(mu)) + 60)
    out = {"p_K": [], "p_h_given_K": [], "p_d_given_K": [], "posterior": {},
           "cell": {}}
    for k in range(N + 1):
        w = pD = pH = pHD = mp.mpf(0)
        for m in range(m_max + 1):
            q = pbar**m
            wm = mp.exp(-mu) * mu**m / mp.factorial(m) * mp.binomial(N, k) \
                * q**k * (1 - q) ** (N - k)
            w += wm
            pD += wm * q
            pH += wm * g**m
            pHD += wm * q
        pH, pD, pHD = L * pH / w, pD / w, L * pHD / w
        out["p_K"].append(w)
        out["p_h_given_K"].append(pH)
        out["p_d_given_K"].append(pD)
        out["posterior"][(k, 1)] = pHD / pD
        out["posterior"][(k, 0)] = (pH - pHD) / (1 - pD)
        for d_obs, mass_d, mass_hd in ((1, pD, pHD), (0, 1 - pD, pH - pHD)):
            out["cell"][(k, d_obs, 1)] = w * mass_hd
            out["cell"][(k, d_obs, 0)] = w * (mass_d - mass_hd)
    return out

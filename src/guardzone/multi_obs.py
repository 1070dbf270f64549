"""Multi-observation inference under slotted Aloha (noiseless).

Node positions are drawn once and held fixed; in every slot each
potential transmitter contends independently with probability ``p``, so
the active set in a slot is a thinning of the fixed layout. After N
observed slots, the count K of protocol successes is a sufficient
statistic for the history, and the conditional prior and evidence for
slot N+1 reduce to ratios of the alternating sums

    f_d(nu, a; k, l) = sum_j C(l,j) (-1)^j exp(-nu (1 - a^{k+j}))

which are Poisson expectations E[(a^M)^k (1 - a^M)^l] over the count M
of potential transmitters inside the guard zone. For large l the
alternating form cancels catastrophically, so the expectation is then
summed directly over a truncated Poisson range.

Single-slot quantities reappear throughout with the density thinned to
``p * density``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .params import ModelParams
from .single_obs import (_B, _BmC, _C, _coordinates, _exponents, posterior,
                         prior_success)

# Switch f_d to the truncated-Poisson route beyond this l: the
# alternating sum loses roughly l*log10(e)*nu digits at worst.
_FD_ALTERNATING_MAX_L = 20


@dataclass(frozen=True)
class AlohaParams:
    """Contention probability and number of prior observed slots."""

    p: float
    N: int

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"contention probability must be in (0,1), got {self.p}")
        if self.N < 0:
            raise ValueError(f"N must be nonnegative, got {self.N}")

    @property
    def p_bar(self) -> float:
        return 1.0 - self.p


def _check_noiseless(p: ModelParams) -> None:
    if p.eta != 0:
        raise ValueError("multi-observation results assume a noiseless channel (eta = 0)")


def _mu_d(p: ModelParams, r_O: float) -> float:
    """Mean count of potential transmitters in the guard zone: the
    evidence exponent B of the unthinned scenario."""
    if not r_O > 0:
        raise ValueError(f"r_O must be positive, got {r_O}")
    return _B(*_coordinates(p, r_O))


def _xi(aloha: AlohaParams, B: float, C: float) -> float:
    """xi = (p/p_bar) * C/B, the relative weight of one potential
    transmitter inside the guard zone."""
    return aloha.p / aloha.p_bar * C / B


def f_d(nu: float, a: float, k: int, l: int) -> float:
    """E[(a^M)^k (1 - a^M)^l] for M ~ Poisson(nu).

    Alternating binomial sum for small l; truncated Poisson expectation
    otherwise (the two forms are algebraically identical).
    """
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must be in (0,1), got {a}")
    if k < 0 or l < 0:
        raise ValueError("k and l must be nonnegative")
    if l <= _FD_ALTERNATING_MAX_L:
        total = 0.0
        for j in range(l + 1):
            term = math.comb(l, j) * math.exp(-nu * (1.0 - a ** (k + j)))
            total += term if j % 2 == 0 else -term
        if total > 1e-12:  # trust the fast route away from cancellation
            return min(total, 1.0)
    return _f_d_poisson(nu, a, k, l)


def _f_d_poisson(nu: float, a: float, k: int, l: int) -> float:
    """Direct truncated sum of (a^m)^k (1-a^m)^l over Poisson(nu) weights."""
    m_max = int(nu + 12.0 * math.sqrt(nu) + 20.0)
    log_w = -nu  # log Poisson(0; nu)
    total = 0.0
    for m in range(m_max + 1):
        am = a**m
        total += math.exp(log_w) * am**k * (1.0 - am) ** l
        log_w += math.log(nu) - math.log(m + 1)
    return min(max(total, 0.0), 1.0)


def p_h_given_m(p: ModelParams, aloha: AlohaParams, r_O: float, m: int) -> float:
    """Physical success probability given m potential TX in the guard zone.

    Product of an outside-ball factor (thinned void-conditioned LT) and a
    per-inside-node factor ``(1 + xi) * (1 - p)``, geometric in m.
    """
    _check_noiseless(p)
    if m < 0:
        raise ValueError(f"m must be nonnegative, got {m}")
    _, B, C, T = _exponents(p, r_O)
    return math.exp(-aloha.p * T) * ((1.0 + _xi(aloha, B, C)) * aloha.p_bar) ** m


def p_h_given_K(p: ModelParams, aloha: AlohaParams, r_O: float, K: int) -> float:
    """Physical success probability in slot N+1 given K of N past protocol
    successes.

    Written as ``exp(p*(mu_h - A)) * f_d(mu_h, K+1) / f_d(mu_d, K)``, the
    first factor overflows and the ratio underflows at large radii, so
    ``f_d(nu, a, k, l) = e^{-nu(1-a^k)} f_d(nu*a^k, a, 0, l)`` moves both
    into one exponent, which lies in [-p*A, 0].
    """
    _check_noiseless(p)
    _check_K(aloha, K)
    A, mu_d, C, T = _exponents(p, r_O)
    if aloha.N == 0:
        return prior_success(p.thinned(aloha.p))
    mu_h = mu_d * (1.0 + _xi(aloha, mu_d, C))
    q = aloha.p_bar**K
    num = f_d(mu_h * q * aloha.p_bar, aloha.p_bar, 0, aloha.N - K)
    den = f_d(mu_d * q, aloha.p_bar, 0, aloha.N - K)
    return math.exp(-aloha.p * (A * q + T * (1.0 - q))) * num / den


def p_d_given_K(p: ModelParams, aloha: AlohaParams, r_O: float, K: int) -> float:
    """Protocol success probability in slot N+1 given K past successes.

    It is ``f_d(mu_d, K+1) / f_d(mu_d, K)``, but both terms underflow at
    large radii; the identity used in :func:`p_h_given_K` turns it into
    ``exp(-mu_d*p*q) * f_d(mu_d*q*p_bar, 0) / f_d(mu_d*q, 0)`` with
    ``q = p_bar**K``, whose two f_d terms tend to 1 as the radius grows.
    """
    _check_K(aloha, K)
    mu_d = _mu_d(p, r_O)
    if aloha.N == 0:
        return math.exp(-aloha.p * mu_d)
    q = aloha.p_bar**K
    num = f_d(mu_d * q * aloha.p_bar, aloha.p_bar, 0, aloha.N - K)
    den = f_d(mu_d * q, aloha.p_bar, 0, aloha.N - K)
    return math.exp(-mu_d * aloha.p * q) * num / den


def p_K(p: ModelParams, aloha: AlohaParams, r_O: float, K: int) -> float:
    """Marginal probability of K protocol successes in the N observed slots."""
    _check_K(aloha, K)
    if aloha.N == 0:
        return 1.0
    mu_d = _mu_d(p, r_O)
    return math.comb(aloha.N, K) * f_d(mu_d, aloha.p_bar, K, aloha.N - K)


def _check_K(aloha: AlohaParams, K: int) -> None:
    if not 0 <= K <= aloha.N:
        raise ValueError(f"K must lie in [0, {aloha.N}], got {K}")


def posterior_given_K_d(p: ModelParams, aloha: AlohaParams, r_O: float,
                        K: int, d_obs: int) -> float:
    """P(physical success | K past successes, current protocol outcome).

    Given a clear guard zone the history is uninformative and the value
    equals the thinned single-slot posterior for every K. Given a busy
    zone it is that posterior times ``sum w_m pb^m expm1(m log1p(xi)) /
    sum w_m (1 - pb^m)`` over the count m >= 1 of potential transmitters
    in the zone, ``w_m = Poisson(m; mu_d) pb^(mK) (1 - pb^m)^(N-K)``, summed
    in log space over ``nu +- (12 sqrt(nu) + 20)``, ``nu = mu_d pb^K``.
    ``pb^m (1 + xi)^m`` is ``(1 - p (B - C)/B)^m``, exact as B, C diverge.
    """
    _check_noiseless(p)
    _check_K(aloha, K)
    if d_obs not in (0, 1):
        raise ValueError(f"d must be 0 or 1, got {d_obs}")
    p11 = posterior(p.thinned(aloha.p), r_O).p_h1_d1
    if d_obs == 1:
        return p11
    args = _coordinates(p, r_O)
    B, C, gap = _B(*args), _C(*args), _BmC(*args)
    nu = B * aloha.p_bar**K
    half = 12.0 * math.sqrt(nu) + 20.0
    m = np.arange(max(1, int(nu - half)), int(nu + half) + 1)
    # log Poisson(m; nu) less its value at the mode, summed outward from
    # the mode so that the terms that matter carry the least rounding
    mode = max(int(nu) - m[0], 0)
    step = np.log(nu / m)
    log_w = np.concatenate([-np.cumsum(step[mode:0:-1])[::-1], [0.0],
                            np.cumsum(step[mode + 1:])])
    log_busy = np.log(-np.expm1(m * math.log(aloha.p_bar)))
    log_w += (aloha.N - K) * log_busy
    log_hit = (m * math.log1p(-aloha.p * gap / B)
               + np.log(-np.expm1(-m * math.log1p(_xi(aloha, B, C)))))
    return p11 * math.exp(np.logaddexp.reduce(log_w + log_hit)
                          - np.logaddexp.reduce(log_w + log_busy))


@dataclass(frozen=True)
class DecisionRuleTable:
    """Complete map from (K, current protocol outcome) to a prediction.

    Encoded as a bitstring of length 2(N+1): character ``2K + d`` is the
    prediction for input (K, d).
    """

    N: int
    bits: str

    def __post_init__(self):
        if len(self.bits) != 2 * (self.N + 1) or set(self.bits) - {"0", "1"}:
            raise ValueError(
                f"rule for N={self.N} needs {2 * (self.N + 1)} binary "
                f"characters, got {self.bits!r}")

    def __call__(self, K: int, d_obs: int) -> int:
        return int(self.bits[2 * K + d_obs])

    @classmethod
    def follow_observation(cls, N: int) -> "DecisionRuleTable":
        """g(K, d) = d."""
        return cls(N=N, bits="01" * (N + 1))

    @classmethod
    def contradict_observation(cls, N: int) -> "DecisionRuleTable":
        """g(K, d) = 1 - d."""
        return cls(N=N, bits="10" * (N + 1))

    @classmethod
    def constant(cls, N: int, h: int) -> "DecisionRuleTable":
        return cls(N=N, bits=str(int(h)) * (2 * (N + 1)))


def rule_errors(p: ModelParams, aloha: AlohaParams, r_O: float,
                rule: DecisionRuleTable) -> tuple[float, float]:
    """(Type I, Type II) error probabilities of a (K, d)-rule."""
    _check_noiseless(p)
    if rule.N != aloha.N:
        raise ValueError(f"rule is for N={rule.N}, scenario has N={aloha.N}")
    thin = p.thinned(aloha.p)
    pH = prior_success(thin)
    p11 = posterior(thin, r_O).p_h1_d1

    pK = [p_K(p, aloha, r_O, K) for K in range(aloha.N + 1)]
    pDK = [p_d_given_K(p, aloha, r_O, K) for K in range(aloha.N + 1)]
    pHK = [p_h_given_K(p, aloha, r_O, K) for K in range(aloha.N + 1)]
    if len(set(rule.bits)) == 1:  # a constant rule ignores the observations
        h = rule(0, 0)
        return float(h), float(1 - h)

    def delta_hd(h, d_obs):
        return sum(pDK[K] * pK[K] for K in range(aloha.N + 1)
                   if rule(K, d_obs) == h)

    delta_I = sum((1.0 - pHK[K]) * pK[K] for K in range(aloha.N + 1)
                  if rule(K, 0) == 1)
    delta_II = sum(pHK[K] * pK[K] for K in range(aloha.N + 1)
                   if rule(K, 0) == 0)

    p_i = ((1.0 - p11) * (delta_hd(1, 1) - delta_hd(1, 0)) + delta_I) / (1.0 - pH)
    p_ii = (p11 * (delta_hd(0, 1) - delta_hd(0, 0)) + delta_II) / pH
    return min(max(p_i, 0.0), 1.0), min(max(p_ii, 0.0), 1.0)


@dataclass(frozen=True)
class RuleEvaluation:
    rule: DecisionRuleTable
    p_I: float
    p_II: float
    risk: float


def enumerate_rules(p: ModelParams, aloha: AlohaParams, r_O: float) -> list[RuleEvaluation]:
    """Evaluate every (K, d)-rule under uniform costs.

    Returned in lexicographic bitstring order (deterministic), so
    ``min(out, key=lambda e: e.risk)`` breaks risk ties toward the
    lexicographically smallest rule. 2**(2(N+1)) rules; N is capped at 8.
    """
    if aloha.N > 8:
        raise ValueError(
            f"rule enumeration for N={aloha.N} would produce "
            f"2**{2 * (aloha.N + 1)} rules; N is capped at 8")
    thin = p.thinned(aloha.p)
    pH = prior_success(thin)
    out = []
    width = 2 * (aloha.N + 1)
    for bits in ("".join(b) for b in product("01", repeat=width)):
        rule = DecisionRuleTable(N=aloha.N, bits=bits)
        p_i, p_ii = rule_errors(p, aloha, r_O, rule)
        out.append(RuleEvaluation(rule=rule, p_I=p_i, p_II=p_ii,
                                  risk=p_i * (1.0 - pH) + p_ii * pH))
    return out

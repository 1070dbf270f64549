"""Multi-observation inference under slotted Aloha (noiseless).

Node positions are drawn once and held fixed; in every slot each
potential transmitter contends independently with probability ``p``, so
the active set in a slot is a thinning of the fixed layout. After N
observed slots, the count K of protocol successes is a sufficient
statistic for the history. Given the count m of potential transmitters
inside the guard zone, M ~ Poisson(B), each slot is a protocol success
with probability pb^m (pb = 1 - p), and the current slot's protocol
outcome d and physical outcome h have the law

    P(d=1, h=1 | m) = e^{-pT} pb^m,    P(d=1, h=0 | m) = E pb^m,
    P(d=0, h=1 | m) = e^{-pT} (u^m - pb^m) = e^{-pT} u^m (1 - (1 + xi)^-m),
    P(d=0, h=0 | m) = E (1 - pb^m) + e^{-pT} (1 - u^m),

with ``E = -expm1(-pT)``, ``u = 1 - p (B - C)/B`` the chance that one
node in the zone does not spoil the slot, and ``1 + xi = u/pb = 1 +
p C/(pb B)``. Every cell P(K, d, h) of the joint law is the Poisson
expectation of one of these terms times the history law ``C(N,K)
pb^(mK) (1 - pb^m)^(N-K)``: a sum of nonnegative terms over a window of
counts (:func:`_weights`, :func:`_cells`). :func:`aloha_laws` reads the
law at one radius by K, and :func:`rule_errors` weighs its cells by a
rule. Each of their values is a sum or a ratio of cells, so none is
formed by a subtraction, and ``f_d`` is the same window sum.

Single-slot quantities reappear throughout with the density thinned to
``p * density``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from itertools import product

import numpy as np

from .params import ModelParams, _integral
from .single_obs import _law, prior_success


@dataclass(frozen=True)
class AlohaParams:
    """Contention probability and number of prior observed slots."""

    p: float
    N: int

    def __post_init__(self):
        if not 0.0 < self.p < 1.0:
            raise ValueError(f"contention probability must be in (0,1), got {self.p}")
        object.__setattr__(self, "N", _integral(self.N, "N"))
        if self.N < 0:
            raise ValueError(f"N must be nonnegative, got {self.N}")

    @property
    def p_bar(self) -> float:
        return 1.0 - self.p


def _check_noiseless(p: ModelParams) -> None:
    if p.eta != 0:
        raise ValueError("multi-observation results assume a noiseless channel (eta = 0)")


def _weights(nu_lo, nu):
    """Counts m and Poisson(m; nu) weights for each row of ``nu``, scaled so
    that a row's largest is 1: m runs over [nu_lo - h(nu_lo), nu + h(nu)],
    clipped at 0, with h(x) = 12 sqrt(x) + 20, and the weight is 0 past a
    row's end.

    The log weights are summed by the recurrence ``Poisson(m)/Poisson(m-1)
    = nu/m`` from the window's low end; the window hugs the mass, so the
    partial sums stay small. A sum over the window is divided by the
    window's own mass, so no ``-nu + m log nu - lgamma(m+1)`` is needed.
    """
    # a mean that underflowed (nu a^k at large k) keeps its mass at m = 0
    nu = np.maximum(nu, np.finfo(float).tiny)
    lo = np.maximum(nu_lo - 12.0 * np.sqrt(nu_lo) - 20.0, 0.0).astype(int)
    hi = (nu + 12.0 * np.sqrt(nu) + 20.0).astype(int)
    m = lo[:, None] + np.arange((hi - lo).max() + 1)
    log_w = np.cumsum(np.log(nu[:, None] / np.maximum(m, 1)), axis=1)
    log_w[m > hi[:, None]] = -np.inf
    return m, np.exp(log_w - log_w.max(axis=1, keepdims=True))


def f_d(nu: float, a: float, k: int, l: int) -> float:
    """E[(a^M)^k (1 - a^M)^l] for M ~ Poisson(nu).

    ``e^{-nu (1 - a^k)}`` times the mean of ``(1 - a^m)^l`` under the
    tilted law Poisson(nu a^k), summed over its window.
    """
    if not nu > 0:
        raise ValueError(f"nu must be positive, got {nu}")
    if not 0.0 < a < 1.0:
        raise ValueError(f"a must be in (0,1), got {a}")
    if k < 0 or l < 0:
        raise ValueError("k and l must be nonnegative")
    mean = np.array([nu * a**k])  # of the tilted law
    m, w = _weights(mean, mean)
    busy = (w * (-np.expm1(m * math.log(a))) ** l).sum() / w.sum()
    return math.exp(nu * math.expm1(k * math.log(a))) * float(busy)


def _cells(p: ModelParams, aloha: AlohaParams, r_O: float):
    """The joint law of (K, d, h) as P(K), P(d | K) and P(h | K, d):
    arrays of shape (N+1,), (N+1, 2) and (N+1, 2, 2).

    ``Poisson(m; B) pb^(mK)`` is ``e^{-B (1 - pb^K)} Poisson(m; B pb^K)``,
    so row K sums over the window of ``nu_K = B pb^K`` for d = 0 and of
    ``nu_(K+1)`` for d = 1, each divided by its own mass; the windows reach
    down to ``nu u``, where ``u^m - pb^m`` has its mass. Each factor is a
    ratio of sums of nonnegative terms over a window where they are large,
    so it keeps its relative accuracy where the joint law underflows. The
    sums are taken in linear space: a row fails only if its history law
    underflows everywhere, which takes p^(N-K) nu_K below about 1e-308.
    """
    _check_noiseless(p)
    _, B, C, T, gap, _ = _law(p, r_O)
    N, pc = aloha.N, aloha.p
    log_pb, log_u = math.log1p(-pc), math.log1p(-pc * gap / B)
    hit, miss = math.exp(-pc * T), -math.expm1(-pc * T)
    nu = B * aloha.p_bar ** np.arange(N + 2)
    m, w = _weights(nu * math.exp(log_u), nu)
    em = np.expm1(m * log_pb)  # -P(d=0 | m)
    # P(d=0 | m) times 2**-e, which brings its largest (at the last count of
    # row 0) into [1/2, 1] if it is below: then its powers up to N do not
    # underflow for a tiny p. p_K takes the 2**(e (N - K)) back.
    e = min(math.frexp(em[0, -1])[1], 0)
    busy = em * -math.ldexp(1.0, -e)
    K = np.arange(N + 1)
    m0, l = m[:-1], (N - K)[:, None]
    # the history law of row K over its d = 0 and its d = 1 window
    w0, w1 = w[:-1] * busy[:-1] ** l, w[1:] * busy[1:] ** l
    h0 = -miss * em[:-1] - hit * np.expm1(m0 * log_u)
    h1 = hit * np.exp(m0 * log_u) * -np.expm1(
        -m0 * math.log1p(pc * C / (aloha.p_bar * B)))
    mass0, mass1, s0, s1, c0, c1 = np.add.reduce(
        np.array([w[:-1], w[1:], w0, w1, w0 * h0, w0 * h1]), axis=2)
    p_K = (np.array([math.comb(N, k) for k in K])
           * np.exp(B * np.expm1(K * log_pb)) * s0 / mass0)
    if e:
        p_K *= 2.0 ** (e * (N - K))
    p_d1 = np.exp(-pc * nu[:-1]) * (s1 / mass1) / (s0 / mass0)
    p_h = np.empty((N + 1, 2, 2))
    p_h[:, 0] = np.array([c0, c1]).T / (c0 + c1)[:, None]
    p_h[:, 1] = miss, hit
    return p_K, np.array([(c0 + c1) / s0, p_d1]).T, p_h


@dataclass(frozen=True)
class AlohaLaws:
    """The joint law of (K, d, h) at one radius, read by K: ``p_K[K]``,
    ``p_d_given_K[K]`` and ``p_h_given_K[K]``, the chances of K protocol
    successes in the N observed slots and of a protocol and a physical
    success in slot N+1 given K, and ``posterior[K, d]``, P(h=1 | K, d).

    Given a clear guard zone (d = 1) the history is uninformative, and
    ``posterior[K, 1]`` is the thinned single-slot posterior ``e^{-pT}``
    for every K. Given a busy zone it is the (d=0, h=1) cell over the sum
    of both d=0 cells.
    """

    p_K: np.ndarray
    p_d_given_K: np.ndarray
    p_h_given_K: np.ndarray
    posterior: np.ndarray


def aloha_laws(p: ModelParams, aloha: AlohaParams, r_O: float) -> AlohaLaws:
    """Every K's value of the Aloha history law at radius ``r_O``, from one
    :func:`_cells` call. ``p_d_given_K[K]`` is ``e^{-p nu_K}``, ``nu_K =
    B pb^K``, times a ratio of window sums that tends to 1 as the radius
    grows; ``p_h_given_K[K]`` is the sum over d of P(d | K) P(h=1 | K, d)."""
    p_K, p_d, p_h = _cells(p, aloha, r_O)
    p_h_given_K = np.array([d @ h[:, 1] for d, h in zip(p_d, p_h)])
    return AlohaLaws(p_K, p_d[:, 1], p_h_given_K, p_h[:, :, 1])


@dataclass(frozen=True)
class DecisionRuleTable:
    """Complete map from (K, current protocol outcome) to a prediction.

    Encoded as a bitstring of length 2(N+1): character ``2K + d`` is the
    prediction for input (K, d).
    """

    N: int
    bits: str

    def __post_init__(self):
        object.__setattr__(self, "N", _integral(self.N, "N"))
        if self.N < 0:
            raise ValueError(f"N must be nonnegative, got {self.N}")
        if len(self.bits) != 2 * (self.N + 1) or set(self.bits) - {"0", "1"}:
            raise ValueError(
                f"rule for N={self.N} needs {2 * (self.N + 1)} binary "
                f"characters, got {self.bits!r}")

    def __call__(self, K: int, d_obs: int) -> int:
        if not 0 <= K <= self.N or d_obs not in (0, 1):
            raise ValueError(f"no rule input (K={K}, d={d_obs}) for N={self.N}")
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


def _uniform_risk(p: ModelParams, p_I, p_II):
    """The uniform-cost risk ``p_I P(h=0) + p_II P(h=1)`` of a rule with
    errors (p_I, p_II) in scenario ``p``: under Aloha, the thinned one."""
    pH = prior_success(p)
    return p_I * (1.0 - pH) + p_II * pH


def rule_errors(p: ModelParams, aloha: AlohaParams, r_O: float,
                rule: DecisionRuleTable) -> tuple[float, float]:
    """(Type I, Type II) error probabilities of a (K, d)-rule g:
    ``sum_{g(K,d)=1} P(K, d, h=0) / P(h=0)`` and
    ``sum_{g(K,d)=0} P(K, d, h=1) / P(h=1)``, with P(h) the sum of the
    cells of that h, which is the thinned single-slot prior."""
    if rule.N != aloha.N:
        raise ValueError(f"rule is for N={rule.N}, scenario has N={aloha.N}")
    p_K, p_d, p_h = _cells(p, aloha, r_O)
    g = np.frombuffer(rule.bits.encode(), np.uint8) == ord("1")
    # rows: the cells the rule calls a success, then a failure; columns: h
    (g1h0, g1h1), (g0h0, g0h1) = np.array([g, ~g], float) @ (
        p_K[:, None, None] * p_d[:, :, None] * p_h).reshape(-1, 2)
    return float(g1h0 / (g1h0 + g0h0)), float(g0h1 / (g0h1 + g1h1))


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
    out = []
    width = 2 * (aloha.N + 1)
    for bits in ("".join(b) for b in product("01", repeat=width)):
        rule = DecisionRuleTable(N=aloha.N, bits=bits)
        p_i, p_ii = rule_errors(p, aloha, r_O, rule)
        out.append(RuleEvaluation(rule=rule, p_I=p_i, p_II=p_ii,
                                  risk=_uniform_risk(thin, p_i, p_ii)))
    return out

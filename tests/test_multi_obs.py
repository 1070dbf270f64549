"""Aloha history: f_d identities, conditional laws, rules, and enumeration."""

import math
from itertools import product

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardzone import multi_obs as mo
from guardzone.params import ModelParams, derive
from guardzone.risk import SingleObsRule, type_errors
from guardzone.single_obs import evidence_success, posterior, prior_success
from test_single_obs import joint_exponents

FIG5 = ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10)
FIG4 = ModelParams(n=2, density=2e-3, alpha=4, beta=5, r_T=10)
ALOHA1 = mo.AlohaParams(p=0.5, N=1)
ALOHA2 = mo.AlohaParams(p=0.5, N=2)


def f_d_oracle(nu, a, k, l, m_max=None):
    """Direct Poisson expectation of (a^M)^k (1 - a^M)^l with mpmath-free
    high-cutoff summation."""
    if m_max is None:
        m_max = int(nu + 15 * math.sqrt(nu) + 40)
    total, log_w = 0.0, -nu
    for m in range(m_max + 1):
        am = a**m
        total += math.exp(log_w) * am**k * (1 - am) ** l
        log_w += math.log(nu) - math.log(m + 1)
    return total


def exact_exponents(p, r_O):
    """B, C and T at the working mpmath precision, from their
    hypergeometric forms."""
    d = derive(p)
    delta = mpmath.mpf(p.n) / p.alpha
    chi = mpmath.mpf(r_O) ** p.alpha / d.sigma
    a = p.density * d.c_n * mpmath.mpf(d.sigma) ** delta
    B = a * chi**delta
    C = a * delta / (delta + 1) * chi ** (delta + 1) * mpmath.hyp2f1(
        1, delta + 1, delta + 2, -chi)
    T = a * delta / (1 - delta) * chi ** (delta - 1) * mpmath.hyp2f1(
        1, 1 - delta, 2 - delta, -1 / chi)
    return B, C, T


def busy_zone_oracle(p, pc, r_O, K, n_max):
    """{N: P(H=1 | K, busy guard zone)} for N = K .. n_max, as a 30-digit
    Poisson sum over the count m >= 1 of potential transmitters in the
    zone, with B, C and T from their hypergeometric forms."""
    with mpmath.workdps(30):
        B, C, T = exact_exponents(p, r_O)
        pc = mpmath.mpf(pc)
        pb = 1 - pc
        log1p_xi = mpmath.log1p(pc / pb * C / B)
        nu = B * pb**K
        half = 12 * mpmath.sqrt(nu) + 20
        lo = max(1, int(nu - half))
        # Poisson weights relative to the first one, by their recurrence
        w, pbm = mpmath.mpf(1), pb**lo
        num = [mpmath.mpf(0)] * (n_max + 1)
        den = list(num)
        for m in range(lo, int(nu + half) + 1):
            hit = pbm * mpmath.expm1(m * log1p_xi)
            for N in range(K, n_max + 1):
                weight = w * (1 - pbm) ** (N - K)
                num[N] += weight * hit
                den[N] += weight * (1 - pbm)
            w *= nu / (m + 1)
            pbm *= pb
        return {N: mpmath.exp(-pc * T) * num[N] / den[N]
                for N in range(K, n_max + 1)}


def rising_precision(f):
    """f(), a list of mpf, at 30, 60, 120, ... digits until two successive
    lists agree to 25 digits: f may cancel any number of digits."""
    dps, prev = 30, None
    while True:
        with mpmath.workdps(dps):
            val = f()
        if prev is not None and all(abs(v - w) <= 1e-25 * abs(v)
                                    for v, w in zip(val, prev)):
            return val
        prev, dps = val, 2 * dps


def f_d_exact(nu, a, k, l):
    """E[(a^M)^k (1 - a^M)^l], M ~ Poisson(nu), by the binomial expansion
    of (1 - a^M)^l into the Poisson generating function E[x^M] =
    exp(-nu (1 - x)), summed exactly."""
    return rising_precision(lambda: [mpmath.fsum(
        (-1) ** j * math.comb(l, j)
        * mpmath.exp(-nu * (1 - mpmath.mpf(a) ** (k + j)))
        for j in range(l + 1))])[0]


def cells_exact(p, pc, r_O, N):
    """P(K, d, h) as nested lists [K][d][h]: the Poisson expectations over
    the count M of potential transmitters in the guard zone of the history
    law C(N,K) pb^(MK) (1 - pb^M)^(N-K) times P(d, h | M), each expanded
    into generating functions E[x^M] = exp(-B (1 - x)) and summed exactly.
    A node in the zone is silent, or transmits and is survived: u = pb +
    p C/B, and P(h=1 | M) = e^{-pT} u^M."""
    def cells():
        B, C, T = exact_exponents(p, r_O)
        pb = 1 - mpmath.mpf(pc)
        u = pb + pc * C / B
        hit = mpmath.exp(-pc * T)
        out = []
        for K in range(N + 1):
            c = [mpmath.mpf(0)] * 4  # (d, h) = (0, 0), (0, 1), (1, 0), (1, 1)
            for j in range(N - K + 1):
                w = (-1) ** j * math.comb(N, K) * math.comb(N - K, j)
                clear = mpmath.exp(-B * (1 - pb ** (K + j + 1)))
                busy = mpmath.exp(-B * (1 - pb ** (K + j))) - clear
                spared = hit * (mpmath.exp(-B * (1 - pb ** (K + j) * u)) - clear)
                c = [c[0] + w * (busy - spared), c[1] + w * spared,
                     c[2] + w * (1 - hit) * clear, c[3] + w * hit * clear]
            out += c
        return out
    flat = rising_precision(cells)
    return [[flat[4 * K:4 * K + 2], flat[4 * K + 2:4 * K + 4]]
            for K in range(N + 1)]


class TestAlohaParams:
    def test_validation(self):
        with pytest.raises(ValueError):
            mo.AlohaParams(p=0.0, N=1)
        with pytest.raises(ValueError):
            mo.AlohaParams(p=1.0, N=1)
        with pytest.raises(ValueError):
            mo.AlohaParams(p=0.5, N=-1)

    def test_complement(self):
        assert ALOHA1.p_bar == 0.5


class TestFd:
    @given(st.floats(0.05, 30.0), st.floats(0.05, 0.95),
           st.integers(0, 5), st.integers(0, 5))
    @settings(max_examples=300, deadline=None)
    def test_window_sum_equals_expectation(self, nu, a, k, l):
        # the tilted window sum agrees with a sum from m = 0 to 1e-10 for
        # k + l <= 10
        assert mo.f_d(nu, a, k, l) == pytest.approx(
            f_d_oracle(nu, a, k, l), abs=1e-10)

    def test_large_l_stays_stable(self):
        # deep alternation: the binomial sum alone would cancel to noise
        val = mo.f_d(20.0, 0.9, 2, 60)
        assert val == pytest.approx(f_d_oracle(20.0, 0.9, 2, 60), rel=1e-8)
        assert 0.0 <= val <= 1.0

    @pytest.mark.parametrize("nu, a, k, l", [
        (1e-4, 0.5, 0, 3), (1e-4, 0.9, 2, 3), (1e-20, 0.5, 1, 3),
        (0.25, 0.5, 3, 2), (20.0, 0.9, 2, 60), (1e3, 0.5, 0, 5),
        (1e4, 0.99, 3, 2), (1e6, 0.5, 1, 1), (1.0, 0.5, 2000, 0)])
    def test_against_exact_sums(self, nu, a, k, l):
        # at small nu the alternating binomial sum is of order nu**l and
        # cancels in floats; the window sum has only positive terms. At
        # k = 2000 the tilted mean nu a^k underflows to 0.
        want = f_d_exact(nu, a, k, l)
        if want > 1e-290:
            assert mo.f_d(nu, a, k, l) == pytest.approx(float(want), rel=1e-12,
                                                        abs=0.0)

    def test_probability_normalization(self):
        # sum_K C(N,K) f_d(nu, a; K, N-K) = 1 for any N
        nu, a, N = 3.7, 0.4, 6
        total = sum(math.comb(N, K) * mo.f_d(nu, a, K, N - K)
                    for K in range(N + 1))
        assert total == pytest.approx(1.0, abs=1e-12)

    def test_domain(self):
        with pytest.raises(ValueError):
            mo.f_d(-1.0, 0.5, 0, 0)
        with pytest.raises(ValueError):
            mo.f_d(1.0, 1.5, 0, 0)


def p_h_given_K_oracle(p, aloha, r_O, K):
    """P(H=1 | K) as a direct 30-digit Poisson sum over the count M of
    potential transmitters in the guard zone, each of which transmits in
    a slot with probability p: E[P(H=1 | M) P(K | M)] / E[P(K | M)]."""
    A, B, C = joint_exponents(p, r_O)
    with mpmath.workdps(30):
        pc = mpmath.mpf(aloha.p)
        q = 1 - pc
        # a node inside the zone is silent, or transmits and is survived
        per_node = q + pc * C / B
        num = den = mpmath.mpf(0)
        w = mpmath.exp(-B)
        for m in range(int(B + 15 * mpmath.sqrt(B) + 40)):
            history = q ** (m * K) * (1 - q**m) ** (aloha.N - K)
            num += w * per_node**m * history
            den += w * history
            w *= B / (m + 1)
        return float(mpmath.exp(-pc * (A - B + C)) * num / den)


def p_d_given_K_oracle(p, aloha, r_O, K):
    """P(D=1 | K) as a direct 30-digit Poisson sum over the count M of
    potential transmitters in the guard zone, all silent with probability
    p_bar**M: E[p_bar**M P(K | M)] / E[P(K | M)]."""
    with mpmath.workdps(30):
        B = p.density * math.pi * mpmath.mpf(r_O) ** 2  # planar void exponent
        q = 1 - mpmath.mpf(aloha.p)
        num = den = mpmath.mpf(0)
        w = mpmath.exp(-B)
        for m in range(int(B + 15 * mpmath.sqrt(B) + 40)):
            history = q ** (m * K) * (1 - q**m) ** (aloha.N - K)
            num += w * q**m * history
            den += w * history
            w *= B / (m + 1)
        return float(num / den)


class TestConditionalLaws:
    @pytest.mark.parametrize("N, r_O, K", [(1, 2000.0, 0), (1, 1000.0, 1),
                                           (2, 100.0, 2), (3, 20.0, 1),
                                           (3, 1.47e-4, 0)])
    def test_p_h_given_K_against_poisson_sum(self, N, r_O, K):
        # at large radii exp(p*(mu_h - A)) overflows and the f_d ratio
        # underflows, though the product lies in [e^-pA, 1]; at 1.47e-4 an
        # alternating binomial sum for f_d cancels to 1.8e-5
        aloha = mo.AlohaParams(p=0.5, N=N)
        assert mo.p_h_given_K(FIG5, aloha, r_O, K) == pytest.approx(
            p_h_given_K_oracle(FIG5, aloha, r_O, K), rel=1e-12)

    @pytest.mark.parametrize("p, N, r_O, K", [
        (FIG4, 1, 681.0, 1), (FIG4, 1, 681.0, 0), (FIG5, 1, 1e4, 0),
        (FIG5, 1, 1e4, 1), (FIG5, 2, 100.0, 2), (FIG5, 3, 20.0, 1),
        (FIG5, 3, 20.0, 3)])
    def test_p_d_given_K_against_poisson_sum(self, p, N, r_O, K):
        # f_d(mu_d, K+1) and f_d(mu_d, K) both underflow at large radii;
        # fig4 at 681 has the subnormal value 4.2e-317, which carries about
        # seven digits, so one unit of the subnormal spacing is allowed too
        aloha = mo.AlohaParams(p=0.5, N=N)
        assert mo.p_d_given_K(p, aloha, r_O, K) == pytest.approx(
            p_d_given_K_oracle(p, aloha, r_O, K), rel=1e-12, abs=5e-324)

    @pytest.mark.parametrize("p", [FIG5, ModelParams(3, 1e-5, 4.5, 3, 6)])
    @pytest.mark.parametrize("pc", [0.05, 0.5, 0.9])
    def test_every_quantity_against_exact_sums(self, p, pc):
        # r_O from 1e-6 to 1e3 r_T, where B runs from 1e-23 to 9e6; abs=0,
        # as approx's default absolute tolerance would pass any tiny value
        def close(got, want, where):
            if want > 1e-290:
                assert got == pytest.approx(float(want), rel=1e-12, abs=0.0), where

        for r_O in [1e-6] + [p.r_T * 10.0**e for e in range(-4, 4)]:
            for N in range(4):
                aloha = mo.AlohaParams(pc, N)
                for K, ((c00, c01), (c10, c11)) in enumerate(
                        cells_exact(p, pc, r_O, N)):
                    pK, where = c00 + c01 + c10 + c11, (r_O, N, K)
                    close(mo.p_K(p, aloha, r_O, K), pK, where)
                    close(mo.p_d_given_K(p, aloha, r_O, K), (c10 + c11) / pK, where)
                    close(mo.p_h_given_K(p, aloha, r_O, K), (c01 + c11) / pK, where)
                    close(mo.posterior_given_K_d(p, aloha, r_O, K, 0),
                          c01 / (c00 + c01), where)
                    close(mo.posterior_given_K_d(p, aloha, r_O, K, 1),
                          c11 / (c10 + c11), where)

    def test_p_K_normalizes(self):
        for aloha in (ALOHA1, ALOHA2, mo.AlohaParams(p=0.3, N=5)):
            total = sum(mo.p_K(FIG5, aloha, 50.0, k)
                        for k in range(aloha.N + 1))
            assert total == pytest.approx(1.0, abs=1e-12)

    def test_history_marginalizes_to_thinned_single_slot(self):
        # averaging the K-conditionals over p_K recovers the slot-(N+1)
        # marginals of the thinned process
        thin = FIG5.thinned(ALOHA2.p)
        r_O = 40.0
        pk = [mo.p_K(FIG5, ALOHA2, r_O, k) for k in range(3)]
        pH = sum(w * mo.p_h_given_K(FIG5, ALOHA2, r_O, k)
                 for k, w in enumerate(pk))
        pD = sum(w * mo.p_d_given_K(FIG5, ALOHA2, r_O, k)
                 for k, w in enumerate(pk))
        assert pH == pytest.approx(prior_success(thin), rel=1e-10)
        assert pD == pytest.approx(evidence_success(thin, r_O), rel=1e-10)

    def test_successful_history_is_good_news(self):
        vals = [mo.p_h_given_K(FIG5, ALOHA2, 50.0, k) for k in range(3)]
        assert vals[0] < vals[1] < vals[2]
        vals = [mo.p_d_given_K(FIG5, ALOHA2, 50.0, k) for k in range(3)]
        assert vals[0] < vals[1] < vals[2]

    def test_n_zero_degenerates(self):
        a0 = mo.AlohaParams(p=0.5, N=0)
        thin = FIG5.thinned(0.5)
        assert mo.p_h_given_K(FIG5, a0, 50.0, 0) == pytest.approx(
            prior_success(thin), rel=1e-12)
        assert mo.p_d_given_K(FIG5, a0, 50.0, 0) == pytest.approx(
            evidence_success(thin, 50.0), rel=1e-12)
        assert mo.p_K(FIG5, a0, 50.0, 0) == 1.0

    def test_history_below_the_float_range(self):
        # fig1, r_O = 20, p = 1e-40, N = 8: the history law of K = 0,
        # (1 - pb^m)^8 about (m p)^8, lies near 1e-310 over the whole window,
        # and P(K = 0) = 3.15e-319 is subnormal. Every value is finite,
        # with no RuntimeWarning, and within 1e-12 of the exact sums; the
        # subnormal one within one unit of its spacing.
        pc, N, r_O = 1e-40, 8, 20.0
        aloha = mo.AlohaParams(pc, N)
        exact = cells_exact(FIG5, pc, r_O, N)
        for K in (0, 1, N):
            (c00, c01), (c10, c11) = exact[K]
            pK = c00 + c01 + c10 + c11
            assert abs(mo.p_K(FIG5, aloha, r_O, K) - float(pK)) \
                <= max(1e-12 * pK, 5e-324)
            for got, want in [
                    (mo.p_d_given_K(FIG5, aloha, r_O, K), (c10 + c11) / pK),
                    (mo.p_h_given_K(FIG5, aloha, r_O, K), (c01 + c11) / pK),
                    (mo.posterior_given_K_d(FIG5, aloha, r_O, K, 0),
                     c01 / (c00 + c01))]:
                assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)

    def test_rejects_noise(self):
        noisy = ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10,
                            eta=1e-6)
        with pytest.raises(ValueError):
            mo.p_h_given_K(noisy, ALOHA1, 50.0, 0)

    def test_rejects_out_of_range_K(self):
        with pytest.raises(ValueError):
            mo.p_K(FIG5, ALOHA1, 50.0, 2)


class TestPosteriorGivenKd:
    def test_remark_values(self):
        assert mo.posterior_given_K_d(FIG5, ALOHA1, 50.0, 0, 0) \
            == pytest.approx(0.67, abs=0.01)
        assert mo.posterior_given_K_d(FIG5, ALOHA1, 50.0, 1, 0) \
            == pytest.approx(0.72, abs=0.01)

    def test_clear_zone_forgets_history(self):
        # given a clear guard zone the past tells nothing extra
        expected = posterior(FIG5.thinned(0.5), 50.0).p_h1_d1
        for k in range(3):
            assert mo.posterior_given_K_d(FIG5, ALOHA2, 50.0, k, 1) \
                == pytest.approx(expected, rel=1e-12)

    @pytest.mark.parametrize("p,pc,r_O,K,N", [
        (ModelParams(1, 5e-3, 2.5, 2, 4), 0.5, 4.7e-4, 0, 0),
        (ModelParams(1, 5e-3, 2.5, 2, 4), 0.5, 4e-3, 0, 0),
        (ModelParams(3, 1e-5, 4.5, 3, 6), 0.5, 7e-3, 1, 3),
        (FIG5, 0.5, 1.47e-4, 0, 3)])
    def test_busy_zone_reference_points(self, p, pc, r_O, K, N):
        # where a completeness subtraction, 1 - P(clear), cancels
        want = busy_zone_oracle(p, pc, r_O, K, N)[N]
        got = mo.posterior_given_K_d(p, mo.AlohaParams(pc, N), r_O, K, 0)
        assert got == pytest.approx(float(want), rel=1e-12, abs=0.0)

    @pytest.mark.parametrize("p,pc", [
        (FIG5, 0.5), (FIG5, 0.05), (ModelParams(1, 5e-3, 2.5, 2, 4), 0.9)])
    def test_busy_zone_relative_accuracy(self, p, pc):
        for r_O in [1e-6] + [p.r_T * 10.0**e for e in range(-4, 4)]:
            for K in range(4):
                for N, want in busy_zone_oracle(p, pc, r_O, K, 3).items():
                    if want > 1e-290:
                        got = mo.posterior_given_K_d(
                            p, mo.AlohaParams(pc, N), r_O, K, 0)
                        assert got == pytest.approx(float(want), rel=1e-12,
                                                    abs=0.0), (r_O, N, K)

    def test_busy_zone_without_history(self):
        thin = FIG5.thinned(0.5)
        for r_O in np.geomspace(1e-3, 1e3, 13):
            assert mo.posterior_given_K_d(FIG5, mo.AlohaParams(0.5, 0),
                                          r_O, 0, 0) == pytest.approx(
                posterior(thin, r_O).p_h1_d0, rel=1e-12)

    def test_bayes_consistency(self):
        # p_{H|K} = post(1|K) p_{D|K} + post(0-branch) (1 - p_{D|K})
        for k in range(2):
            pDK = mo.p_d_given_K(FIG5, ALOHA1, 50.0, k)
            recon = (mo.posterior_given_K_d(FIG5, ALOHA1, 50.0, k, 1) * pDK
                     + mo.posterior_given_K_d(FIG5, ALOHA1, 50.0, k, 0)
                     * (1 - pDK))
            assert recon == pytest.approx(
                mo.p_h_given_K(FIG5, ALOHA1, 50.0, k), rel=1e-10)


class TestDecisionRules:
    def test_bitstring_layout(self):
        rule = mo.DecisionRuleTable(N=1, bits="0110")
        assert rule(0, 0) == 0 and rule(0, 1) == 1
        assert rule(1, 0) == 1 and rule(1, 1) == 0

    def test_rejects_inputs_outside_the_table(self):
        # a negative index would wrap to another input's character
        rule = mo.DecisionRuleTable(N=1, bits="0110")
        for K, d_obs in [(-1, 0), (0, 2), (-2, 1), (2, 0), (0, -1)]:
            with pytest.raises(ValueError):
                rule(K, d_obs)

    def test_named_constructors(self):
        assert mo.DecisionRuleTable.follow_observation(2).bits == "010101"
        assert mo.DecisionRuleTable.contradict_observation(1).bits == "1010"
        assert mo.DecisionRuleTable.constant(1, 1).bits == "1111"

    def test_length_validation(self):
        with pytest.raises(ValueError):
            mo.DecisionRuleTable(N=1, bits="01")
        with pytest.raises(ValueError):
            mo.DecisionRuleTable(N=1, bits="01x0")

    def test_identity_rule_matches_single_slot_errors(self):
        # following the current observation ignores the history, so its
        # errors equal the thinned single-observation identity rule's
        r_O = 35.0
        rule = mo.DecisionRuleTable.follow_observation(ALOHA2.N)
        p_i, p_ii = mo.rule_errors(FIG5, ALOHA2, r_O, rule)
        q_i, q_ii = type_errors(FIG5.thinned(0.5), r_O,
                                SingleObsRule.identity())
        assert p_i == pytest.approx(q_i, rel=1e-9)
        assert p_ii == pytest.approx(q_ii, rel=1e-9)

    def test_constant_rules(self):
        # the cell sum of a constant rule has one row of zeros, so its
        # errors are exactly 0 and 1
        for N, r_O in product(range(4), (1e-3, 0.5, 35.0, 1e3)):
            aloha = mo.AlohaParams(p=0.5, N=N)
            assert mo.rule_errors(FIG5, aloha, r_O, mo.DecisionRuleTable
                                  .constant(N, 1)) == (1.0, 0.0)
            assert mo.rule_errors(FIG5, aloha, r_O, mo.DecisionRuleTable
                                  .constant(N, 0)) == (0.0, 1.0)

    @pytest.mark.parametrize("r_O", [1e-3, 20.0, 300.0])
    def test_single_cell_rules_against_exact_sums(self, r_O):
        # a rule that predicts success on one (K, d) only errs of type I on
        # that cell's failures, and of type II on every other cell's successes
        cells = cells_exact(FIG5, ALOHA2.p, r_O, ALOHA2.N)
        p_H = [sum(cells[K][d][h] for K in range(3) for d in range(2))
               for h in range(2)]
        for K in range(3):
            for d_obs in range(2):
                bits = ["0"] * 6
                bits[2 * K + d_obs] = "1"
                p_i, p_ii = mo.rule_errors(FIG5, ALOHA2, r_O, mo.DecisionRuleTable(
                    N=2, bits="".join(bits)))
                c0, c1 = cells[K][d_obs]
                assert p_i == pytest.approx(float(c0 / p_H[0]), rel=1e-12, abs=0.0)
                assert 1.0 - p_ii == pytest.approx(float(c1 / p_H[1]), abs=1e-12)

    def test_rule_scenario_mismatch(self):
        with pytest.raises(ValueError):
            mo.rule_errors(FIG5, ALOHA2, 35.0,
                           mo.DecisionRuleTable.follow_observation(1))


class TestEnumeration:
    def test_rule_counts(self):
        assert len(mo.enumerate_rules(FIG5, ALOHA1, 20.0)) == 16
        assert len(mo.enumerate_rules(FIG5, ALOHA2, 20.0)) == 64

    def test_best_and_worst(self):
        for aloha in (ALOHA1, ALOHA2):
            evals = mo.enumerate_rules(FIG5, aloha, 20.0)
            best = min(evals, key=lambda e: e.risk)
            worst = max(evals, key=lambda e: e.risk)
            assert best.rule.bits == "01" * (aloha.N + 1)
            assert worst.rule.bits == "10" * (aloha.N + 1)

    def test_risk_symmetry(self):
        # complementing a rule swaps its error types
        evals = {e.rule.bits: e for e in mo.enumerate_rules(FIG5, ALOHA1, 20.0)}
        flipped = "".join("1" if b == "0" else "0" for b in "0110")
        assert evals["0110"].p_I == pytest.approx(1 - evals[flipped].p_I,
                                                  abs=1e-12)

    def test_combinatorial_guard(self):
        with pytest.raises(ValueError):
            mo.enumerate_rules(FIG5, mo.AlohaParams(p=0.5, N=9), 20.0)

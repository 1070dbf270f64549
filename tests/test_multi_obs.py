"""Aloha history: f_d identities, conditional laws, rules, and enumeration."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardzone import multi_obs as mo
from guardzone.params import ModelParams
from guardzone.risk import SingleObsRule, type_errors
from guardzone.single_obs import evidence_success, posterior, prior_success
from test_single_obs import joint_exponents

FIG5 = ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10)
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
    def test_alternating_equals_expectation(self, nu, a, k, l):
        # the two algebraic forms agree to 1e-10 for k + l <= 10
        assert mo.f_d(nu, a, k, l) == pytest.approx(
            f_d_oracle(nu, a, k, l), abs=1e-10)

    def test_large_l_stays_stable(self):
        # deep alternation: the binomial sum alone would cancel to noise
        val = mo.f_d(20.0, 0.9, 2, 60)
        assert val == pytest.approx(f_d_oracle(20.0, 0.9, 2, 60), rel=1e-8)
        assert 0.0 <= val <= 1.0

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


class TestConditionalLaws:
    @pytest.mark.parametrize("N, r_O, K", [(1, 2000.0, 0), (1, 1000.0, 1),
                                           (2, 100.0, 2), (3, 20.0, 1)])
    def test_p_h_given_K_against_poisson_sum(self, N, r_O, K):
        # at large radii exp(p*(mu_h - A)) overflows and the f_d ratio
        # underflows, though the product lies in [e^-pA, 1]
        aloha = mo.AlohaParams(p=0.5, N=N)
        assert mo.p_h_given_K(FIG5, aloha, r_O, K) == pytest.approx(
            p_h_given_K_oracle(FIG5, aloha, r_O, K), rel=1e-12)

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

    def test_geometric_form_in_m(self):
        # P(success | m in-zone nodes) decays geometrically
        v0 = mo.p_h_given_m(FIG5, ALOHA1, 50.0, 0)
        v1 = mo.p_h_given_m(FIG5, ALOHA1, 50.0, 1)
        v2 = mo.p_h_given_m(FIG5, ALOHA1, 50.0, 2)
        assert v2 / v1 == pytest.approx(v1 / v0, rel=1e-12)

    def test_n_zero_degenerates(self):
        a0 = mo.AlohaParams(p=0.5, N=0)
        thin = FIG5.thinned(0.5)
        assert mo.p_h_given_K(FIG5, a0, 50.0, 0) == pytest.approx(
            prior_success(thin), rel=1e-12)
        assert mo.p_d_given_K(FIG5, a0, 50.0, 0) == pytest.approx(
            evidence_success(thin, 50.0), rel=1e-12)
        assert mo.p_K(FIG5, a0, 50.0, 0) == 1.0

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
        r_O = 35.0
        p_i, p_ii = mo.rule_errors(FIG5, ALOHA1, r_O,
                                   mo.DecisionRuleTable.constant(1, 1))
        assert (p_i, p_ii) == (1.0, 0.0)
        p_i, p_ii = mo.rule_errors(FIG5, ALOHA1, r_O,
                                   mo.DecisionRuleTable.constant(1, 0))
        assert p_i == pytest.approx(0.0, abs=1e-12)
        assert p_ii == pytest.approx(1.0, abs=1e-12)

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

"""Bayes risk, the optimal radius, sensitivities, errors, and the ROC."""

import math

import mpmath
import numpy as np
import pytest

from guardzone.params import ModelParams, derive
from guardzone.risk import (ALL_SINGLE_OBS_RULES, CostMatrix, SingleObsRule,
                            _f_right, bayes_risk, operating_points,
                            optimal_radius, roc_curve, sensitivities,
                            type_errors)
from guardzone.single_obs import evidence_success, posterior, prior_success
from test_single_obs import (FIG4, NOISY, SMALL_TO_LARGE, joint_exponents,
                             outside_exponent)

FIG2 = ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10)
UNIFORM = CostMatrix.uniform()


def risk_oracle(p, cost, r_O):
    """Expected cost assembled from the joint Bernoulli distribution."""
    pD = evidence_success(p, r_O)
    t = posterior(p, r_O)
    joint = {(1, 1): t.p_h1_d1 * pD, (0, 1): t.p_h0_d1 * pD,
             (1, 0): t.p_h1_d0 * (1 - pD), (0, 0): t.p_h0_d0 * (1 - pD)}
    cost_of = {(1, 1): cost.c11, (0, 1): cost.c10,
               (1, 0): cost.c01, (0, 0): cost.c00}
    return sum(joint[k] * cost_of[k] for k in joint)


class TestCostMatrix:
    def test_uniform(self):
        assert UNIFORM.gamma == 1.0 and UNIFORM.nu == 1.0

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            CostMatrix(-1, 1, 1, 0)

    def test_regularity(self):
        with pytest.raises(ValueError):
            CostMatrix(1, 1, 1, 1).require_regular()


class TestBayesRisk:
    @pytest.mark.parametrize("r_O", [1.0, 10.0, 21.1, 100.0])
    @pytest.mark.parametrize("cost", [UNIFORM, CostMatrix(0.1, 2.0, 0.7, 0.2)])
    def test_matches_joint_distribution(self, r_O, cost):
        assert bayes_risk(FIG2, cost, r_O) == pytest.approx(
            risk_oracle(FIG2, cost, r_O), rel=1e-10)

    def test_endpoints(self):
        # tiny radius: always predict success -> risk = P(failure);
        # huge radius: always predict failure -> risk = P(success)
        pH = prior_success(FIG2)
        assert bayes_risk(FIG2, UNIFORM, 1e-8) == pytest.approx(
            1.0 - pH, abs=1e-6)
        assert bayes_risk(FIG2, UNIFORM, 1e8) == pytest.approx(pH, abs=1e-6)

    def test_unimodal_on_log_grid(self):
        grid = np.geomspace(0.1, 1e4, 1000)
        vals = np.array([bayes_risk(FIG2, UNIFORM, r) for r in grid])
        minima = sum(1 for i in range(1, len(vals) - 1)
                     if vals[i] < vals[i - 1] and vals[i] < vals[i + 1])
        assert minima == 1
        assert vals[1] < vals[0] and vals[-1] >= vals[-2]


class TestOptimalRadius:
    def test_fig2_reference(self):
        opt = optimal_radius(FIG2, UNIFORM)
        assert opt.exists
        assert opt.r_O == pytest.approx(21.11, abs=0.01)

    def test_matches_grid_argmin(self):
        opt = optimal_radius(FIG2, UNIFORM)
        grid = np.geomspace(1.0, 500.0, 4000)
        vals = [bayes_risk(FIG2, UNIFORM, r) for r in grid]
        assert opt.r_O == pytest.approx(grid[int(np.argmin(vals))], rel=2e-3)
        assert opt.risk == pytest.approx(min(vals), rel=1e-6)

    def test_minimized_risk_identity(self):
        opt = optimal_radius(FIG2, UNIFORM)
        assert opt.risk == pytest.approx(
            bayes_risk(FIG2, UNIFORM, opt.r_O), rel=1e-10)

    def test_nonexistence_tagged(self):
        # strong noise: the optimality condition fails and the boundary
        # value P(failure-cost at infinite radius) is reported
        noisy = ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10,
                            eta=1e-2)
        opt = optimal_radius(noisy, UNIFORM)
        assert not opt.exists
        assert math.isinf(opt.r_O)
        assert opt.risk == pytest.approx(prior_success(noisy))

    def test_asymmetric_costs_shift_radius(self):
        lenient = optimal_radius(FIG2, CostMatrix(0, 1, 5, 0))
        assert lenient.exists
        # costlier false 'success' calls demand a larger guard zone
        assert lenient.r_O > optimal_radius(FIG2, UNIFORM).r_O


class TestSensitivities:
    SCENARIOS = [FIG2,
                 ModelParams(n=2, density=5e-4, alpha=3.5, beta=2, r_T=8),
                 ModelParams(n=1, density=1e-2, alpha=2.2, beta=4, r_T=3)]

    @pytest.mark.parametrize("p", SCENARIOS)
    def test_positive(self, p):
        d_dlam, d_dsig = sensitivities(p, UNIFORM)
        assert d_dlam > 0 and d_dsig > 0

    @pytest.mark.parametrize("p", SCENARIOS)
    def test_against_finite_differences(self, p):
        from dataclasses import replace
        d_dlam, d_dsig = sensitivities(p, UNIFORM)
        h = 1e-6
        lam, beta = p.density, p.beta
        r_up = optimal_radius(replace(p, density=lam * (1 + h)), UNIFORM).r_O
        r_dn = optimal_radius(replace(p, density=lam * (1 - h)), UNIFORM).r_O
        assert d_dlam == pytest.approx((r_up - r_dn) / (2 * h * lam), rel=1e-3)
        # sigma enters only through beta * r_T**alpha; vary beta
        sigma = derive(p).sigma
        r_up = optimal_radius(replace(p, beta=beta * (1 + h)), UNIFORM).r_O
        r_dn = optimal_radius(replace(p, beta=beta * (1 - h)), UNIFORM).r_O
        assert d_dsig == pytest.approx((r_up - r_dn) / (2 * h * sigma),
                                       rel=1e-3)

    def test_rejects_noise(self):
        noisy = ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10,
                            eta=1e-6)
        with pytest.raises(ValueError):
            sensitivities(noisy, UNIFORM)


class TestTypeErrors:
    def test_identity_rule_from_joint(self):
        r_O = 30.0
        p_i, p_ii = type_errors(FIG2, r_O, SingleObsRule.identity())
        pD = evidence_success(FIG2, r_O)
        t = posterior(FIG2, r_O)
        pH = prior_success(FIG2)
        assert p_i == pytest.approx(t.p_h0_d1 * pD / (1 - pH), rel=1e-10)
        assert p_ii == pytest.approx(t.p_h1_d0 * (1 - pD) / pH, rel=1e-10)

    def test_constant_rules(self):
        p_i, p_ii = type_errors(FIG2, 30.0, SingleObsRule.always(1))
        assert (p_i, p_ii) == (1.0, 0.0)
        p_i, p_ii = type_errors(FIG2, 30.0, SingleObsRule.always(0))
        assert (p_i, p_ii) == (0.0, 1.0)

    def test_complement_mirrors_identity(self):
        p_i, p_ii = type_errors(FIG2, 30.0, SingleObsRule.identity())
        q_i, q_ii = type_errors(FIG2, 30.0, SingleObsRule.complement())
        assert q_i == pytest.approx(1.0 - p_i)
        assert q_ii == pytest.approx(1.0 - p_ii)

    @pytest.mark.parametrize("p", [FIG2, NOISY, FIG4])
    @pytest.mark.parametrize("ratio", SMALL_TO_LARGE)
    def test_identity_rule_against_quadrature(self, p, ratio):
        # p_I = P(D=1 | H=0) = (e^-B - e^(-A-C)) / (1 - e^-A) and
        # p_II = P(D=0 | H=1) = 1 - e^-C, of order r_O**(alpha+n); the
        # risk crossing's right side is -T = -A + B - C
        r_O = ratio * p.r_T
        A, B, C = joint_exponents(p, r_O)
        T = outside_exponent(p, r_O)
        with mpmath.workdps(30):
            ref_i = (mpmath.exp(-B) - mpmath.exp(-A - C)) / -mpmath.expm1(-A)
            ref_ii = -mpmath.expm1(-C)
        p_i, p_ii = type_errors(p, r_O, SingleObsRule.identity())
        # e^-B underflows to 0 from r_O = 1e3 r_T on
        assert p_i == pytest.approx(float(ref_i), rel=1e-10, abs=1e-300)
        assert p_ii == pytest.approx(float(ref_ii), rel=1e-10, abs=0.0)
        assert _f_right(p, r_O) == pytest.approx(-float(T), rel=1e-10, abs=0.0)

    def test_all_rules_bounded(self):
        for rule in ALL_SINGLE_OBS_RULES:
            for r in (1.0, 20.0, 300.0):
                p_i, p_ii = type_errors(FIG2, r, rule)
                assert 0.0 <= p_i <= 1.0 and 0.0 <= p_ii <= 1.0


class TestOperatingPoints:
    def test_ordering(self):
        # r_T <= r_DI <= r_MM whenever beta >= 1
        ops = operating_points(FIG2)
        assert FIG2.r_T <= ops.r_DI <= ops.r_MM

    def test_dominant_interferer_radius(self):
        ops = operating_points(FIG2)
        assert ops.r_DI == pytest.approx(5000.0 ** (1 / 3), rel=1e-12)

    def test_equal_error(self):
        ops = operating_points(FIG2)
        p_i, p_ii = type_errors(FIG2, ops.r_EE, SingleObsRule.identity())
        assert abs(p_i - p_ii) < 1e-9

    def test_matched_mean_radius(self):
        # at r_MM the void probability equals the prior success probability
        ops = operating_points(FIG2)
        assert evidence_success(FIG2, ops.r_MM) == pytest.approx(
            prior_success(FIG2), rel=1e-10)

    def test_r_di_none_when_noise_dominates(self):
        noisy = ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10,
                            eta=2.5e-4)  # 1/sigma = 2e-4 < eta
        assert operating_points(noisy).r_DI is None


class TestRocCurve:
    def test_row_count_and_endpoints(self):
        grid = np.geomspace(0.05, 5000.0, 50)
        pts = roc_curve(FIG2, grid)
        assert len(pts) == 50
        # small radius: (p_I, p_II) -> (1, 0); large: -> (0, 1)
        assert pts[0].p_I > 0.99 and pts[0].p_II < 0.01
        assert pts[-1].p_I < 0.01 and pts[-1].p_II > 0.99

    def test_risk_decomposition(self):
        pH = prior_success(FIG2)
        for pt in roc_curve(FIG2, [5.0, 25.0, 80.0]):
            assert pt.risk == pytest.approx(
                pt.p_I * (1 - pH) + pt.p_II * pH, rel=1e-12)

    def test_rejects_unsorted_grid(self):
        with pytest.raises(ValueError):
            roc_curve(FIG2, [10.0, 5.0])

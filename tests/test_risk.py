"""Bayes risk, the optimal radius, sensitivities, errors, and the ROC."""

import math
from dataclasses import astuple, replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings

from guardzone.correlation import rho
from guardzone.multi_obs import DecisionRuleTable, _uniform_risk
from guardzone.params import ModelParams, derive, radius_of_chi
from guardzone.risk import (CostMatrix, _f_right, bayes_risk,
                            bayes_risk_derivative, operating_points,
                            optimal_radius, sensitivities, type_errors)
from guardzone.single_obs import evidence_success, posterior, prior_success
from test_single_obs import (AS_ARRAY, FIG4, NOISY, SMALL_TO_LARGE,
                             joint_exponents, outside_exponent)
from test_specfn import assert_each_alone, straddling_grids

FIG2 = ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10)
UNIFORM = CostMatrix.uniform()
ASYMMETRIC = CostMatrix(0.1, 2.0, 0.7, 0.2)
# every rule of one observation: identity, complement, always 0, always 1
N0_RULES = [DecisionRuleTable(N=0, bits=b) for b in ("01", "10", "00", "11")]


def joint_cells(p, r_O):
    """Independent P(d, h), keyed (d, h), as 50-digit mpf: the prior
    e^-A, the evidence e^-B, their joint e^(-A-C) and e^-T from the
    quadratures of test_single_obs, and the busy-zone failure by
    completeness, 1 - e^-B - e^-A + e^(-A-C), which cancels at most 18 of
    those digits over the radii and densities tested here."""
    A, B, C = joint_exponents(p, r_O)
    T = outside_exponent(p, r_O)
    with mpmath.workdps(50):
        both = mpmath.exp(-A - C)
        return {(1, 1): both, (1, 0): mpmath.exp(-B) * -mpmath.expm1(-T),
                (0, 1): mpmath.exp(-A) * -mpmath.expm1(-C),
                (0, 0): 1 - mpmath.exp(-B) - mpmath.exp(-A) + both}


def risk_oracle(p, cost, r_O):
    """Expected cost of following the observation, c_dh P(d, h) summed
    over the cells of :func:`joint_cells`."""
    with mpmath.workdps(50):
        return float(sum(getattr(cost, f"c{d}{h}") * cell
                         for (d, h), cell in joint_cells(p, r_O).items()))


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
    @pytest.mark.parametrize("cost", [UNIFORM, ASYMMETRIC])
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


class TestRiskDerivative:
    @pytest.mark.parametrize("p", [FIG2, FIG4, NOISY,
                                   ModelParams(n=1, density=5e-3, alpha=2.5,
                                               beta=3, r_T=5)])
    @pytest.mark.parametrize("cost", [UNIFORM, CostMatrix(0.1, 2.0, 1.5, 0.2)])
    def test_matches_central_difference(self, p, cost):
        # the risk report's grid; a difference quotient carries the
        # rounding of the two risks, a few ulp over 2h
        r = np.geomspace(0.01 * p.r_T, 100.0 * p.r_T, 400)
        h = 1e-6 * r
        fd = (bayes_risk(p, cost, r + h) - bayes_risk(p, cost, r - h)) / (2 * h)
        got = bayes_risk_derivative(p, cost, r)
        assert np.all(np.abs(got - fd)
                      <= 1e-6 * np.abs(got) + 4 * np.spacing(1.0) / h)
        assert got[:10].tolist() == [bayes_risk_derivative(p, cost, x)
                                     for x in r[:10].tolist()]

    def test_zero_at_optimum(self):
        for cost in (UNIFORM, CostMatrix(0.1, 2.0, 1.5, 0.2)):
            opt = optimal_radius(FIG2, cost)
            slope = bayes_risk_derivative(FIG2, cost,
                                          np.array([0.9, 1.1]) * opt.r_O)
            assert slope[0] < 0 < slope[1]
            at_optimum = bayes_risk_derivative(FIG2, cost, opt.r_O)
            assert abs(at_optimum) < 1e-12 * abs(slope[0])


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
        p_i, p_ii = type_errors(FIG2, r_O,
                                DecisionRuleTable.follow_observation(0))
        pD = evidence_success(FIG2, r_O)
        t = posterior(FIG2, r_O)
        pH = prior_success(FIG2)
        assert p_i == pytest.approx(t.p_h0_d1 * pD / (1 - pH), rel=1e-10)
        assert p_ii == pytest.approx(t.p_h1_d0 * (1 - pD) / pH, rel=1e-10)

    def test_constant_rules(self):
        p_i, p_ii = type_errors(FIG2, 30.0, DecisionRuleTable.constant(0, 1))
        assert (p_i, p_ii) == (1.0, 0.0)
        p_i, p_ii = type_errors(FIG2, 30.0, DecisionRuleTable.constant(0, 0))
        assert (p_i, p_ii) == (0.0, 1.0)

    def test_complement_mirrors_identity(self):
        p_i, p_ii = type_errors(FIG2, 30.0,
                                DecisionRuleTable.follow_observation(0))
        q_i, q_ii = type_errors(FIG2, 30.0,
                                DecisionRuleTable.contradict_observation(0))
        assert q_i == pytest.approx(1.0 - p_i)
        assert q_ii == pytest.approx(1.0 - p_ii)

    @pytest.mark.parametrize("p", [FIG2, NOISY, FIG4])
    @pytest.mark.parametrize("ratio", SMALL_TO_LARGE + [AS_ARRAY])
    def test_identity_rule_against_quadrature(self, p, ratio):
        # p_I = P(D=1 | H=0) = (e^-B - e^(-A-C)) / (1 - e^-A) and
        # p_II = P(D=0 | H=1) = 1 - e^-C, of order r_O**(alpha+n); the
        # risk crossing's right side is -T = -A + B - C
        r_O = ratio * p.r_T
        ref_i, ref_ii, ref_T = [], [], []
        for r in np.atleast_1d(r_O):
            A, B, C = joint_exponents(p, float(r))
            ref_T.append(-float(outside_exponent(p, float(r))))
            with mpmath.workdps(30):
                ref_i.append(float(
                    (mpmath.exp(-B) - mpmath.exp(-A - C)) / -mpmath.expm1(-A)))
                ref_ii.append(float(-mpmath.expm1(-C)))
        p_i, p_ii = type_errors(p, r_O, DecisionRuleTable.follow_observation(0))
        # e^-B underflows to 0 from r_O = 1e3 r_T on
        assert np.atleast_1d(p_i) == pytest.approx(np.array(ref_i), rel=1e-10,
                                                   abs=1e-300)
        assert np.atleast_1d(p_ii) == pytest.approx(np.array(ref_ii), rel=1e-10,
                                                    abs=0.0)
        assert np.atleast_1d(_f_right(p, r_O)) == pytest.approx(
            np.array(ref_T), rel=1e-10, abs=0.0)

    def test_all_rules_bounded(self):
        for rule in N0_RULES:
            for r in (1.0, 20.0, 300.0):
                p_i, p_ii = type_errors(FIG2, r, rule)
                assert 0.0 <= p_i <= 1.0 and 0.0 <= p_ii <= 1.0

    def test_rejects_multi_slot_rule(self):
        with pytest.raises(ValueError):
            type_errors(FIG2, 30.0, DecisionRuleTable.follow_observation(1))


class TestDensitySweep:
    # fig1 geometry over eight decades of density: A is 0.44 at 2e-4 and
    # 4.4e-9 at 2e-12, where P(d=0, h=0) falls to A next to P(d=0) ~ 1
    RADII = [1e-3, 1.0, 30.0, 300.0, 3e3, 1e5, 1e6, 1e7]

    @pytest.mark.parametrize("density", [2e-4, 2e-8, 2e-12])
    def test_busy_failure_cell_against_quadrature(self, density):
        # what is built from the busy-zone failure cell, within 1e-13 of
        # the 50-digit cells at eight radii and the optimal one; every
        # value here is above 1e-290, so none is let off
        p = replace(FIG2, density=density)
        opt = optimal_radius(p, UNIFORM)
        r_O = np.array(self.RADII + [opt.r_O])
        got = {"p_h0_d0": posterior(p, r_O).p_h0_d0,
               "complement p_I": type_errors(p, r_O, N0_RULES[1])[0],
               "uniform risk": bayes_risk(p, UNIFORM, r_O),
               "asymmetric risk": bayes_risk(p, ASYMMETRIC, r_O),
               "optimal risk": np.array([opt.risk])}
        want = {name: [] for name in got}
        for r in r_O.tolist():
            cell = joint_cells(p, r)
            with mpmath.workdps(50):
                want["p_h0_d0"].append(cell[0, 0] / (cell[0, 0] + cell[0, 1]))
                want["complement p_I"].append(
                    cell[0, 0] / (cell[0, 0] + cell[1, 0]))
        want["uniform risk"] = [risk_oracle(p, UNIFORM, r) for r in r_O]
        want["asymmetric risk"] = [risk_oracle(p, ASYMMETRIC, r) for r in r_O]
        want["optimal risk"] = want["uniform risk"][-1:]
        for name, value in got.items():
            assert value == pytest.approx(np.array(want[name], float),
                                          rel=1e-13, abs=0.0), name
        for rule in N0_RULES:
            for errors in type_errors(p, r_O, rule):
                assert np.all((0.0 <= errors) & (errors <= 1.0)), rule


class TestGridIndependence:
    @pytest.mark.parametrize("p", [FIG2, FIG4])
    @given(straddling_grids())
    @settings(max_examples=50, deadline=None)
    def test_each_radius_alone(self, p, chi):
        # every closed form over a grid of chi = r_O**alpha/sigma that
        # straddles both splits of specfn, at delta = 2/3 (fig1) and 1/2
        r_O = radius_of_chi(derive(p), chi)
        rule = DecisionRuleTable.follow_observation(0)
        assert_each_alone(lambda r: astuple(posterior(p, r)), r_O)
        assert_each_alone(lambda r: evidence_success(p, r), r_O)
        assert_each_alone(lambda r: type_errors(p, r, rule), r_O)
        assert_each_alone(lambda c: rho(p, c), chi)


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
        p_i, p_ii = type_errors(FIG2, ops.r_EE,
                                DecisionRuleTable.follow_observation(0))
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
    FOLLOW = DecisionRuleTable.follow_observation(0)

    def test_row_count_and_endpoints(self):
        grid = np.geomspace(0.05, 5000.0, 50)
        p_i, p_ii = type_errors(FIG2, grid, self.FOLLOW)
        assert len(p_i) == len(p_ii) == 50
        # small radius: (p_I, p_II) -> (1, 0); large: -> (0, 1)
        assert p_i[0] > 0.99 and p_ii[0] < 0.01
        assert p_i[-1] < 0.01 and p_ii[-1] > 0.99

    def test_risk_decomposition(self):
        pH = prior_success(FIG2)
        p_i, p_ii = type_errors(FIG2, np.array([5.0, 25.0, 80.0]), self.FOLLOW)
        for a, b, risk in zip(p_i, p_ii, _uniform_risk(FIG2, p_i, p_ii)):
            assert risk == pytest.approx(a * (1 - pH) + b * pH, rel=1e-12)

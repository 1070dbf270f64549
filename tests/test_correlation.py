"""Correlation curve shape, the maximizing chi, and its limiting value."""

import math

import numpy as np
import pytest

from guardzone import correlation, specfn
from guardzone.params import ModelParams, derive
from guardzone.single_obs import (_scale, evidence_success, posterior,
                                  prior_success)

FIG1 = ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10)
CHIS = [1e-3, 0.3, 1.0, 2.08, 15.0, 1e3]


def rho_oracle(p, chi):
    """Correlation assembled from first principles: the Pearson formula on
    the joint Bernoulli distribution of (physical, protocol) success."""
    d = derive(p)
    r_O = (chi * d.sigma) ** (1.0 / d.alpha)
    pH = prior_success(p)
    pD = evidence_success(p, r_O)
    pHD = posterior(p, r_O).p_h1_d1 * pD
    return (pHD - pH * pD) / math.sqrt(pH * (1 - pH) * pD * (1 - pD))


class TestRho:
    @pytest.mark.parametrize("chi", CHIS + [
        pytest.param(np.array(CHIS), id="array")])
    def test_matches_first_principles(self, chi):
        ref = [rho_oracle(FIG1, c) for c in np.atleast_1d(chi)]
        assert np.atleast_1d(correlation.rho(FIG1, chi)) == pytest.approx(
            np.array(ref), rel=1e-9)

    def test_positive_association(self):
        grid = np.geomspace(1e-3, 1e4, 60)
        assert all(correlation.rho(FIG1, c) > 0 for c in grid)

    def test_vanishes_at_extremes(self):
        assert correlation.rho(FIG1, 1e-9) < 1e-3
        assert correlation.rho(FIG1, 1e12) < 1e-3

    def test_curve_wrapper(self):
        grid = np.geomspace(0.1, 10, 20)
        curve = correlation.rho_curve(FIG1, grid)
        assert len(curve.rho_values) == 20
        # numpy's exp and libm's differ in the last bits, by up to 7e-15
        # relative once amplified here
        assert curve.rho_values == pytest.approx(
            [correlation.rho(FIG1, float(c)) for c in grid], rel=1e-13)


class TestCrossingCurves:
    FIG4 = ModelParams(n=2, density=2e-3, alpha=4, beta=5, r_T=10)
    # B(1) = a > 709, so exp(B) overflows where 1 - chi vanishes
    HUGE = ModelParams(n=2, density=1.0, alpha=3, beta=5, r_T=10)

    @pytest.mark.parametrize("f", [correlation.f1, correlation.f2])
    def test_overflow_is_minus_inf_on_both_paths(self, f):
        # exp(B) and exp(C) overflow beyond chi ~ 1e5 here; RuntimeWarnings
        # are errors in this suite, so the array path must not warn
        grid = np.geomspace(1e-6, 1e6, 97)
        arr = f(self.FIG4, grid)
        flt = np.array([f(self.FIG4, float(c)) for c in grid])
        assert np.isneginf(arr[-1]) and np.isneginf(flt[-1])
        assert np.array_equal(np.isinf(arr), np.isinf(flt))
        assert np.array_equal(arr[np.isinf(arr)], flt[np.isinf(flt)])
        finite = np.isfinite(arr)
        assert arr[finite] == pytest.approx(flt[finite], rel=1e-13, abs=1e-13)

    def test_f1_zero_at_unit_chi_float(self):
        assert correlation.f1(self.HUGE, 1.0) == 0.0

    def test_f1_zero_at_unit_chi_array(self):
        arr = correlation.f1(self.HUGE, np.array([0.5, 1.0, 2.0]))
        assert arr[1] == 0.0 and np.isneginf(arr[2])
        assert arr[0] == correlation.f1(self.HUGE, 0.5)


class TestChiStar:
    def test_fig1_value(self):
        assert correlation.chi_star(FIG1) == pytest.approx(2.08, abs=0.02)

    def test_crossing_characterization(self):
        cs = correlation.chi_star(FIG1)
        assert correlation.f1(FIG1, cs) == pytest.approx(
            correlation.f2(FIG1, cs), rel=1e-9)

    def test_is_global_max_on_grid(self):
        cs = correlation.chi_star(FIG1)
        peak = correlation.rho(FIG1, cs)
        grid = np.geomspace(1e-3, 1e4, 500)
        assert all(correlation.rho(FIG1, c) <= peak + 1e-12 for c in grid)

    def test_stationary_by_finite_difference(self):
        cs = correlation.chi_star(FIG1)
        h = 1e-6 * cs
        deriv = (correlation.rho(FIG1, cs + h)
                 - correlation.rho(FIG1, cs - h)) / (2 * h)
        assert abs(deriv) < 1e-8

    def test_exceeds_unit_chi(self):
        # the maximizer always lies beyond the matched radius chi = 1
        for scale in (0.25, 1.0, 4.0):
            p = ModelParams(n=2, density=2e-4 * scale, alpha=3, beta=5, r_T=10)
            assert correlation.chi_star(p) > 1.0


class TestLowDensityLimit:
    @pytest.mark.parametrize("delta", [1 / 3, 0.5, 2 / 3])
    def test_coeff_to_zero_converges(self, delta):
        limit = correlation.chi_star_low_density_limit(delta)
        assert correlation.chi_star_from_coeff(1e-8, delta) == pytest.approx(
            limit, rel=1e-4)

    def test_limit_solves_defining_equation(self):
        from guardzone import specfn
        for delta in (1 / 3, 0.5, 2 / 3):
            chi = correlation.chi_star_low_density_limit(delta)
            lhs = specfn.int_I(chi, delta)
            rhs = (chi - 1) / (chi + 1) * chi**delta
            assert lhs == pytest.approx(rhs, rel=1e-9)

    def test_sweep_monotone_in_coeff(self):
        # chi_star decreases toward its low-density limit as the scale grows?
        # No ordering is claimed in general; just check continuity of the sweep.
        vals = [correlation.chi_star_from_coeff(a, 2 / 3)
                for a in np.geomspace(1e-4, 1.0, 30)]
        diffs = np.abs(np.diff(vals))
        assert np.max(diffs) < 0.5


class TestArrayChiStar:
    """chi_star_from_coeff on an array of scales: one call, the same roots."""

    SWEEP = np.geomspace(1e-3, 10.0, 50)

    @pytest.mark.parametrize("delta", [1 / 3, 0.5, 2 / 3])
    def test_matches_float_path(self, delta):
        scales = np.concatenate([self.SWEEP, np.geomspace(1e-4, 1.0, 30),
                                 [1e-8, 0.25, 1.0, 4.0]])
        roots = correlation.chi_star_from_coeff(scales, delta)
        assert roots.shape == scales.shape
        assert roots == pytest.approx(
            [correlation.chi_star_from_coeff(float(a), delta) for a in scales],
            rel=1e-13)

    def test_matches_scenarios(self):
        ps = [ModelParams(n=2, density=2e-4 * s, alpha=3, beta=5, r_T=10)
              for s in (1.0, 0.25, 4.0)]
        roots = correlation.chi_star_from_coeff(
            [_scale(p, derive(p)) for p in ps], derive(FIG1).delta)
        assert roots == pytest.approx([correlation.chi_star(p) for p in ps],
                                      rel=1e-13)

    def test_root_on_a_grid_node(self, monkeypatch):
        # a residual that vanishes exactly on the 21st node of each grid,
        # so no bracket is left to refine
        for scales in (0.5, np.array([0.5, 2.0])):
            state = {}

            def resid(a, delta, chi):
                if "node" not in state:  # the first call is the grid's
                    state["node"] = chi[20]
                return state["node"] - chi if chi.size else chi

            monkeypatch.setattr(correlation, "_stationarity", resid)
            got = correlation.chi_star_from_coeff(scales, 0.5)
            assert np.array_equal(got, state["node"])

    def test_tiny_scale(self):
        # chi_hat ~ 2/(a kappa) ~ 1.3e30, far beyond where (chi+1)/(chi-1)
        # rounds to 1; chi* is the low-density limit
        a, delta = 1e-30, 0.5
        assert correlation._chi_hat(a, delta) == pytest.approx(
            2.0 / (a * specfn.kappa(delta)), rel=1e-9)
        assert correlation._chi_hat(np.array([a]), delta)[0] == pytest.approx(
            2.0 / (a * specfn.kappa(delta)), rel=1e-9)
        limit = correlation.chi_star_low_density_limit(delta)
        assert limit == pytest.approx(1.93695, abs=1e-5)
        assert correlation.chi_star_from_coeff(a, delta) == pytest.approx(
            limit, rel=1e-12)
        assert correlation.chi_star_from_coeff(np.array([a, 1e-3]), delta)[0] \
            == pytest.approx(limit, rel=1e-12)

    def test_bracket_error(self, monkeypatch):
        # with B - C held negative, chi_hat is never bracketed
        monkeypatch.setattr(correlation, "_BmC",
                            lambda a, delta, chi: 0.0 * (a * chi) - 1.0)
        with pytest.raises(correlation.BracketError, match="chi_hat"):
            correlation.chi_star_from_coeff(np.array([1.0, 2.0]), 0.5)

    def test_no_stationary_point(self, monkeypatch):
        monkeypatch.setattr(correlation, "_stationarity",
                            lambda a, delta, chi: -np.ones(np.shape(chi)))
        for scales in (0.5, np.array([0.5, 2.0])):
            with pytest.raises(correlation.BracketError,
                               match="no stationary point"):
                correlation.chi_star_from_coeff(scales, 0.5)

    def test_non_convergence(self, monkeypatch):
        monkeypatch.setattr(specfn, "_MAX_ITER", 2)
        for scales in (0.5, self.SWEEP):
            with pytest.raises(RuntimeError, match="did not converge"):
                correlation.chi_star_from_coeff(scales, 0.5)

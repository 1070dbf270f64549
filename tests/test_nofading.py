"""No-fading branch: Levy prior, transform identities, and the inversion."""

import cmath
import math

import mpmath
import numpy as np
import pytest

from guardzone.nofading import (IltConfig, IltConvergenceError, J,
                                levy_prior, lt_nofade_given_void,
                                posterior_nofade, rho_nofade)
from guardzone.params import ModelParams, derive
from guardzone.single_obs import evidence_success

FIG4 = ModelParams(n=2, density=2e-3, alpha=4, beta=5, r_T=10)
HALF_SCENARIOS = [FIG4,
                  ModelParams(n=1, density=5e-3, alpha=2, beta=3, r_T=5),
                  ModelParams(n=2, density=5e-4, alpha=4, beta=2, r_T=12)]


def levy_cdf_oracle(p, x):
    """P(I <= x) for the one-sided 1/2-stable law via its explicit density,
    integrated independently with mpmath."""
    d = derive(p)
    c = p.density * d.c_n
    # Levy scale: I =d (pi/2) * c^2 / Z with Z ~ chi^2_1-like; use the
    # standard Levy(0, s) density with s = (pi/2) * c^2
    s = (math.pi / 2.0) * c * c
    dens = lambda y: mpmath.sqrt(s / (2 * mpmath.pi)) * mpmath.exp(
        -s / (2 * y)) / y ** 1.5
    return float(mpmath.quad(dens, [0, x]))


class TestLevyPrior:
    def test_fig4_reference(self):
        assert levy_prior(FIG4) == pytest.approx(0.0783, abs=2e-4)

    @pytest.mark.parametrize("p", HALF_SCENARIOS)
    def test_against_stable_density(self, p):
        d = derive(p)
        assert levy_prior(p) == pytest.approx(
            levy_cdf_oracle(p, 1.0 / d.sigma), rel=1e-8)

    def test_rejects_wrong_exponent(self):
        with pytest.raises(ValueError):
            levy_prior(ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10))

    def test_rejects_unreachable_threshold(self):
        with pytest.raises(ValueError):
            levy_prior(ModelParams(n=2, density=2e-3, alpha=4, beta=5,
                                   r_T=10, eta=1.0))


class TestJ:
    def test_unbounded_u_limit(self):
        # J(s, u) -> sqrt(pi*s) as the guard zone vanishes (u -> inf)
        s = 2.0 + 1.0j
        assert J(s, 1e12) == pytest.approx(cmath.sqrt(math.pi * s), rel=1e-5)

    def test_against_quadrature(self):
        s, u = 3.0, 0.02
        oracle = 0.5 * mpmath.quad(
            lambda y: (1 - mpmath.exp(-s * y)) * y ** -1.5, [0, u])
        assert J(s, u) == pytest.approx(complex(oracle), rel=1e-8)

    def test_small_s_vanishes(self):
        assert abs(J(1e-12, 0.01)) < 1e-5

    def test_rejects_left_half_plane(self):
        with pytest.raises(ValueError):
            J(-1.0, 0.01)


class TestConditionalTransform:
    def test_unit_at_origin(self):
        assert lt_nofade_given_void(FIG4, 10.0, 0.0) == pytest.approx(1.0)

    def test_monte_carlo_free_quadrature(self):
        # independent form: exponent = density*c_n*n *
        #   int_{r_O}^inf (1 - exp(-s r^-alpha)) r^(n-1) dr
        p, r_O, s = FIG4, 15.0, 5e4
        d = derive(p)
        expo = p.density * d.c_n * p.n * mpmath.quad(
            lambda r: (1 - mpmath.exp(-s * r ** -p.alpha)) * r ** (p.n - 1),
            [r_O, mpmath.inf])
        assert lt_nofade_given_void(p, r_O, s) == pytest.approx(
            float(mpmath.exp(-expo)), rel=1e-9)


class TestInversion:
    @pytest.mark.parametrize("p", HALF_SCENARIOS)
    def test_anchor_matches_levy_prior(self, p):
        # a vanishing guard zone removes the conditioning entirely
        res = posterior_nofade(p, 1e-3 * p.r_T)
        assert res.value == pytest.approx(levy_prior(p), abs=1e-4)

    def test_monotone_in_radius(self):
        grid = np.geomspace(1.0, 60.0, 25)
        vals = [posterior_nofade(FIG4, r).value for r in grid]
        assert all(b >= a - 1e-9 for a, b in zip(vals, vals[1:]))

    def test_error_estimate_honest(self):
        res = posterior_nofade(FIG4, 20.0)
        tight = posterior_nofade(FIG4, 20.0,
                                 IltConfig(terms=96, max_doublings=4))
        assert abs(res.value - tight.value) <= 10 * max(res.error_estimate,
                                                        1e-12)

    def test_convergence_failure_raises(self):
        cfg = IltConfig(terms=8, precision_target=1e-30, max_doublings=1)
        with pytest.raises(IltConvergenceError):
            posterior_nofade(FIG4, 20.0, cfg)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            IltConfig(terms=4)
        with pytest.raises(ValueError):
            IltConfig(precision_target=0.0)


class TestRhoNofade:
    def test_positive_and_bounded(self):
        for r in (5.0, 15.0, 25.0):
            val = rho_nofade(FIG4, r)
            assert 0.0 < val < 1.0

    def test_first_principles_assembly(self):
        r = 18.0
        prior = levy_prior(FIG4)
        post = posterior_nofade(FIG4, r).value
        pD = evidence_success(FIG4, r)
        expected = (post - prior) * pD / math.sqrt(
            prior * (1 - prior) * pD * (1 - pD))
        assert rho_nofade(FIG4, r) == pytest.approx(expected, rel=1e-9)

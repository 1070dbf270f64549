"""Prior/evidence/posterior identities, limits, and oracle agreement."""

import functools
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardzone.params import ModelParams, derive
from guardzone.single_obs import (abc_terms, evidence_success, posterior,
                                  prior_success)

FIG1 = ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10)
NOISY = ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10, eta=1e-5)
FIG4 = ModelParams(n=2, density=2e-3, alpha=4, beta=5, r_T=10)


def prior_oracle(p):
    """Independent prior: exp(-sigma*eta) times the interference LT at
    sigma, computed by direct quadrature of the exponent
    density * c_n * n * int_0^inf (1 - 1/(1+sigma r^-alpha)) r^(n-1) dr."""
    d = derive(p)
    scale = d.sigma ** (1.0 / p.alpha)  # where the integrand transitions
    with mpmath.workdps(30):
        expo = p.density * d.c_n * p.n * mpmath.quad(
            lambda r: (1 - 1 / (1 + d.sigma * r ** -p.alpha)) * r ** (p.n - 1),
            [0, scale, 100 * scale, 1e4 * scale, mpmath.inf])
        return float(mpmath.exp(-d.sigma * p.eta - expo))


@functools.cache
def joint_exponents(p, r_O):
    """Independent (A, B, C) with P(H=1) = exp(-A), P(D=1) = exp(-B) and
    P(H=1, D=1) = exp(-A-C), from the model's definition by quadrature.

    Clearing the ball of radius r_O removes its share of the interference
    exponent and costs its void probability, which leaves
    C = density * c_n * n * int_0^r_O r**(alpha+n-1) / (r**alpha + sigma) dr.
    """
    d = derive(p)
    scale = d.sigma ** (1.0 / p.alpha)
    with mpmath.workdps(30):
        c = p.density * d.c_n * p.n
        A = d.sigma * p.eta + c * mpmath.quad(
            lambda r: d.sigma * r ** (p.n - 1) / (r**p.alpha + d.sigma),
            [0, scale, 100 * scale, 1e4 * scale, mpmath.inf])
        r_O = mpmath.mpf(r_O)
        B = p.density * d.c_n * r_O**p.n
        # over x = r / r_O, so that the quadrature sees a unit interval
        C = c * r_O ** (p.alpha + p.n) * mpmath.quad(
            lambda x: x ** (p.alpha + p.n - 1) / ((r_O * x) ** p.alpha + d.sigma),
            sorted({0, min(scale / r_O, 1), 1}))
    return A, B, C


@functools.cache
def outside_exponent(p, r_O):
    """Independent T = A - (B - C) with P(H=1 | D=1) = exp(-T): the noise
    term plus the interference exponent of the nodes outside the ball,
    density * c_n * n * int_r_O^inf sigma * r**(n-1) / (r**alpha + sigma) dr,
    by quadrature over x = r / r_O. Taken directly, because at large r_O
    it is small next to A, B and C."""
    d = derive(p)
    scale = d.sigma ** (1.0 / p.alpha)
    with mpmath.workdps(30):
        r_O = mpmath.mpf(r_O)
        knee = max(scale / r_O, 1)
        return d.sigma * p.eta + p.density * d.c_n * p.n * r_O**p.n * mpmath.quad(
            lambda x: d.sigma * x ** (p.n - 1) / ((r_O * x) ** p.alpha + d.sigma),
            sorted({1, knee, 100 * knee, 1e4 * knee}) + [mpmath.inf])


# r_O / r_T from 1e-6 to 1e5
SMALL_TO_LARGE = [10.0**k for k in range(-6, 6)]
# the same radii as one array, for the closed forms that take arrays
AS_ARRAY = pytest.param(np.array(SMALL_TO_LARGE), id="array")


class TestPrior:
    def test_fig1_reference(self):
        assert prior_success(FIG1) == pytest.approx(0.6414, abs=5e-4)

    @pytest.mark.parametrize("p", [FIG1, NOISY,
                                   ModelParams(1, 5e-3, 2.5, 2, 4),
                                   ModelParams(3, 1e-5, 4.5, 3, 6)])
    def test_against_quadrature(self, p):
        assert prior_success(p) == pytest.approx(prior_oracle(p), rel=1e-9)


class TestEvidence:
    def test_void_probability(self):
        # planar: exp(-density * pi * r^2)
        assert evidence_success(FIG1, 50.0) == pytest.approx(
            math.exp(-2e-4 * math.pi * 2500.0), rel=1e-12)

    def test_decreasing_in_radius(self):
        vals = [evidence_success(FIG1, r) for r in (1, 10, 50, 200)]
        assert all(a > b for a, b in zip(vals, vals[1:]))


class TestPosterior:
    def test_columns_sum_to_one(self):
        t = posterior(FIG1, 30.0)
        assert t.p_h1_d1 + t.p_h0_d1 == pytest.approx(1.0)
        assert t.p_h1_d0 + t.p_h0_d0 == pytest.approx(1.0)

    @given(st.floats(1e-3, 1e4))
    @settings(max_examples=100, deadline=None)
    def test_total_probability(self, r_O):
        # p_H(1) = p(1|1) p_D(1) + p(1|0) p_D(0), residual < 1e-10
        t = posterior(FIG1, r_O)
        pD = evidence_success(FIG1, r_O)
        residual = prior_success(FIG1) - (t.p_h1_d1 * pD + t.p_h1_d0 * (1 - pD))
        assert abs(residual) < 1e-10

    @given(st.floats(1e-3, 1e4))
    @settings(max_examples=100, deadline=None)
    def test_clear_zone_is_good_news(self, r_O):
        t = posterior(FIG1, r_O)
        assert t.p_h1_d0 <= prior_success(FIG1) <= t.p_h1_d1

    def test_monotone_in_radius(self):
        import numpy as np
        grid = np.geomspace(0.1, 1e4, 200)
        p11 = [posterior(FIG1, r).p_h1_d1 for r in grid]
        assert all(a < b for a, b in zip(p11, p11[1:]))

    def test_limits(self):
        # the prior as r_O -> 0, the no-interference ceiling as r_O -> inf
        assert posterior(FIG1, 1e-4).p_h1_d1 == pytest.approx(
            prior_success(FIG1), abs=1e-6)
        for p in (FIG1, NOISY):
            ceiling = math.exp(-derive(p).sigma * p.eta)
            assert posterior(p, 1e8).p_h1_d1 == pytest.approx(ceiling,
                                                              abs=1e-6)
        assert math.exp(-derive(NOISY).sigma * NOISY.eta) == pytest.approx(
            math.exp(-5000.0 * 1e-5))

    def test_remark_value_thinned(self):
        # half-density scenario at r_O = 50: busy-zone posterior ~ 0.68
        t = posterior(FIG1.thinned(0.5), 50.0)
        assert t.p_h1_d0 == pytest.approx(0.68, abs=0.01)

    @pytest.mark.parametrize("p", [FIG1, NOISY, FIG4])
    @pytest.mark.parametrize("ratio", SMALL_TO_LARGE + [AS_ARRAY])
    def test_busy_zone_against_quadrature(self, p, ratio):
        # P(H=1 | D=0) = e^-A (1 - e^-C) / (1 - e^-B) is of order r_O**alpha,
        # and P(H=0 | D=1) = 1 - e^-T falls to ~1e-10 at fig4, 1e5 r_T
        r_O = ratio * p.r_T
        ref, ref_01 = [], []
        for r in np.atleast_1d(r_O):
            A, B, C = joint_exponents(p, float(r))
            T = outside_exponent(p, float(r))
            with mpmath.workdps(30):
                ref.append(float(mpmath.exp(-A) * mpmath.expm1(-C) / mpmath.expm1(-B)))
                ref_01.append(float(-mpmath.expm1(-T)))
        table = posterior(p, r_O)
        assert np.atleast_1d(table.p_h1_d0) == pytest.approx(
            np.array(ref), rel=1e-10, abs=0.0)
        assert np.atleast_1d(table.p_h0_d1) == pytest.approx(
            np.array(ref_01), rel=1e-10, abs=0.0)

    def test_rejects_degenerate_radius(self):
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                posterior(FIG1, bad)


class TestAbcTerms:
    def test_prior_evidence_consistency(self):
        t = abc_terms(FIG1, 30.0)
        assert math.exp(-t.A) == pytest.approx(prior_success(FIG1), rel=1e-12)
        assert math.exp(-t.B) == pytest.approx(
            evidence_success(FIG1, 30.0), rel=1e-12)

    def test_posterior_assembly(self):
        t = abc_terms(FIG1, 30.0)
        assert math.exp(-t.A + t.B - t.C) == pytest.approx(
            posterior(FIG1, 30.0).p_h1_d1, rel=1e-10)

    @given(st.floats(1e-3, 1e5))
    @settings(max_examples=100, deadline=None)
    def test_exponents_nonnegative(self, r_O):
        t = abc_terms(FIG1, r_O)
        assert t.A >= 0 and t.B >= 0 and t.C >= 0
        assert t.B - t.C >= 0  # clearing the zone never hurts


class TestConditionalLT:
    def test_against_quadrature(self):
        # with no noise the posterior given a clear zone is the interference
        # LT at s = sigma; independent check: exponent = density*c_n*n *
        #   int_{r_O}^inf (1 - 1/(1+s r^-alpha)) r^(n-1) dr
        r_O, s = 25.0, 3000.0
        p = replace(FIG1, beta=s / FIG1.r_T**FIG1.alpha)
        d = derive(p)
        assert d.sigma == s
        with mpmath.workdps(30):
            expo = p.density * d.c_n * p.n * mpmath.quad(
                lambda r: (1 - 1 / (1 + s * r ** -p.alpha)) * r ** (p.n - 1),
                [r_O, 100 * r_O, 1e4 * r_O, mpmath.inf])
            oracle = float(mpmath.exp(-expo))
        assert posterior(p, r_O).p_h1_d1 == pytest.approx(oracle, rel=1e-10)

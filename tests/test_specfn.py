"""Oracle checks for the special functions, against independent quadrature
and arbitrary-precision hypergeometric functions."""

import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import special

from guardzone import specfn


def quad_int_I(u, delta):
    """Independent oracle for delta * int_0^u t^delta / (1+t) dt
    (tanh-sinh quadrature, which absorbs the endpoint singularity)."""
    return float(delta * mpmath.quad(lambda t: t**delta / (1 + t), [0, u]))


def hyp2f1_int_I(u, delta):
    """Second oracle: closed form via the Gauss hypergeometric function."""
    return (delta / (delta + 1.0)) * u ** (delta + 1.0) \
        * special.hyp2f1(1.0, delta + 1.0, delta + 2.0, -u)


class TestKappa:
    def test_gamma_product_identity(self):
        for delta in (0.1, 1 / 3, 0.5, 2 / 3, 0.9):
            expected = special.gamma(1 + delta) * special.gamma(1 - delta)
            assert specfn.kappa(delta) == pytest.approx(expected, rel=1e-12)

    def test_reference_value(self):
        # pi*(2/3)/sin(2*pi/3) for the planar alpha=3 case
        assert specfn.kappa(2 / 3) == pytest.approx(2.4184, abs=1e-4)

    def test_domain(self):
        for bad in (0.0, 1.0, -0.5, 1.5):
            with pytest.raises(ValueError):
                specfn.kappa(bad)


class TestIntI:
    @pytest.mark.parametrize("delta", [1 / 3, 0.5, 2 / 3])
    @pytest.mark.parametrize("u", [1e-3, 0.1, 1.0, 2.08, 9.99, 10.01, 50.0, 1e4])
    def test_against_quadrature(self, u, delta):
        assert specfn.int_I(u, delta) == pytest.approx(
            quad_int_I(u, delta), rel=1e-9)

    @pytest.mark.parametrize("delta", [1 / 3, 0.5, 2 / 3])
    @pytest.mark.parametrize("u", [0.5, 3.0, 100.0])
    def test_against_hypergeometric(self, u, delta):
        assert specfn.int_I(u, delta) == pytest.approx(
            hyp2f1_int_I(u, delta), rel=1e-10)

    def test_zero(self):
        assert specfn.int_I(0.0, 0.5) == 0.0


class TestPowerGap:
    @given(st.floats(1e-6, 1e6), st.floats(0.05, 0.95))
    @settings(max_examples=200, deadline=None)
    def test_gap_identity(self, u, delta):
        # power_gap(u) = u**delta - int_I(u) by construction of both
        gap = specfn.power_gap(u, delta)
        assert gap == pytest.approx(u**delta - quad_int_I(u, delta),
                                    rel=1e-7, abs=1e-12)

    @given(st.floats(1e-3, 1e8), st.floats(0.05, 0.95))
    @settings(max_examples=200, deadline=None)
    def test_bounded_by_kappa(self, u, delta):
        gap = specfn.power_gap(u, delta)
        assert 0.0 < gap < specfn.kappa(delta) + 1e-12

    @given(st.floats(0.05, 0.95))
    @settings(max_examples=50, deadline=None)
    def test_saturates_at_kappa(self, delta):
        # tail decays like u**(delta-1): slow near delta = 1, so go far out
        assert specfn.power_gap(1e200, delta) == pytest.approx(
            specfn.kappa(delta), rel=1e-6)

    def test_monotone_in_u(self):
        u = np.geomspace(1e-3, 1e6, 200)
        for delta in (1 / 3, 0.5, 2 / 3):
            g = np.array([specfn.power_gap(x, delta) for x in u])
            assert np.all(np.diff(g) > 0)

    def test_continuous_at_tail_switch(self):
        # the closed form changes branch at u = 1
        for u in (1.0, 10.0):
            for delta in (1 / 3, 0.5, 2 / 3):
                below = specfn.power_gap(u - 1e-9, delta)
                above = specfn.power_gap(u + 1e-9, delta)
                assert below == pytest.approx(above, rel=1e-9)


def mp_power_gap(u, delta):
    """delta * int_0^u t**(delta-1)/(1+t) dt = u**delta * 2F1(1, delta;
    1+delta; -u), in 40-digit arithmetic."""
    u, delta = mpmath.mpf(u), mpmath.mpf(delta)
    return u**delta * mpmath.hyp2f1(1, delta, 1 + delta, -u)


class TestAgainstMpmath:
    """Relative error of the closed forms over twenty-four decades of u."""

    @given(st.floats(-12.0, 12.0), st.floats(0.01, 0.99))
    @settings(max_examples=300, deadline=None)
    def test_power_gap(self, log_u, delta):
        u = 10.0**log_u
        with mpmath.workdps(40):
            ref = mp_power_gap(u, delta)
        assert specfn.power_gap(u, delta) == pytest.approx(float(ref), rel=1e-12,
                                                        abs=0.0)

    @given(st.floats(-30.0, 12.0), st.floats(0.01, 0.99))
    @settings(max_examples=300, deadline=None)
    def test_power_tail(self, log_u, delta):
        # kappa - gap with 40 digits: at u = 1e12 the tail is ~1e-14 kappa;
        # u reaches 1e-30, where tiny guard zones put chi
        u = 10.0**log_u
        with mpmath.workdps(40):
            d = mpmath.mpf(delta)
            ref = mpmath.pi * d / mpmath.sin(mpmath.pi * d) - mp_power_gap(u, delta)
        assert specfn.power_tail(u, delta) == pytest.approx(float(ref), rel=1e-12,
                                                         abs=0.0)

    @given(st.floats(-12.0, 12.0), st.floats(0.01, 0.99))
    @settings(max_examples=300, deadline=None)
    def test_int_I(self, log_u, delta):
        # the difference is taken with 40 digits, so its cancellation at
        # small u (up to 14 digits here) leaves the oracle exact
        u = 10.0**log_u
        with mpmath.workdps(40):
            ref = mpmath.mpf(u) ** delta - mp_power_gap(u, delta)
        assert specfn.int_I(u, delta) == pytest.approx(float(ref), rel=1e-12, abs=0.0)


class TestGaussQ:
    def test_halves_at_zero(self):
        assert specfn.gauss_Q(0.0) == pytest.approx(0.5)

    def test_symmetry(self):
        assert specfn.gauss_Q(1.3) + specfn.gauss_Q(-1.3) == pytest.approx(1.0)

    def test_known_value(self):
        assert specfn.gauss_Q(1.96) == pytest.approx(0.0249979, abs=1e-6)

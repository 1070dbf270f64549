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

    @pytest.mark.parametrize("delta", [0.9, 0.99, 0.999, 0.01])
    def test_relative_accuracy(self, delta):
        # near delta = 1, kappa - power_tail is power_gap: kappa's own
        # error, not just its share, reaches power_gap there
        with mpmath.workdps(40):
            d = mpmath.mpf(delta)
            want = float(mpmath.pi * d / mpmath.sin(mpmath.pi * d))
        assert specfn.kappa(delta) == pytest.approx(want, rel=4e-16)

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


def _check_draws(fn, log_us, delta, ref):
    """fn at each draw, one float at a time and as one array, against the
    40-digit ``ref(u, delta)`` at 1e-12 relative."""
    us = [10.0**x for x in log_us]
    with mpmath.workdps(40):
        refs = [float(ref(u, delta)) for u in us]
    for u, r in zip(us, refs):
        assert fn(u, delta) == pytest.approx(r, rel=1e-12, abs=0.0)
    assert fn(np.array(us), delta) == pytest.approx(np.array(refs), rel=1e-12,
                                                    abs=0.0)


def draws(lo, hi):
    """A few exponents of u, drawn together for one delta."""
    return st.lists(st.floats(lo, hi), min_size=1, max_size=4)


class TestAgainstMpmath:
    """Relative error of the closed forms over twenty-four decades of u."""

    @given(draws(-12.0, 12.0), st.floats(0.01, 0.99))
    @settings(max_examples=300, deadline=None)
    def test_power_gap(self, log_us, delta):
        _check_draws(specfn.power_gap, log_us, delta, mp_power_gap)

    @given(draws(-30.0, 12.0), st.floats(0.01, 0.99))
    @settings(max_examples=300, deadline=None)
    def test_power_tail(self, log_us, delta):
        # kappa - gap with 40 digits: at u = 1e12 the tail is ~1e-14 kappa;
        # u reaches 1e-30, where tiny guard zones put chi
        def ref(u, delta):
            d = mpmath.mpf(delta)
            return mpmath.pi * d / mpmath.sin(mpmath.pi * d) - mp_power_gap(u, delta)

        _check_draws(specfn.power_tail, log_us, delta, ref)

    @given(draws(-12.0, 12.0), st.floats(0.01, 0.99))
    @settings(max_examples=300, deadline=None)
    def test_int_I(self, log_us, delta):
        # the difference is taken with 40 digits, so its cancellation at
        # small u (up to 14 digits here) leaves the oracle exact
        _check_draws(specfn.int_I, log_us, delta,
                     lambda u, delta: mpmath.mpf(u) ** delta - mp_power_gap(u, delta))


    @pytest.mark.parametrize("u, delta", [
        (1.001, 0.99), (1.01, 0.99), (1.1, 0.99),
        (0.99, 0.01), (0.999, 0.01), (1.0, 0.01), (1.001, 0.01), (1.01, 0.01)])
    def test_near_one(self, u, delta):
        # just above u = 1, int_I = u**delta - kappa + power_tail would
        # lose three digits at delta = 0.99 (kappa = 99); near u = 1 at
        # delta = 0.01 each function is small next to kappa = 1.0002
        with mpmath.workdps(40):
            gap = mp_power_gap(u, delta)
            d = mpmath.mpf(delta)
            kappa = mpmath.pi * d / mpmath.sin(mpmath.pi * d)
            refs = {specfn.power_gap: gap, specfn.power_tail: kappa - gap,
                    specfn.int_I: mpmath.mpf(u) ** d - gap}
        for fn, ref in refs.items():
            assert fn(u, delta) == pytest.approx(float(ref), rel=1e-12, abs=0.0)
            assert fn(np.array([u]), delta)[0] == pytest.approx(
                float(ref), rel=1e-12, abs=0.0)


class TestFloatArrayAgree:
    """The float path and the array path are the same operations, apart
    from ``pow``, where numpy and the C library may differ by an ulp."""

    @given(draws(-12.0, 12.0), st.floats(0.01, 0.99))
    @settings(max_examples=200, deadline=None)
    def test_within_two_ulp(self, log_us, delta):
        us = np.array([10.0**x for x in log_us] + [0.0, 1.0, 3.0, 0.5])
        kappa = specfn.kappa(delta)
        # where a value is a series, within 2 ulp of it; where it is kappa
        # minus a series (u**delta - kappa plus one, for int_I), within
        # 2 ulp of the larger of the terms
        for fn, series, terms in (
                (specfn.power_gap, us <= 1.0, kappa),
                (specfn.power_tail, us >= 1.0, kappa),
                (specfn.int_I, us <= 3.0, kappa + us**delta)):
            arr = fn(us, delta)
            one = np.array([fn(u, delta) for u in us.tolist()])
            scale = np.where(series, np.abs(one), terms)
            assert np.all(np.abs(arr - one) <= 2.0 * np.spacing(scale)), fn


def straddling_grids():
    """Grids of u over eight decades, each with 1/2, 2 and 5 added so that
    it straddles both splits, u = 1 and u = 3."""
    return st.lists(st.floats(-4.0, 4.0), min_size=1, max_size=40).map(
        lambda xs: np.array([10.0**x for x in xs] + [0.5, 2.0, 5.0]))


def assert_each_alone(f, grid):
    """``f(grid)[..., i] == f(grid[i:i+1])[..., 0]`` bit for bit at every i:
    a value does not depend on the rest of its array. ``f`` returns an
    array or a tuple of arrays, each over the grid."""
    whole = np.asarray(f(grid))
    alone = np.stack([np.asarray(f(grid[i:i + 1]))[..., 0]
                      for i in range(len(grid))], axis=-1)
    differ = (whole != alone).reshape(-1, len(grid)).any(axis=0)
    assert not differ.any(), grid[differ]


class TestGridIndependence:
    @given(straddling_grids(), st.floats(0.01, 0.99))
    @settings(max_examples=100, deadline=None)
    def test_each_element_alone(self, us, drawn):
        for delta in (0.5, 2.0 / 3.0, drawn):
            for fn in (specfn.power_gap, specfn.power_tail, specfn.int_I):
                assert_each_alone(lambda u: fn(u, delta), us)


class TestEdges:
    def test_infinity(self):
        delta = 0.4
        assert specfn.power_gap(math.inf, delta) == specfn.kappa(delta)
        assert specfn.power_tail(math.inf, delta) == 0.0
        assert specfn.int_I(math.inf, delta) == math.inf
        u = np.array([math.inf, 2.0])
        assert specfn.power_gap(u, delta)[0] == specfn.kappa(delta)
        assert specfn.power_tail(u, delta)[0] == 0.0
        assert specfn.int_I(u, delta)[0] == math.inf

    def test_nan_propagates(self):
        for fn in (specfn.power_gap, specfn.power_tail, specfn.int_I):
            assert math.isnan(fn(math.nan, 0.5))
            out = fn(np.array([0.5, math.nan, 5.0]), 0.5)
            assert math.isnan(out[1])
            assert out[[0, 2]] == pytest.approx([fn(0.5, 0.5), fn(5.0, 0.5)],
                                                rel=1e-15)

    @pytest.mark.parametrize("u", [-1.0, np.array([0.5, -1e-300])])
    def test_negative(self, u):
        for fn in (specfn.power_gap, specfn.power_tail, specfn.int_I):
            with pytest.raises(ValueError, match="nonnegative"):
                fn(u, 0.5)

    @pytest.mark.parametrize("delta", [0.0, 1.0, -0.5, math.nan])
    def test_bad_delta(self, delta):
        for fn in (specfn.power_gap, specfn.power_tail, specfn.int_I):
            for u in (0.5, np.array([0.5, 2.0])):
                with pytest.raises(ValueError, match="delta"):
                    fn(u, delta)

    def test_shapes(self):
        u = np.array([[0.5, 2.0], [4.0, 0.0]])
        for fn in (specfn.power_gap, specfn.power_tail, specfn.int_I):
            assert fn(u, 0.5).shape == (2, 2)
            assert fn(np.empty(0), 0.5).shape == (0,)
            assert fn([0.5, 2.0], 0.5) == pytest.approx(
                [fn(0.5, 0.5), fn(2.0, 0.5)], rel=1e-15)


class TestGaussQ:
    def test_halves_at_zero(self):
        assert specfn.gauss_Q(0.0) == pytest.approx(0.5)

    def test_symmetry(self):
        assert specfn.gauss_Q(1.3) + specfn.gauss_Q(-1.3) == pytest.approx(1.0)

    def test_known_value(self):
        assert specfn.gauss_Q(1.96) == pytest.approx(0.0249979, abs=1e-6)


class TestFindRoot:
    """The bracketed root solver, on floats and elementwise on arrays."""

    @pytest.mark.parametrize("lo, hi", [(1e-6, 40.0), (2.0, 3.0), (1e-12, 1e9)])
    def test_float_root(self, lo, hi):
        root = specfn._find_root(lambda x: math.log(x) - 1.0, lo, hi,
                                 1e-14, 1e-15)
        assert isinstance(root, float)
        assert root == pytest.approx(math.e, rel=4e-15)

    def test_array_matches_float(self):
        c = np.array([0.5, 2.0, 7.0, 1e3])
        roots = specfn._find_root(lambda x: x**3 - c, 1e-3, np.full(4, 1e4),
                                  1e-14, 1e-15)
        assert roots == pytest.approx(np.cbrt(c), rel=4e-15)
        assert roots == pytest.approx(
            [specfn._find_root(lambda x: x**3 - k, 1e-3, 1e4, 1e-14, 1e-15)
             for k in c], rel=1e-15)

    def test_array_equals_float(self):
        # one iteration serves both, so an equation of + - * / only, whose
        # values round alike either way, has the same root to the bit;
        # the brackets span 4 to 10 decades
        c = np.array([0.5, 2.0, 7.0, 1e3, 3e5])
        lo = np.array([1e-3, 1e-6, 1e-3, 1e-2, 1e-4])
        hi = np.array([1e4, 1e4, 1e7, 1e2, 1e3])
        roots = specfn._find_root(lambda x: x * x * x - c, lo, hi, 1e-14, 1e-15)
        assert roots.tolist() == [
            specfn._find_root(lambda x: x * x * x - k, a, b, 1e-14, 1e-15)
            for k, a, b in zip(c.tolist(), lo.tolist(), hi.tolist())]

    def test_tolerance_is_kept(self):
        # rtol below 4 eps is raised to it, so the bracket can still close
        for xtol in (1e-3, 0.0):
            root = specfn._find_root(lambda x: x - 1.0 / 3.0, 0.1, 1.0,
                                     xtol, 0.0)
            assert abs(root - 1.0 / 3.0) <= xtol + 4 * np.finfo(float).eps

    def test_zero_at_an_end(self):
        f = lambda x: x - 2.0
        assert specfn._find_root(f, 2.0, 5.0, 1e-14, 1e-15) == 2.0
        assert specfn._find_root(f, 1.0, 2.0, 1e-14, 1e-15) == 2.0
        roots = specfn._find_root(f, np.array([2.0, 1.0]), np.array([5.0, 3.0]),
                                  1e-14, 1e-15)
        assert roots[0] == 2.0 and roots[1] == pytest.approx(2.0, rel=1e-15)

    def test_no_sign_change(self):
        with pytest.raises(specfn.BracketError):
            specfn._find_root(lambda x: x + 1.0, 1.0, 2.0, 1e-14, 1e-15)
        with pytest.raises(specfn.BracketError):
            specfn._find_root(lambda x: x - 1.5, np.array([1.0, 2.0]),
                              np.array([2.0, 3.0]), 1e-14, 1e-15)

    def test_iteration_cap(self, monkeypatch):
        monkeypatch.setattr(specfn, "_MAX_ITER", 3)
        with pytest.raises(RuntimeError, match="did not converge"):
            specfn._find_root(lambda x: math.log(x) - 1.0, 1e-6, 40.0,
                              1e-14, 1e-15)
        with pytest.raises(RuntimeError, match="did not converge"):
            specfn._find_root(np.log, np.full(2, 1e-6), np.full(2, 40.0),
                              1e-14, 1e-15)

    def test_expand(self):
        lo, hi = specfn._expand(lambda x: x < 10.0, 1.0, 2.0, 1e3, "ten")
        assert (lo, hi) == (8.0, 16.0)
        lo, hi = specfn._expand(lambda x: x < np.array([1.0, 10.0]), 1.0,
                                np.full(2, 2.0), 1e3, "ten")
        assert list(lo) == [1.0, 8.0] and list(hi) == [2.0, 16.0]
        with pytest.raises(specfn.BracketError, match="failed to bracket ten"):
            specfn._expand(lambda x: x < 1e4, 1.0, 2.0, 1e3, "ten")

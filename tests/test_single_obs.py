"""Prior/evidence/posterior identities, limits, and oracle agreement."""

import functools
import math
from dataclasses import replace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardzone.multi_obs import (AlohaParams, DecisionRuleTable, p_K,
                                 p_d_given_K, p_h_given_K,
                                 posterior_given_K_d, rule_errors)
from guardzone.params import ModelParams, chi_of_radius, derive
from guardzone.risk import (CostMatrix, _f_right, bayes_risk,
                            bayes_risk_derivative, optimal_radius,
                            type_errors)
from guardzone.single_obs import (_law, evidence_success, posterior,
                                  prior_success)
from guardzone.specfn import BracketError

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
    C = density * c_n * n * int_0^r_O r**(alpha+n-1) / (r**alpha + sigma) dr,
    B minus the gap density * c_n * n * int_0^r_O sigma * r**(n-1) /
    (r**alpha + sigma) dr. Within the knee r = sigma**(1/alpha) C is taken
    directly; beyond it as B - gap, where the gap is small next to B: a
    quadrature of C there loses up to 15 of its 30 digits at r_O = 1e7.
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
        if r_O <= scale:
            C = c * r_O ** (p.alpha + p.n) * mpmath.quad(
                lambda x: x ** (p.alpha + p.n - 1) / ((r_O * x) ** p.alpha + d.sigma),
                [0, 1])
        else:
            C = B - c * d.sigma * r_O**p.n * mpmath.quad(
                lambda x: x ** (p.n - 1) / ((r_O * x) ** p.alpha + d.sigma),
                [0, scale / r_O, 1])
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
        # every form that reads the single-slot law: those of one slot as
        # a float and inside an array, the Aloha ones through their cells
        uniform = CostMatrix.uniform()
        rule = DecisionRuleTable.follow_observation(0)
        single_slot = [
            lambda r: posterior(FIG1, r),
            lambda r: evidence_success(FIG1, r),
            lambda r: bayes_risk(FIG1, uniform, r),
            lambda r: bayes_risk_derivative(FIG1, uniform, r),
            lambda r: _f_right(FIG1, r),
            lambda r: type_errors(FIG1, r, rule)]
        aloha = AlohaParams(0.5, 1)
        aloha_forms = [
            lambda r: rule_errors(FIG1, aloha, r,
                                  DecisionRuleTable.follow_observation(1)),
            lambda r: p_K(FIG1, aloha, r, 0),
            lambda r: p_h_given_K(FIG1, aloha, r, 0),
            lambda r: p_d_given_K(FIG1, aloha, r, 0),
            lambda r: posterior_given_K_d(FIG1, aloha, r, 0, 0)]
        for bad in (0.0, -1.0, math.inf, -math.inf, math.nan):
            for form in single_slot + aloha_forms:
                with pytest.raises(ValueError, match="finite and positive"):
                    form(bad)
            for form in single_slot:
                with pytest.raises(ValueError, match="finite and positive"):
                    form(np.array([30.0, bad]))


class TestLaw:
    """The exponents of :func:`guardzone.single_obs._law`."""

    def test_prior_evidence_consistency(self):
        law = _law(FIG1, 30.0)
        assert math.exp(-law.A) == pytest.approx(prior_success(FIG1), rel=1e-12)
        assert math.exp(-law.B) == pytest.approx(
            evidence_success(FIG1, 30.0), rel=1e-12)

    def test_posterior_assembly(self):
        law = _law(FIG1, 30.0)
        assert math.exp(-law.A + law.B - law.C) == pytest.approx(
            posterior(FIG1, 30.0).p_h1_d1, rel=1e-10)

    @given(st.floats(1e-3, 1e5))
    @settings(max_examples=100, deadline=None)
    def test_exponents_nonnegative(self, r_O):
        law = _law(FIG1, r_O)
        assert law.A >= 0 and law.B >= 0 and law.C >= 0
        assert law.B - law.C >= 0  # clearing the zone never hurts


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


@functools.cache
def hypergeometric_shapes(delta, chi):
    """(B - C, C, T - sigma*eta) over the scale a, at chi, as 50-digit mpf
    from Gauss's function, each a product of positive factors:
    u**delta 2F1(1, delta; 1+delta; -u),
    delta/(1+delta) u**(1+delta) 2F1(1, 1+delta; 2+delta; -u) and
    delta/(1-delta) u**(delta-1) 2F1(1, 1-delta; 2-delta; -1/u)."""
    with mpmath.workdps(50):
        d, u = mpmath.mpf(delta), mpmath.mpf(chi)
        hyp2f1 = mpmath.hyp2f1
        return (u**d * hyp2f1(1, d, 1 + d, -u),
                d / (1 + d) * u ** (1 + d) * hyp2f1(1, 1 + d, 2 + d, -u),
                d / (1 - d) * u ** (d - 1) * hyp2f1(1, 1 - d, 2 - d, -1 / u))


def hypergeometric_law(p, r_O):
    """Independent C, T and cells P(d, h), keyed (d, h), as 50-digit
    mpf, with B = density * c_n * r_O**n from the radius and the rest
    from :func:`hypergeometric_shapes` at the scenario's own delta, sigma
    and chi = chi_of_radius(p, r_O), taken as exact."""
    gap, C, tail = hypergeometric_shapes(p.delta, chi_of_radius(p, r_O))
    with mpmath.workdps(50):
        d, sigma = mpmath.mpf(p.delta), mpmath.mpf(p.sigma)
        a = p.density * mpmath.pi * sigma**d
        A = a * mpmath.pi * d / mpmath.sin(mpmath.pi * d) + sigma * p.eta
        B = p.density * mpmath.pi * mpmath.mpf(r_O) ** 2
        C, T, gap = a * C, a * tail + sigma * p.eta, a * gap

        def fail(x):
            return -mpmath.expm1(-x)

        cells = {(1, 1): mpmath.exp(-B - T), (1, 0): mpmath.exp(-B) * fail(T),
                 (0, 1): mpmath.exp(-A) * fail(C),
                 (0, 0): fail(B) * fail(T) + mpmath.exp(-T) * fail(gap)}
    return C, T, cells


class TestDomainSweep:
    """Every single-slot form of a radius against 50-digit exponents from
    Gauss's hypergeometric function, which cancel nowhere: n = 2, delta
    from 0.05 to 0.976 (alpha from 40 to 2.05), densities 2e-2 to 2e-12,
    eta = 0 and 1e-5, r_O from 1e-3 to 1e7 and the optimal radius.

    The scenario's delta, sigma and chi are the reference's inputs, so
    this measures the arithmetic of the closed forms, not how rounding
    n/alpha or r_O**alpha/sigma moves them. B from the radius and B - C
    from chi then differ in their last digits, so the cells take the
    positive forms of single_obs, not a completeness subtraction;
    test_risk's TestDensitySweep checks those forms against quadrature
    of the model. Each value is checked within
    1e-13 relative, plus two ulps of its exponent: a value e^-X is no
    better than X, and at X = 630 two ulps of X are 2.8e-13 relative.
    Values below 1e-290 are let off; exp underflows there."""

    DENSITIES = [2e-2, 2e-4, 2e-6, 2e-8, 2e-10, 2e-12]
    RADII = [10.0**k for k in range(-3, 8)]
    RULES = [DecisionRuleTable(N=0, bits=b) for b in ("01", "10", "00", "11")]
    COSTS = {"uniform": CostMatrix.uniform(),
             "asymmetric": CostMatrix(0.1, 2.0, 0.7, 0.2)}

    def forms(self, p, r_O):
        """Every form over the radii r_O, by name."""
        got = {"evidence": evidence_success(p, r_O)}
        got.update((f"{name} risk", bayes_risk(p, cost, r_O))
                   for name, cost in self.COSTS.items())
        got.update(vars(posterior(p, r_O)))
        for rule in self.RULES:
            got[f"p_I {rule.bits}"], got[f"p_II {rule.bits}"] = type_errors(
                p, r_O, rule)
        return got

    def reference(self, p, r_O):
        """Every form at the radius r_O from :func:`hypergeometric_law`."""
        C, T, cell = hypergeometric_law(p, r_O)
        with mpmath.workdps(50):
            busy, h0 = cell[0, 0] + cell[0, 1], cell[0, 0] + cell[1, 0]
            given_h1 = (-mpmath.expm1(-C), mpmath.exp(-C))
            want = {"evidence": cell[1, 0] + cell[1, 1],
                    "p_h1_d1": mpmath.exp(-T), "p_h0_d1": -mpmath.expm1(-T),
                    "p_h1_d0": cell[0, 1] / busy, "p_h0_d0": cell[0, 0] / busy}
            want.update((f"{name} risk", sum(
                getattr(cost, f"c{d}{h}") * v for (d, h), v in cell.items()))
                for name, cost in self.COSTS.items())
            for rule in self.RULES:
                want[f"p_I {rule.bits}"] = sum(
                    cell[d, 0] for d in (0, 1) if rule.bits[d] == "1") / h0
                want[f"p_II {rule.bits}"] = sum(
                    given_h1[d] for d in (0, 1) if rule.bits[d] == "0")
        return want

    @staticmethod
    def check(got, want, where):
        """``got`` within the bound of the 50-digit ``want``, unless
        ``want`` is below 1e-290."""
        if want > 1e-290:
            error = float(abs(float(got) / want - 1))
            bound = 1e-13 + 4.5e-16 * max(0.0, -float(mpmath.log(want)))
            assert error <= bound, (where, error, bound)

    @pytest.mark.parametrize("alpha", [40.0, 8.0, 4.0, 3.0, 2.5, 2.05])
    def test_against_hypergeometric_exponents(self, alpha):
        for density in self.DENSITIES:
            for eta in (0.0, 1e-5):
                p = ModelParams(n=2, density=density, alpha=alpha, beta=5,
                                r_T=10, eta=eta)
                try:
                    opt = optimal_radius(p, self.COSTS["uniform"])
                except BracketError:
                    # at alpha = 2.05 and densities from 2e-4 on, the
                    # optimum lies beyond the solver's cap of 1e15 r_T
                    opt = None
                # where there is no interior optimum (sigma * eta > log 2
                # at alpha = 8 and 40), its limit e^-A underflows
                radii = self.RADII + ([opt.r_O] if opt and opt.exists else [])
                got = self.forms(p, np.array(radii))
                for i, r in enumerate(radii):
                    for name, want in self.reference(p, r).items():
                        self.check(got[name][i], want, (name, p, r))
                if opt and opt.exists:
                    self.check(opt.risk, self.reference(p, opt.r_O)[
                        "uniform risk"], ("optimum", p))

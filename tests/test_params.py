"""Construction, validation, and the chi <-> radius change of variable."""

import dataclasses
import json
import math

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from guardzone import specfn
from guardzone.cli import main
from guardzone.params import (ModelParams, chi_of_radius, derive,
                              load_scenario, radius_of_chi)
from guardzone.single_obs import prior_success

FIG1 = ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10)
SCENARIOS = [FIG1, ModelParams(n=2, density=1e-3, alpha=4, beta=2, r_T=5),
             ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10, eta=1e-4),
             ModelParams(n=1, density=5e-3, alpha=2.5, beta=3, r_T=5),
             ModelParams(n=3, density=1e-5, alpha=4.5, beta=3, r_T=6)]
# r_T**alpha = 1e400 overflows a float
HUGE = dict(n=2, density=2e-4, alpha=4, beta=5, r_T=1e100)


class TestValidation:
    def test_valid_construction(self):
        p = FIG1
        assert p.eta == 0.0

    @pytest.mark.parametrize("kwargs", [
        dict(n=4),            # unsupported dimension
        dict(alpha=2.0),      # alpha must exceed n
        dict(alpha=1.5, n=2),
        dict(density=0.0),
        dict(density=-1.0),
        dict(beta=0.0),
        dict(r_T=-3.0),
        dict(eta=-0.1),
        dict(n=True),         # a bool is not a count
        dict(n=2.5),
        dict(density=math.inf),
        dict(density=math.nan),
        dict(alpha=math.inf),
        dict(beta=math.inf),
        dict(r_T=math.inf),
        dict(eta=math.inf),
    ])
    def test_rejects_bad_parameters(self, kwargs):
        base = dict(n=2, density=2e-4, alpha=3, beta=5, r_T=10)
        base.update(kwargs)
        with pytest.raises(ValueError):
            ModelParams(**base)

    def test_frozen(self):
        with pytest.raises(Exception):
            FIG1.beta = 7.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            FIG1.a = 1.0

    def test_overflowing_sigma_raises_at_first_use(self):
        p = ModelParams(**HUGE)
        with pytest.raises(OverflowError):
            p.sigma
        with pytest.raises(OverflowError):
            prior_success(p)

    def test_overflowing_sigma_exits_3(self, tmp_path, capsys):
        path = tmp_path / "huge.json"
        path.write_text(json.dumps(ModelParams(**HUGE).to_dict()))
        assert main(["correlation", "--scenario", str(path)]) == 3
        assert capsys.readouterr().err.startswith("numerical failure: ")


class TestSerialization:
    def test_roundtrip(self):
        assert ModelParams.from_dict(FIG1.to_dict()) == FIG1

    def test_lambda_key(self):
        d = FIG1.to_dict()
        assert d["lambda"] == 2e-4

    def test_missing_key_message(self):
        with pytest.raises(ValueError, match="missing key"):
            ModelParams.from_dict({"n": 2})

    def test_eta_defaults_to_zero(self):
        d = FIG1.to_dict()
        del d["eta"]
        assert ModelParams.from_dict(d).eta == 0.0

    def test_integral_float_dimension(self):
        d = FIG1.to_dict()
        d["n"] = 2.0
        assert ModelParams.from_dict(d) == FIG1
        assert type(ModelParams.from_dict(d).n) is int

    @pytest.mark.parametrize("n", [2.9, True])
    def test_rejects_non_integral_dimension(self, n):
        # int() would truncate 2.9 to 2 and read true as 1
        d = FIG1.to_dict()
        d["n"] = n
        with pytest.raises(ValueError, match="integer"):
            ModelParams.from_dict(d)

    def test_load_scenario(self, tmp_path):
        path = tmp_path / "s.json"
        path.write_text(json.dumps(FIG1.to_dict()))
        assert load_scenario(path) == FIG1


class TestDerived:
    def test_fig1_constants(self):
        d = derive(FIG1)
        assert d.delta == pytest.approx(2 / 3)
        assert d.c_n == pytest.approx(math.pi)
        assert d.sigma == pytest.approx(5000.0)
        assert d.kappa_delta == pytest.approx(2.4184, abs=1e-4)

    def test_unit_ball_volumes(self):
        assert derive(ModelParams(1, 1e-3, 2.5, 1, 1)).c_n == 2.0
        assert derive(ModelParams(3, 1e-3, 4, 1, 1)).c_n == pytest.approx(
            4 * math.pi / 3)

    def test_thinned(self):
        half = FIG1.thinned(0.5)
        assert half.density == pytest.approx(1e-4)
        assert half.beta == FIG1.beta
        with pytest.raises(ValueError):
            FIG1.thinned(0.0)

    def test_derive_is_identity(self):
        assert derive(FIG1) is FIG1

    @pytest.mark.parametrize("p", SCENARIOS)
    def test_scale_and_prior_exponent_bits(self, p):
        # the expressions each module once wrote out, bit for bit
        delta = p.n / p.alpha
        c_n = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}[p.n]
        sigma = p.beta * p.r_T**p.alpha
        a = p.density * c_n * sigma**delta
        assert (p.delta, p.c_n, p.sigma) == (delta, c_n, sigma)
        assert p.kappa_delta == specfn.kappa(delta)
        assert p.a == a
        assert p.A == a * specfn.kappa(delta) + sigma * p.eta
        assert prior_success(p) == math.exp(-p.A)

    def test_new_scenarios_recompute(self):
        FIG1.A  # cached on FIG1 before either copy is made
        half = FIG1.thinned(0.5)
        assert half.a == ModelParams(2, 1e-4, 3, 5, 10).a == FIG1.a / 2
        assert half.A == FIG1.A / 2
        stricter = dataclasses.replace(FIG1, beta=10)
        assert stricter.sigma == 10_000.0
        assert stricter.a == ModelParams(2, 2e-4, 3, 10, 10).a != FIG1.a

    def test_dataclass_surface(self):
        p = ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10)
        p.A  # every derived constant is cached on p
        assert repr(p) == repr(FIG1) == (
            "ModelParams(n=2, density=0.0002, alpha=3, beta=5, r_T=10, eta=0.0)")
        assert [f.name for f in dataclasses.fields(p)] == [
            "n", "density", "alpha", "beta", "r_T", "eta"]
        fresh = ModelParams(n=2, density=2e-4, alpha=3, beta=5, r_T=10)
        assert p == fresh and hash(p) == hash(fresh)
        assert p != dataclasses.replace(p, eta=1e-4)
        assert dataclasses.asdict(p) == {"n": 2, "density": 2e-4, "alpha": 3,
                                         "beta": 5, "r_T": 10, "eta": 0.0}
        assert p.to_dict() == {"n": 2, "lambda": 2e-4, "alpha": 3, "beta": 5,
                               "r_T": 10, "eta": 0.0}


class TestChangeOfVariable:
    @given(st.floats(1e-6, 1e6))
    @settings(max_examples=100, deadline=None)
    def test_inverse_pair(self, r_O):
        d = derive(FIG1)
        assert radius_of_chi(d, chi_of_radius(d, r_O)) == pytest.approx(
            r_O, rel=1e-12)

    def test_unit_chi_at_sigma_root(self):
        d = derive(FIG1)
        # chi = 1 exactly where r_O**alpha = sigma
        assert chi_of_radius(d, 5000.0 ** (1 / 3)) == pytest.approx(1.0)

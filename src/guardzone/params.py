"""Scenario parameters, derived constants, and the chi <-> r_O change of variable.

All lengths are in a single user-chosen unit; the model is unit-agnostic.
Parameters are validated once, at construction, so downstream code may
assume the invariants hold.
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
from dataclasses import dataclass, replace
from pathlib import Path

from . import specfn

_UNIT_BALL_VOLUME = {1: 2.0, 2: math.pi, 3: 4.0 * math.pi / 3.0}


def _digest(payload: dict) -> str:
    """Short stable digest of a JSON payload: the config hash of every
    report and simulation."""
    blob = json.dumps(payload, sort_keys=True, default=str).encode()
    return hashlib.sha256(blob).hexdigest()[:12]


def _integral(value, name: str) -> int:
    """``value`` as an int, read as ``float`` reads it: 2, 2.0 and "2"
    pass; a bool or a fraction raises ValueError."""
    if isinstance(value, bool) or not float(value).is_integer():
        raise ValueError(f"{name} must be an integer, got {value!r}")
    return int(float(value))


@dataclass(frozen=True)
class ModelParams:
    """Physical scenario of a bipolar Poisson network.

    Attributes
    ----------
    n : ambient dimension, one of {1, 2, 3}
    density : transmitter density (nodes per unit n-volume)
    alpha : pathloss exponent, must exceed n
    beta : SINR threshold (linear scale)
    r_T : TX-RX separation distance
    eta : background noise power (>= 0)
    """

    n: int
    density: float
    alpha: float
    beta: float
    r_T: float
    eta: float = 0.0

    def __post_init__(self):
        object.__setattr__(self, "n", _integral(self.n, "dimension n"))
        for name in ("density", "alpha", "beta", "r_T", "eta"):
            if not math.isfinite(getattr(self, name)):
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if self.n not in (1, 2, 3):
            raise ValueError(f"dimension n must be 1, 2 or 3, got {self.n}")
        if not self.alpha > self.n:
            raise ValueError(
                f"pathloss exponent alpha={self.alpha} must exceed n={self.n} "
                "(otherwise interference has infinite mean)")
        if not self.density > 0:
            raise ValueError(f"density must be positive, got {self.density}")
        if not self.beta > 0:
            raise ValueError(f"beta must be positive, got {self.beta}")
        if not self.r_T > 0:
            raise ValueError(f"r_T must be positive, got {self.r_T}")
        if self.eta < 0:
            raise ValueError(f"eta must be nonnegative, got {self.eta}")

    @classmethod
    def from_dict(cls, d: dict) -> "ModelParams":
        """Build from the JSON scenario schema
        ``{"n", "lambda", "alpha", "beta", "r_T", "eta"}``."""
        try:
            return cls(n=d["n"], density=float(d["lambda"]),
                       alpha=float(d["alpha"]), beta=float(d["beta"]),
                       r_T=float(d["r_T"]), eta=float(d.get("eta", 0.0)))
        except KeyError as exc:
            raise ValueError(f"scenario is missing key {exc}") from exc

    def to_dict(self) -> dict:
        return {"n": self.n, "lambda": self.density, "alpha": self.alpha,
                "beta": self.beta, "r_T": self.r_T, "eta": self.eta}

    def thinned(self, p: float) -> "ModelParams":
        """Scenario with density thinned by retention probability ``p``."""
        if not 0 < p <= 1:
            raise ValueError(f"thinning probability must be in (0,1], got {p}")
        return replace(self, density=self.density * p)


def load_scenario(path: str | Path) -> ModelParams:
    """Read a JSON scenario file (schema of :meth:`ModelParams.from_dict`)."""
    with open(path) as fh:
        return ModelParams.from_dict(json.load(fh))


@dataclass(frozen=True)
class DerivedParams:
    """Constants computed once from a :class:`ModelParams`.

    delta = n/alpha in (0,1); c_n the unit-ball volume;
    sigma = beta * r_T**alpha; kappa_delta = pi*delta/sin(pi*delta).
    """

    delta: float
    c_n: float
    sigma: float
    kappa_delta: float
    alpha: float


def derive(params: ModelParams) -> DerivedParams:
    """Populate every derived constant for ``params``, once per scenario:
    :class:`ModelParams` is frozen, so equal parameters share the result."""
    return _derive(params)


@functools.lru_cache(maxsize=64)
def _derive(params: ModelParams) -> DerivedParams:
    delta = params.n / params.alpha
    return DerivedParams(
        delta=delta,
        c_n=_UNIT_BALL_VOLUME[params.n],
        sigma=params.beta * params.r_T**params.alpha,
        kappa_delta=specfn.kappa(delta),
        alpha=params.alpha,
    )


def chi_of_radius(d: DerivedParams, r_O):
    """Map a guard-zone radius, a float or an array, to the dimensionless
    ``chi = r_O**alpha/sigma``."""
    if specfn._any(r_O < 0):
        raise ValueError(f"r_O must be nonnegative, got {r_O}")
    return r_O**d.alpha / d.sigma


def radius_of_chi(d: DerivedParams, chi):
    """Inverse of :func:`chi_of_radius`."""
    if specfn._any(chi < 0):
        raise ValueError(f"chi must be nonnegative, got {chi}")
    return (chi * d.sigma) ** (1.0 / d.alpha)

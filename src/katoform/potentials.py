"""Radial potentials on model spaces.

A potential here is a radial profile v(r) around the space origin together
with its list of singular radii, at which the quadrature layer reads
condensation windows.  Constants and tabulated profiles are special cases of the
same container.  Values may be signed; the Kato functionals always consume
|v|, while the sign decomposition v = v_plus - v_minus feeds the form-bound
machinery.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable

import numpy as np

from .errors import DomainError
from .geometry import ModelSpace


@dataclass
class Potential:
    """A radial potential v(r) on a model space.

    ``radial`` must accept and return numpy arrays.  ``singular_radii``
    lists radii where |v| is unbounded; 0.0 is the usual entry.
    ``singular_power`` declares, when known, the power p of the blow-up
    |v| <= C r^-p at the origin; Monte Carlo reads it to tell a finite
    variance from an infinite one.
    ``sign_split`` optionally carries a decomposition (v1, v2) with
    v = v1 - v2 and both parts nonnegative; when absent the canonical
    split max(v, 0) / max(-v, 0) is used.
    """

    space: ModelSpace
    radial: Callable[[np.ndarray], np.ndarray]
    singular_radii: tuple = ()
    name: str = "custom"
    params: dict = field(default_factory=dict)
    sign_split: tuple | None = None
    singular_power: float | None = None

    def __post_init__(self):
        self.singular_radii = tuple(float(r) for r in self.singular_radii)
        if any(r < 0 for r in self.singular_radii):
            raise DomainError("singular radii must be nonnegative")
        if self.sign_split is not None:
            v1, v2 = self.sign_split
            probe = np.array([0.3, 1.1, 2.7])
            a, b = np.asarray(v1(probe)), np.asarray(v2(probe))
            if np.any(a < -1e-12) or np.any(b < -1e-12):
                raise DomainError("sign_split parts must be nonnegative")
            if not np.allclose(a - b, np.asarray(self.radial(probe)), atol=1e-10):
                raise DomainError("sign_split does not reproduce the potential")

    def abs_radial(self, r, out=None):
        """|v(r)|, written into ``out`` (an array of r's shape) when given."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.abs(self.radial(np.asarray(r, dtype=float)), out=out)

    def positive_part(self) -> Callable:
        if self.sign_split is not None:
            return self.sign_split[0]
        return lambda r: np.maximum(self.radial(np.asarray(r, dtype=float)), 0.0)

    def negative_part(self) -> Callable:
        if self.sign_split is not None:
            return self.sign_split[1]
        return lambda r: np.maximum(-self.radial(np.asarray(r, dtype=float)), 0.0)

    def scaled(self, alpha: float) -> "Potential":
        fn = self.radial
        return replace(self, radial=lambda r: alpha * fn(r), name=f"{alpha}*{self.name}",
                       sign_split=None)

    def to_json_dict(self) -> dict:
        if self.name in _EXPR_BUILDERS:
            return {"radial": {"expr": self.name, "params": dict(self.params),
                               "singularities": list(self.singular_radii)}}
        raise DomainError(f"potential {self.name!r} has no JSON form")


def coulomb(space: ModelSpace, strength: float = 1.0) -> Potential:
    """v(r) = strength / r, singular at the origin."""
    s = float(strength)
    return Potential(space=space,
                     radial=lambda r: _safe_inverse_power(r, 1, s),
                     singular_radii=(0.0,), name="coulomb",
                     params={"strength": s}, singular_power=1.0)


def inverse_square(space: ModelSpace, strength: float = 1.0) -> Potential:
    """v(r) = strength / r^2; borderline-critical scaling at the origin."""
    s = float(strength)
    return Potential(space=space,
                     radial=lambda r: _safe_inverse_power(r, 2, s),
                     singular_radii=(0.0,), name="inverse_square",
                     params={"strength": s}, singular_power=2.0)


def inverse_power(space: ModelSpace, power: float, strength: float = 1.0) -> Potential:
    """v(r) = strength / r^power."""
    s, p = float(strength), float(power)
    return Potential(space=space,
                     radial=lambda r: _safe_inverse_power(r, p, s),
                     singular_radii=(0.0,), name="inverse_power",
                     params={"strength": s, "power": p}, singular_power=p)


def constant(space: ModelSpace, value: float) -> Potential:
    c = float(value)
    return Potential(space=space,
                     radial=lambda r: np.full_like(np.asarray(r, dtype=float), c),
                     singular_radii=(), name="constant", params={"value": c})


def bump(space: ModelSpace, amplitude: float = 1.0, radius: float = 1.0) -> Potential:
    """Compactly supported bump a (1 - (r/R)^2)^2 on r < R; bounded, in L^2."""
    a, rad = float(amplitude), float(radius)

    def profile(r):
        r = np.asarray(r, dtype=float)
        core = 1.0 - (r / rad) ** 2
        return np.where(r < rad, a * core * core, 0.0)

    return Potential(space=space, radial=profile, singular_radii=(),
                     name="bump", params={"amplitude": a, "radius": rad})


def tabulated(space: ModelSpace, radii, values, interpolation: str = "linear") -> Potential:
    """Potential from radial samples; linear interpolation, clamped ends."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.ndim != 1 or radii.shape != values.shape or radii.size < 2:
        raise DomainError("tabulated potential needs matching 1-d radii/values")
    if not (np.all(np.isfinite(radii)) and np.all(np.isfinite(values))):
        raise DomainError("tabulated radii and values must be finite")
    if np.any(np.diff(radii) <= 0):
        raise DomainError("tabulated radii must be strictly increasing")
    if interpolation != "linear":
        raise DomainError("only linear interpolation is implemented")

    def profile(r):
        return np.interp(np.asarray(r, dtype=float), radii, values)

    return Potential(space=space, radial=profile, singular_radii=(),
                     name="tabulated",
                     params={"radii": radii.tolist(), "values": values.tolist(),
                             "interpolation": interpolation})


def _safe_inverse_power(r, p, s):
    """s / r**p, and sign(s) * inf at r = 0.

    For p > 0 the division reaches that limit by itself (s / 0 is
    sign(s) * inf, and 0 / 0 the same nan as 0 * inf), and r**1 is r.
    """
    r = np.asarray(r, dtype=float)
    with np.errstate(divide="ignore"):
        out = s / (r if p == 1 else np.power(r, p))
    if p > 0:
        return out
    return np.where(r == 0.0, np.sign(s) * np.inf, out)


_EXPR_BUILDERS = {
    "coulomb": lambda space, params: coulomb(space, **params),
    "inverse_square": lambda space, params: inverse_square(space, **params),
    "inverse_power": lambda space, params: inverse_power(space, **params),
    "constant": lambda space, params: constant(space, **params),
    "bump": lambda space, params: bump(space, **params),
}


def potential_from_json(space: ModelSpace, obj: dict) -> Potential:
    """Build a potential from its wire form.

    Either {"radial": {"expr": ..., "params": {...}, "singularities": [...]}}
    or {"tabulated": {"radii": [...], "values": [...], "interpolation": ...}}.
    """
    if "radial" in obj:
        spec = obj["radial"]
        expr = spec["expr"]
        if expr not in _EXPR_BUILDERS:
            raise DomainError(f"unknown radial expression {expr!r}")
        try:
            pot = _EXPR_BUILDERS[expr](space, spec.get("params", {}))
        except (TypeError, ValueError) as exc:
            raise DomainError(f"bad params for radial expression {expr!r}: {exc}") from exc
        if not np.all(np.isfinite(list(pot.params.values()))):
            raise DomainError(f"params of radial expression {expr!r} must be finite")
        declared = spec.get("singularities")
        if declared is not None:
            # through __post_init__, which validates the declared radii
            pot = replace(pot, singular_radii=tuple(declared))
        return pot
    if "tabulated" in obj:
        spec = obj["tabulated"]
        return tabulated(space, spec["radii"], spec["values"],
                         spec.get("interpolation", "linear"))
    raise DomainError("potential JSON needs a 'radial' or 'tabulated' key")

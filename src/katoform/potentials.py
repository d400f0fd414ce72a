"""Radial potentials on model spaces.

A potential here is a radial profile v(r) around the space origin together
with its list of singular radii, at which the quadrature layer reads
condensation windows.  Constants and tabulated profiles are special cases of the
same container.  Everything a potential declares, its singular radii and
their power included, is a fact of its expression, set by its constructor,
which refuses params that give the expression no meaning: a non-finite
one, or a bump radius <= 0.
Values may be signed; the Kato functionals always consume |v|, while the
canonical parts v = v_plus - v_minus feed the form-bound machinery.
"""

from __future__ import annotations

import math
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
    """

    space: ModelSpace
    radial: Callable[[np.ndarray], np.ndarray]
    singular_radii: tuple = ()
    name: str = "custom"
    params: dict = field(default_factory=dict)
    singular_power: float | None = None

    def __post_init__(self):
        self.singular_radii = tuple(float(r) for r in self.singular_radii)
        if any(r < 0 for r in self.singular_radii):
            raise DomainError("singular radii must be nonnegative")

    def abs_radial(self, r, out=None):
        """|v(r)|, written into ``out`` (an array of r's shape) when given."""
        with np.errstate(divide="ignore", invalid="ignore"):
            return np.abs(self.radial(np.asarray(r, dtype=float)), out=out)

    def positive_part(self) -> Callable:
        """v_plus = max(v, 0), the V1 of the weakest split v = V1 - V2.

        Any split with V1, V2 >= 0 has v_plus <= V1 and v_minus <= V2, and
        both local integrability and the Kato class are solid (a function
        below a member in absolute value is a member), so every split that
        qualifies makes the canonical one qualify too.
        """
        return lambda r: np.maximum(self.radial(np.asarray(r, dtype=float)), 0.0)

    def negative_part(self) -> Callable:
        """v_minus = max(-v, 0), the V2 of the weakest split (see ``positive_part``)."""
        return lambda r: np.maximum(-self.radial(np.asarray(r, dtype=float)), 0.0)


def coulomb(space: ModelSpace, strength: float = 1.0) -> Potential:
    """v(r) = strength / r: ``inverse_power`` at p = 1."""
    return replace(inverse_power(space, 1.0, strength), name="coulomb",
                   params={"strength": float(strength)})


def inverse_square(space: ModelSpace, strength: float = 1.0) -> Potential:
    """v(r) = strength / r^2, borderline-critical at the origin: ``inverse_power`` at p = 2."""
    return replace(inverse_power(space, 2.0, strength), name="inverse_square",
                   params={"strength": float(strength)})


def inverse_power(space: ModelSpace, power: float, strength: float = 1.0) -> Potential:
    """v(r) = strength / r^power, which at r = 0 reads its limit there.

    The origin is singular, with ``singular_power`` = power, exactly when
    power > 0 and strength != 0; otherwise v is bounded near it.  Both
    params must be finite.
    """
    s, p = float(strength), float(power)
    if not (math.isfinite(s) and math.isfinite(p)):
        raise DomainError(f"inverse_power needs a finite power and strength, got {p} and {s}")
    singular = p > 0 and s != 0
    return Potential(space=space,
                     radial=lambda r: _safe_inverse_power(r, p, s),
                     singular_radii=(0.0,) if singular else (), name="inverse_power",
                     params={"strength": s, "power": p},
                     singular_power=p if singular else None)


def constant(space: ModelSpace, value: float) -> Potential:
    c = float(value)
    if not math.isfinite(c):
        raise DomainError(f"constant value must be finite, got {c}")
    return Potential(space=space,
                     radial=lambda r: np.full_like(np.asarray(r, dtype=float), c),
                     singular_radii=(), name="constant", params={"value": c})


def bump(space: ModelSpace, amplitude: float = 1.0, radius: float = 1.0) -> Potential:
    """Compactly supported bump a (1 - (r/R)^2)^2 on r < R; bounded, in L^2.

    The amplitude must be finite and the radius positive and finite: a
    radius R <= 0 would leave no support, the zero potential in disguise.
    """
    a, rad = float(amplitude), float(radius)
    if not (math.isfinite(a) and 0.0 < rad < math.inf):
        raise DomainError("bump needs a finite amplitude and a positive finite radius, "
                          f"got {a} and {rad}")

    def profile(r):
        r = np.asarray(r, dtype=float)
        core = 1.0 - (r / rad) ** 2
        return np.where(r < rad, a * core * core, 0.0)

    return Potential(space=space, radial=profile, singular_radii=(),
                     name="bump", params={"amplitude": a, "radius": rad})


def tabulated(space: ModelSpace, radii, values) -> Potential:
    """Potential from radial samples; linear interpolation, clamped ends."""
    radii = np.asarray(radii, dtype=float)
    values = np.asarray(values, dtype=float)
    if radii.ndim != 1 or radii.shape != values.shape or radii.size < 2:
        raise DomainError("tabulated potential needs matching 1-d radii/values")
    if not (np.all(np.isfinite(radii)) and np.all(np.isfinite(values))):
        raise DomainError("tabulated radii and values must be finite")
    if np.any(np.diff(radii) <= 0):
        raise DomainError("tabulated radii must be strictly increasing")

    def profile(r):
        return np.interp(np.asarray(r, dtype=float), radii, values)

    return Potential(space=space, radial=profile, singular_radii=(),
                     name="tabulated",
                     params={"radii": radii.tolist(), "values": values.tolist()})


def _safe_inverse_power(r, p, s):
    """s / r**p, and at r = 0 its limit: sign(s) * inf for p > 0, s for p = 0, else 0.

    The division reaches each limit by itself (s / 0 is sign(s) * inf,
    0**0 is 1, and 0**p for p < 0 is inf, so s / 0**p is 0), and r**1 is
    r.  Only s = 0 needs its own line: 0 / 0**p would be nan, and the zero
    potential is 0 everywhere.
    """
    r = np.asarray(r, dtype=float)
    if s == 0.0:
        return np.zeros_like(r)
    with np.errstate(divide="ignore"):
        return s / (r if p == 1 else np.power(r, p))

"""Constant-curvature model spaces: distances, volumes, heat kernels.

Two families are supported: Euclidean R^m (any m >= 1) and hyperbolic
space H^m with curvature -1 (m in {2, 3}, realized as the upper
hyperboloid sheet in Minkowski coordinates).  Other negative curvatures
are a metric rescaling of the kappa = -1 case and are not duplicated
here; volume comparison profiles accept arbitrary kappa separately.

All heat kernels use the Brownian-motion normalization: p_t is the
transition density of the diffusion generated by Delta/2, i.e.

    (e^{t Delta / 2} f)(x) = integral p_t(x, y) f(y) vol(dy).

Concretely p_t(d) = (2 pi t)^{-m/2} exp(-d^2 / (2t)) on R^m, with the
standard closed form on H^3.  H^2 has none: its kernel is McKean's single
integral, a Millson transform (_h2_millson) that the Kato layer also uses
for K_t and G_r.  The transform is evaluated in numpy on the 7/15
Gauss-Kronrod panels of quadrature.panel_integral, for a whole array of
distances at once, with the embedded Gauss rule as error estimate.  The
self-tests heat_mass and chapman_kolmogorov_residual integrate in radius
with quadrature.radial_integral on the same rule; no QUADPACK call.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import ConvergenceError, DomainError, InvalidPointError, QuadratureError
from .quadrature import _TINY, SPATIAL_REL, panel_integral, radial_integral

EUCLIDEAN = "euclidean"
HYPERBOLIC = "hyperbolic"

# Hyperboloid constraint tolerance for point validation.
POINT_TOL = 1e-12

# exp(-TAIL_LOG) is the relative mass allowed beyond a radial cutoff.
_TAIL_LOG = 45.0


@lru_cache(maxsize=None)
def sphere_area(m: int) -> float:
    """Surface measure of the unit sphere S^{m-1} in R^m (2, 2 pi, 4 pi, ...)."""
    return 2.0 * math.pi ** (m / 2.0) / math.gamma(m / 2.0)


def _check_dimension(m) -> None:
    """Raise DomainError unless m is an integer >= 1; a bool is not one."""
    if isinstance(m, bool) or not isinstance(m, numbers.Integral) or m < 1:
        raise DomainError("dimension must be an integer >= 1")


@dataclass(frozen=True)
class ModelSpace:
    """A Euclidean or unit-curvature hyperbolic model space.

    Parameters
    ----------
    kind : "euclidean" or "hyperbolic"
    dim : manifold dimension m; hyperbolic supports m in {2, 3}.
    """

    kind: str
    dim: int

    def __post_init__(self):
        if self.kind not in (EUCLIDEAN, HYPERBOLIC):
            raise DomainError(f"unknown model space kind {self.kind!r}")
        _check_dimension(self.dim)
        if self.kind == HYPERBOLIC and self.dim not in (2, 3):
            raise DomainError("hyperbolic model spaces are implemented for dim 2 and 3")

    @property
    def ambient_dim(self) -> int:
        return self.dim if self.kind == EUCLIDEAN else self.dim + 1

    def origin(self) -> np.ndarray:
        if self.kind == EUCLIDEAN:
            return np.zeros(self.dim)
        x = np.zeros(self.dim + 1)
        x[0] = 1.0
        return x

    def validate_point(self, x) -> np.ndarray:
        """Return x as an ndarray, checking the model constraint.

        Euclidean points are any finite vector of length m.  Hyperbolic
        points must satisfy x_0^2 - |x_rest|^2 = 1 (to POINT_TOL, relative
        to x_0^2) with x_0 > 0, checked in a form that cannot overflow.
        """
        x = np.asarray(x, dtype=float)
        if x.shape != (self.ambient_dim,):
            raise InvalidPointError(
                f"point has shape {x.shape}, expected ({self.ambient_dim},)")
        if not np.all(np.isfinite(x)):
            raise InvalidPointError("point has a non-finite coordinate")
        if self.kind == HYPERBOLIC:
            # q - 1 over max(1, x_0^2), worked out on x / max(1, x_0); an
            # overflow leaves the gap infinite
            x0 = float(x[0])
            scale = max(x0, 1.0)
            rest = x[1:] / scale
            with np.errstate(over="ignore"):
                gap = (x0 / scale) ** 2 - float(np.dot(rest, rest)) - (1.0 / scale) ** 2
            if x0 <= 0.0 or not abs(gap) <= POINT_TOL:
                raise InvalidPointError("point is not on the hyperboloid sheet")
        return x


def geodesic_point(space: ModelSpace, r: float, direction=None) -> np.ndarray:
    """Point at geodesic distance r from the origin.

    ``direction`` is a vector in R^m, normalised here (defaults to the
    first axis); it must be finite with a finite nonzero length.  On H^m,
    cosh r must be finite too.
    """
    if not 0.0 <= r < math.inf:
        raise DomainError("radius must be nonnegative and finite")
    if direction is None:
        u = np.zeros(space.dim)
        u[0] = 1.0
    else:
        u = np.asarray(direction, dtype=float)
        # nan for a wrong shape or a nan entry, inf for an inf entry or an overflow
        with np.errstate(all="ignore"):
            norm = float(np.linalg.norm(u)) if u.shape == (space.dim,) else math.nan
        if not 0.0 < norm < math.inf:
            raise DomainError(f"direction must be a finite vector of length {space.dim} "
                              f"with a finite nonzero norm, not {direction!r}")
        u = u / norm
    if space.kind == EUCLIDEAN:
        return r * u
    x = np.empty(space.dim + 1)
    try:
        x[0] = math.cosh(r)
    except OverflowError:
        raise DomainError(f"cosh of the radius {r} overflows") from None
    x[1:] = math.sinh(r) * u
    return x


def distance(space: ModelSpace, x, y) -> float:
    """Geodesic distance between two validated points."""
    x = space.validate_point(x)
    y = space.validate_point(y)
    if space.kind == EUCLIDEAN:
        return float(np.linalg.norm(x - y))
    # Minkowski pairing <x, y> = x0 y0 - x.y; acosh of it is the distance.
    pairing = x[0] * y[0] - float(np.dot(x[1:], y[1:]))
    return float(np.arccosh(max(pairing, 1.0)))


def ring_area(space: ModelSpace, r):
    """Area of the geodesic sphere of radius r (vectorized in r)."""
    r = np.asarray(r, dtype=float)
    m = space.dim
    if space.kind == EUCLIDEAN:
        return sphere_area(m) * r ** (m - 1)
    return sphere_area(m) * np.sinh(r) ** (m - 1)


def _split_S(hyperbolic: bool, rho):
    """S(rho) as (scaled, exponent): (rho, 0) on R^m, (e^{-rho} sinh rho, rho) on H^m.

    numpy on an array of rho, math on a float (a sphere mean's radius),
    which is faster there and keeps the results Python floats.
    """
    if hyperbolic:
        expm1 = np.expm1 if isinstance(rho, np.ndarray) else math.expm1
        return -0.5 * expm1(-2.0 * rho), rho
    return rho, 0.0


# Past a + b = 2 _LOG_FAR the hyperbolic law of cosines takes asinh(z) as log(2z)
_LOG_FAR = 350.0


def law_of_cosines(space: ModelSpace, a, b, theta):
    """Third side of a geodesic triangle with sides a, b and angle theta.

    Vectorized over any of the arguments.  The half-angle forms

        d^2 = (a - b)^2 + 4 a b sin^2(theta/2),
        cosh d - 1 = 2 sinh^2((a - b)/2) + 2 sinh a sinh b sin^2(theta/2)

    keep the relative precision of a small d.  On H^m, sinh^2(d/2) is taken
    as e^{a+b} y with every factor of y at most 1, so that no sinh overflows
    at large a + b.
    """
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    half = np.sin(0.5 * np.asarray(theta, dtype=float)) ** 2
    if space.kind == EUCLIDEAN:
        return np.sqrt((a - b) ** 2 + 4.0 * a * b * half)
    y = 0.25 * (np.expm1(-np.abs(a - b)) ** 2 * np.exp(-2.0 * np.minimum(a, b))
                + np.expm1(-2.0 * a) * np.expm1(-2.0 * b) * half)
    h = 0.5 * (a + b)
    # d = 2 asinh(e^h sqrt(y)); past h = _LOG_FAR that is 2h + log(4y) to
    # rounding (both branches are evaluated, so neither may overflow or take log 0)
    near = 2.0 * np.arcsinh(np.exp(np.minimum(h, _LOG_FAR)) * np.sqrt(y))
    far = 2.0 * h + np.log(4.0 * np.maximum(y, 1e-300))
    return np.where(h < _LOG_FAR, near, far)


# theta - theta_0 grows like u^_GRADE from a graded end theta_0: at w = b = 0.5
# on R^2 the log pole of K_0.01 then leaves the first round of _THETA_PANELS
# panels 4e-12 relative off, where u^3 leaves 1.7e-10 with the same nodes
_GRADE = 4
# initial panels of quadrature.panel_integral on each graded piece: every
# sphere mean of an off-centre Coulomb eta(0.01) at b = 0.5 on R^2 and H^2
# then meets its target in the first round (146 of 480 do not with 4 panels;
# on R^4, 42 of 480 do not, against 429)
_THETA_PANELS = 8


def sphere_mean(space: ModelSpace, f, w: float, b: float, singular=()):
    """(value, error) of ring(w) times the mean of f(d(x, .)) over the sphere of radius w.

    x sits at distance b from the sphere's centre.  On R^1 the sphere is
    the two points at distances |w - b| and w + b.  Otherwise, with the
    polar angle theta about the direction of x, the distance is
    law_of_cosines(w, b, theta) and, with S(w) = w on R^m and sinh w on H^m,

        ring(w) mean = area(S^{m-2}) S(w)^{m-1} integral_0^pi f(d) sin^{m-2} theta d theta.

    ``f(rho, shift)`` takes an array of distances rho and returns
    f(rho) e^shift; on H^m the growth e^{(m-1) w} of S(w)^{m-1} arrives as
    the shift, so f can cancel it against its own decay.  The polar angle
    is cut into pieces at every angle where d crosses a distance in
    ``singular``; the near point theta = 0 (where a pole of f sits when
    w = b) and both sides of every crossing are approached as u^_GRADE in
    the variable u of quadrature.panel_integral, which takes every node of
    every piece in one array call per round.  A non-finite result raises
    ConvergenceError: f is finite at every node, so that is a solver
    failure and never a divergence.
    """
    m = space.dim
    hyperbolic = space.kind == HYPERBOLIC
    gap = abs(w - b)
    if m == 1:
        return float(np.sum(f(np.array([gap, w + b]), 0.0))), 0.0
    cuts = [0.0]
    for s in sorted(set(singular)):
        if gap < s < w + b:
            # sin^2(theta/2) from the half-angle law of cosines at d = s
            if hyperbolic:
                ratio = math.sinh(0.5 * (s + gap)) * math.sinh(0.5 * (s - gap)) / \
                    (math.sinh(w) * math.sinh(b))
            else:
                ratio = (s + gap) * (s - gap) / (4.0 * w * b)
            cuts.append(2.0 * math.asin(math.sqrt(min(ratio, 1.0))))
    cuts.append(math.pi)
    # theta = start + length v^_GRADE on each piece: a segment between two
    # cuts is two pieces graded toward its ends, the last one (up to pi)
    # one piece graded toward its start
    starts, lengths = [], []
    for lo, hi in zip(cuts[:-2], cuts[1:-1]):
        starts += [lo, hi]
        lengths += [0.5 * (hi - lo), -0.5 * (hi - lo)]
    starts.append(cuts[-2])
    lengths.append(math.pi - cuts[-2])
    starts, lengths = np.array(starts), np.array(lengths)
    pieces = starts.size
    scaled, exponent = _split_S(hyperbolic, w)

    def integrand(x):
        j = np.minimum((x * pieces).astype(int), pieces - 1)
        v = x * pieces - j
        theta = starts[j] + lengths[j] * v ** _GRADE
        jacobian = _GRADE * pieces * np.abs(lengths[j]) * v ** (_GRADE - 1)
        d = law_of_cosines(space, w, b, theta)
        for s in singular:
            # a node whose distance rounds onto a singular one (the grading
            # puts nodes closer to a crossing than d can resolve) is moved
            # one rounding off it, where f is finite
            d[d == s] = np.nextafter(s, math.inf)
        return f(d, (m - 1) * exponent) * jacobian * np.sin(theta) ** (m - 2)

    val, err = panel_integral(integrand, _THETA_PANELS * pieces)
    front = sphere_area(m - 1) * scaled ** (m - 1)
    val, err = front * float(val), front * float(err)
    if not (math.isfinite(val) and math.isfinite(err)):
        raise ConvergenceError(f"the sphere mean at w = {w}, b = {b} is not finite",
                               residual=err)
    return val, err


def _sphere_means(space: ModelSpace, f, w, b: float, singular):
    """sphere_mean of f at each radius in the array w, and the largest relative error."""
    out, rel = np.empty(w.size), 0.0
    for i, wi in enumerate(w.tolist()):
        out[i], err = sphere_mean(space, f, wi, b, singular)
        # below _TINY / SPATIAL_REL a mean meets only the absolute floor _TINY
        rel = max(rel, err / max(float(out[i]), _TINY / SPATIAL_REL))
    return out, rel


def kernel_tail_radius(space: ModelSpace, t: float) -> float:
    """Radius beyond which the heat kernel's radial mass is negligible.

    Solves r^2/(2t) - (m-1) r = TAIL_LOG (the hyperbolic ring area grows
    like e^{(m-1) r}, the Euclidean one polynomially, so the linear term
    covers both).
    """
    growth = (space.dim - 1) * t
    return growth + math.sqrt(growth * growth + 2.0 * t * _TAIL_LOG)


def heat_kernel_radial(space: ModelSpace, t: float, d):
    """Heat kernel p_t at geodesic distance d (vectorized in d).

    Closed forms on R^m and H^3.  On H^2 McKean's single-integral formula
    is one Millson transform for all of d at once (_h2_millson); below
    1e-8 min(sqrt t, 1) the kernel, even and smooth in d, is its value
    there to rounding, which keeps the transform's d > 0.
    """
    if not 0.0 < t < math.inf:
        raise DomainError("time must be positive and finite")
    d = np.asarray(d, dtype=float)
    if np.any(d < 0.0):
        raise DomainError("distance must be nonnegative")
    m = space.dim
    if space.kind == EUCLIDEAN:
        return (2.0 * math.pi * t) ** (-m / 2.0) * np.exp(-d * d / (2.0 * t))
    if m == 3:
        # (2 pi t)^{-3/2} (d / sinh d) e^{-t/2 - d^2/(2t)}
        small = d < 1e-6
        safe = np.where(small, 1.0, d)
        factor = np.where(small, 1.0 - d * d / 6.0, safe / np.sinh(safe))
        return (2.0 * math.pi * t) ** -1.5 * factor * np.exp(-t / 2.0 - d * d / (2.0 * t))
    # With tau = t/2 the Delta-convention formula reads
    #     p(tau, d) = sqrt(2) (4 pi tau)^{-3/2} e^{-tau/4}
    #                 integral_d^inf s e^{-s^2/(4 tau)} / sqrt(cosh s - cosh d) ds,
    # so in the Delta/2 convention the prefactor is sqrt(2) (2 pi t)^{-3/2} e^{-t/8}.
    coef = math.sqrt(2.0) * (2.0 * math.pi * t) ** -1.5 * math.exp(-t / 8.0)
    near = np.maximum(d, 1e-8 * min(math.sqrt(t), 1.0))
    out = coef * _h2_millson(lambda s, shift: s * np.exp(shift - s * s / (2.0 * t)),
                             near, np.sqrt(near * near + 2.0 * t * _TAIL_LOG))[0]
    return out.reshape(d.shape) if d.ndim else float(out)


# A Millson transform starts from one panel per _TAU_PANEL of tau (a factor
# of about e^2 in s = d cosh 2 tau) plus _HEAD_PANELS: where d >> sqrt t,
# T is below 1 and the kernel falls by e^-_TAIL_LOG across [0, T], more than
# one 15-point panel resolves.  Each transform of an H^2 Coulomb
# kato_verdict, of C_8 and of the off-centre eta(0.01) and C_8 at b = 0.5
# then meets its target in the first round; with 0.75 wide panels and one
# more, 953 of the 961 transforms of that eta(0.01) take another round
_TAU_PANEL = 1.0
_HEAD_PANELS = 4
# relative rounding allowance of a Millson transform's value
_ROUNDING = 1e-12
# distances within this many binades share one panel_integral call: a call
# gives every distance the tau-panel count of the largest T among them
_TRANSFORM_BINADES = 2


def _h2_millson(f, d, s_max, shift: float = 0.0):
    """(value, error) of e^shift integral_d^s_max f(s) / sqrt(cosh s - cosh d) ds, d > 0.

    The H^2 Millson transform, vectorized over d, s_max and shift (one
    shape; floats in and out for scalars).  ``f(s, shift)`` takes arrays and
    returns f(s) e^shift, so a caller can fold an exponential growth factor
    into f's own exponent.  The substitution s = d + u^2,
    u = sqrt(2d) sinh tau, that is s = d cosh 2 tau, turns it into

        4 sqrt(2) integral_0^T f(s, shift - s/2) sqrt(x q / (E(x) E(q))) d tau,

    with q = d sinh^2 tau, x = d + q = d cosh^2 tau, s = x + q and
    E(y) = 1 - e^{-2y}, since cosh s - cosh d = 2 sinh x sinh q =
    e^s E(x) E(q) / 2.  The integrand is analytic in tau for every d > 0:
    the inverse-square-root endpoint and, for the kernels with a pole, the
    pole as d -> 0 both go into the Jacobian, and nothing overflows at
    large s.  T grows like log(1/d) / 2; with tau = T v the distances of
    each group of _TRANSFORM_BINADES binades share the Gauss-Kronrod panels
    in v (panel_integral, 1e-8 relative), which start at most _TAU_PANEL
    wide in tau for the group's largest T, and at least _HEAD_PANELS to a
    transform.  The error adds _ROUNDING of the value:
    an exponential's relative rounding error is about its argument (at most
    745) times 2.2e-16.
    """
    d, s_max = np.asarray(d, dtype=float), np.asarray(s_max, dtype=float)
    top = np.arcsinh(np.sqrt((s_max - d) / (2.0 * d)))
    shift = np.broadcast_to(np.asarray(shift, dtype=float), d.shape)
    val, err = np.empty(d.shape), np.empty(d.shape)
    group = np.frexp(d)[1] // _TRANSFORM_BINADES
    for key in np.unique(group):
        at = group == key
        near, span, sh = (a[at][:, None, None] for a in (d, top, shift))

        def integrand(v, near=near, span=span, sh=sh):
            q = near * np.sinh(span * v) ** 2
            x = near + q
            s = x + q
            twice = -2.0 * q
            return f(s, sh - 0.5 * s) * np.sqrt(
                x * q / (np.expm1(twice) * np.expm1(twice - 2.0 * near)))

        panels = int(top[at].max() // _TAU_PANEL) + _HEAD_PANELS
        val[at], err[at] = panel_integral(integrand, panels)
    val = 4.0 * math.sqrt(2.0) * top * val
    err = 4.0 * math.sqrt(2.0) * top * err + _ROUNDING * np.abs(val)
    if d.ndim == 0:
        return float(val), float(err)
    return val, err


def heat_mass(space: ModelSpace, t: float) -> float:
    """Total kernel mass integral p_t(x, y) vol(dy), by radial quadrature.

    The same from every point x of a model space.  Equals 1 on these
    stochastically complete spaces; computing it rather than asserting it
    is the point, since it exercises the kernel and the cutoff machinery
    end to end.  The kernel times the ring area is one array integrand of
    quadrature.radial_integral.
    """
    r_max = kernel_tail_radius(space, t)

    def integrand(r):
        return heat_kernel_radial(space, t, r) * ring_area(space, r)

    val, err = radial_integral(integrand, r_max)
    if not err <= 1e-8:
        raise QuadratureError("heat mass quadrature did not converge", achieved_error=err)
    return val


def chapman_kolmogorov_residual(space: ModelSpace, s: float, t: float, x, y) -> float:
    """| p_{t+s}(x,y) - integral p_t(x,z) p_s(z,y) vol(dz) |.

    The convolution is reduced to polar coordinates around x: the radial
    integral is one quadrature.radial_integral with a breakpoint at d(x, y),
    and at each of its radii rho the ring times the mean of p_s(., y) over
    the sphere of radius rho is one sphere_mean (_sphere_means).
    """
    if not (0.0 < s < math.inf and 0.0 < t < math.inf):
        raise DomainError("times must be positive and finite")
    x = space.validate_point(x)
    y = space.validate_point(y)
    d = distance(space, x, y)
    direct = float(heat_kernel_radial(space, t + s, d))

    r_max = kernel_tail_radius(space, t) + d + kernel_tail_radius(space, s)

    def kernel_s(rho, shift):
        return heat_kernel_radial(space, s, rho) * math.exp(shift)

    def integrand(rho):
        return heat_kernel_radial(space, t, rho) * _sphere_means(space, kernel_s, rho, d, ())[0]

    val, _ = radial_integral(integrand, r_max, points=[d])
    return abs(direct - val)


@dataclass(frozen=True)
class VolumeProfile:
    """Ball-volume comparison profile l_{m,kappa} for any finite kappa."""

    dim: int
    kappa: float

    def __post_init__(self):
        _check_dimension(self.dim)
        if not math.isfinite(self.kappa):
            raise DomainError("curvature must be finite")


def _int_sinh_pow(n: int, x: float) -> float:
    """integral_0^x sinh^n(u) du by the standard reduction."""
    if n == 0:
        return x
    vals = {0: x, 1: math.cosh(x) - 1.0}
    for k in range(2, n + 1):
        if k not in vals:
            vals[k] = (math.sinh(x) ** (k - 1) * math.cosh(x) - (k - 1) * vals[k - 2]) / k
    return vals[n]


def _int_sin_pow(n: int, x: float) -> float:
    """integral_0^x sin^n(u) du by the standard reduction."""
    if n == 0:
        return x
    vals = {0: x, 1: 1.0 - math.cos(x)}
    for k in range(2, n + 1):
        if k not in vals:
            vals[k] = (-math.sin(x) ** (k - 1) * math.cos(x) + (k - 1) * vals[k - 2]) / k
    return vals[n]


def model_ball_volume(profile: VolumeProfile, r: float) -> float:
    """Volume of the geodesic r-ball in the constant-curvature comparison space.

    l_{m,kappa}(r) = area(S^{m-1}) integral_0^r snk(s)^{m-1} ds with snk the
    kappa-rescaled sin / identity / sinh.  Positive curvature restricts r to
    (0, pi/sqrt(kappa)].
    """
    if not 0.0 <= r < math.inf:
        raise DomainError("radius must be nonnegative and finite")
    m, kappa = profile.dim, profile.kappa
    c = sphere_area(m)
    if r == 0.0:
        return 0.0
    if kappa == 0.0:
        return c * r ** m / m
    if kappa > 0.0:
        if r > math.pi / math.sqrt(kappa) + 1e-15:
            raise DomainError("radius exceeds the diameter of the positive-curvature model")
        return c * kappa ** (-m / 2.0) * _int_sin_pow(m - 1, r * math.sqrt(kappa))
    return c * (-kappa) ** (-m / 2.0) * _int_sinh_pow(m - 1, r * math.sqrt(-kappa))


def h_kernel(m: int, r):
    """Radial weight h_m used by the analytic small-ball criterion (vectorized in r).

    h_m(r) = r^{2-m} for m > 2 and log(1/r) for m = 2.  Dimension 1 has no
    such weight (the criterion degenerates to local integrability there).
    """
    if m == 1:
        raise DomainError("h_kernel is undefined for dimension 1")
    radius = np.asarray(r, dtype=float)
    if np.any(radius <= 0.0):
        raise DomainError("radius must be positive")
    out = np.log(1.0 / radius) if m == 2 else radius ** (2 - m)
    return float(out) if radius.ndim == 0 else out

"""Heat-kernel smallness functionals for potentials and the bounds they induce.

The two central quantities for a potential v on a model space M are

    eta(t) = sup_x integral_0^t integral_M p_s(x, y) |v(y)| vol(dy) ds,
    C_r    = sup_x integral_0^inf e^{-r s} integral_M p_s(x, y) |v(y)| vol(dy) ds,

the small-time functional and its resolvent-smoothed companion.  v belongs
to the Kato class exactly when eta(t) -> 0 as t -> 0, and the two are
sandwiched by (1 - e^{-rt}) C_r <= eta(t) <= e^{rt} C_r.  Whenever some
C_r < 1, the potential is a relative form perturbation of -Delta/2 with
bound C_r and offset r*C_r, which is what form_bound_constants returns.
On transient spaces (R^m with m >= 3, H^2, H^3) r = 0 is allowed: C_0 is
the sup of the Green potential of |v|.

Each "sup" is a max over the caller-supplied probe points, which must
include a point at every singular radius of v; the returned argmax says
which probe attained it.

By Fubini both functionals are one spatial integral of |v| against a
radial kernel, K_t = integral_0^t p_s ds for eta and the resolvent kernel
G_r = integral_0^inf e^{-rs} p_s ds for C_r, and both kernels have closed
forms: incomplete gamma / exp1 / erfc on R^m, modified Bessel K for G_r,
erfc pairs and e^{-k rho} / (2 pi sinh rho) on H^3, and the Millson
transform of the same closed-form time integrals on H^2.  For a probe at
distance b from the centre of v the integral is a radial one against the
sphere mean of the kernel, which is the kernel itself at b = 0, a
reflection pair on R^1, a closed-form chord integral on R^3 and H^3, and
the kernel at max(w, b) for the (harmonic) Green kernel G_0.  The radial
tail is summed over doubling windows; divergent integrals are classified
and reported as +inf.

Probes off the centre of R^2, R^m (m >= 4) and H^2 have no such sphere
mean, so there eta and C_r (r > 0) take the nested route: time or Laplace
quadrature outside, the spatial average F(s) inside.  The nested route is
also the oracle the tests compare the kernel route against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.optimize import brentq
from scipy.special import erfc, erfcx, exp1, gammaincc, i0e, kve

from .errors import DomainError, NotFormBoundedError
from .geometry import (
    EUCLIDEAN,
    HYPERBOLIC,
    ModelSpace,
    distance,
    h_kernel,
    heat_kernel_radial,
    kernel_tail_radius,
    law_of_cosines,
    sphere_area,
)
from .geometry import _TAIL_LOG, _h2_kernel_scalar, _h2_millson
from .potentials import Potential
from .quadrature import (
    DIVERGENCE_CAP,
    OUTER_REL,
    SPATIAL_REL,
    laplace_integral,
    polar_angle_rule,
    radial_integral,
    sqrt_substitution_integral,
)

_INNER_REL_BUDGET = 1e-7  # folded into reported errors for nested quadrature

# Probes closer than this to the centre of v are treated as the centre.
_CENTRE = 1e-14


# ---------------------------------------------------------------------------
# scalar kernel helpers (hot loop: plain math, no array overhead)

def _kernel_scalar(space: ModelSpace, s: float, w: float) -> float:
    m = space.dim
    if space.kind == EUCLIDEAN:
        return (2.0 * math.pi * s) ** (-m / 2.0) * math.exp(-w * w / (2.0 * s))
    if m == 3:
        if w < 1e-6:
            factor = 1.0 - w * w / 6.0
        else:
            factor = w / math.sinh(w)
        return (2.0 * math.pi * s) ** -1.5 * factor * math.exp(-s / 2.0 - w * w / (2.0 * s))
    return _h2_kernel_scalar(s, w)


def _ring_scalar(space: ModelSpace, w: float) -> float:
    m = space.dim
    if space.kind == EUCLIDEAN:
        return sphere_area(m) * w ** (m - 1)
    return sphere_area(m) * math.sinh(w) ** (m - 1)


def _sphere_mean_kernel(space: ModelSpace, s: float, w: float, b: float) -> float:
    """Mean of p_s over the geodesic sphere of radius w, seen from distance b.

    Closed forms in dimension 3 (both curvatures) and the Euclidean plane;
    the hyperbolic plane falls back to an angular rule over the quadrature
    kernel, which is supported but slow.
    """
    if b <= 1e-14 or w <= 1e-14:
        return _kernel_scalar(space, s, max(w, b))
    m = space.dim
    if m == 3:
        z = w * b / s
        gap = -math.expm1(-2.0 * z) / (2.0 * z) if z > 1e-12 else 1.0
        gauss = math.exp(-(w - b) * (w - b) / (2.0 * s)) * gap
        if space.kind == EUCLIDEAN:
            return (2.0 * math.pi * s) ** -1.5 * gauss
        # hyperbolic correction: sinh-weighted chord substitution
        return (2.0 * math.pi * s) ** -1.5 * math.exp(-s / 2.0) * \
            (w * b / (math.sinh(w) * math.sinh(b))) * gauss
    if space.kind == EUCLIDEAN and m == 2:
        z = w * b / s
        return (2.0 * math.pi * s) ** -1.0 * i0e(z) * \
            math.exp(-(w - b) * (w - b) / (2.0 * s))
    if space.kind == EUCLIDEAN and m == 1:
        return 0.5 * (_kernel_scalar(space, s, abs(w - b)) + _kernel_scalar(space, s, w + b))
    return _sphere_mean_rule(space, s, w, b)


def _sphere_mean_rule(space: ModelSpace, s: float, w: float, b: float) -> float:
    # Generic angular rule; adequate unless the kernel is much narrower than
    # the angular node spacing (small s with large w*b), which the closed
    # forms above avoid for every bundled case.
    theta, weights = polar_angle_rule(space.dim, 96)
    vals = heat_kernel_radial(space, s, law_of_cosines(space, w, b, theta))
    total_angle = float(np.sum(weights))
    return float(np.dot(weights, vals)) / total_angle


# ---------------------------------------------------------------------------
# spatial averages

def _average_b(v: Potential, b: float, s: float):
    """(value, error) of integral p_s(x, .) |v| dvol for a probe at distance b."""
    space = v.space
    abs_scalar = _abs_scalar_fn(v)
    r_hi = kernel_tail_radius(space, s, extra=b)

    def integrand(w):
        ring = _ring_scalar(space, w)
        if ring == 0.0:
            return 0.0
        vw = abs_scalar(w)
        if not math.isfinite(vw):
            return math.inf
        return vw * ring * _sphere_mean_kernel(space, s, w, b)

    breakpoints = set(v.singular_radii)
    if b > 0.0:
        # the kernel peak and the inner end of its support: a peak much
        # narrower than [0, b] would otherwise fall between QUADPACK's nodes
        breakpoints.update((b, 2.0 * b - r_hi))
    val, err = radial_integral(integrand, r_hi, singular=sorted(breakpoints))
    return val, err


def _abs_scalar_fn(v: Potential):
    sc = v.radial_scalar
    if sc is not None:
        return lambda w: abs(sc(w))
    fn = v.radial

    def abs_scalar(w: float) -> float:
        return abs(float(fn(np.float64(w))))

    return abs_scalar


def _probe_distances(v: Potential, probes) -> list[float]:
    if probes is None or len(probes) == 0:
        raise DomainError("probe list must be non-empty")
    space = v.space
    origin = space.origin()
    dists = [distance(space, origin, p) for p in probes]
    for w_star in v.singular_radii:
        tol = 1e-9 * max(1.0, w_star)
        if not any(abs(d - w_star) <= tol for d in dists):
            raise DomainError(
                f"probes must include a point at each singular radius (missing {w_star})")
    return dists


def heat_potential_average(v: Potential, x, s: float) -> float:
    """integral p_s(x, y) |v(y)| vol(dy); +inf when the integral diverges."""
    if s <= 0.0:
        raise DomainError("time must be positive")
    b = distance(v.space, v.space.origin(), v.space.validate_point(x))
    val, _ = _average_b(v, b, s)
    return float(val)


# ---------------------------------------------------------------------------
# the nested route: time or Laplace quadrature over F(s) = _average_b, for
# probes without a closed-form sphere mean and as the tests' oracle

def _nested_b(v: Potential, b: float, outer, x: float):
    """(value, error) of outer(F, x) over F(s) = _average_b, with the inner budget added."""
    val, err, diverged = outer(lambda s: _average_b(v, b, s)[0], x, rel=OUTER_REL)
    if diverged:
        return math.inf, math.inf
    return val, err + _INNER_REL_BUDGET * abs(val)


def _nested_eta_b(v: Potential, b: float, t: float):
    return _nested_b(v, b, sqrt_substitution_integral, t)


def _nested_resolvent_b(v: Potential, b: float, r: float):
    return _nested_b(v, b, laplace_integral, r)


# ---------------------------------------------------------------------------
# the kernel route: one radial integral against K_t or G_r

@dataclass(frozen=True)
class _Kernel:
    """A radial kernel k(rho) with what the kernel route needs to integrate it.

    Values come scaled by e^shift so the caller can fold the hyperbolic
    ring growth e^{(m-1) w} into the kernel's own decaying exponent.
    """

    # (rho, shift) -> k(rho) e^shift, rho > 0
    radial: Callable[[float, float], float]
    # distance beyond which ring * k is negligible; inf when it does not decay
    reach: float
    # (lo, h, shift) -> e^shift integral_lo^{lo+h} k(rho) S(rho) d rho, in dimension 3
    chord: Callable[[float, float, float], float] | None = None
    # k is harmonic off its pole, so every sphere mean is k(max(w, b))
    harmonic: bool = False


def _split_S(hyperbolic: bool, rho: float):
    """S(rho) as (scaled, exponent): (rho, 0) on R^m, (e^{-rho} sinh rho, rho) on H^m."""
    if hyperbolic:
        return -0.5 * math.expm1(-2.0 * rho), rho
    return rho, 0.0


def _erfc_pair(rho: float, t: float, c: float, sign: float = 1.0, shift: float = 0.0) -> float:
    """e^shift [e^{c rho} erfc((rho + c t)/sqrt(2t)) + sign e^{-c rho} erfc((rho - c t)/sqrt(2t))].

    Written through erfcx both terms carry the factor exp(-(rho^2/t + c^2 t)/2),
    so e^{c rho} erfc(...) neither overflows nor underflows early.
    """
    sigma = math.sqrt(2.0 * t)
    gauss = math.exp(shift - 0.5 * (rho * rho / t + c * c * t))
    x_minus = (rho - c * t) / sigma
    if x_minus >= 0.0:
        minus = erfcx(x_minus) * gauss
    else:
        minus = math.exp(shift - c * rho) * erfc(x_minus)
    return erfcx((rho + c * t) / sigma) * gauss + sign * minus


def _heat_kernel(space: ModelSpace, t: float) -> _Kernel:
    """K_t(rho) = integral_0^t p_s(rho) ds."""
    m = space.dim
    hyperbolic = space.kind == HYPERBOLIC
    sigma = math.sqrt(2.0 * t)
    reach = kernel_tail_radius(space, t)
    if m == 3:
        # K_t S = pair / (4 pi), c = 0 on R^3 (where pair = 2 erfc) and c = 1 on H^3
        c = 1.0 if hyperbolic else 0.0
        short = 1e-3 * min(sigma, 1.0)

        def kernel_S(rho, shift):
            return _erfc_pair(rho, t, c, shift=shift) / (4.0 * math.pi)

        def radial(rho, shift):
            scaled, exponent = _split_S(hyperbolic, rho)
            return kernel_S(rho, shift - exponent) / scaled

        def antiderivative(rho, shift):
            if hyperbolic:
                return _erfc_pair(rho, t, 1.0, -1.0, shift) / (4.0 * math.pi)
            # integral erfc(x) dx = x erfc(x) - e^{-x^2}/sqrt(pi)
            x = rho / sigma
            return sigma * math.exp(shift - x * x) * (x * erfcx(x) - 1.0 / math.sqrt(math.pi)) \
                / (2.0 * math.pi)

        def chord(lo, h, shift):
            if h < short:
                # the antiderivative difference would cancel; two-point Gauss instead
                mid, off = lo + 0.5 * h, h / (2.0 * math.sqrt(3.0))
                return 0.5 * h * (kernel_S(mid - off, shift) + kernel_S(mid + off, shift))
            return antiderivative(lo + h, shift) - antiderivative(lo, shift)

        return _Kernel(radial, reach, chord)
    if hyperbolic:
        # Millson transform of the closed-form time integral (c = 1/2 on H^2)
        def millson(rho, shift):
            return math.sqrt(2.0) * _h2_millson(
                lambda s, sh: _erfc_pair(s, t, 0.5, shift=sh) / (4.0 * math.pi),
                rho, rho + math.sqrt(2.0 * t * _TAIL_LOG) + t, shift)

        return _Kernel(millson, reach)
    if m == 1:
        def line(rho, shift):
            x = rho / sigma
            return math.exp(shift - x * x) * (math.sqrt(2.0 * t / math.pi) - rho * erfcx(x))

        return _Kernel(line, reach)
    if m == 2:
        return _Kernel(lambda rho, shift: exp1(rho * rho / (2.0 * t)) / (2.0 * math.pi), reach)
    a = m / 2.0 - 1.0
    coef = math.gamma(a) / (2.0 * math.pi ** (m / 2.0))
    return _Kernel(lambda rho, shift: coef * rho ** (2 - m) * gammaincc(a, rho * rho / (2.0 * t)),
                   reach)


def _green_kernel(space: ModelSpace, r: float) -> _Kernel:
    """G_r(rho) = integral_0^inf e^{-rs} p_s(rho) ds, the kernel of (r - Delta/2)^{-1}.

    With c = (m - 1)/2 on H^m and 0 on R^m it decays like e^{-k rho},
    k = sqrt(2r + c^2), against a ring area growing like e^{2c rho}.
    """
    m = space.dim
    hyperbolic = space.kind == HYPERBOLIC
    c = (m - 1) / 2.0 if hyperbolic else 0.0
    k = math.sqrt(2.0 * r + c * c)
    reach = _TAIL_LOG / (k - c) if k > c else math.inf
    harmonic = r == 0.0
    if m == 3:
        def radial(rho, shift):
            scaled, exponent = _split_S(hyperbolic, rho)
            return math.exp(shift - exponent - k * rho) / (2.0 * math.pi * scaled)

        def chord(lo, h, shift):
            return math.exp(shift - k * lo) * -math.expm1(-k * h) / (2.0 * math.pi * k)

        return _Kernel(radial, reach, chord, harmonic)
    if hyperbolic:
        if harmonic:
            # log coth(rho/2) / pi with y = 2 / (e^rho - 1)
            def green(rho, shift):
                y = 2.0 * math.exp(-rho) / -math.expm1(-rho)
                ratio = math.log1p(y) / y if y > 0.0 else 1.0
                return ratio * 2.0 * math.exp(shift - rho) / -math.expm1(-rho) / math.pi

            return _Kernel(green, reach, harmonic=True)

        def millson(rho, shift):
            return math.sqrt(2.0) * _h2_millson(
                lambda s, sh: math.exp(sh - k * s) / (2.0 * math.pi),
                rho, rho + _TAIL_LOG / (k + c), shift)

        return _Kernel(millson, reach)
    if m == 1:
        return _Kernel(lambda rho, shift: math.exp(-k * rho) / k, reach)
    nu = m / 2.0 - 1.0
    if harmonic:
        coef = math.gamma(nu) / (2.0 * math.pi ** (m / 2.0))
        return _Kernel(lambda rho, shift: coef * rho ** (2 - m), reach, harmonic=True)
    coef = 2.0 * (2.0 * math.pi) ** (-m / 2.0)
    return _Kernel(
        lambda rho, shift: coef * (rho / k) ** -nu * kve(nu, k * rho) * math.exp(-k * rho),
        reach)


def _has_sphere_mean(space: ModelSpace, b: float) -> bool:
    """Whether the kernel route serves a probe at distance b (r > 0)."""
    return b <= _CENTRE or space.dim in (1, 3)


def _fubini_b(v: Potential, b: float, kernel: _Kernel):
    """(value, error) of integral |v(y)| k(d(x, y)) vol(dy) for a probe at distance b.

    In polar coordinates about the centre of v this is the radial integral
    of |v(w)| ring(w) times the mean of k over the sphere of radius w.
    """
    space = v.space
    m = space.dim
    hyperbolic = space.kind == HYPERBOLIC
    area = sphere_area(m)
    radial = kernel.radial
    if b <= _CENTRE or kernel.harmonic:
        def ring_mean(w):
            scaled, exponent = _split_S(hyperbolic, w)
            return area * scaled ** (m - 1) * radial(max(w, b), (m - 1) * exponent)
    elif m == 1:
        def ring_mean(w):
            return radial(abs(w - b), 0.0) + radial(w + b, 0.0)
    else:
        # ring(w) chord / (2 S(w) S(b)) = 2 pi S(w) chord / S(b); the chord
        # runs from |w - b| to w + b, its length taken exactly as 2 min(w, b)
        chord = kernel.chord
        s_b = math.sinh(b) if hyperbolic else b

        def ring_mean(w):
            scaled, exponent = _split_S(hyperbolic, w)
            return 2.0 * math.pi * scaled * chord(abs(w - b), 2.0 * min(w, b), exponent) / s_b

    abs_scalar = _abs_scalar_fn(v)

    def integrand(w):
        if w == 0.0 and m > 1:
            return 0.0
        vw = abs_scalar(w)
        if vw == 0.0:
            return 0.0
        if not math.isfinite(vw):
            return math.inf
        return vw * ring_mean(w)

    breakpoints = set(v.singular_radii)
    if b > _CENTRE:
        breakpoints.add(b)
    return _radial_tail(integrand, kernel.reach + b, sorted(breakpoints))


_TAIL_WINDOWS = 64
_FLAT_WINDOWS = 8


def _radial_tail(integrand, reach: float, breakpoints):
    """(value, error) of integral_0^inf integrand over doubling windows.

    A head up to min(reach, a scale of the breakpoints) comes first, so a
    compactly supported potential is never lost in one wide QUADPACK call.
    The sum stops at the first window that is negligible against a nonzero
    total, or at any negligible window past the reach.  Windows past the
    reach (every window, for a kernel that does not decay) that stop
    shrinking, or a total past DIVERGENCE_CAP, classify the integral as
    divergent: (+inf, +inf).
    """
    def segment(lo, hi):
        return radial_integral(lambda u: integrand(lo + u), hi - lo,
                               singular=[p - lo for p in breakpoints if lo < p < hi])

    head = min(reach, max(1.0, 2.0 * max(breakpoints, default=0.0)))
    total, err = segment(0.0, head)
    lo, prev, flat = head, 0.0, 0
    for _ in range(_TAIL_WINDOWS):
        if math.isinf(total) or abs(total) > DIVERGENCE_CAP:
            return math.inf, math.inf
        window, window_err = segment(lo, 2.0 * lo)
        total += window
        err += window_err
        past = lo >= reach
        lo *= 2.0
        if abs(window) <= SPATIAL_REL * abs(total) and (past or total != 0.0):
            return total, err + abs(window)
        if past or math.isinf(reach):
            flat = flat + 1 if 0.0 < abs(window) and abs(window) >= 0.96 * abs(prev) else 0
            if flat >= _FLAT_WINDOWS:
                return math.inf, math.inf
        prev = window
    if total == 0.0:
        return 0.0, err
    return math.inf, math.inf


def _eta_b(v: Potential, b: float, t: float):
    if _has_sphere_mean(v.space, b):
        return _fubini_b(v, b, _heat_kernel(v.space, t))
    return _nested_eta_b(v, b, t)


def _resolvent_b(v: Potential, b: float, r: float):
    if r == 0.0 or _has_sphere_mean(v.space, b):
        return _fubini_b(v, b, _green_kernel(v.space, r))
    return _nested_resolvent_b(v, b, r)


def _max_over_probes(fn, dists):
    """(value, error, argmax index) of fn(b) -> (value, error) over the probe distances.

    Stops at the first +inf, which no later probe can exceed.
    """
    best, best_err, best_i = -math.inf, math.inf, 0
    for i, b in enumerate(dists):
        val, err = fn(b)
        if val > best:
            best, best_err, best_i = val, err, i
        if math.isinf(best):
            break
    return float(best), best_err, best_i


def _check_resolvent_parameter(space: ModelSpace, r: float) -> None:
    if r < 0.0:
        raise DomainError("resolvent parameter must be nonnegative")
    if r == 0.0 and not _transient(space):
        raise DomainError("C_0 needs a transient space (R^m with m >= 3, H^2 or H^3)")


def _transient(space: ModelSpace) -> bool:
    return space.kind == HYPERBOLIC or space.dim >= 3


# ---------------------------------------------------------------------------
# the functionals

def kato_eta(v: Potential, t: float, probes):
    """Small-time functional eta(t) as a max over probes.

    Returns (value, probe) where probe attains the maximum.  The value is
    +inf when the integral diverges at some probe.
    """
    if t <= 0.0:
        raise DomainError("time horizon must be positive")
    dists = _probe_distances(v, probes)
    best, _, best_idx = _max_over_probes(lambda b: _eta_b(v, b, t), dists)
    return best, probes[best_idx]


def resolvent_constant(v: Potential, r: float, probes) -> float:
    """Resolvent-smoothed constant C_r as a max over probes; +inf if divergent.

    r = 0 gives the Green potential C_0 on transient spaces.
    """
    _check_resolvent_parameter(v.space, r)
    dists = _probe_distances(v, probes)
    return _max_over_probes(lambda b: _resolvent_b(v, b, r), dists)[0]


@dataclass
class SandwichResult:
    r: float
    t: float
    lower: float
    eta: float
    upper: float
    slack: float

    @property
    def lower_ok(self) -> bool:
        return self.lower <= self.eta + self.slack

    @property
    def upper_ok(self) -> bool:
        return self.eta <= self.upper + self.slack

    @property
    def ok(self) -> bool:
        return self.lower_ok and self.upper_ok


def sandwich_check(v: Potential, r: float, t: float, probes) -> SandwichResult:
    """Check (1 - e^{-rt}) C_r <= eta(t) <= e^{rt} C_r at one (r, t) pair.

    The slack is twice the combined quadrature error estimate of the three
    quantities involved.
    """
    _check_resolvent_parameter(v.space, r)
    dists = _probe_distances(v, probes)
    eta_val, eta_err, _ = _max_over_probes(lambda b: _eta_b(v, b, t), dists)
    cr_val, cr_err, _ = _max_over_probes(lambda b: _resolvent_b(v, b, r), dists)
    if math.isinf(eta_val) or math.isinf(cr_val):
        raise DomainError("sandwich check needs finite eta and C_r")
    lower = -math.expm1(-r * t) * cr_val
    upper = math.exp(r * t) * cr_val
    slack = 2.0 * (eta_err + math.exp(r * t) * cr_err)
    return SandwichResult(r=r, t=t, lower=lower, eta=eta_val, upper=upper, slack=slack)


def analytic_kato_functional(v: Potential, radius: float, probes) -> float:
    """Small-ball functional sup_x integral_{B_radius(x)} |v| h_m(d(x, y)) dvol.

    h_m is the Green-type radial weight (r^{2-m} for m > 2, log(1/r) for
    m = 2); it vanishes as a criterion in dimension 1, which raises.
    """
    space = v.space
    m = space.dim
    if m == 1:
        raise DomainError("the small-ball functional is undefined in dimension 1")
    if radius <= 0.0:
        raise DomainError("radius must be positive")
    if m == 2 and radius >= 1.0:
        raise DomainError("log weight needs radius < 1")
    dists = _probe_distances(v, probes)
    return _max_over_probes(lambda b: _ball_integral(v, b, radius, lambda rho: h_kernel(m, rho)),
                            dists)[0]


def _ball_integral(v: Potential, b: float, radius: float, weight):
    """(value, error) of integral_{B_radius(x)} |v(y)| weight(d(x, y)) dvol, x at distance b.

    On R^1 the ball is the segment at signed offsets u - radius, u in
    [0, 2 radius].  At the centre of v it is one radial integral; off the
    centre a polar rule about the probe, the angular rule carrying |v| at
    the law-of-cosines distance.
    """
    space = v.space
    m = space.dim
    abs_scalar = _abs_scalar_fn(v)
    if m == 1:
        def integrand(u):
            vw = abs_scalar(abs(b + u - radius))
            return vw * weight(abs(u - radius)) if math.isfinite(vw) else math.inf

        # shift so the singular radii map onto breakpoints
        breaks = sorted({radius - b + ws for ws in v.singular_radii} |
                        {radius - b - ws for ws in v.singular_radii})
        return radial_integral(integrand, 2.0 * radius,
                               singular=[p for p in breaks if 0 < p < 2 * radius])

    if b <= _CENTRE:
        def integrand(w):
            ring = _ring_scalar(space, w)
            if ring == 0.0:
                return 0.0
            vw = abs_scalar(w)
            if not math.isfinite(vw):
                return math.inf
            return vw * ring * weight(w)

        breaks = sorted(set(v.singular_radii))
    else:
        theta, weights = polar_angle_rule(m, 96)
        angle_front = sphere_area(m - 1)

        def integrand(rho):
            ring_ratio = _ring_scalar(space, rho) / sphere_area(m)
            if ring_ratio == 0.0:
                return 0.0
            w_vals = law_of_cosines(space, rho, b, theta)
            v_vals = np.abs(np.asarray(v.radial(w_vals), dtype=float))
            if not np.all(np.isfinite(v_vals)):
                return math.inf
            return weight(rho) * ring_ratio * angle_front * float(np.dot(weights, v_vals))

        breaks = sorted({abs(b - ws) for ws in v.singular_radii} |
                        {b + ws for ws in v.singular_radii})
    return radial_integral(integrand, radius, singular=breaks)


def lp_kato_classify(p: float, m: int) -> str:
    """Integrability rule: which (p, m) guarantee L^p + L^inf membership.

    'sufficient' when p >= 1 for m = 1, or p > m/2 for m >= 2 (under the
    standard on-diagonal kernel bound); 'not_covered' otherwise.
    """
    if p < 1.0:
        raise DomainError("p must be >= 1")
    if m < 1:
        raise DomainError("dimension must be >= 1")
    if m == 1:
        return "sufficient"
    return "sufficient" if p > m / 2.0 else "not_covered"


_R_SEARCH_CAP = 1e12


def form_bound_constants(v: Potential, probes, target_c1: float):
    """Smallest r with C_r <= target_c1, returned as (r, C1, C2 = r*C1).

    The pair certifies the form bound q_|v|(u) <= C1 q(u) + C2 |u|^2 against
    the kinetic form q of -Delta/2.  On transient spaces the Green potential
    C_0 comes first: when C_0 <= target_c1 the answer is (0, C_0, 0).
    Otherwise C_r decreases continuously in r from C_0 (or +inf) to 0, so
    the crossing C_r = target_c1 is bracketed by factors of 4 from r = 1
    and located by Brent's method on log r.  Raises NotFormBoundedError
    when no r below 1e12 achieves the target (including divergent C_r).
    """
    if not (0.0 < target_c1 < 1.0):
        raise DomainError("target_c1 must lie in (0, 1)")
    dists = _probe_distances(v, probes)

    def c_of(r):
        return _max_over_probes(lambda b: _resolvent_b(v, b, r), dists)[0]

    if _transient(v.space):
        c0 = c_of(0.0)
        if c0 <= target_c1:
            return 0.0, c0, 0.0
    r = 1.0
    c = c_of(r)
    if math.isinf(c):
        raise NotFormBoundedError(
            "resolvent constant diverges; potential is not form-bounded this way")
    if c <= 1e-300:
        return 1.0, 0.0, 0.0
    if c <= target_c1:
        # C_r grows to C_0 > target_c1 (or without bound) as r -> 0
        while c <= target_c1:
            r_hi, r = r, 0.25 * r
            c = c_of(r)
        r_lo = r
    else:
        while c > target_c1:
            r_lo, r = r, 4.0 * r
            if r > _R_SEARCH_CAP:
                raise NotFormBoundedError(
                    f"no r below {_R_SEARCH_CAP:.0e} achieves C_r <= {target_c1}")
            c = c_of(r)
        r_hi = r
    x = brentq(lambda x: c_of(math.exp(x)) - target_c1, math.log(r_lo), math.log(r_hi),
               xtol=1e-12)
    r = math.exp(x)
    c = c_of(r)
    return r, c, r * c


@dataclass
class KatoReport:
    """Outcome of a membership study on one potential.

    Grids carry (parameter, value, error_estimate) triples; the klmn field
    is the (r, C1, C2) triple when a form bound with C1 < 1 was found.
    """

    eta_grid: list = field(default_factory=list)
    resolvent_grid: list = field(default_factory=list)
    verdict: str = "inconclusive"
    klmn: tuple | None = None
    fit_exponent: float | None = None
    argmax_probe_index: int = 0
    locally_integrable: bool = True

    def to_json_dict(self) -> dict:
        def triple(row):
            return {"parameter": row[0], "value": row[1], "error": row[2]}

        return {
            "eta_grid": [triple(r) for r in self.eta_grid],
            "resolvent_grid": [triple(r) for r in self.resolvent_grid],
            "verdict": self.verdict,
            "klmn": None if self.klmn is None else
                {"r": self.klmn[0], "c1": self.klmn[1], "c2": self.klmn[2]},
            "fit_exponent": self.fit_exponent,
            "argmax_probe_index": self.argmax_probe_index,
            "locally_integrable": self.locally_integrable,
        }


def kato_verdict(v: Potential, t_grid, probes, r_grid=(1.0, 8.0, 64.0)) -> KatoReport:
    """Full membership study: eta grid, resolvent grid, verdict, form bound.

    The verdict is 'nonmember' when eta diverges or |v| fails a local
    integrability spot check, 'member' when the power-law fit through the
    three smallest times has exponent above 0.05 (so the extrapolated
    t -> 0 limit vanishes), and 'inconclusive' otherwise.
    """
    t_grid = sorted(float(t) for t in t_grid)
    if len(t_grid) < 4:
        raise DomainError("t_grid needs at least 4 points")
    if t_grid[0] <= 0.0:
        raise DomainError("t_grid must be positive")
    dists = _probe_distances(v, probes)

    integrable = all(math.isfinite(_ball_integral(v, b, 1.0, lambda rho: 1.0)[0])
                     for b in dists)

    eta_rows = []
    argmax_idx = 0
    for t in t_grid:
        best, best_err, argmax_idx = _max_over_probes(lambda b: _eta_b(v, b, t), dists)
        eta_rows.append((t, best, best_err))

    resolvent_rows = []
    for r in sorted(float(r) for r in r_grid):
        best, best_err, _ = _max_over_probes(lambda b: _resolvent_b(v, b, r), dists)
        resolvent_rows.append((r, best, best_err))

    any_inf = any(math.isinf(row[1]) for row in eta_rows)
    fit_b = None
    if not any_inf:
        smallest = eta_rows[:3]
        if all(row[1] > 0.0 for row in smallest):
            logs_t = np.log([row[0] for row in smallest])
            logs_e = np.log([row[1] for row in smallest])
            fit_b = float(np.polyfit(logs_t, logs_e, 1)[0])
        elif all(row[1] == 0.0 for row in eta_rows):
            fit_b = math.inf  # identically zero potential

    if any_inf or not integrable:
        verdict = "nonmember"
    elif fit_b is not None and fit_b > 0.05:
        verdict = "member"
    else:
        verdict = "inconclusive"

    klmn = None
    if verdict == "member":
        try:
            klmn = form_bound_constants(v, probes, 0.5)
        except NotFormBoundedError:
            klmn = None

    report = KatoReport(eta_grid=eta_rows, resolvent_grid=resolvent_rows,
                        verdict=verdict, klmn=klmn,
                        fit_exponent=None if fit_b is None or math.isinf(fit_b) else fit_b,
                        argmax_probe_index=argmax_idx,
                        locally_integrable=integrable)
    _check_report_monotonicity(report)
    return report


def _check_report_monotonicity(report: KatoReport) -> None:
    rows = [r for r in report.eta_grid if math.isfinite(r[1])]
    for (t0, e0, err0), (t1, e1, err1) in zip(rows[:-1], rows[1:]):
        if e0 > e1 + 10.0 * (err0 + err1) + 1e-12:
            raise RuntimeError(f"eta grid lost monotonicity between t={t0} and t={t1}")
    rows = [r for r in report.resolvent_grid if math.isfinite(r[1])]
    for (r0, c0, err0), (r1, c1, err1) in zip(rows[:-1], rows[1:]):
        if c1 > c0 + 10.0 * (err0 + err1) + 1e-12:
            raise RuntimeError(f"resolvent grid lost monotonicity between r={r0} and r={r1}")

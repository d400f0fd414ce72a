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
erfc pairs and e^{-k rho} / (2 pi sinh rho) on H^3.  On H^2 each value is
the Millson transform of the same closed-form time integrals
(geometry._h2_millson, Gauss-Kronrod panels in numpy, no QUADPACK call),
one call per few binades of distance, and its largest relative error
joins the reported one.  For a probe at distance b from the centre of v
the integral is a radial one against the sphere mean of the kernel, which
is the kernel itself at b = 0, a closed-form chord integral on R^3 and
H^3, and the kernel at max(w, b) for the (harmonic) Green kernel G_0.
Everywhere else it is geometry.sphere_mean (a reflection pair on R^1,
graded panels in the polar angle on R^2, R^m with m >= 4 and H^2), one
call per radial node, whose error estimate joins the reported one.

The small-ball functional and the local integrability check take this
route with the kernel weight(rho) 1{rho < a}, so a singular radius of v
stays in the radial variable, where its condensation windows classify it.

Every Kato integral takes this one kernel route, and every radial integral
is one quadrature.radial_integral on graded panels, whose integrand (|v|,
the ring and the kernel mean) is one array call per round; the nested
time-and-space quadrature is only the tests' oracle.  The condensation
windows at each singular radius of v (radius 0 included) and the doubling
windows of the radial tail are classified as they are read, so a divergent
functional is +inf from its first round.  An integral the windows cannot
decide raises UndecidedError; kato_verdict reports it as 'inconclusive'
with a reason, never as divergence.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Callable

import numpy as np
from scipy.special import erfc, erfcx, exp1, gammaincc, kve

from .errors import DomainError, MonotonicityError, NotFormBoundedError, UndecidedError
from .geometry import (_TAIL_LOG, HYPERBOLIC, ModelSpace, _h2_millson, _sphere_means, _split_S,
                       distance, h_kernel, kernel_tail_radius, sphere_area)
from .potentials import Potential
from .quadrature import _TINY, SPATIAL_REL, radial_integral

# Probes closer than this to the centre of v are treated as the centre.
_CENTRE = 1e-14


# ---------------------------------------------------------------------------
# probes

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


# ---------------------------------------------------------------------------
# the kernel route: one radial integral against K_t or G_r

@dataclass(frozen=True)
class _Kernel:
    """A radial kernel k(rho) with what the kernel route needs to integrate it.

    Values come scaled by e^shift so the caller can fold the hyperbolic
    ring growth e^{(m-1) w} into the kernel's own decaying exponent.
    """

    # (rho, shift) -> k(rho) e^shift, vectorized in rho > 0 and shift; None
    # when only a transform gives k
    radial: Callable | None
    # distance beyond which ring * k is negligible; inf when it does not decay
    reach: float
    # (lo, h, shift) -> e^shift integral_lo^{lo+h} k(rho) S(rho) d rho, vectorized,
    # in dimension 3; without it an off-centre probe takes the generic sphere mean
    chord: Callable | None = None
    # k is harmonic off its pole, so every sphere mean is k(max(w, b))
    harmonic: bool = False
    # (rho, shift) -> (k(rho) e^shift, error) where k has no closed form (H^2),
    # vectorized like radial
    transform: Callable | None = None
    # k = 0 for rho >= support (the small-ball kernel); inf for the heat and Green kernels
    support: float = math.inf


def _erfc_pair(rho, t: float, c: float, sign: float = 1.0, shift=0.0):
    """e^shift [e^{c rho} erfc((rho + c t)/sqrt(2t)) + sign e^{-c rho} erfc((rho - c t)/sqrt(2t))].

    Vectorized in rho and shift.  Through erfcx both terms carry the factor
    exp(-(rho^2/t + c^2 t)/2), so e^{c rho} erfc(...) neither overflows nor
    underflows early; where erfcx would overflow (its argument below -25)
    the second term is e^{shift - c rho} erfc(...) as it stands.
    """
    sigma = math.sqrt(2.0 * t)
    gauss = np.exp(shift - 0.5 * (rho * rho / t + c * c * t))
    if c == 0.0:
        return (1.0 + sign) * erfcx(rho / sigma) * gauss
    x_minus = (rho - c * t) / sigma
    if np.min(x_minus) >= -25.0:
        minus = erfcx(x_minus) * gauss
    else:
        minus = np.where(x_minus >= -25.0, erfcx(np.maximum(x_minus, -25.0)) * gauss,
                         np.exp(shift - c * rho) * erfc(np.minimum(x_minus, 0.0)))
    return erfcx((rho + c * t) / sigma) * gauss + sign * minus


# Longest time of the H^2 kernel K_t: e^{-c^2 t/2} (c = 1/2) stays a normal number
_H2_MAX_T = 4000.0


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
            return sigma * np.exp(shift - x * x) * (x * erfcx(x) - 1.0 / math.sqrt(math.pi)) \
                / (2.0 * math.pi)

        def chord(lo, h, shift):
            # below h = short the antiderivative difference would cancel: two-point Gauss there
            mid, off = lo + 0.5 * h, h / (2.0 * math.sqrt(3.0))
            gauss = 0.5 * h * (kernel_S(mid - off, shift) + kernel_S(mid + off, shift))
            return np.where(h < short, gauss,
                            antiderivative(lo + h, shift) - antiderivative(lo, shift))

        return _Kernel(radial, reach, chord)
    if hyperbolic:
        # Millson transform of the closed-form time integral (c = 1/2 on H^2),
        # cut where its Gaussian has fallen by e^{-_TAIL_LOG}
        if t > _H2_MAX_T:
            raise DomainError(f"the H^2 kernel K_t is implemented for t <= {_H2_MAX_T:g}")

        def millson(rho, shift):
            val, err = _h2_millson(lambda s, sh: _erfc_pair(s, t, 0.5, shift=sh) / (4.0 * math.pi),
                                   rho, np.sqrt(rho * rho + 2.0 * t * _TAIL_LOG), shift)
            return math.sqrt(2.0) * val, math.sqrt(2.0) * err

        return _Kernel(None, reach, transform=millson)
    if m == 1:
        def line(rho, shift):
            x = rho / sigma
            return np.exp(shift - x * x) * (math.sqrt(2.0 * t / math.pi) - rho * erfcx(x))

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
            return np.exp(shift - exponent - k * rho) / (2.0 * math.pi * scaled)

        def chord(lo, h, shift):
            return np.exp(shift - k * lo) * -np.expm1(-k * h) / (2.0 * math.pi * k)

        return _Kernel(radial, reach, chord, harmonic)
    if hyperbolic:
        if harmonic:
            # log coth(rho/2) / pi with y = 2 / (e^rho - 1)
            def green(rho, shift):
                gap = -np.expm1(-rho)
                y = 2.0 * np.exp(-rho) / gap
                ratio = np.where(y > 0.0, np.log1p(y) / np.maximum(y, _TINY), 1.0)
                return ratio * 2.0 * np.exp(shift - rho) / gap / math.pi

            return _Kernel(green, reach, harmonic=True)

        def millson(rho, shift):
            val, err = _h2_millson(lambda s, sh: np.exp(sh - k * s) / (2.0 * math.pi),
                                   rho, rho + _TAIL_LOG / (k + c), shift)
            return math.sqrt(2.0) * val, math.sqrt(2.0) * err

        return _Kernel(None, reach, transform=millson)
    if m == 1:
        return _Kernel(lambda rho, shift: np.exp(-k * rho) / k, reach)
    nu = m / 2.0 - 1.0
    if harmonic:
        coef = math.gamma(nu) / (2.0 * math.pi ** (m / 2.0))
        return _Kernel(lambda rho, shift: coef * rho ** (2 - m), reach, harmonic=True)
    coef = 2.0 * (2.0 * math.pi) ** (-m / 2.0)
    return _Kernel(
        lambda rho, shift: coef * (rho / k) ** -nu * kve(nu, k * rho) * np.exp(-k * rho),
        reach)


def _fubini_b(v: Potential, b: float, kernel: _Kernel):
    """(value, error) of integral |v(y)| k(d(x, y)) vol(dy) for a probe at distance b.

    In polar coordinates about the centre of v this is the radial integral
    of |v(w)| ring(w) times the mean of k over the sphere of radius w, one
    array of w per round.  A kernel without a chord form takes the generic
    sphere mean, one call per w.  The largest relative error of a sphere
    mean and that of a kernel transform join the reported one.

    With a finite support R the integral ends at b + R, |b - R| and b + R are
    plain points, no radius s of v with |s - b| > R is declared, no node with
    |w - b| >= R takes a sphere mean, and each sphere mean is cut at R.
    """
    space, radial, support = v.space, kernel.radial, kernel.support
    cut = (support,) if math.isfinite(support) else ()
    m, hyperbolic = space.dim, space.kind == HYPERBOLIC
    # below _TINY / SPATIAL_REL a sphere mean or a transform meets only the
    # absolute floor _TINY, and its relative error says nothing about the integral
    inner_rel = kernel_rel = 0.0
    if kernel.transform is not None:
        def radial(rho, shift):
            nonlocal kernel_rel
            val, err = kernel.transform(rho, shift)
            kernel_rel = max(kernel_rel, float((err / np.maximum(val, _TINY / SPATIAL_REL)).max()))
            return val

    if b <= _CENTRE or kernel.harmonic:
        def ring_mean(w):
            scaled, exponent = _split_S(hyperbolic, w)
            ring = sphere_area(m) * scaled ** (m - 1)
            return ring * radial(np.maximum(w, b), (m - 1) * exponent)
    elif kernel.chord is not None:
        # ring(w) chord / (2 S(w) S(b)) = 2 pi S(w) chord / S(b); the chord
        # runs from |w - b| to w + b, its length taken exactly as 2 min(w, b)
        chord = kernel.chord
        s_b = math.sinh(b) if hyperbolic else b

        def ring_mean(w):
            scaled, exponent = _split_S(hyperbolic, w)
            return 2.0 * math.pi * scaled * chord(np.abs(w - b), 2.0 * np.minimum(w, b),
                                                  exponent) / s_b
    else:
        def ring_mean(w):
            nonlocal inner_rel
            out, rel = _sphere_means(space, radial, w, b, cut)
            inner_rel = max(inner_rel, rel)
            return out

    # at the centre the kernel's pole makes 0 a singular radius of the integrand
    singular, points = ((0.0, *v.singular_radii), []) if b <= _CENTRE else (v.singular_radii, [b])
    abs_v = v.abs_radial
    if cut:
        # |v| reads 0 off the spheres the support meets; a radius on its edge stays declared
        singular = [s for s in singular if abs(s - b) <= support]
        points += [abs(b - support), b + support]

        def abs_v(w):
            return np.where(np.abs(w - b) < support, v.abs_radial(w), 0.0)

    def integrand(w):
        vw = abs_v(w)
        live = np.isfinite(vw) & (vw != 0.0)
        if live.all():
            return vw * ring_mean(w)
        # |v| = +inf is a divergence whatever the kernel; |v| = 0 skips the kernel
        out = np.where(np.isfinite(vw), 0.0, math.inf)
        out[live] = vw[live] * ring_mean(w[live])
        return out

    # doubling windows from min(reach, a scale of the breakpoints), so that a
    # compactly supported potential is never lost in one wide panel: plain
    # breakpoints up to the reach, radial_integral's tail windows from the
    # first one past it (from the first one, for a kernel that does not decay).
    # A finite support is its own reach, so its one start is the end b + R
    reach = kernel.reach + b
    starts = [min(reach, max(1.0, 2.0 * max((*singular, *points))))]
    while starts[-1] < reach < math.inf:
        starts.append(2.0 * starts[-1])
    val, err = radial_integral(integrand, support + b, singular, points=points + starts)
    return val, err + (inner_rel + kernel_rel) * val if math.isfinite(val) else err


def _eta_b(v: Potential, b: float, t: float):
    return _fubini_b(v, b, _heat_kernel(v.space, t))


def _resolvent_b(v: Potential, b: float, r: float):
    return _fubini_b(v, b, _green_kernel(v.space, r))


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


def _check_time(t: float) -> None:
    if not 0.0 < t < math.inf:
        raise DomainError("time horizon must be positive and finite")


def _check_resolvent_parameter(space: ModelSpace, r: float) -> None:
    if not 0.0 <= r < math.inf:
        raise DomainError("resolvent parameter must be finite and nonnegative")
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
    _check_time(t)
    dists = _probe_distances(v, probes)
    best, _, best_idx = _max_over_probes(lambda b: _eta_b(v, b, t), dists)
    return best, probes[best_idx]


def resolvent_constant(v: Potential, r: float, probes) -> float:
    """Resolvent-smoothed constant C_r as a max over probes; +inf if divergent.

    r = 0 gives the Green potential C_0 on transient spaces.
    """
    return _resolvent_with_error(v, r, probes)[0]


def _resolvent_with_error(v: Potential, r: float, probes):
    """(C_r, its error estimate) as a max over probes."""
    _check_resolvent_parameter(v.space, r)
    dists = _probe_distances(v, probes)
    return _max_over_probes(lambda b: _resolvent_b(v, b, r), dists)[:2]


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
    _check_time(t)
    try:
        growth = math.exp(r * t)
    except OverflowError:
        raise DomainError(f"e^(r t) overflows at r t = {r * t:.6g}") from None
    dists = _probe_distances(v, probes)
    eta_val, eta_err, _ = _max_over_probes(lambda b: _eta_b(v, b, t), dists)
    cr_val, cr_err, _ = _max_over_probes(lambda b: _resolvent_b(v, b, r), dists)
    if math.isinf(eta_val) or math.isinf(cr_val):
        raise DomainError("sandwich check needs finite eta and C_r")
    lower = -math.expm1(-r * t) * cr_val
    upper = growth * cr_val
    slack = 2.0 * (eta_err + growth * cr_err)
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
    if not 0.0 < radius < math.inf:
        raise DomainError("radius must be positive and finite")
    if m == 2 and radius >= 1.0:
        raise DomainError("log weight needs radius < 1")
    dists = _probe_distances(v, probes)
    return _max_over_probes(lambda b: _ball_integral(v, b, radius, lambda rho: h_kernel(m, rho)),
                            dists)[0]


def _ball_kernel(radius: float, weight) -> _Kernel:
    """The kernel weight(rho) for rho < radius, 0 beyond; ``weight`` takes an array of distances."""
    return _Kernel(lambda rho, shift: np.where(rho < radius, weight(rho), 0.0) * np.exp(shift),
                   radius, support=radius)


def _ball_integral(v: Potential, b: float, radius: float, weight):
    """(value, error) of integral_{B_radius(x)} |v(y)| weight(d(x, y)) dvol, x at distance b."""
    return _fubini_b(v, b, _ball_kernel(radius, weight))


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
# Brent's method on log r ends within xtol + rtol |log r| of the crossing
_BRENT_XTOL, _BRENT_RTOL = 1e-12, 4.0 * float(np.finfo(float).eps)


class _FormBound(tuple):
    """The plain triple (r, C1, C2), with the error estimates of the three as ``errors``."""

    def __new__(cls, values, errors):
        bound = super().__new__(cls, values)
        bound.errors = tuple(errors)
        return bound


def form_bound_constants(v: Potential, probes, target_c1: float):
    """Smallest r with C_r <= target_c1, returned as (r, C1, C2 = r*C1).

    The pair certifies the form bound q_|v|(u) <= C1 q(u) + C2 |u|^2 against
    the kinetic form q of -Delta/2.  On transient spaces the Green potential
    C_0 comes first: when C_0 <= target_c1 the answer is (0, C_0, 0).
    Otherwise C_r decreases continuously in r from C_0 (or +inf) to 0, so
    the crossing C_r = target_c1 is bracketed by factors of 4 from r = 1
    and located by Brent's method on log r.  Raises NotFormBoundedError
    when no r below 1e12 achieves the target (including divergent C_r).
    The triple carries its errors as ``errors``: r's is the width
    r expm1(2 (xtol + rtol |log r|)) that Brent's tolerance leaves, C1's is
    C_r's own at r, and C2's is r times that.
    """
    if not (0.0 < target_c1 < 1.0):
        raise DomainError("target_c1 must lie in (0, 1)")
    dists = _probe_distances(v, probes)

    def c_of(r):
        return _max_over_probes(lambda b: _resolvent_b(v, b, r), dists)[:2]

    if _transient(v.space):
        c0, c0_err = c_of(0.0)
        if c0 <= target_c1:
            return _FormBound((0.0, c0, 0.0), (0.0, c0_err, 0.0))
    r = 1.0
    c, c_err = c_of(r)
    if math.isinf(c):
        raise NotFormBoundedError(
            "resolvent constant diverges; potential is not form-bounded this way")
    if c <= 1e-300:
        return _FormBound((1.0, 0.0, 0.0), (0.0, c_err, c_err))
    if c <= target_c1:
        # C_r grows to C_0 > target_c1 (or without bound) as r -> 0
        while c <= target_c1:
            r_hi, r = r, 0.25 * r
            c = c_of(r)[0]
        r_lo = r
    else:
        while c > target_c1:
            r_lo, r = r, 4.0 * r
            if r > _R_SEARCH_CAP:
                raise NotFormBoundedError(
                    f"no r below {_R_SEARCH_CAP:.0e} achieves C_r <= {target_c1}")
            c = c_of(r)[0]
        r_hi = r
    from scipy.optimize import brentq   # about 0.3 s to import, needed only here

    x = brentq(lambda x: c_of(math.exp(x))[0] - target_c1, math.log(r_lo), math.log(r_hi),
               xtol=_BRENT_XTOL, rtol=_BRENT_RTOL)
    r = math.exp(x)
    c, c_err = c_of(r)
    r_err = r * math.expm1(2.0 * (_BRENT_XTOL + _BRENT_RTOL * abs(x)))
    return _FormBound((r, c, r * c), (r_err, c_err, r * c_err))


@dataclass
class KatoReport:
    """Outcome of a membership study on one potential.

    Grids carry (parameter, value, error_estimate) triples; the klmn field
    is the (r, C1, C2) triple of form_bound_constants, with its errors as
    ``klmn.errors``, when a form bound with C1 < 1 was found.  The fit
    exponent comes with the standard error of the least-squares slope.
    ``reason`` says why a quantity is missing: a row whose integral the
    condensation windows could not decide carries nan and names it there.
    """

    eta_grid: list = field(default_factory=list)
    resolvent_grid: list = field(default_factory=list)
    verdict: str = "inconclusive"
    klmn: tuple | None = None
    fit_exponent: float | None = None
    fit_error: float | None = None
    argmax_probe_index: int = 0
    locally_integrable: bool = True
    reason: str | None = None


def kato_verdict(v: Potential, t_grid, probes, r_grid=(1.0, 8.0, 64.0)) -> KatoReport:
    """Full membership study: eta grid, resolvent grid, verdict, form bound.

    The verdict is 'nonmember' when eta diverges or |v| fails a local
    integrability spot check, 'member' when the power-law fit through the
    three smallest times has exponent above 0.05 (so the extrapolated
    t -> 0 limit vanishes), and 'inconclusive' otherwise.  A repeated time
    counts once, and the grid needs at least 4 distinct times, so the fit
    runs through three.  An integral the condensation windows cannot
    decide (UndecidedError) is never read as divergence: its row holds
    nan, ``reason`` names it, and unless another row diverges the verdict
    is 'inconclusive'.
    """
    t_grid = sorted({float(t) for t in t_grid})
    if len(t_grid) < 4:
        raise DomainError("t_grid needs at least 4 distinct times")
    for t in t_grid:
        _check_time(t)
    r_grid = sorted(float(r) for r in r_grid)
    for r in r_grid:
        _check_resolvent_parameter(v.space, r)
    dists = _probe_distances(v, probes)
    undecided = []

    def decided(what, compute, missing):
        try:
            return compute()
        except UndecidedError as exc:
            undecided.append(f"{what}: {exc}")
            return missing

    integrable = decided(
        "local integrability",
        lambda: math.isfinite(
            _max_over_probes(lambda b: _ball_integral(v, b, 1.0, lambda rho: 1.0), dists)[0]),
        True)

    eta_rows = []
    argmax_idx = 0
    for t in t_grid:
        best, best_err, argmax_idx = decided(
            f"eta({t!r})", lambda: _max_over_probes(lambda b: _eta_b(v, b, t), dists),
            (math.nan, math.nan, argmax_idx))
        eta_rows.append((t, best, best_err))

    resolvent_rows = []
    for r in r_grid:
        best, best_err, _ = decided(
            f"C_{r!r}", lambda: _max_over_probes(lambda b: _resolvent_b(v, b, r), dists),
            (math.nan, math.nan, 0))
        resolvent_rows.append((r, best, best_err))

    any_inf = any(math.isinf(row[1]) for row in eta_rows)
    fit_b = fit_err = None
    if not any_inf and not undecided:
        smallest = eta_rows[:3]
        if all(row[1] > 0.0 for row in smallest):
            fit_b, fit_err = _fitted_slope(np.log([row[0] for row in smallest]),
                                           np.log([row[1] for row in smallest]))
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
            klmn = decided("form bound", lambda: form_bound_constants(v, probes, 0.5), None)
        except NotFormBoundedError:
            klmn = None

    report = KatoReport(eta_grid=eta_rows, resolvent_grid=resolvent_rows,
                        verdict=verdict, klmn=klmn,
                        fit_exponent=None if fit_b is None or math.isinf(fit_b) else fit_b,
                        fit_error=fit_err,
                        argmax_probe_index=argmax_idx,
                        locally_integrable=integrable,
                        reason="; ".join(f"divergence_undecided: {u}" for u in undecided)
                        or None)
    _check_report_monotonicity(report)
    return report


def _fitted_slope(x, y):
    """Least-squares slope of y against x and the standard error of that slope."""
    slope, intercept = np.polyfit(x, y, 1)
    residual, spread = y - (slope * x + intercept), x - x.mean()
    return float(slope), math.sqrt(residual @ residual / (x.size - 2) / (spread @ spread))


def _check_report_monotonicity(report: KatoReport) -> None:
    rows = [r for r in report.eta_grid if math.isfinite(r[1])]
    for (t0, e0, err0), (t1, e1, err1) in zip(rows[:-1], rows[1:]):
        if e0 > e1 + 10.0 * (err0 + err1) + 1e-12:
            raise MonotonicityError(f"eta grid lost monotonicity between t={t0} and t={t1}")
    rows = [r for r in report.resolvent_grid if math.isfinite(r[1])]
    for (r0, c0, err0), (r1, c1, err1) in zip(rows[:-1], rows[1:]):
        if c1 > c0 + 10.0 * (err0 + err1) + 1e-12:
            raise MonotonicityError(f"resolvent grid lost monotonicity between r={r0} and r={r1}")

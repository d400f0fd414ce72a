"""The nested time-and-space route, kept as an oracle for the kernel route.

By Fubini eta(t) and C_r are also a time (or Laplace) integral of the
spatial average F(s) = integral p_s(x, y) |v(y)| vol(dy).  This module
computes them that way: F(s) by a radial integral against the sphere
mean of the heat kernel p_s, the outer integral by the dyadic endpoint
scheme under s = u^2 (which flattens the s^{-1/2} endpoint) and, for
C_r, doubling windows of the Laplace tail.  It shares none of the kernel
route's closed forms K_t and G_r, which is what makes it an oracle; it is
also orders of magnitude slower, which is why it lives here.

It also keeps the angular routes that geometry.sphere_mean replaced, as
oracles for it: QUADPACK's QAWS over the distance to the probe
(qaws_sphere_mean) and a fixed Gauss-Legendre rule in the polar angle
(polar_angle_rule, behind _sphere_mean_rule).  And it keeps the radial
route that quadrature.radial_integral's graded panels replaced: one
QUADPACK call per radial integral once the condensation windows have
classified every declared radius (radial_integral here), with dyadic
refinement where it stalls, and the kernel route's radial integral on it
(quadpack_fubini_b), a scalar integrand per node.  Every QUADPACK call
of the package's tests is made here, through quad_piece or quad.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import i0e

from katoform.errors import ConvergenceError, DomainError, QuadratureError, UndecidedError
from katoform.geometry import (_TAIL_LOG, EUCLIDEAN, HYPERBOLIC, ModelSpace, _split_S, distance,
                               heat_kernel_radial, kernel_tail_radius, law_of_cosines,
                               ring_area, sphere_area, sphere_mean)
from katoform.potentials import Potential
from katoform.quadrature import (_FIRST_WINDOW, _LAST_WINDOW, _MERGE_DIGITS, _SHELL_DIGITS,
                                 _TINY, DIVERGENCE_CAP, DIVERGENT, GEOMETRIC, POWER,
                                 SPATIAL_REL, Condensation, classify_windows)

OUTER_REL = 1e-7  # relative target of the outer time integrals
_INNER_REL_BUDGET = 1e-7  # folded into reported errors for nested quadrature


def quad_piece(f, a, b, rel=SPATIAL_REL, abs_floor=1e-15, points=None, limit=200):
    """(value, error) of f on the finite interval [a, b] by QUADPACK.

    Raises QuadratureError when the estimate misses the tolerance by a wide
    margin or the integral looks divergent.
    """
    if b <= a:
        return 0.0, 0.0
    out = quad(f, a, b, epsabs=abs_floor, epsrel=rel, limit=limit,
               points=[p for p in points or () if a < p < b] or None, full_output=1)
    value, abserr = out[0], out[1]
    if len(out) > 3 and "divergent" in out[3]:
        # QUADPACK's ier = 5: its extrapolation may have produced the finite
        # analytic continuation of a divergent power singularity
        raise QuadratureError(f"quadrature on [{a}, {b}] looks divergent ({out[3]})",
                              achieved_error=abserr)
    if not math.isfinite(value):
        raise QuadratureError("integrand produced a non-finite value", achieved_error=abserr)
    if abserr > max(abs_floor * 10.0, 0.05 * abs(value), 1e-13):
        # Large reported error relative to the value: either a genuinely hard
        # singularity or a divergent integral. The caller decides which.
        raise QuadratureError(
            f"quadrature on [{a}, {b}] stalled (err {abserr:.3e}, value {value:.6e})",
            achieved_error=abserr,
        )
    return value, abserr


# ---------------------------------------------------------------------------
# the QUADPACK radial route: classify, then one adaptive call

def dyadic_endpoint_integral(f, a, b, rel=OUTER_REL, max_levels=54):
    """Integrate f on (a, b] when f may be singular (or divergent) at a.

    Splits [a, b] into dyadic pieces shrinking towards a, integrating each
    smooth piece with quad_piece.  Contributions from a convergent integrable
    singularity decay geometrically, so the loop stops once the running piece
    is below the relative target and the geometric tail is added to the error
    estimate.  A failed piece, a running total past DIVERGENCE_CAP or pieces
    still large after max_levels come back as diverged.

    Returns (value, error_estimate, diverged).
    """
    length = b - a
    if length <= 0.0:
        return 0.0, 0.0, False
    total = 0.0
    err = 0.0
    prev = None
    for k in range(max_levels):
        hi = a + length / 2.0 ** k
        lo = a + length / 2.0 ** (k + 1)
        try:
            v, e = quad_piece(f, lo, hi, rel=rel)
        except QuadratureError:
            return math.inf, math.inf, True
        total += v
        err += e
        scale = max(abs(total), _TINY)
        if abs(total) > DIVERGENCE_CAP:
            return math.inf, math.inf, True
        if prev is not None and abs(prev) > 0.0:
            ratio = abs(v) / abs(prev)
            if abs(v) <= rel * scale and ratio < 0.9:
                tail = abs(v) * ratio / (1.0 - ratio)
                return total + v * ratio / (1.0 - ratio), err + tail, False
        prev = v
    if prev is not None and abs(prev) > rel * max(abs(total), _TINY) * 100.0:
        return math.inf, math.inf, True
    return total, err + (abs(prev) if prev is not None else 0.0), False


_GAUSS_8 = np.polynomial.legendre.leggauss(8)


def _window(g, a, b):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * math.fsum(w * g(mid + half * x) for x, w in zip(*_GAUSS_8))


def _condense_side(g, s, length):
    """(Condensation, outer distance of the first window, window integrals) of one side of s."""
    size = abs(length)
    deepest = _LAST_WINDOW
    if s > 0.0:
        deepest = min(deepest, math.floor(math.log2(size / s)) + _SHELL_DIGITS - 1)
    first = max(0, min(_FIRST_WINDOW, deepest - 12))
    windows = []
    for k in range(first, deepest + 1):
        near, far = size * 2.0 ** (-k - 1), size * 2.0 ** -k
        if length > 0.0:
            windows.append(_window(g, s + near, s + far))
        else:
            windows.append(_window(g, s - far, s - near))
        outcome = classify_windows(windows)
        if outcome is not None:
            return outcome, size * 2.0 ** -first, windows
    if windows and max(map(abs, windows[-4:])) == 0.0:
        return Condensation(GEOMETRIC), size * 2.0 ** -first, windows
    raise UndecidedError(f"windows at radius {s} decide nothing", achieved_error=math.inf)


def radial_integral(g, hi, singular=(), *, points=()):
    """(value, error) of integral_0^hi g for a scalar g, by QUADPACK after classification.

    Every declared radius is classified on each side by condensation
    windows (8-point Gauss-Legendre each); a divergent side is +inf.  When
    every side is geometric, one QUADPACK call with every radius and point
    as a breakpoint gives the value, and where it stalls dyadic refinement
    toward every breakpoint takes over.  A k^-gamma side is QUADPACK out
    from its first window, plus the windows read, plus the fitted tail
    (also the error).  Points within s 2^-22 of a radius s merge into it.
    """
    if hi <= 0.0:
        return 0.0, 0.0
    declared = {float(p) for p in singular if 0.0 <= p <= hi}
    plain = {float(p) for p in points
             if not any(abs(p - s) < s * 2.0 ** -_MERGE_DIGITS for s in declared)}
    pts = sorted(p for p in declared | plain if 0.0 < p < hi)
    breaks = [0.0] + pts + [hi]
    slow = {}
    for i, s in enumerate(breaks):
        if s not in declared:
            continue
        for side in (-1, 1):
            if (i == 0 and side < 0) or (i == len(breaks) - 1 and side > 0):
                continue
            half = 0.5 * abs(breaks[i + side] - s)
            outcome, far, read = _condense_side(g, s, side * half)
            if outcome.kind == DIVERGENT:
                return math.inf, math.inf
            if outcome.kind == POWER:
                lo, top = (s + far, s + half) if side > 0 else (s - half, s - far)
                value, err = quad_piece(g, lo, top)
                tail = math.copysign(outcome.tail(abs(read[-1])), read[-1])
                slow[(s, side)] = (value + math.fsum(read) + tail,
                                   err + SPATIAL_REL * math.fsum(map(abs, read)) + abs(tail))
    if not slow:
        try:
            return quad_piece(g, 0.0, hi, points=pts if pts else None)
        except QuadratureError:
            pass
    total = err = 0.0
    for left, right in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (left + right)
        if (left, 1) in slow:
            v1, e1 = slow[(left, 1)]
        else:
            v1, e1, d1 = dyadic_endpoint_integral(g, left, mid, rel=SPATIAL_REL)
            if d1:
                return math.inf, math.inf
        if (right, -1) in slow:
            v2, e2 = slow[(right, -1)]
        else:
            v2, e2, d2 = dyadic_endpoint_integral(lambda x: g(mid + right - x), mid, right,
                                                  rel=SPATIAL_REL)
            if d2:
                return math.inf, math.inf
        total += v1 + v2
        err += e1 + e2
    return total, err


def quadpack_radial_tail(integrand, reach, singular, points, windows=64):
    """(value, error) of integral_0^inf of a scalar integrand over doubling windows.

    The head up to min(reach, a scale of the breakpoints) and then each
    doubling window is one radial_integral; the sum stops at the first
    window negligible against a nonzero total or at any negligible window
    past the reach, and windows past the reach are classified: a divergent
    reading or a total past DIVERGENCE_CAP is +inf, a settled decay adds
    its tail to value and error.
    """
    def segment(lo, hi):
        return radial_integral(lambda u: integrand(lo + u), hi - lo,
                               singular=[p - lo for p in singular if lo <= p <= hi],
                               points=[p - lo for p in points if lo < p < hi])

    head = min(reach, max(1.0, 2.0 * max((*singular, *points), default=0.0)))
    total, err = segment(0.0, head)
    lo, read, settled = head, [], None
    for _ in range(windows):
        if math.isinf(total) or abs(total) > DIVERGENCE_CAP:
            return math.inf, math.inf
        window, window_err = segment(lo, 2.0 * lo)
        total += window
        err += window_err
        past = lo >= reach
        lo *= 2.0
        tracked = past or math.isinf(reach)
        if tracked:
            read.append(window)
        if abs(window) <= SPATIAL_REL * abs(total) and (past or total != 0.0):
            if settled is None:
                return total, err + abs(window)
            break
        if tracked:
            settled = classify_windows(read) or settled
            if settled is not None and settled.kind == DIVERGENT:
                return math.inf, math.inf
    else:
        if total == 0.0:
            return 0.0, err
    if settled is not None:
        tail = settled.tail(abs(read[-1]))
        return total + math.copysign(tail, read[-1]), err + tail
    raise UndecidedError("the radial tail decides nothing", achieved_error=math.inf)


def _abs_scalar(v: Potential):
    return lambda w: abs(float(v.radial(np.float64(w))))


def quadpack_fubini_b(v: Potential, b: float, kernel):
    """(value, error) of integral |v(y)| k(d(x, y)) vol(dy), x at distance b, scalar per node.

    The kato route's radial integral against the sphere mean of the kernel
    (itself at the centre, the chord form in dimension 3, else
    geometry.sphere_mean), on quadpack_radial_tail instead of the graded
    panels; kernel values are taken one distance at a time.  A kernel with
    a finite support R is one radial_integral up to b + R instead, with
    plain points at |b - R| and b + R and every sphere mean cut at R.
    """
    space = v.space
    m = space.dim
    hyperbolic = space.kind == HYPERBOLIC
    abs_scalar = _abs_scalar(v)
    support = kernel.support
    cut = (support,) if math.isfinite(support) else ()

    def radial(rho, shift):
        if kernel.transform is not None:
            return kernel.transform(rho, shift)[0]
        return kernel.radial(rho, shift)

    def ring_mean(w):
        scaled, exponent = _split_S(hyperbolic, w)
        if b <= 1e-14 or kernel.harmonic:
            ring = sphere_area(m) * scaled ** (m - 1)
            return ring * float(radial(max(w, b), (m - 1) * exponent))
        if kernel.chord is not None:
            s_b = math.sinh(b) if hyperbolic else b
            return 2.0 * math.pi * scaled * float(kernel.chord(abs(w - b), 2.0 * min(w, b),
                                                               exponent)) / s_b
        return sphere_mean(space, radial, w, b, cut)[0]

    def integrand(w):
        if abs(w - b) >= support:
            return 0.0
        vw = abs_scalar(w)
        if vw == 0.0:
            return 0.0
        if not math.isfinite(vw):
            return math.inf
        return vw * ring_mean(w)

    points = [b] if b > 1e-14 else []
    if math.isfinite(support):
        return radial_integral(integrand, b + support, v.singular_radii,
                               points=points + [abs(b - support), b + support])
    return quadpack_radial_tail(integrand, kernel.reach + b, v.singular_radii, points)


# ---------------------------------------------------------------------------
# outer integrals in time

def sqrt_substitution_integral(F, upper, rel=OUTER_REL, max_levels=54):
    """Integrate F on (0, upper] when F may blow up at 0 like a power.

    Substitutes s = u^2 so an s^{-1/2} endpoint becomes a bounded integrand,
    then applies the dyadic endpoint scheme in u.  Returns
    (value, error_estimate, diverged).
    """
    if upper <= 0.0:
        return 0.0, 0.0, False
    root = math.sqrt(upper)

    def g(u):
        return 2.0 * u * F(u * u)

    return dyadic_endpoint_integral(g, 0.0, root, rel=rel, max_levels=max_levels)


def laplace_integral(F, r, rel=OUTER_REL, max_up_levels=48):
    """Compute integral_0^inf exp(-r s) F(s) ds.

    The near-zero part uses the sqrt substitution (F may have an integrable
    singularity at 0); the tail is summed over doubling windows until the
    exponential decay makes further windows negligible.  Returns
    (value, error_estimate, diverged).
    """
    if r <= 0.0:
        raise ValueError("laplace_integral needs r > 0")

    def damped(s):
        return math.exp(-r * s) * F(s)

    s_break = 1.0 / r
    head, head_err, diverged = sqrt_substitution_integral(damped, s_break, rel=rel)
    if diverged:
        return math.inf, math.inf, True
    total = head
    err = head_err
    lo = s_break
    for _ in range(max_up_levels):
        hi = 2.0 * lo
        try:
            v, e = quad_piece(damped, lo, hi, rel=rel)
        except QuadratureError as exc:
            raise QuadratureError("Laplace tail window failed", achieved_error=exc.achieved_error)
        total += v
        err += e
        if abs(total) > DIVERGENCE_CAP:
            return math.inf, math.inf, True
        # exp(-r s) has dropped by exp(-r lo) across this window; once the
        # window contribution is below the target the remaining tail is
        # smaller than the window by a factor exp(-r lo) < e^{-1}.
        if abs(v) <= rel * max(abs(total), _TINY):
            err += abs(v)
            return total, err, False
        lo = hi
    return total, err + abs(v), False


# ---------------------------------------------------------------------------
# the H^2 kernel by one adaptive QUADPACK call per value

def h2_millson_quad(f, d: float, s_max: float, shift: float = 0.0, rel: float = 1e-8):
    """(value, error) of e^shift integral_d^s_max f(s) / sqrt(cosh s - cosh d) ds by QUADPACK.

    The H^2 Millson transform the library evaluates on fixed panels, here
    with scalar ``f(s, shift)`` (returning f(s) e^shift) and no absolute
    floor, so values far below 1 converge too.  The substitution
    s = d + u^2 removes the inverse-square-root endpoint, and the
    difference of coshes is written as 2 e^x (e^{-x} sinh x) sinh(u^2/2),
    x = d + u^2/2, so it neither cancels near the endpoint nor overflows at
    large d.  Near u = 0 the integrand varies on the scale sqrt(2d), which
    is a breakpoint.
    """
    u_max = math.sqrt(s_max - d)

    def integrand(u):
        half = 0.5 * u * u
        x = d + half
        gap = -math.expm1(-2.0 * x) * math.sinh(half)
        if gap <= 0.0:
            return 0.0
        return f(d + u * u, shift - 0.5 * x) * 2.0 * u / math.sqrt(gap)

    return quad_piece(integrand, 0.0, u_max, rel=rel, abs_floor=0.0, points=[math.sqrt(2.0 * d)])


def h2_kernel_scalar(t: float, d: float, rel: float = 1e-8) -> float:
    """H^2 heat kernel p_t(d) (Delta/2 normalization) by h2_millson_quad.

    Cut at d + sqrt(2 t _TAIL_LOG) + t, past the library's cut.
    """
    coef = math.sqrt(2.0) * (2.0 * math.pi * t) ** -1.5 * math.exp(-t / 8.0)
    s_max = d + math.sqrt(2.0 * t * _TAIL_LOG) + t
    return coef * h2_millson_quad(lambda s, shift: s * math.exp(shift - s * s / (2.0 * t)),
                                  d, s_max, rel=rel)[0]


# ---------------------------------------------------------------------------
# the replaced angular routes: QAWS over the distance, a fixed polar rule

def algebraic_weight_integral(f, a, b, alpha):
    """integral_a^b f(x) (x - a)^alpha (b - x)^alpha dx by QUADPACK's QAWS (alpha > -1).

    Returns (value, error_estimate).  f must be finite on [a, b], both ends
    included.  The target sits two orders below SPATIAL_REL.  An estimate
    above SPATIAL_REL times the value, or a non-finite value, raises
    ConvergenceError: the integrand is bounded by construction, so a miss
    is a solver failure and never a divergence.
    """
    out = quad(f, a, b, weight="alg", wvar=(alpha, alpha), epsabs=0.0,
               epsrel=1e-2 * SPATIAL_REL, limit=200, full_output=1)
    value, abserr = out[0], out[1]
    if not math.isfinite(value) or abserr > SPATIAL_REL * abs(value):
        raise ConvergenceError(
            f"weighted quadrature on [{a}, {b}] missed its tolerance "
            f"(err {abserr:.3e}, value {value:.6e})", residual=abserr)
    return value, abserr


def qaws_sphere_mean(radial, hyperbolic: bool, m: int, w: float, b: float):
    """(value, error) of ring(w) times the mean of k over the sphere of radius w, by QAWS.

    ``radial(rho, shift)`` takes a float.  The probe sits at distance b
    from the sphere's centre.  With S(x) = x on R^m and sinh x on H^m,
    trading the polar angle for the distance rho to the probe, rho in
    [a, top] = [|w - b|, w + b], turns sin^{m-2} theta d theta into
    S(rho) P(rho)^alpha d rho / (S(w) S(b))^{m-2}, where alpha = (m - 3)/2
    and P = 4 S((rho + a)/2) S((rho - a)/2) S((top + rho)/2) S((top - rho)/2)
    is (S(w) S(b) sin theta)^2.  QAWS carries the factors (rho - a)^alpha
    (top - rho)^alpha of P; every e^x growth of a sinh goes into the
    kernel's shift, which sums to c (rho + w - b) with c = (m - 1)/2 on H^m.
    QAWS returns nan on a sphere so thin that [a, top] is a few roundings
    wide.
    """
    # at w = b the pole of k would sit on the end rho = 0; the mean is
    # continuous in w, so one ulp off b stands in for it
    a = abs(w - b) or math.ulp(b)
    top = w + b
    alpha = 0.5 * (m - 3)
    c = 0.5 * (m - 1) if hyperbolic else 0.0

    def half(x):
        return _split_S(hyperbolic, 0.5 * x)[0]

    def edge(d):
        # 2 S(d/2) / d, scaled: 1 on R^m
        return -math.expm1(-d) / d if hyperbolic and d > 0.0 else 1.0

    def f(rho):
        rest = half(rho + a) * half(top + rho) * edge(rho - a) * edge(top - rho)
        return radial(rho, c * (rho + w - b)) * _split_S(hyperbolic, rho)[0] * rest ** alpha

    s_w, s_b = _split_S(hyperbolic, w)[0], _split_S(hyperbolic, b)[0]
    front = sphere_area(m - 1) * s_w ** (m - 1) / (s_w * s_b) ** (m - 2)
    val, err = algebraic_weight_integral(f, a, top, alpha)
    return front * val, front * err


@lru_cache(maxsize=64)
def polar_angle_rule(m, n_nodes=64):
    """Nodes and weights for integral_0^pi f(theta) sin^{m-2}(theta) dtheta (m >= 2).

    Gauss-Legendre in theta, with the sin^{m-2} factor folded into the
    weights; it has no error estimate of its own.
    """
    x, w = np.polynomial.legendre.leggauss(n_nodes)
    theta = 0.5 * math.pi * (x + 1.0)
    weights = 0.5 * math.pi * w * np.sin(theta) ** (m - 2)
    return theta, weights


# ---------------------------------------------------------------------------
# the spatial average F(s)

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
    return h2_kernel_scalar(s, w)


def _sphere_mean_kernel(space: ModelSpace, s: float, w: float, b: float) -> float:
    """Mean of p_s over the geodesic sphere of radius w, seen from distance b.

    Closed forms in dimension 3 (both curvatures) and the Euclidean plane;
    the other spaces fall back to an angular rule over the heat kernel,
    which is supported but slow.
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
    # the angular node spacing (small s with large w*b)
    theta, weights = polar_angle_rule(space.dim, 96)
    vals = heat_kernel_radial(space, s, law_of_cosines(space, w, b, theta))
    total_angle = float(np.sum(weights))
    return float(np.dot(weights, vals)) / total_angle


def average_b(v: Potential, b: float, s: float):
    """(value, error) of integral p_s(x, .) |v| dvol for a probe at distance b."""
    space = v.space
    abs_scalar = _abs_scalar(v)
    r_hi = kernel_tail_radius(space, s) + b

    def integrand(w):
        ring = float(ring_area(space, w))
        if ring == 0.0:
            return 0.0
        vw = abs_scalar(w)
        if not math.isfinite(vw):
            return math.inf
        return vw * ring * _sphere_mean_kernel(space, s, w, b)

    # the kernel peak and the inner end of its support: a peak much
    # narrower than [0, b] would otherwise fall between QUADPACK's nodes.
    # F(s) is finite for the locally integrable potentials the tests hand
    # in, so the singular radii are plain breakpoints here and nothing is
    # classified (the kernel route classifies them)
    points = set(v.singular_radii)
    if b > 0.0:
        points.update((b, 2.0 * b - r_hi))
    return radial_integral(integrand, r_hi, points=sorted(points))


def heat_potential_average(v: Potential, x, s: float) -> float:
    """integral p_s(x, y) |v(y)| vol(dy); +inf when the integral diverges."""
    if s <= 0.0:
        raise DomainError("time must be positive")
    b = distance(v.space, v.space.origin(), v.space.validate_point(x))
    return float(average_b(v, b, s)[0])


# ---------------------------------------------------------------------------
# the functionals at one probe

def _nested_b(v: Potential, b: float, outer, x: float):
    """(value, error) of outer(F, x) over F(s) = average_b, with the inner budget added."""
    val, err, diverged = outer(lambda s: average_b(v, b, s)[0], x, rel=OUTER_REL)
    if diverged:
        return math.inf, math.inf
    return val, err + _INNER_REL_BUDGET * abs(val)


def nested_eta_b(v: Potential, b: float, t: float):
    """(value, error) of integral_0^t F(s) ds for a probe at distance b."""
    return _nested_b(v, b, sqrt_substitution_integral, t)


def nested_resolvent_b(v: Potential, b: float, r: float):
    """(value, error) of integral_0^inf e^{-rs} F(s) ds for a probe at distance b (r > 0)."""
    return _nested_b(v, b, laplace_integral, r)

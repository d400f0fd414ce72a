"""Quadrature helpers shared by the geometry and Kato-functional layers.

scipy's QUADPACK does the adaptive work on finite intervals: Gauss-Kronrod
for smooth pieces and QAWS for integrands with algebraic endpoint weights.
On top of that this module adds the pieces those routines do not provide:
dyadic refinement towards integrable endpoint singularities and divergence
classification for integrals that have no finite value.  Every helper
returns an error estimate alongside the value; divergent integrals come
back as +inf (with ``diverged=True`` from the dyadic scheme) rather than
raising, because the calling layer reports them as a flag.
"""

from __future__ import annotations

import math
from functools import lru_cache

import numpy as np
from scipy.integrate import quad

from .errors import ConvergenceError, QuadratureError

# Relative targets: every radial integral aims at SPATIAL_REL, one order
# tighter than the OUTER_REL accuracy reported values are held to.
SPATIAL_REL = 1e-8
OUTER_REL = 1e-7

# Values beyond this are treated as numerical blow-up of a divergent integral.
DIVERGENCE_CAP = 1e12

_TINY = 1e-300


def quad_piece(f, a, b, rel=SPATIAL_REL, abs_floor=1e-15, points=None, limit=200):
    """Integrate f on the finite interval [a, b].

    Returns (value, error_estimate).  Raises QuadratureError when QUADPACK
    reports an error estimate worse than the requested tolerance by a wide
    margin, which is the signal the dyadic fallbacks key on.
    """
    if b <= a:
        return 0.0, 0.0
    usable_points = None
    if points:
        usable_points = [p for p in points if a < p < b]
        if not usable_points:
            usable_points = None
    out = quad(f, a, b, epsabs=abs_floor, epsrel=rel, limit=limit,
               points=usable_points, full_output=1)
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


def dyadic_endpoint_integral(f, a, b, rel=OUTER_REL, max_levels=54):
    """Integrate f on (a, b] when f may be singular (or divergent) at a.

    Splits [a, b] into dyadic pieces shrinking towards a, integrating each
    smooth piece with quad_piece.  Contributions from a convergent integrable
    singularity decay geometrically, so the loop stops once the running piece
    is below the relative target and the geometric tail is added to the error
    estimate.  Non-decaying contributions (log divergence) or a running total
    past DIVERGENCE_CAP classify the integral as divergent.

    Returns (value, error_estimate, diverged).
    """
    length = b - a
    if length <= 0.0:
        return 0.0, 0.0, False
    total = 0.0
    err = 0.0
    prev = None
    flat_run = 0
    for k in range(max_levels):
        hi = a + length / 2.0 ** k
        lo = a + length / 2.0 ** (k + 1)
        try:
            v, e = quad_piece(f, lo, hi, rel=rel)
        except QuadratureError:
            # A single piece should be smooth; failure here means the
            # integrand is misbehaving in the interior, treat as divergent.
            return math.inf, math.inf, True
        if not math.isfinite(v):
            return math.inf, math.inf, True
        total += v
        err += e
        scale = max(abs(total), _TINY)
        if abs(total) > DIVERGENCE_CAP:
            return math.inf, math.inf, True
        if prev is not None and abs(prev) > 0.0:
            ratio = abs(v) / abs(prev)
            if ratio >= 0.96:
                flat_run += 1
                if flat_run >= 8:
                    return math.inf, math.inf, True
            else:
                flat_run = 0
            if abs(v) <= rel * scale and ratio < 0.9:
                tail = abs(v) * ratio / (1.0 - ratio)
                return total + v * ratio / (1.0 - ratio), err + tail, False
        prev = v
    # Ran out of levels. If the last pieces were still flat the integral is
    # divergent; otherwise return what we have with an honest error bump.
    if prev is not None and abs(prev) > rel * max(abs(total), _TINY) * 100.0:
        return math.inf, math.inf, True
    return total, err + (abs(prev) if prev is not None else 0.0), False


def algebraic_weight_integral(f, a, b, alpha):
    """integral_a^b f(x) (x - a)^alpha (b - x)^alpha dx by QUADPACK's QAWS (alpha > -1).

    Returns (value, error_estimate).  f must be finite on [a, b], both ends
    included.  The target sits two orders below SPATIAL_REL, so a radial
    integral over such values sees no noise from them.  An estimate above
    SPATIAL_REL times the value, or a non-finite value, raises
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


def radial_integral(g, hi, singular=(), rel=SPATIAL_REL):
    """Integrate g over [0, hi] with listed interior/endpoint singular radii.

    Tries a single QUADPACK call with breakpoints first; when that stalls,
    falls back to segment-wise dyadic refinement towards each singular
    radius, which also classifies genuinely divergent integrals.  Returns
    (value, error_estimate); a divergent integral returns (+inf, +inf).
    """
    if hi <= 0.0:
        return 0.0, 0.0
    pts = sorted({float(p) for p in singular if 0.0 < p < hi})
    try:
        return quad_piece(g, 0.0, hi, rel=rel, points=pts if pts else None)
    except QuadratureError:
        pass
    # Segment endpoints: 0, each singular radius, hi. 0 is always treated as
    # potentially singular (ring volume factors vanish there, potentials may
    # blow up).
    breaks = [0.0] + pts + [hi]
    total = 0.0
    err = 0.0
    for left, right in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (left + right)
        v1, e1, d1 = dyadic_endpoint_integral(g, left, mid, rel=rel)
        if d1:
            return math.inf, math.inf
        v2, e2, d2 = _dyadic_towards_right(g, mid, right, rel)
        if d2:
            return math.inf, math.inf
        total += v1 + v2
        err += e1 + e2
    return total, err


def _dyadic_towards_right(g, a, b, rel):
    # Reflect so the possibly-singular endpoint b maps to the left end.
    def reflected(s):
        return g(a + b - s)

    return dyadic_endpoint_integral(reflected, a, b, rel=rel)


@lru_cache(maxsize=32)
def gauss_legendre(n):
    """Cached Gauss-Legendre nodes/weights on [-1, 1]."""
    x, w = np.polynomial.legendre.leggauss(n)
    return x, w


@lru_cache(maxsize=64)
def polar_angle_rule(m, n_nodes=64):
    """Nodes and weights for integral_0^pi f(theta) sin^{m-2}(theta) dtheta.

    Used by polar-coordinate reductions on m-dimensional model spaces
    (m >= 2).  The sin^{m-2} factor is folded into the weights.
    """
    if m < 2:
        raise ValueError("polar angle rule needs dimension >= 2")
    x, w = gauss_legendre(n_nodes)
    theta = 0.5 * math.pi * (x + 1.0)
    weights = 0.5 * math.pi * w * np.sin(theta) ** (m - 2)
    return theta, weights

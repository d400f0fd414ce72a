"""Quadrature helpers shared by the geometry and Kato-functional layers.

scipy's QUADPACK does the adaptive Gauss-Kronrod work on finite intervals.
On top of that this module adds what QUADPACK does not provide: divergence
classification and dyadic refinement at singular radii, and Gauss-Legendre
panels that take every node of a batch of integrands in one array call.

A radial integral is classified before it is integrated.  At every declared
singular radius the dyadic windows c_k (integrals over distances
[L 2^-k-1, L 2^-k] from the radius, each by a fixed 8-point Gauss-Legendre
rule) are read until their decay is decided (Cauchy condensation: the
integral converges with sum c_k).  Geometric decay leaves the value to a
single QUADPACK call; windows that stop shrinking, grow, or fit
c_k ~ k^-gamma with gamma <= 1 mean divergence, returned as +inf without
any adaptive call; gamma > 1 adds the fitted tail to value and error; and
windows that decide nothing raise UndecidedError, which no caller reads as
divergence.  Every helper returns an error estimate alongside the value;
divergent integrals come back as +inf (with ``diverged=True`` from the
dyadic scheme) rather than raising, because the calling layer reports them
as a flag.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.integrate import quad
from scipy.special import zeta

from .errors import QuadratureError, UndecidedError

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
    estimate.  It does not classify divergence: radial_integral calls it
    only on sides its windows found convergent, and a failed piece, a
    running total past DIVERGENCE_CAP or pieces still large after
    max_levels come back as diverged.

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
            if abs(v) <= rel * scale and ratio < 0.9:
                tail = abs(v) * ratio / (1.0 - ratio)
                return total + v * ratio / (1.0 - ratio), err + tail, False
        prev = v
    # Ran out of levels. If the last pieces were still flat the integral is
    # divergent; otherwise return what we have with an honest error bump.
    if prev is not None and abs(prev) > rel * max(abs(total), _TINY) * 100.0:
        return math.inf, math.inf, True
    return total, err + (abs(prev) if prev is not None else 0.0), False


def radial_integral(g, hi, singular=(), *, points=()):
    """Integrate g over [0, hi]; ``singular`` lists the declared singular radii.

    Each declared radius s in [0, hi] is classified on each side before any
    adaptive call, by condensation windows (classify_windows).  A divergent
    side returns (+inf, +inf) at once.  When every side decays
    geometrically, one QUADPACK call with every radius and every entry of
    ``points`` (plain breakpoints such as probe distances, never
    classified) as breakpoints gives the value; when that stalls, segment-wise
    dyadic refinement takes over.  A point within s 2^-22 of a declared
    radius s is merged into it, so a probe placed at the radius up to
    rounding leaves the radius its windows.  A side that decays like a power
    of the window index k^{-gamma}, gamma > 1, is the adaptive integral out
    from its first window plus the windows read plus the fitted tail, which
    also enters the error.  A side the windows cannot decide raises
    UndecidedError.  Returns (value, error_estimate).
    """
    if hi <= 0.0:
        return 0.0, 0.0
    declared = {float(p) for p in singular if 0.0 <= p <= hi}
    # a point closer to a declared radius than its deepest windows' reach is
    # merged into it, so each side keeps at least nine windows to read
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
                slow[(s, side)] = _power_side(g, s, side * half, far, read, outcome)
    if not slow:
        try:
            return quad_piece(g, 0.0, hi, points=pts if pts else None)
        except QuadratureError:
            pass
    # Segment-wise: 0, each radius and point, hi.  An endpoint not classified
    # as a slow side is refined dyadically; 0 is always treated as possibly
    # singular (ring volume factors vanish there, potentials may blow up).
    total = 0.0
    err = 0.0
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
            v2, e2, d2 = _dyadic_towards_right(g, mid, right, SPATIAL_REL)
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


# ---------------------------------------------------------------------------
# condensation: classify an integral from its dyadic windows

GEOMETRIC, POWER, DIVERGENT = "geometric", "power", "divergent"

# Windows are read with the 8-point Gauss-Legendre rule on [-1, 1], as
# (node, weight) pairs for +-node; spelled out so that reading a window makes
# no eigensolver call (whose first call grows the process by about 1 MB).
_WINDOW_RULE = ((0.18343464249564978, 0.36268378337836166),
                (0.525532409916329, 0.3137066458778869),
                (0.7966664774136267, 0.22238103445337443),
                (0.9602898564975362, 0.10122853629037706))
# At a singular radius the first window sits this many halvings below the
# side length, where the integrand has its asymptotic form unless its own
# scale is smaller still.
_FIRST_WINDOW = 16
# the deepest window at radius 0; at s > 0 windows stay 2^-32 s away from s,
# so node positions keep about 7 digits relative to the window
_LAST_WINDOW = 64
_SHELL_DIGITS = 32
_MERGE_DIGITS = _SHELL_DIGITS - 10
# |log c_k / c_{k+1}| at most this for three ratios: the windows stopped shrinking
_FLAT = 1e-3
# the slope of 1/log(c_k / c_{k+1}) in k is 1/gamma for c_k ~ k^-gamma and 0 for
# a geometric sequence; it counts as settled when two successive slopes agree
# to this absolute plus relative tolerance
_SETTLE_ABS, _SETTLE_REL = 0.01, 0.05
_GEOMETRIC_SLOPE = 0.02
# gamma above 1.25 converges, below 1.02 diverges; in between reading goes on
_CONVERGENT_SLOPE, _DIVERGENT_SLOPE = 0.8, 0.98


@dataclass(frozen=True)
class Condensation:
    """How windows c_k of an integral decay, and the sum of the unread ones.

    ``ratio`` is the settled c_{k+1}/c_k of a geometric sequence; ``gamma``
    and ``index`` describe c_k ~ n_k^-gamma with n_k the last window's
    effective index.
    """

    kind: str
    ratio: float = 0.0
    gamma: float = math.inf
    index: float = 0.0

    def tail(self, last: float) -> float:
        """Sum of the model's windows after one of size ``last`` (+inf when they diverge)."""
        if self.kind == GEOMETRIC:
            return last * self.ratio / (1.0 - self.ratio)
        if self.kind == POWER:
            return last * self.index ** self.gamma * zeta(self.gamma, self.index + 1.0)
        return math.inf


def classify_windows(windows):
    """Classify the sum of windows c_0, c_1, ... from its last four terms.

    Cauchy condensation: the integral over dyadic windows converges with
    the sum of their integrals c_k.  With l_k = log(c_k / c_{k+1}), a
    geometric sequence has l_k constant and c_k ~ k^-gamma has l_k close to
    gamma / k, so the slope of 1/l_k in k reads 0 and 1/gamma.  Returns a
    Condensation once the slopes agree, or once three ratios are within
    0.1% of 1 (DIVERGENT), and None while the terms say nothing yet
    (a zero term, a sign change of l, or slopes that still move).
    """
    c = [abs(x) for x in windows[-4:]]
    if any(not math.isfinite(x) for x in c):
        return Condensation(DIVERGENT)
    if len(c) < 4 or min(c) == 0.0:
        return None
    logs = [math.log(a / b) for a, b in zip(c[:-1], c[1:])]
    if all(abs(x) <= _FLAT for x in logs):
        return Condensation(DIVERGENT)
    if not (all(x > 0.0 for x in logs) or all(x < 0.0 for x in logs)):
        return None
    slopes = [1.0 / b - 1.0 / a for a, b in zip(logs[:-1], logs[1:])]
    if abs(slopes[1] - slopes[0]) > _SETTLE_ABS + _SETTLE_REL * max(map(abs, slopes)):
        return None
    if logs[-1] < 0.0:
        return Condensation(DIVERGENT)
    slope = 0.5 * (slopes[0] + slopes[1])
    if slope <= _GEOMETRIC_SLOPE:
        return Condensation(GEOMETRIC, ratio=math.exp(-logs[-1]))
    if slope >= _DIVERGENT_SLOPE:
        return Condensation(DIVERGENT)
    if slope <= _CONVERGENT_SLOPE:
        gamma = 1.0 / slope
        return Condensation(POWER, gamma=gamma, index=gamma / logs[-1] + 0.5)
    return None


def _window_rule(g, a, b):
    mid, half = 0.5 * (a + b), 0.5 * (b - a)
    return half * math.fsum(w * (g(mid - half * x) + g(mid + half * x)) for x, w in _WINDOW_RULE)


def _condense_side(g, s, length):
    """Classify g on the side of s towards s + length from its windows.

    Window k covers distances [|length| 2^-k-1, |length| 2^-k] from s.
    Returns (Condensation, outer distance of the first window read, the
    signed window integrals in reading order); raises UndecidedError when
    the windows run out first.
    """
    size = abs(length)
    deepest = _LAST_WINDOW
    if s > 0.0:
        deepest = min(deepest, math.floor(math.log2(size / s)) + _SHELL_DIGITS - 1)
    first = max(0, min(_FIRST_WINDOW, deepest - 12))
    windows = []
    for k in range(first, deepest + 1):
        near, far = size * 2.0 ** (-k - 1), size * 2.0 ** -k
        if length > 0.0:
            windows.append(_window_rule(g, s + near, s + far))
        else:
            windows.append(_window_rule(g, s - far, s - near))
        outcome = classify_windows(windows)
        if outcome is not None:
            return outcome, size * 2.0 ** -first, windows
    if windows and max(map(abs, windows[-4:])) == 0.0:
        return Condensation(GEOMETRIC), size * 2.0 ** -first, windows
    raise UndecidedError(
        f"windows at radius {s} ({'above' if length > 0 else 'below'}) decide "
        f"nothing after {len(windows)} windows", achieved_error=math.inf)


def _power_side(g, s, length, far, windows, outcome):
    """(value, error) of g over the side of s whose windows decay like k^-gamma.

    QUADPACK covers the side out from the first window read (at distance
    ``far`` from s); the windows read and the model tail beyond the last one
    make up the rest.  The tail is its own error bound; the fixed-rule
    windows are charged SPATIAL_REL of their size.
    """
    if length > 0.0:
        value, err = quad_piece(g, s + far, s + length)
    else:
        value, err = quad_piece(g, s + length, s - far)
    tail = math.copysign(outcome.tail(abs(windows[-1])), windows[-1])
    read = math.fsum(windows)
    return (value + read + tail,
            err + SPATIAL_REL * math.fsum(map(abs, windows)) + abs(tail))


# ---------------------------------------------------------------------------
# fixed-rule panels, every node of every panel in one array call

def _legendre(n, x):
    """P_n(x) and P_n'(x) by the three-term recurrence."""
    prev, cur = np.ones_like(x), x
    for j in range(2, n + 1):
        prev, cur = cur, ((2 * j - 1) * x * cur - (j - 1) * prev) / j
    return cur, n * (x * cur - prev) / (x * x - 1.0)


def _legendre_rule(n):
    """Gauss-Legendre nodes and weights on [-1, 1] by Newton's method on P_n.

    Built from the recurrence rather than by leggauss, so that importing
    makes no eigensolver call (whose first call grows the process by about
    1 MB).  From the Chebyshev-like first guesses six steps reach rounding.
    """
    x = np.cos(math.pi * (np.arange(1, n + 1) - 0.25) / (n + 0.5))
    for _ in range(6):
        p, dp = _legendre(n, x)
        x = x - p / dp
    dp = _legendre(n, x)[1]
    return x, 2.0 / ((1.0 - x * x) * dp * dp)


# On a panel the 32-point rule gives the value and its difference from the
# 16-point rule the error estimate: the two node sets side by side, and one
# weight column for the value and one for the difference
_PANEL_HIGH = _legendre_rule(32)
_PANEL_LOW = _legendre_rule(16)
_PANEL_NODES = np.concatenate((_PANEL_HIGH[0], _PANEL_LOW[0]))
_PANEL_WEIGHTS = np.zeros((_PANEL_NODES.size, 2))
_PANEL_WEIGHTS[:32, 0] = _PANEL_WEIGHTS[:32, 1] = _PANEL_HIGH[1]
_PANEL_WEIGHTS[32:, 1] = -_PANEL_LOW[1]
# bisection rounds after the first; a panel still open after them is kept
# with its error estimate, which the caller then reports
_PANEL_ROUNDS = 12
_HALVES = np.array([-1.0, 1.0])


def panel_integral(F, panels: int):
    """(values, errors) of integral_0^1 F on Gauss-Legendre panels, for a batch of integrands.

    F(x) gets the nodes x of every open panel, shape (P, 48), and returns
    the integrands there with any leading batch shape, (..., P, 48): every
    node of every panel of every integrand in one array call per round.
    The first round has ``panels`` equal panels.  An integral is done when
    its summed error estimate is at most SPATIAL_REL times its value (plus
    _TINY).  Otherwise each panel on which some unfinished integral's
    estimate exceeds that integral's target times the panel's width is
    bisected for the next round, and the others are kept.  The batch shares
    its panels, so each is as fine as its hardest integrand needs there.
    Panels still open after _PANEL_ROUNDS rounds, or whose estimate is not a
    number, are kept with their estimate, so the error can exceed the
    target but is never dropped.  Returns arrays of the batch shape.
    """
    mid, half, nodes = _first_panels(panels)
    values = errors = 0.0
    for depth in range(_PANEL_ROUNDS + 1):
        rules = (F(nodes) @ _PANEL_WEIGHTS) * half[:, None]
        err = np.abs(rules[..., 1])
        total = values + rules[..., 0].sum(axis=-1)
        error = errors + err.sum(axis=-1)
        target = SPATIAL_REL * np.abs(total) + _TINY
        missed = error > target
        if depth < _PANEL_ROUNDS and missed.any():
            split = (missed[..., None] & (err > target[..., None] * (2.0 * half)))
            split = split.reshape(-1, half.size).any(axis=0)
            if split.any():
                keep = ~split
                values = values + rules[..., keep, 0].sum(axis=-1)
                errors = errors + err[..., keep].sum(axis=-1)
                mid, half = mid[split], 0.5 * half[split]
                mid = (mid[:, None] + half[:, None] * _HALVES).ravel()
                half = np.repeat(half, 2)
                nodes = mid[:, None] + half[:, None] * _PANEL_NODES
                continue
        return total, error


@lru_cache(maxsize=64)
def _first_panels(panels: int):
    """Centres, half-widths and nodes of ``panels`` equal panels on [0, 1] (read-only)."""
    half = np.full(panels, 0.5 / panels)
    mid = (2.0 * np.arange(panels) + 1.0) * half
    out = mid, half, mid[:, None] + half[:, None] * _PANEL_NODES
    for a in out:
        a.flags.writeable = False
    return out

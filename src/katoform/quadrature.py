"""Quadrature helpers shared by the geometry and Kato-functional layers.

radial_integral integrates an array integrand over [0, hi] on panels,
calling it once per round on every node of every open panel.  At each
declared singular radius s the panels on either side are the dyadic
condensation windows: window k covers distances [L 2^-k-1, L 2^-k] from s,
L half the distance to the next breakpoint.  Geometric grading of this kind
converges exponentially for r^alpha singularities (Schwab, p- and hp-Finite
Element Methods, 1998; Davis-Rabinowitz, Methods of Numerical Integration,
1984).  Every other stretch between breakpoints is one panel.  Each panel
takes the 15-point Kronrod rule, with the 7-point Gauss rule on its own
nodes as error estimate, and one whose estimate misses its share of
SPATIAL_REL of the total is bisected for the next round.

The windows also decide convergence (Cauchy condensation: the integral
converges with the sum of the window integrals c_k).  classify_windows
reads them from window 16 on: windows that stop shrinking, grow, or fit
c_k ~ k^-gamma with gamma <= 1 mean divergence, +inf at once; a geometric
side is read until its extrapolated tail settles; gamma > 1 adds the
fitted tail to value and error; and windows that decide nothing raise
UndecidedError, which no caller reads as divergence.

panel_integral takes the same 7/15 panels on [0, 1] for a batch of smooth
integrands; it serves the sphere mean and the H^2 Millson transform.
These two adaptive routines on one rule, spelled out below rather than
computed, are every integral of the package; neither calls QUADPACK.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace
from functools import lru_cache

import numpy as np
from scipy.special import zeta

from .errors import UndecidedError

# Relative target of every radial integral and panel batch
SPATIAL_REL = 1e-8

# Values beyond this are treated as numerical blow-up of a divergent integral.
DIVERGENCE_CAP = 1e12

_TINY = 1e-300


# ---------------------------------------------------------------------------
# condensation: classify an integral from its dyadic windows

GEOMETRIC, POWER, DIVERGENT = "geometric", "power", "divergent"

# At a singular radius the first window read sits this many halvings below
# the side length, where the integrand has its asymptotic form unless its
# own scale is smaller still.
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


# ---------------------------------------------------------------------------
# panel rules: nodes on [-1, 1] and a weight matrix whose first column gives
# the value and whose second gives its difference from the embedded rule

# Gauss-Kronrod 7/15 (QUADPACK's qk15), spelled out so that building it makes
# no eigensolver call (whose first call grows the process by about 1 MB):
# the Kronrod nodes x >= 0 with their weights, then the 7-point Gauss weights
# at x_1, x_3, x_5 and 0
_KRONROD = ((0.991455371120812639206854697526329, 0.022935322010529224963732008058970),
            (0.949107912342758524526189684047851, 0.063092092629978553290700663189204),
            (0.864864423359769072789712788640926, 0.104790010322250183839876322541518),
            (0.741531185599394439863864773280788, 0.140653259715525918745189590510238),
            (0.586087235467691130294144845693013, 0.169004726639267902826583426598550),
            (0.405845151377397166906606412076961, 0.190350578064785409913256402421014),
            (0.207784955007898467600689403773245, 0.204432940075298892414161999234649),
            (0.0, 0.209482141084727828012999174891714))
_GAUSS_7 = (0.129484966168869693270611432679082, 0.279705391489276667901467771423780,
            0.381830050505118944950369775488975, 0.417959183673469387755102040816327)

_KRONROD_NODES = np.array([-x for x, _ in _KRONROD[:-1]] + [x for x, _ in _KRONROD[::-1]])
_KRONROD_WEIGHTS = np.array([(w, w) for _, w in (*_KRONROD[:-1], *_KRONROD[::-1])])
_KRONROD_WEIGHTS[1::2, 1] -= _GAUSS_7 + _GAUSS_7[-2::-1]


# ---------------------------------------------------------------------------
# fixed-rule panels, every node of every panel in one array call

# bisection rounds after the first; a panel still open after them is kept
# with its error estimate, which the caller then reports
_PANEL_ROUNDS = 12
_HALVES = np.array([-1.0, 1.0])


def panel_integral(F, panels: int):
    """(values, errors) of integral_0^1 F on Gauss-Kronrod panels, for a batch of integrands.

    F(x) gets the 15 Kronrod nodes x of every open panel, shape (P, 15),
    and returns the integrands there with any leading batch shape,
    (..., P, 15): every node of every panel of every integrand in one array
    call per round.  Each panel's error estimate is the difference from the
    embedded 7-point Gauss rule, as in radial_integral.  The first round
    has ``panels`` equal panels.  An integral is done when its summed error
    estimate is at most SPATIAL_REL times its value (plus _TINY).
    Otherwise each panel on which some unfinished integral's estimate
    exceeds that integral's target times the panel's width is bisected for
    the next round, and the others are kept.  The batch shares
    its panels, so each is as fine as its hardest integrand needs there.
    Panels still open after _PANEL_ROUNDS rounds, or whose estimate is not a
    number, are kept with their estimate, so the error can exceed the
    target but is never dropped.  Returns arrays of the batch shape.
    """
    mid, half, nodes = _first_panels(panels)
    values = errors = 0.0
    for depth in range(_PANEL_ROUNDS + 1):
        rules = (F(nodes) @ _KRONROD_WEIGHTS) * half[:, None]
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
                nodes = mid[:, None] + half[:, None] * _KRONROD_NODES
                continue
        return total, error


@lru_cache(maxsize=64)
def _first_panels(panels: int):
    """Centres, half-widths and nodes of ``panels`` equal panels on [0, 1] (read-only)."""
    half = np.full(panels, 0.5 / panels)
    mid = (2.0 * np.arange(panels) + 1.0) * half
    out = mid, half, mid[:, None] + half[:, None] * _KRONROD_NODES
    for a in out:
        a.flags.writeable = False
    return out


# ---------------------------------------------------------------------------
# graded panels: every radial integral

# windows a round opens on a side still reading, past the first classified ones
_MORE_WINDOWS = 8
# the extrapolated tail's error is this many times its change over one window
# (which it exceeds by 1.4 at most for c_k ~ 2^-k k, the log pole of H^2)
_EXTRAPOLATION_SAFETY = 4.0
# doubling windows read beyond the last breakpoint of an integral to +inf
_TAIL_WINDOWS = 64
# rounding allowance of a panel, relative to its |value| (QUADPACK's 50 eps)
_ROUNDING = 50.0 * float(np.finfo(float).eps)
# bisection stops at this many panels (QUADPACK's 200-subinterval limit in
# evaluations), which an integrand whose own values miss the target reaches
_PANEL_LIMIT = 300


class _Side:
    """The condensation windows of a declared radius s on its side towards s + length.

    Window k covers distances [|length| 2^-k-1, |length| 2^-k] from s and is
    one panel; its integral is slot ``base + k`` of the running sums.
    """

    def __init__(self, s, length, base):
        deepest = _LAST_WINDOW
        if s > 0.0:
            deepest = min(deepest, math.floor(math.log2(abs(length) / s)) + _SHELL_DIGITS - 1)
        self.s, self.length, self.base, self.deepest = s, length, base, deepest
        self.first = max(0, min(_FIRST_WINDOW, deepest - 12))
        self.opening = self.first + _MORE_WINDOWS
        self.read, self.checked = 0, self.first + 3  # windows opened; next one classified at
        self.outcome, self.at = None, 0              # and the window it was decided at
        self.reading, self.tail, self.tail_err = True, 0.0, 0.0

    def open(self, count):
        """(centres, half-widths, slots) of the next ``count`` windows."""
        k = np.arange(self.read, min(self.read + count, self.deepest + 1))
        self.read += k.size
        near = abs(self.length) * 0.5 ** (k + 1)
        return self.s + math.copysign(1.5, self.length) * near, 0.5 * near, self.base + k

    def settle(self, c, total, target):
        """Windows to open next, from the window integrals c so far (DIVERGENT if they diverge)."""
        while self.outcome is None and self.checked < self.read:
            self.outcome = classify_windows(c[self.checked - 3:self.checked + 1])
            self.at, self.checked = self.checked, self.checked + 1
        kind = self.outcome.kind if self.outcome is not None else None
        if kind == DIVERGENT:
            return DIVERGENT
        if kind == POWER:
            # the model counts windows from the one it was fitted at
            model = replace(self.outcome, index=self.outcome.index + self.read - 1 - self.at)
            self.tail = math.copysign(model.tail(abs(c[-1])), c[-1])
            self.tail_err, self.reading = abs(self.tail), False
            return 0
        if kind == GEOMETRIC and self._extrapolate(c, target):
            return 0
        if self.read <= self.deepest:
            return _MORE_WINDOWS
        self.reading = False
        if max(map(abs, c[-4:]), default=0.0) > 0.0:
            raise UndecidedError(
                f"windows at radius {self.s} ({'above' if self.length > 0 else 'below'}) "
                f"decide nothing after {self.read - self.first} windows",
                achieved_error=math.inf)
        return 0

    def _extrapolate(self, c, target):
        """Set the geometric tail beyond the last window and its error; True once it settles.

        Each partial sum plus its Aitken tail c_K r / (1 - r), r = c_K / c_{K-1},
        is accelerated once more by Aitken's Delta^2 over three successive
        ones; the error is the change of that over one window, times
        _EXTRAPOLATION_SAFETY.  It settles once the error is below a quarter
        of the target or the windows run out; windows that stopped
        shrinking leave it unsettled.
        """
        w = [abs(x) for x in c[-6:].tolist()]
        self.tail = self.tail_err = 0.0
        if len(w) < 6:
            return False
        if w[-1] > 0.0:
            if min(w) <= 0.0 or any(b >= a for a, b in zip(w, w[1:])):
                return False
            partial, aitken = w[0], []
            for a, b in zip(w, w[1:]):
                partial += b
                aitken.append(partial + b * b / (a - b))
            twice = [s2 - (s2 - s1) ** 2 / (s2 - 2.0 * s1 + s0) if s2 - 2.0 * s1 + s0 else s2
                     for s0, s1, s2 in zip(aitken, aitken[1:], aitken[2:])]
            self.tail = math.copysign(twice[-1] - partial, c[-1])
            self.tail_err = _EXTRAPOLATION_SAFETY * abs(twice[-1] - twice[-2])
            if self.tail_err > 0.25 * target and self.read <= self.deepest:
                return False
        self.reading = False
        return True


class _Tail:
    """Doubling windows [lo 2^j, lo 2^{j+1}] out to +inf, each one panel, from slot ``base``.

    They are summed until one is negligible against the running total and
    classified as they come: a divergent reading or a total past
    DIVERGENCE_CAP is +inf.  Where the sum stops or the windows run out the
    last settled decay adds its tail to value and error (else the last
    window joins the error; windows that run out unsettled are undecided).
    """

    opening = 1

    def __init__(self, lo, base):
        self.lo, self.base, self.read = lo, base, 0
        self.reading, self.tail, self.tail_err = True, 0.0, 0.0

    def open(self, count):
        j = np.arange(self.read, min(self.read + count, _TAIL_WINDOWS))
        self.read += j.size
        half = self.lo * 2.0 ** (j - 1)
        return 3.0 * half, half, self.base + j

    def settle(self, c, total, target):
        running, settled = total - math.fsum(c), None
        for j, window in enumerate(c):
            running += window
            if not abs(running) <= DIVERGENCE_CAP:
                return DIVERGENT
            if abs(window) <= SPATIAL_REL * abs(running):
                break
            settled = classify_windows(c[max(j - 3, 0):j + 1]) or settled
            if settled is not None and settled.kind == DIVERGENT:
                return DIVERGENT
        else:
            if self.read < _TAIL_WINDOWS:
                return _MORE_WINDOWS
            if settled is None and running != 0.0:
                raise UndecidedError(f"the radial tail decides nothing after {_TAIL_WINDOWS} "
                                     "windows", achieved_error=math.inf)
        self.reading = False
        if settled is not None:
            self.tail = math.copysign(settled.tail(abs(c[-1])), c[-1])
        self.tail_err = abs(self.tail) if settled is not None else abs(float(c[-1]))
        return 0


def radial_integral(g, hi, singular=(), *, points=()):
    """(value, error) of integral_0^hi g; ``singular`` lists the declared singular radii.

    g maps a 1-d array of radii to the integrand there.  Each declared
    radius gets windows on each side out to half the distance to the next
    breakpoint; every other stretch between 0, the radii, the ``points``
    (plain breakpoints, never classified) and hi is one panel; with
    hi = +inf the last stretch is _Tail's windows from the largest
    breakpoint (at least 1).  A point within s 2^-22 of a radius s merges
    into it.  Each round classifies the windows read (a divergent side or
    a non-finite panel value returns (+inf, +inf); an undecidable one
    raises UndecidedError), opens more where a side is still reading, and
    bisects, up to _PANEL_ROUNDS times and largest first below
    _PANEL_LIMIT panels, each panel whose estimate exceeds its equal share
    of SPATIAL_REL |value|.  A half's estimate is at least half the change
    its bisection made: at a kink the two embedded rules can agree by
    accident, the two sides of a bisection do not.  The error sums the
    estimates, the tails' errors and 50 eps of each panel's |value|.
    """
    if hi <= 0.0:
        return 0.0, 0.0
    declared = {float(p) for p in singular if 0.0 <= p <= hi}
    # a point closer to a declared radius than its deepest windows' reach is
    # merged into it, so each side keeps at least nine windows to read
    plain = {float(p) for p in points
             if not any(abs(p - s) < s * 2.0 ** -_MERGE_DIGITS for s in declared)}
    pts = sorted(p for p in declared | plain if 0.0 < p < hi)
    end = hi if math.isfinite(hi) else max([1.0, *pts])
    breaks = [0.0] + [p for p in pts if p < end] + [end]
    sides, lo, top, slots = [], [], [], 1
    for left, right in zip(breaks[:-1], breaks[1:]):
        mid = 0.5 * (left + right)
        if left in declared:
            sides.append(_Side(left, mid - left, slots))
            slots += max(sides[-1].deepest + 1, 0)
        if right in declared:
            sides.append(_Side(right, mid - right, slots))
            slots += max(sides[-1].deepest + 1, 0)
        a, b = (mid if left in declared else left), (mid if right in declared else right)
        if a < b:
            lo.append(a)
            top.append(b)
    if not math.isfinite(hi):
        sides.append(_Tail(end, slots))
        slots += _TAIL_WINDOWS
    return _graded(g, sides, slots, np.array(lo), np.array(top))


def _graded(g, sides, slots, lo, top):
    """radial_integral's rounds over the sides' windows and the plain panels [lo, top] (slot 0)."""
    kept = np.zeros((2, slots))      # value and error of the panels no longer open, by slot
    kept_panels, kept_size = 0, 0.0  # and their count and summed |value|
    plain = np.zeros(lo.size, dtype=int)
    # the open panels: centres, half-widths, slots and bisection depths
    panels = _extend([0.5 * (lo + top), 0.5 * (top - lo), plain, plain],
                     [side.open(side.opening) for side in sides])
    parents = np.zeros(0)            # values of the panels whose halves open the list
    while True:
        mid, half, slot, depth = panels
        nodes = mid[:, None] + half[:, None] * _KRONROD_NODES
        f = np.asarray(g(nodes.ravel()), dtype=float).reshape(nodes.shape)
        rule = (f @ _KRONROD_WEIGHTS) * half[:, None]
        if not np.isfinite(rule).all():
            return math.inf, math.inf
        est = kept[0] + np.bincount(slot, rule[:, 0], minlength=slots)
        total = float(est.sum())
        target = SPATIAL_REL * abs(total) + _TINY
        more = []
        for side in sides:
            more.append(side.settle(est[side.base:side.base + side.read], total, target)
                        if side.reading else 0)
            if more[-1] == DIVERGENT:
                return math.inf, math.inf
        value = total + sum(side.tail for side in sides)
        err, size = np.abs(rule[:, 1]), np.abs(rule[:, 0])
        if parents.size:
            change = np.abs(parents - rule[:2 * parents.size, 0].reshape(-1, 2).sum(axis=1))
            err[:change.size * 2] = np.maximum(err[:change.size * 2], np.repeat(0.5 * change, 2))
        error = float(kept[1].sum() + err.sum()) + sum(side.tail_err for side in sides) + \
            _ROUNDING * (kept_size + float(size.sum()))
        target = SPATIAL_REL * abs(value) + _TINY
        if error <= target and not any(more):
            return float(value), float(error)
        cut = np.zeros(err.size, dtype=bool)
        if error > target:
            cut = (err > target / (kept_panels + err.size)) & (depth < _PANEL_ROUNDS)
            # the largest estimates first, while the panel count has room
            room = max(_PANEL_LIMIT - kept_panels - err.size, 0)
            cut[np.argsort(np.where(cut, -err, np.inf))[room:]] = False
        if not any(more) and not cut.any():
            return float(value), float(error)
        keep = ~cut
        kept[0] += np.bincount(slot[keep], rule[keep, 0], minlength=slots)
        kept[1] += np.bincount(slot[keep], err[keep], minlength=slots)
        kept_panels += int(keep.sum())
        kept_size += float(size[keep].sum())
        halves, parents = 0.5 * half[cut], rule[cut, 0]
        panels = [(mid[cut, None] + halves[:, None] * _HALVES).ravel(), np.repeat(halves, 2),
                  np.repeat(slot[cut], 2), np.repeat(depth[cut] + 1, 2)]
        panels = _extend(panels, [side.open(n) for side, n in zip(sides, more) if n])


def _extend(panels, windows):
    """The open panels with the sides' new windows (centres, half-widths, slots) appended."""
    windows = [w for w in windows if w[0].size]
    if not windows:
        return panels
    return [np.concatenate((column, *new)) for column, new in
            zip(panels, zip(*[(*w, np.zeros(w[0].size, dtype=int)) for w in windows]))]

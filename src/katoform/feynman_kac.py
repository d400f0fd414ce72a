"""Monte Carlo Brownian paths with killing and transport phases.

Path-integral estimators that cross-check the quadrature and matrix sides
of the package from an entirely different direction: sampled Brownian
motion.  The generator convention is Delta/2 throughout, i.e. coordinate
increments have variance h per step of size h.

Euclidean paths use exact Gaussian increments.  Hyperbolic paths are
cumulative sums in upper-half-space coordinates (x, y): log y is exact in
law, each x step takes the trapezoidal variance h (y_k^2 + y_{k+1}^2)/2,
an O(h) weak approximation.  On sampled paths, killing regions (a
geodesic ball, or a Euclidean half-space) stop a path at the first step
that lands outside, so killing happens at the grid's times.  The exact
routes below kill in continuous time instead.

Every potential is radial about the origin.  Where the law is exact, one
core, _exact_samples, draws each sample in one step, Y = base + sqrt(s) Z
for a standard normal vector Z, weighted by the product of a space, a time
and a survival weight, in that order.  Each estimator picks the three laws
once a call; where one has no exact law (None), it takes the path route.

* Time.  By Fubini, E_x int_0^T |v(B_s)| ds = int_0^T E_x |v(B_s)| ds, the
  Brownian form of the Kato functional (Aizenman and Simon, Comm. Pure
  Appl. Math. 35, 1982): mc_kato_integral takes the Kato law s = T U^2 for
  a uniform U, of density 1 / (2 sqrt(sT)) and weight 2 sqrt(sT) = 2 T U,
  whose second moment is finite when |v| is bounded, or when its only
  singular radius is 0 with a declared power p, |v| <= C r^-p, and
  2p < min(d, 3) (the variance rule).  mc_heat_expectation takes s = T.
* Space.  On R^d, base = x_0 and Y is B_s.  On H^3 the radius is the Doob
  transform of BES(3) by h(r) = sinh r / r, which solves h''/2 + h'/r =
  h/2: |Y| is the BES(3) draw from |base|, weighted e^{-s/2} h(|Y|) /
  h(|base|) (Revuz and Yor, ch. XI).  H^m, m != 3, has no exact law.  The
  Kato integral's sample is |Y|, from base = (d(o, x_0), 0, 0) on H^3.  The
  heat expectation's is the endpoint; on H^3 it draws at the origin, where
  the direction is uniform and independent of the radius path (the skew
  product), and boosts the point at distance |Y| in Y's direction to x_0
  (the heat kernel is isotropic about every point).
* Survival: 1 with no region.  Under a ball of radius a about the origin
  of R^3 or H^3, the chance that the radius path stayed below a given its
  ends, the BES(3) bridge's survival from |base| to |Y| (an h-transform
  leaves bridges unchanged): an image series whose computed truncation is
  the bias_bound.  Only from the origin is the endpoint's direction
  independent of the ball, so the heat expectation takes one from there
  alone.  Under a Euclidean half-space, 1 - exp(-2 d_0 d_s / s), d the
  distance to the plane (0 outside): the chance that the normal
  coordinate's Brownian bridge from d_0 to d_s stays positive, exact and
  independent of the other coordinates.

Streams are counter-based (Philox) keyed by (seed, worker index).  Worker
w draws a contiguous block of the path indices, worker 0's first; this is
the reference layout (_blocks).  Each batch or block carries the index of
its first path there, the estimators write per-path values into those
slots and reduce the whole array in index order, so the numbers depend
only on the configuration, that is on (seed, workers), never on thread
timing.

Sampled paths draw every increment from the worker's key, path-major, so
the batch size never changes the numbers; sample_paths runs the streams on
producer threads.  _exact_samples draws each worker's block of the layout
from its key, in blocks of 2**14 samples, on the caller's thread
(_exact_blocks): one draw a sample does not pay for a producer thread.
The block width sets which draws go to which sample, so it is part of the
reference numbers.

No ufunc loops over the short coordinate axis: an operation that pairs
a (B, S, ambient) block with one value per coordinate (a start point, a
per-node scale, a ball centre) runs once per coordinate, as a long
strided pass.  Sums over coordinates add in np.linalg.norm's order, so
this changes no estimate in its last bit.
"""

from __future__ import annotations

import math
import numbers
import os
import queue
import threading
from contextlib import closing
from dataclasses import dataclass, field
from typing import Callable, Iterator

import numpy as np

from .errors import ConfigError, DomainError
from .geometry import EUCLIDEAN, HYPERBOLIC, ModelSpace

_MAX_BATCH = 1024
# samples in a block of the exact routes: it sets which draws go to which
# sample, so unlike the batch size it is part of the reference numbers
_BLOCK_WIDTH = 2 ** 14
_NODE_BUDGET = 2 ** 17
_SCAN_NODES = 2 ** 14
# path nodes (n_paths x (n_steps + 1)) a configuration may ask for: over
# 20 times the largest run in the tests (10^5 paths of 1001 nodes), a few
# minutes of sampling
_MAX_PATH_NODES = 2 ** 31
# worker streams a configuration may ask for (the sampling engine makes lists this long)
_MAX_WORKERS = 2 ** 10
_EPS = float(np.finfo(float).eps)


# ---------------------------------------------------------------------------
# configuration

@dataclass(frozen=True)
class KillingRegion:
    """Survival region: an open geodesic ball, or an open half-space.

    Balls are centered on the space origin unless a center is given and
    work on every model space; half-spaces {x . normal < offset} are
    Euclidean only, and read as {x . unit < level}, unit = normal / |n| and
    level = offset / |n|.  A region checks itself when it is built: radius,
    |n|, offset and level are finite, radius and |n| positive.
    """

    kind: str
    radius: float = 0.0
    center: tuple | None = None
    normal: tuple | None = None
    offset: float = 0.0
    unit: np.ndarray | None = field(default=None, init=False, repr=False, compare=False)
    level: float | None = field(default=None, init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.kind == "ball":
            if not 0.0 < self.radius < math.inf:
                raise ConfigError("ball region needs a positive finite radius")
            return
        if self.kind != "halfspace":
            raise ConfigError(f"unknown killing region kind {self.kind!r}")
        # a missing normal reads as nan; a non-finite entry gives a non-finite |n|
        normal = np.asarray(self.normal, dtype=float)
        with np.errstate(all="ignore"):
            size = float(np.linalg.norm(normal))
        if not 0.0 < size < math.inf:
            raise ConfigError("halfspace normal must be a finite nonzero vector of finite "
                              f"nonzero length (its length is {size})")
        level = self.offset / size
        if not (math.isfinite(self.offset) and math.isfinite(level)):
            raise ConfigError("halfspace offset and offset / |normal| must be finite")
        object.__setattr__(self, "unit", normal / size)
        object.__setattr__(self, "level", level)

    def inside(self, space: ModelSpace, points: np.ndarray) -> np.ndarray:
        if self.kind == "halfspace":
            return points @ self.unit < self.level
        center = None if self.center is None else np.asarray(self.center, dtype=float)
        return _distances(space, points, *np.empty((2, len(points))), center) < self.radius


@dataclass(frozen=True)
class PathConfig:
    """A path run: its space, start, horizon, step grid, paths, streams and region.

    Of a region it checks what needs the space: a ball's centre lies on it,
    a half-space is Euclidean with a normal of length dim, the start inside.
    """

    space: ModelSpace
    start: tuple
    horizon: float
    step: float
    n_paths: int
    seed: int
    workers: int = 1
    domain: KillingRegion | None = None

    def __post_init__(self):
        for name, low, high in (("n_paths", 100, math.inf), ("seed", 0, 2 ** 64 - 1),
                                ("workers", 1, _MAX_WORKERS)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
                    or not low <= value <= high:
                raise ConfigError(f"{name} must be an integer in [{low}, {high}], not {value!r}")
        if not 0.0 < self.horizon < math.inf:
            raise ConfigError("horizon must be positive and finite")
        if not 0.0 < self.step <= self.horizon / 10:
            raise ConfigError("step must be positive and at most horizon/10")
        ratio = self.horizon / self.step
        # the int comparison first: a huge int times a float overflows
        if self.n_paths > _MAX_PATH_NODES \
                or self.n_paths * (ratio + 1.0) > _MAX_PATH_NODES:
            raise ConfigError(f"n_paths x (n_steps + 1) exceeds the budget of "
                              f"{_MAX_PATH_NODES} path nodes")
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ConfigError("step must divide the horizon evenly")
        start = np.asarray(self.start, dtype=float)
        self.space.validate_point(start)
        object.__setattr__(self, "start", tuple(float(x) for x in start))
        region = self.domain
        if region is not None:
            if region.kind == "ball" and region.center is not None:
                self.space.validate_point(region.center)
            elif region.kind == "halfspace":
                if self.space.kind != EUCLIDEAN:
                    raise ConfigError("halfspace regions are Euclidean only")
                if region.unit.shape != (self.space.dim,):
                    raise ConfigError(f"halfspace normal must have length {self.space.dim}")
            if not bool(region.inside(self.space, np.asarray([start]))[0]):
                raise ConfigError("start point lies outside the killing region")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.step))


@dataclass
class Estimate:
    """Monte Carlo estimate with its sampling error and run accounting.

    std_error is the sample standard deviation over paths divided by
    sqrt(n_paths); for complex values it uses |X - mean|^2.  bias_bound is
    each estimator's computed bound on its bias, None where it computes
    none (see the estimators).  cap_events counts capped singular values.
    """

    value: complex | float
    std_error: float
    n_effective: int
    n_paths: int = 0
    step: float = 0.0
    cap_events: int = 0
    bias_bound: float | None = None
    extras: dict = field(default_factory=dict)


# ---------------------------------------------------------------------------
# path sampling

@dataclass
class PathBatch:
    """One batch of sampled paths.

    positions has shape (B, S+1, ambient), node k at time k * step;
    alive[b, k] says the path was still inside the region at step k
    (alive[:, 0] is True by config validation), so alive[b].sum() is the
    first dead index, or S+1 if the path survived the whole horizon.
    first is the index of the batch's first path in the reference layout,
    so the batch holds paths [first, first + B) of the configuration's n_paths.
    """

    positions: np.ndarray
    alive: np.ndarray
    first: int


def _blocks(config: PathConfig, width: int) -> list[list[tuple[int, int]]]:
    """Each worker stream's (first, size) blocks of the reference layout, in stream order.

    Worker w draws a contiguous block of the n_paths indices, worker 0's
    first, and the first n_paths % workers workers one index more; each
    worker's block is cut into blocks of at most width.  Worker 0's first
    block is therefore the largest, which sizes the buffers.
    """
    base, rem = divmod(config.n_paths, config.workers)
    layout, first = [], 0
    for w in range(config.workers):
        end = first + base + (w < rem)
        layout.append([(lo, min(width, end - lo)) for lo in range(first, end, width)])
        first = end
    return layout


def _worker_bits(seed: int, worker: int) -> np.random.Philox:
    key = np.array([seed, worker], dtype=np.uint64)
    return np.random.Philox(key=key)


def _batch_size(n_steps: int) -> int:
    """Paths per batch: about _NODE_BUDGET path nodes, at most _MAX_BATCH paths.

    A batch's arrays then stay near cache size.
    """
    return min(_MAX_BATCH, max(1, _NODE_BUDGET // (n_steps + 1)))


def _pool_rows(config: PathConfig) -> int:
    """Paths in the largest batch of a configuration: its buffers' first axis."""
    return _blocks(config, _batch_size(config.n_steps))[0][0][1]


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _killing_scan(domain: KillingRegion | None, space: ModelSpace,
                  positions: np.ndarray) -> np.ndarray:
    """alive of a (B, S+1, ambient) block of paths.

    The region test runs on row chunks of at most _SCAN_NODES nodes, so
    its temporaries stay small whatever the batch size.
    """
    B, nodes = positions.shape[:2]
    if domain is None:
        return np.ones((B, nodes), dtype=bool)
    inside = np.empty((B, nodes), dtype=bool)
    rows = max(1, _SCAN_NODES // nodes)
    for lo in range(0, B, rows):
        chunk = positions[lo:lo + rows]
        inside[lo:lo + rows] = domain.inside(
            space, chunk.reshape(-1, chunk.shape[-1])).reshape(-1, nodes)
    # the start is inside (PathConfig checks it); the scan starts at step 1
    inside[:, 0] = True
    return np.logical_and.accumulate(inside, axis=1)


def _sample_batch(config: PathConfig, pos: np.ndarray, increments: np.ndarray,
                  first: int) -> PathBatch:
    """Integrate a batch's drawn increments into the paths in pos.

    increments is the (B, S, dim) draw buffer, holding the batch's
    Brownian increments (standard normals scaled by sqrt(step)) and spent
    here as scratch.  Only array arithmetic and the killing scan run
    here, never a potential or a user callback: this runs on a producer
    thread.
    """
    space = config.space
    S = config.n_steps
    h = config.step
    start = np.asarray(config.start, dtype=float)
    pos[:, 0] = start
    if space.kind == EUCLIDEAN:
        np.cumsum(increments, axis=1, out=pos[:, 1:])
        if np.any(start):
            for i, c in enumerate(start):
                pos[:, 1:, i] += c
    else:
        # chart x = X' y, y = 1/(X0 - Xm) = (X0 + Xm)/(1 + |X'|^2); the
        # X0 column and the spent W_y column serve as scratch
        y0 = (start[0] + start[-1]) / (1.0 + start[1:-1] @ start[1:-1])
        y, x, x0 = pos[:, :, -1], pos[:, 1:, 1:-1], pos[:, 1:, 0]
        y[:, 0] = 0.0
        np.cumsum(increments[:, :, -1], axis=1, out=y[:, 1:])
        y += math.log(y0) - 0.5 * (space.dim - 1) * (h * np.arange(S + 1))
        np.exp(y, out=y)
        sq = np.square(y, out=pos[:, :, 0])
        scale = np.add(sq[:, :-1], sq[:, 1:], out=increments[:, :, -1])
        scale *= 0.5
        np.sqrt(scale, out=scale)
        for i in range(space.dim - 1):
            increments[:, :, i] *= scale
        np.cumsum(increments[:, :, :-1], axis=1, out=x)
        if np.any(start[1:-1]):
            for i, c in enumerate(start[1:-1]):
                x[:, :, i] += y0 * c
        # X' = x/y, X0 = ((|x|^2 + 1)/y + y)/2, Xm = X0 - 1/y, worked out
        # in two contiguous (B, S) planes of the spent draw buffer so that
        # each strided column is read or written as few times as possible
        B = pos.shape[0]
        planes = increments.reshape(-1)
        acc, tmp = planes[:B * S].reshape(B, S), planes[B * S:2 * B * S].reshape(B, S)
        y = y[:, 1:]
        np.multiply(x[:, :, 0], x[:, :, 0], out=acc)
        for i in range(1, space.dim - 1):
            np.multiply(x[:, :, i], x[:, :, i], out=tmp)
            acc += tmp
        np.copyto(tmp, y)
        for i in range(space.dim - 1):
            x[:, :, i] /= tmp
        acc += 1.0
        acc /= tmp
        acc += tmp
        acc *= 0.5
        np.copyto(x0, acc)
        np.divide(1.0, tmp, out=tmp)
        np.subtract(acc, tmp, out=y)
        pos[:, 0] = start
    return PathBatch(pos, _killing_scan(config.domain, space, pos), first)


def sample_paths(config: PathConfig) -> Iterator[PathBatch]:
    """Stream batches of Brownian paths for the given configuration.

    Worker w's Philox stream covers its block of the reference layout in
    batches of _batch_size paths, and each batch's ``first`` says where it
    sits there.  Batches arrive round-robin across the workers (batch 0 of
    every worker, then batch 1, ...), an order fixed by the configuration
    alone.  The streams run on min(workers, usable CPUs) producer threads,
    one for a single worker or CPU, so drawing overlaps the caller's work:
    Philox draws and the large ufuncs release the interpreter lock.
    Worker w belongs to one thread, which keeps its generator across its
    batches.  Producers only draw, integrate the increments and run the
    killing scan; potentials and user callbacks run on the caller's thread.

    Each producer thread owns one position buffer and one draw buffer,
    allocated once per call, on the caller's thread: 2 x threads batch
    buffers whatever ``workers`` is, and no freed batch lingers in a
    producer thread's malloc arena.  A batch's arrays are valid until the
    next batch is requested, which hands its position buffer back to its
    producer; copy what you keep.  A producer draws its next batch's
    normals into its draw buffer before it waits for the position buffer,
    so the draw overlaps the caller's work on the batch before.  The
    integration into the positions and the killing scan wait for that
    buffer: with one producer thread the caller waits for them on every
    batch, and on H^m paths or under a killing region they take about as
    long as the draw.  The wait is the back-pressure.  Closing the
    generator, or an exception in the caller's loop, stops and joins
    every producer; a producer's exception is raised here.
    """
    layout = _blocks(config, _batch_size(config.n_steps))
    # worker 0 has the most batches, and the workers with any paths come first
    plan = [(w, blocks[i]) for i in range(len(layout[0]))
            for w, blocks in enumerate(layout) if i < len(blocks)]
    active = sum(1 for blocks in layout if blocks)
    n_threads = min(active, _usable_cpus())
    rngs = [np.random.Generator(_worker_bits(config.seed, w)) for w in range(active)]
    rows, nodes = layout[0][0][1], config.n_steps + 1
    free = [queue.SimpleQueue() for _ in range(n_threads)]
    filled = [queue.SimpleQueue() for _ in range(n_threads)]
    draws = []
    for t in range(n_threads):
        free[t].put(np.empty((rows, nodes, len(config.start))))
        draws.append(np.empty((rows, nodes - 1, config.space.dim)))
    stop = threading.Event()

    def produce(t: int) -> None:
        try:
            for w, (first, B) in plan:
                if w % n_threads != t:
                    continue
                rngs[w].standard_normal(draws[t][:B].shape, out=draws[t][:B])
                draws[t][:B] *= math.sqrt(config.step)
                pos = free[t].get()
                if stop.is_set():
                    return
                filled[t].put((pos, _sample_batch(config, pos[:B], draws[t][:B], first)))
        except BaseException as exc:  # re-raised on the caller's thread
            filled[t].put((None, exc))

    threads = [threading.Thread(target=produce, args=(t,), daemon=True,
                                name=f"katoform-paths-{t}")
               for t in range(n_threads)]
    for thread in threads:
        thread.start()
    try:
        for w, _ in plan:
            pos, batch = filled[w % n_threads].get()
            if pos is None:
                raise batch
            yield batch
            free[w % n_threads].put(pos)
    finally:
        stop.set()
        for t, thread in enumerate(threads):
            free[t].put(None)     # wakes a producer waiting for a buffer
            thread.join()


# ---------------------------------------------------------------------------
# exact draws: a time law, a space law and a survival weight

class _KatoTime:
    """The Kato law: its rows hold U (then 2 T U), sqrt(s) and s."""

    n_rows = 3

    def __call__(self, rng, rows: np.ndarray, T: float) -> tuple:
        """(sqrt(s), s, weight) of a block, whose uniforms come before its normals."""
        u = rng.random(out=rows[0])
        root = np.multiply(u, math.sqrt(T), out=rows[1])
        return root, np.square(root, out=rows[2]), np.multiply(u, 2.0 * T, out=u)


class _FixedTime:
    """The fixed law s = T, of weight 1."""

    n_rows = 0

    def __call__(self, rng, rows: np.ndarray, T: float) -> tuple:
        return math.sqrt(T), T, 1.0


class _SpaceLaw:
    """Y = base + sqrt(s) Z with its weight (1, or Doob's on H^3) and the sample it gives."""

    def __init__(self, space: ModelSpace, base: np.ndarray, sample: Callable, extra: int):
        self.base, self.sample = base, sample
        self.r0 = math.sqrt(base.dot(base))     # np.linalg.norm's sum, bit for bit
        self.h0 = float(_sinh_ratio(np.array(self.r0), np.empty(()))) \
            if space.kind == HYPERBOLIC else None
        self.n_rows = extra if self.h0 is None else extra + 1

    def __call__(self, y: np.ndarray, r: np.ndarray, s, w: np.ndarray, rows) -> np.ndarray:
        """A block's sample; the weight goes into w, and on H^3 h(|Y|) into rows[0]."""
        if self.h0 is None:
            w.fill(1.0)
            return self.sample(y, r, None, rows)
        h = _sinh_ratio(r, rows[0])
        # libm's exp for one s, as the reference numbers take it
        np.multiply(h, np.exp(-0.5 * s) if np.ndim(s) else math.exp(-0.5 * s), out=w)
        w /= self.h0
        return self.sample(y, r, h, rows)


def _h3_points(y: np.ndarray, r: np.ndarray, h: np.ndarray, x0: np.ndarray,
               out: np.ndarray) -> np.ndarray:
    """The points of H^3 at distance r = |y| from x0, written into the (N, 4) out.

    The point at distance r from the origin in y's direction is
    (cosh r, y h), h = sinh r / r, and the boost that takes the origin to
    x0 maps (p_0, p') to (x_0 p_0 + x'.p', p' + (p_0 + x'.p' / (1 + x_0)) x').
    """
    np.cosh(r, out=out[:, 0])
    for i in range(3):
        np.multiply(y[:, i], h, out=out[:, i + 1])
    if not np.any(x0[1:]):
        return out
    dot = out[:, 1] * x0[1]
    for i in (2, 3):
        dot += out[:, i] * x0[i]
    p0 = out[:, 0].copy()
    np.multiply(p0, x0[0], out=out[:, 0])
    out[:, 0] += dot
    dot /= 1.0 + x0[0]
    dot += p0
    for i in (1, 2, 3):
        out[:, i] += dot * x0[i]
    return out


def _sinh_ratio(r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """h(r) = sinh(r) / r of the radii r, 1 at r = 0, written into out."""
    np.sinh(r, out=out)
    np.divide(out, r, out=out, where=r > 0.0)
    # h >= 1 everywhere, and this sets h(0) = 1 where the division was skipped
    return np.maximum(out, 1.0, out=out)


@np.errstate(over="ignore", invalid="ignore")     # see term
def _bridge_survival(x, y, a: float, t,
                     terms: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """P(a BES(3) bridge from x to y over time t stays below a), and its error bound.

    x, y and t broadcast together; a bridge over no time stays at x.

    BES(3) is 1-d Brownian motion killed at 0 and h-transformed by r, so
    its bridges are those of the killed motion, and their survival below a
    is the image series of the interval (0, a):
    sum_n [phi_t(y - x + 2na) - phi_t(y + x + 2na)] / [phi_t(y - x) - phi_t(y + x)].
    Divided through, the term of u = y + 2na reads
    sign(u) exp(-(|u| - y)(|u| + y - 2x) / 2t) expm1(-2x|u|/t) / expm1(-2xy/t);
    its last factor lies in [1, |u|/y] and tends to |u|/y as x -> 0, the
    value taken at x = 0.  The pairs n = +-k are summed for k up to terms,
    by default 2 + ceil(sqrt(20 t) / a) at the largest t, past which every
    term is below e^-40 |u|/y.

    An omitted term is at most b(u) = exp(-(|u| - y)(|u| + y - 2x) / 2t) |u|/y,
    and b falls faster at each k, so the omitted pairs add up to at most
    (b_+ + b_-) / (1 - rho) at k = terms + 1, with rho the larger of the
    two ratios to the next pair.  The returned bound is that tail plus the
    rounding of the sum, (2 terms + 1) eps times its absolute terms.  The
    factor is clipped to [0, 1], and it is 0 where x or y is not below a.
    """
    x, y, t = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float),
                                  np.asarray(t, dtype=float))
    if terms is None:
        terms = 2 + math.ceil(math.sqrt(20.0 * float(t.max(initial=0.0))) / a)
    factor, bound = np.zeros(y.shape), np.zeros(y.shape)
    factor[(t == 0.0) & (x < a)] = 1.0
    inside = (x < a) & (y > 0.0) & (y < a) & (t > 0.0)
    x, y, t = x[inside], y[inside], t[inside]
    den = np.expm1(-2.0 * x * y / t)

    def term(u):
        """The term of |u| = u and its bound b(u), both 0 where the decay is."""
        decay = np.exp(-(u - y) * (u + y - 2.0 * x) / (2.0 * t))
        ratio = np.divide(np.expm1(-2.0 * x * u / t), den, out=u / y, where=den != 0.0)
        value, bound = decay * ratio, decay * (u / y)
        if decay.min(initial=1.0) == 0.0:     # u / y may overflow there: 0 * inf is nan
            value[decay == 0.0] = bound[decay == 0.0] = 0.0
        return value, bound

    total, size = np.ones(y.shape), np.ones(y.shape)
    for k in range(1, terms + 1):
        above, below = term(y + 2 * k * a), term(2 * k * a - y)
        total += above[0] - below[0]
        size += above[0] + below[0]
    # the bounds of the first two omitted pairs
    b_above = [term(y + 2 * k * a)[1] for k in (terms + 1, terms + 2)]
    b_below = [term(2 * k * a - y)[1] for k in (terms + 1, terms + 2)]
    rho = np.zeros(y.shape)
    for b0, b1 in (b_above, b_below):
        np.maximum(rho, np.divide(b1, b0, out=np.zeros(y.shape), where=b0 > 0.0), out=rho)
    tail = np.divide(b_above[0] + b_below[0], 1.0 - rho, out=np.full(y.shape, math.inf),
                     where=rho < 1.0)
    factor[inside] = np.clip(total, 0.0, 1.0)
    bound[inside] = tail + (2 * terms + 1) * _EPS * size
    return factor, bound


def _laws(config: PathConfig, base: np.ndarray, sample: Callable, extra: int = 0) -> tuple | None:
    """(space law from base, survival weight), or None where either has no exact law.

    H^m with m != 3 has none; a ball needs a 3-space and the origin as its
    centre.  The survival weight multiplies a block's weights w in place,
    given (Y, |Y|, s, w), and returns its tail, None where no ball truncates.
    """
    space, region = config.space, config.domain
    if space.kind == HYPERBOLIC and space.dim != 3:
        return None
    law = _SpaceLaw(space, base, sample, extra)
    if region is None:
        return law, lambda y, r, s, w: None
    if region.kind == "halfspace":
        d0 = region.level - float(base @ region.unit)

        def halfspace(y, r, s, w):
            ds = np.multiply(y[:, 0], region.unit[0])
            for i in range(1, y.shape[1]):
                ds += y[:, i] * region.unit[i]
            np.subtract(region.level, ds, out=ds)
            np.maximum(ds, 0.0, out=ds)
            ds *= 2.0 * d0
            # at s = 0 the path has not moved
            q = np.divide(ds, s, out=np.full(len(w), math.inf), where=np.greater(s, 0.0))
            w *= -np.expm1(-q)
        return law, halfspace
    if space.dim != 3 or not (region.center is None
                              or np.array_equal(region.center, space.origin())):
        return None

    def ball(y, r, s, w):
        factor, tail = _bridge_survival(law.r0, r, region.radius, s)
        tail *= w
        w *= factor
        return tail
    return law, ball


def _exact_route(v, config: PathConfig) -> tuple | None:
    """mc_kato_integral's exact law, (space law, survival weight), or None (the variance rule)."""
    p = v.singular_power
    if v.singular_radii and not (v.singular_radii == (0.0,) and p is not None
                                 and 2.0 * p < min(config.space.dim, 3)):
        return None
    start = np.asarray(config.start, dtype=float)
    base = np.array([math.acosh(max(start[0], 1.0)), 0.0, 0.0]) \
        if config.space.kind == HYPERBOLIC else start
    return _laws(config, base, lambda y, r, h, rows: r)


def _exact_heat_route(config: PathConfig) -> tuple | None:
    """mc_heat_expectation's exact law, (space law, survival weight), or None."""
    start = np.asarray(config.start, dtype=float)
    region, space = config.domain, config.space
    # under a ball, only from its centre
    if region is not None and region.kind == "ball" and not np.array_equal(start, space.origin()):
        return None
    if space.kind == EUCLIDEAN:
        return _laws(config, start, lambda y, r, h, rows: y)
    # drawn at the origin and boosted to the start, into the law's rows 1 to 4
    return _laws(config, np.zeros(3), extra=4,
                 sample=lambda y, r, h, rows: _h3_points(y, r, h, start, rows[1:5].T))


def _exact_blocks(config: PathConfig) -> Iterator[tuple[np.random.Generator, int, int]]:
    """(rng, lo, B) for each block of samples [lo, lo + B) of the reference layout, in order."""
    for worker, blocks in enumerate(_blocks(config, _BLOCK_WIDTH)):
        rng = np.random.Generator(_worker_bits(config.seed, worker))
        for lo, B in blocks:
            yield rng, lo, B


def _exact_samples(config: PathConfig, time, space: _SpaceLaw, survival) -> Iterator[tuple]:
    """(lo, sample, weight, tail) for each block of samples [lo, lo + B) of _exact_blocks.

    The radii, the weights (the norms' scratch first) and the laws' rows
    share one block a call; the arrays are valid until the next block.
    """
    width = _blocks(config, _BLOCK_WIDTH)[0][0][1]      # worker 0's first block
    gauss = np.empty((width, len(space.base)))
    block = np.empty((2 + time.n_rows + space.n_rows, width))
    for rng, lo, B in _exact_blocks(config):
        root, s, weight = time(rng, block[2:2 + time.n_rows, :B], config.horizon)
        y = rng.standard_normal(out=gauss[:B])
        for i, c in enumerate(space.base):
            y[:, i] *= root
            if c:
                y[:, i] += c
        r, w = _euclidean_norms(y, block[0, :B], block[1, :B]), block[1, :B]
        sample = space(y, r, s, w, block[2 + time.n_rows:, :B])
        w *= weight
        yield lo, sample, w, survival(y, r, s, w)


# ---------------------------------------------------------------------------
# estimators

def _finish(values: np.ndarray, config: PathConfig, n_effective: int,
            cap_events: int = 0, bias_bound: float | None = None,
            extras: dict | None = None) -> Estimate:
    n = config.n_paths
    mean = values.sum() / n
    spread = np.abs(values - mean) ** 2
    var = spread.sum() / max(n - 1, 1)
    se = math.sqrt(var / n)
    value = complex(mean) if np.iscomplexobj(values) else float(mean)
    return Estimate(value=value, std_error=se, n_effective=n_effective,
                    n_paths=n, step=config.step, cap_events=cap_events,
                    bias_bound=bias_bound, extras=extras or {})


def _euclidean_norms(points: np.ndarray, out: np.ndarray, tmp: np.ndarray,
                     center: np.ndarray | None = None) -> np.ndarray:
    """|points - center| of the (N, ambient) rows, written into out.

    tmp is (N,) scratch; center None means the origin.  Each coordinate is
    one long strided pass, summed in np.linalg.norm's order, so the norms
    equal np.linalg.norm's bit for bit.
    """
    for i in range(points.shape[1]):
        dst = out if i == 0 else tmp
        if center is None:
            np.multiply(points[:, i], points[:, i], out=dst)
        else:
            np.subtract(points[:, i], center[i], out=dst)
            dst *= dst
        if i:
            out += tmp
    return np.sqrt(out, out=out)


def _distances(space: ModelSpace, points: np.ndarray, out: np.ndarray, tmp: np.ndarray,
               center: np.ndarray | None = None) -> np.ndarray:
    """Geodesic distances of the (N, ambient) points from center, written into out.

    tmp is (N,) scratch; center None means the origin.  On R^d these are
    _euclidean_norms; on H^m, arccosh of the Minkowski pairing
    c_0 x_0 - c'.x' (x_0 about the origin), raised to 1 against rounding.
    """
    if space.kind == EUCLIDEAN:
        return _euclidean_norms(points, out, tmp, center)
    if center is None:
        pairing = points[:, 0]
    else:
        pairing = np.multiply(points[:, 0], center[0], out=out)
        pairing -= points[:, 1:] @ center[1:]
    np.maximum(pairing, 1.0, out=out)
    return np.arccosh(out, out=out)


def mc_kato_integral(v, config: PathConfig) -> Estimate:
    """E of the time integral of |v(B_s)| up to min(horizon, lifetime).

    Where _exact_route gives a law, each sample's value is |v| of its
    radius times its weight, 0 where the weight is (a draw with U = 0 from
    the origin adds 0, not 0 * inf); bias_bound is the bridge series'
    computed truncation under a ball and 0 otherwise.

    Elsewhere the integral is trapezoidal in time along paths from
    sample_paths, killed at the grid's times.  Node values above 1/h (or
    non finite) are capped at 1/h and counted as cap events; a non-finite
    value at the shared start point is replaced by each path's first-step
    value instead, because a deterministic cap there would not vanish
    with h.  The reported bias bound is max|v| * h for bounded potentials
    and None for singular ones: near a singularity the capped trapezoid's
    bias has no computed bound (an R^3 power p = 1.6 from the origin misses
    its integral by far more than any O(sqrt(h)) envelope).
    """
    if v.space != config.space:
        raise DomainError("potential and path configuration disagree on the space")
    law = _exact_route(v, config)
    if law is None:
        return _path_kato_integral(v, config)
    sums, bias = np.zeros(config.n_paths), 0.0
    for lo, r, w, tail in _exact_samples(config, _KatoTime(), *law):
        g = np.asarray(v.abs_radial(r, out=r), dtype=float)     # over the radii
        if tail is not None:
            # the series truncation of each sample, times |v|
            np.multiply(g, tail, out=tail, where=tail > 0.0)
            bias += float(tail.sum())
        np.multiply(g, w, out=sums[lo:lo + r.size], where=w > 0.0)
    return _finish(sums, config, n_effective=config.n_paths, bias_bound=bias / config.n_paths)


def _path_kato_integral(v, config: PathConfig) -> Estimate:
    """mc_kato_integral by the trapezoid in time along sampled paths."""
    S, h = config.n_steps, config.step
    cap = 1.0 / h
    bounded = not v.singular_radii
    trapezoid = np.ones(S + 1)
    trapezoid[0] = trapezoid[-1] = 0.5
    cap_events, max_seen = 0, 0.0
    killed = config.domain is not None
    # radii and |v| of one batch, written in place, and under a killing
    # region the truncated trapezoid weights
    size = _pool_rows(config) * (S + 1)
    radii, values = np.empty((2, size))
    weights = np.empty(size) if killed else None
    sums = np.zeros(config.n_paths)
    with closing(sample_paths(config)) as batches:
        for batch in batches:
            B = batch.positions.shape[0]
            r, g = radii[:B * (S + 1)], values[:B * (S + 1)]
            _distances(config.space, batch.positions.reshape(-1, batch.positions.shape[-1]),
                       r, g)
            # node-major views of the path-major arrays: einsum then adds
            # as it always has
            g = np.asarray(v.abs_radial(r, out=g), dtype=float).reshape(B, S + 1).T
            bad = ~np.isfinite(g) | (g > cap)
            # the shared start: a deterministic cap there would not vanish with h
            start_bad = bad[0]
            if np.any(start_bad):
                g[0, start_bad] = np.minimum(g[1, start_bad], cap)
                bad[0, start_bad] = False
            n_bad = int(np.count_nonzero(bad))
            if n_bad:
                cap_events += n_bad
                g[bad] = cap
            if bounded:
                max_seen = max(max_seen, float(g.max(initial=0.0)))
            if killed:
                # trapezoid weights truncated at the exit: a path killed
                # before the horizon gives its last live node the half
                # weight, so one killed at step 1 keeps h * g_0 / 2
                alive = batch.alive.T
                w = np.multiply(alive, trapezoid[:, None],
                                out=weights[:B * (S + 1)].reshape(B, S + 1).T)
                w[:-1][alive[:-1] & ~alive[1:]] = 0.5
                sums[batch.first:batch.first + B] = np.einsum("kb,kb->b", g, w)
            else:
                sums[batch.first:batch.first + B] = np.einsum("kb,k->b", g, trapezoid)
    sums *= h
    # nothing bounds the capped trapezoid's bias at a singularity
    bias = max_seen * h if bounded else None
    return _finish(sums, config, n_effective=config.n_paths,
                   cap_events=cap_events, bias_bound=bias)


def mc_heat_expectation(f: Callable, config: PathConfig) -> Estimate:
    """E[f(B_horizon); horizon < lifetime]; with f = 1 this is survival.

    f receives a (B, ambient) block of endpoints and must return (B,)
    values; killed paths contribute zero.

    Where _exact_heat_route gives a law, each path is one exact endpoint
    with its weight; bias_bound is as for mc_kato_integral, and n_effective
    counts the paths of nonzero weight.  Elsewhere the paths come from
    sample_paths, killed at the grid's times; n_effective counts the
    survivors and bias_bound is None.
    """
    law = _exact_heat_route(config)
    if law is None:
        return _path_heat_expectation(f, config)
    values = np.zeros(config.n_paths, dtype=complex)
    n_effective, bias = 0, 0.0
    for lo, x, w, tail in _exact_samples(config, _FixedTime(), *law):
        live = w > 0.0
        n_live = int(np.count_nonzero(live))
        if n_live:
            fx = np.asarray(f(x[live]))
            values[lo:lo + w.size][live] = fx * w[live]
            if tail is not None:
                # the series truncation of each path, times |f|
                bias += float((np.abs(fx) * tail[live]).sum())
        n_effective += n_live
    values = values.real if np.max(np.abs(values.imag), initial=0.0) == 0.0 else values
    return _finish(values, config, n_effective=n_effective,
                   bias_bound=bias / config.n_paths)


def _path_heat_expectation(f: Callable, config: PathConfig) -> Estimate:
    """mc_heat_expectation on the endpoints of sampled paths, killed at the grid's times."""
    values = np.zeros(config.n_paths, dtype=complex)
    survivors = 0
    with closing(sample_paths(config)) as batches:
        for batch in batches:
            alive = batch.alive[:, -1]
            if np.any(alive):
                out = values[batch.first:batch.first + alive.size]
                out[alive] = np.asarray(f(batch.positions[alive, -1]))
            survivors += int(alive.sum())
    values = values.real if np.max(np.abs(values.imag), initial=0.0) == 0.0 else values
    return _finish(values, config, n_effective=survivors)


def _midpoint_phases(pos: np.ndarray, A: Callable, alive, mids: np.ndarray,
                     incs: np.ndarray, seg: np.ndarray) -> np.ndarray:
    """Stratonovich sums sum_k A(midpoint_k) . (X_{k+1} - X_k) of a (B, S+1, d) block.

    The one kernel of the transport phase.  mids and incs are (B, S, d) and
    seg (B S,) scratch of the caller's, overwritten.  A must return one
    d-vector a midpoint, (B S, d), else DomainError.  Under a killing
    region, alive is the block's (B, S+1) mask, and only the steps before a
    path's exit add to its sum; with no region it is None.
    """
    B, S, ambient = mids.shape
    np.add(pos[:, 1:], pos[:, :-1], out=mids)
    mids *= 0.5
    np.subtract(pos[:, 1:], pos[:, :-1], out=incs)
    a_vals = np.asarray(A(mids.reshape(-1, ambient)), dtype=float)
    if a_vals.shape != (B * S, ambient):
        raise DomainError(f"the connection must return shape ({B * S}, {ambient}), "
                          f"one vector a midpoint, not {a_vals.shape}")
    # the products overwrite the increments, then one strided pass per
    # coordinate adds them in coordinate order
    flat = incs.reshape(-1, ambient)
    flat *= a_vals
    np.copyto(seg, flat[:, 0])
    for i in range(1, ambient):
        seg += flat[:, i]
    seg = seg.reshape(B, S)
    if alive is not None:
        seg *= alive[:, 1:]
    return seg.sum(axis=1)


def transport_phase(path: np.ndarray, A: Callable) -> complex:
    """exp(-i sum A(midpoint) . increment) along one discrete path.

    The Stratonovich midpoint sum is the discrete line integral of the
    connection form, by _midpoint_phases on a block of one path; the result
    has modulus exactly 1.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[0] < 2:
        raise DomainError("a path needs at least two points")
    S, ambient = path.shape[0] - 1, path.shape[1]
    mids, incs = np.empty((2, 1, S, ambient))
    total = float(_midpoint_phases(path[None], A, None, mids, incs, np.empty(S))[0])
    return complex(math.cos(-total), math.sin(-total))


def mc_covariant_semigroup(psi: Callable, A: Callable, config: PathConfig) -> Estimate:
    """E[phase^{-1} psi(B_horizon); horizon < lifetime] for a line bundle.

    The weight is the inverse transport phase exp(+i sum A . dX) with the
    Stratonovich midpoint sum.  The same paths also feed the scalar
    estimate E[|psi|(B_horizon); survival], and the extras record the
    pathwise domination check |value| <= scalar + 3 * combined SE (it
    holds by the triangle inequality before noise even enters).
    """
    if config.space.kind != EUCLIDEAN:
        raise DomainError("transport phases are implemented over Euclidean space")
    values = np.zeros(config.n_paths, dtype=complex)
    scalars = np.zeros(config.n_paths)
    S, ambient = config.n_steps, len(config.start)
    # step midpoints, increments and A . dX of one batch, written in place
    mids_buf, incs_buf = np.empty((2, _pool_rows(config), S, ambient))
    seg_buf = np.empty(_pool_rows(config) * S)
    survivors = 0
    with closing(sample_paths(config)) as batches:
        for batch in batches:
            pos = batch.positions
            B = pos.shape[0]
            angles = _midpoint_phases(pos, A, None if config.domain is None else batch.alive,
                                      mids_buf[:B], incs_buf[:B], seg_buf[:B * S])
            alive = batch.alive[:, -1]
            if np.any(alive):
                psi_vals = np.asarray(psi(pos[alive, -1]), dtype=complex)
                span = slice(batch.first, batch.first + B)
                values[span][alive] = np.exp(1j * angles[alive]) * psi_vals
                scalars[span][alive] = np.abs(psi_vals)
            survivors += int(alive.sum())
    est = _finish(values, config, n_effective=survivors)
    scalar = _finish(scalars, config, n_effective=survivors)
    combined = 3.0 * (est.std_error + scalar.std_error)
    est.extras = {
        "scalar_value": scalar.value,
        "scalar_std_error": scalar.std_error,
        "domination_ok": bool(abs(est.value) <= scalar.value + combined),
    }
    return est

"""Monte Carlo Brownian paths with killing and transport phases.

Path-integral estimators that cross-check the quadrature and matrix sides
of the package from an entirely different direction: sampled Brownian
motion.  The generator convention is Delta/2 throughout, i.e. coordinate
increments have variance h per step of size h.

Euclidean paths use exact Gaussian increments.  Hyperbolic paths are
cumulative sums in upper-half-space coordinates (x, y): log y is exact in
law, each x step takes the trapezoidal variance h (y_k^2 + y_{k+1}^2)/2,
an O(h) weak approximation.  On sampled paths and radius chains, killing
regions (a geodesic ball, or a Euclidean half-space) stop a path at the
first step that lands outside, so killing happens at the grid's times;
the exit step is recorded as the lifetime.  The endpoint route below
kills in continuous time instead.

Every potential is radial, so mc_kato_integral sees a path only through
|B_t|.  On R^d, d >= 3, with no killing region or a ball about the
origin, it samples that radius alone: on the step grid it is the exact
Markov chain R_{k+1}^2 = (R_k + sqrt(h) Z_k)^2 + h chi^2_{d-1} (the
Bessel process BES(d); Revuz and Yor, ch. XI), with chi^2_{d-1} = 2 (E_1
+ ... + E_m), plus Z'^2 when d - 1 is odd, for standard normals Z, Z' and
exponentials E_j.  That is one normal and one exponential a step on R^3
instead of three normals.  The radius of H^3 is the Doob transform of
BES(3) by h(r) = sinh r / r, which solves h''/2 + h'/r = h/2: its law up
to time s is BES(3)'s weighted by e^{-s/2} h(R_s) / h(R_0).  So H^3 with
no region or a ball about the origin runs on the same chain, node s
weighted by e^{-s/2} h(R_s) / h(R_0).  Below d = 3 the radius takes as
many draws as the path, and half-spaces, off-centre balls, H^2 and H^m,
m >= 4, need the path itself, so they and mc_covariant_semigroup take the
path kernel behind sample_paths.

mc_heat_expectation from the origin of R^3 or H^3, with no region or a
ball about the origin, needs no path at all.  By rotation invariance
about the start, the endpoint's direction is uniform and independent of
the whole radius path (the skew product), so one Gaussian 3-vector
W = sqrt(T) Z gives both: |W| is the exact one-step draw of BES(3) from
0, and the endpoint is the point at distance |W| in W's direction, for
any f.  The chance that the radius path stayed inside the ball of radius
a, given |W|, is the BES(3) bridge's survival from 0 to |W|: BES(3) is
1-d Brownian motion killed at 0 and h-transformed by r, so its bridges
are killed Brownian bridges and that chance is an image series, whose
truncation is computed.  Each path carries it as a weight, and on H^3 also the Doob
weight e^{-T/2} h(|W|): an h-transform leaves bridges unchanged, so the
same factor kills there.  Killing is then in continuous time, and the
configured step does not enter.
Elsewhere mc_heat_expectation reduces the endpoints of sampled paths.

Streams are counter-based (Philox) keyed by (seed, worker index).  Worker
w draws a contiguous block of the path indices, worker 0's first; this is
the reference layout.  Each batch or chunk carries the index of its first
path there, the estimators write per-path values into those slots and
reduce the whole array in index order, so the numbers depend only on the
configuration, that is on (seed, workers), never on thread timing.

The path kernel draws every increment from the worker's key, path-major,
so the batch size never changes the numbers; a batch holds about 2**17
path nodes (at most 1024 paths), so its arrays stay near cache size.  The
radius kernel fills blocks of a fixed width of 2**14 paths (the width sets
which draws go to which path), each in time chunks of about 2**17 nodes,
8 rows: each row of the recursion is then a few ufunc calls over 2**14
values, and the interpreter lock changes hands once per call.
The normals Z and Z' come from the worker's key and the exponentials from
its ``jumped()`` copy, both step-major, so each stream keeps to one
distribution and the chunk length never changes the numbers.  A chunk is
time-major, (nodes, paths): the recursion runs row by row, and a chunk's
last row is the next chunk's first, so memory does not grow with the
number of steps.

The endpoint route draws from the same keys, each worker's block
path-major in blocks of 2**14 endpoints, on the caller's thread: one draw
a path does not pay for a producer thread.  Both kernels run on one
engine: the streams run on min(workers, usable CPUs) producer threads,
one thread for a single worker or CPU, so drawing overlaps the
estimator's work: Philox draws and the large ufuncs release the
interpreter lock.  Producers only draw, integrate the increments or
the radius chain and run the killing scan; potentials and user callbacks
run on the caller's thread.  Items are handed out round-robin across the
workers.

Items are written into a pool that the engine allocates once on the
caller's thread: two output buffers and one draw buffer per producer
thread (positions for a batch, radii and alive flags for a chunk),
whatever the number of workers, and no freed batch lingers in a producer
thread's malloc arena.  An item's arrays are valid until the next one is
requested, when its output buffer goes back to its producer; copy what
you keep.  Next to the pool, each estimator allocates its own per-item
scratch once per call (radii, |v| and weights for the Kato integral, step
midpoints and increments for the transport phase) and writes into it in
place; the hyperbolic chart works in two planes of the spent draw buffer.
The Kato integral's cap, start-node rule and truncated trapezoid are one
reduction over node-major blocks, a radius chunk or a transposed batch.

No ufunc loops over the short coordinate axis: an operation that pairs
a (B, S, ambient) block with one value per coordinate (a start point, a
per-node scale, a ball centre) runs once per coordinate, as a long
strided pass.  Sums over coordinates add in np.linalg.norm's order, so
this changes no estimate in its last bit.
"""

from __future__ import annotations

import math
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
# paths in a block of the radius kernel and of the endpoint route: it sets
# which draws go to which path, so unlike the batch size it is part of the
# reference numbers; _NODE_BUDGET gives a radius chunk 8 rows of it
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
    Euclidean only.
    """

    kind: str
    radius: float = 0.0
    center: tuple | None = None
    normal: tuple | None = None
    offset: float = 0.0

    def inside(self, space: ModelSpace, points: np.ndarray) -> np.ndarray:
        if self.kind == "ball":
            center = np.asarray(self.center, dtype=float) if self.center is not None \
                else space.origin()
            if space.kind == HYPERBOLIC:
                pairing = center[0] * points[:, 0] - points[:, 1:] @ center[1:]
                d = np.arccosh(np.maximum(pairing, 1.0))
            else:
                d = _euclidean_norms(points, np.empty(len(points)),
                                     np.empty(len(points)), center)
            return d < self.radius
        if self.kind == "halfspace":
            n = np.asarray(self.normal, dtype=float)
            return points @ n < self.offset
        raise ConfigError(f"unknown killing region kind {self.kind!r}")

    def to_json_dict(self) -> dict:
        out = {"kind": self.kind}
        if self.kind == "ball":
            out["radius"] = self.radius
            if self.center is not None:
                out["center"] = list(self.center)
        else:
            out["normal"] = list(self.normal)
            out["offset"] = self.offset
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "KillingRegion":
        kind = obj.get("kind")
        if kind == "ball":
            radius = float(obj.get("radius", 0.0))
            if not 0.0 < radius < math.inf:
                raise ConfigError("ball region needs a positive finite radius")
            center = obj.get("center")
            return cls(kind="ball", radius=radius,
                       center=None if center is None else tuple(center))
        if kind == "halfspace":
            if "normal" not in obj:
                raise ConfigError("halfspace region needs a normal vector")
            return cls(kind="halfspace", normal=tuple(obj["normal"]),
                       offset=float(obj.get("offset", 0.0)))
        raise ConfigError(f"unknown killing region kind {kind!r}")


@dataclass(frozen=True)
class PathConfig:
    space: ModelSpace
    start: tuple
    horizon: float
    step: float
    n_paths: int
    seed: int
    workers: int = 1
    domain: KillingRegion | None = None

    def __post_init__(self):
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
        if self.n_paths < 100:
            raise ConfigError("need at least 100 paths")
        if not 1 <= self.workers <= _MAX_WORKERS:
            raise ConfigError(f"workers must lie in [1, {_MAX_WORKERS}]")
        start = np.asarray(self.start, dtype=float)
        self.space.validate_point(start)
        object.__setattr__(self, "start", tuple(float(x) for x in start))
        if self.domain is not None:
            region = self.domain
            if region.kind == "ball" and region.center is not None:
                self.space.validate_point(region.center)
            elif region.kind == "halfspace":
                if self.space.kind != EUCLIDEAN:
                    raise ConfigError("halfspace regions are Euclidean only")
                normal = np.asarray(region.normal, dtype=float)
                if normal.shape != (self.space.dim,) or not np.any(normal) \
                        or not np.all(np.isfinite(normal)):
                    raise ConfigError("halfspace normal must be a finite nonzero "
                                      f"vector of length {self.space.dim}")
            inside = region.inside(self.space, np.asarray([self.start]))
            if not bool(inside[0]):
                raise ConfigError("start point lies outside the killing region")

    @property
    def n_steps(self) -> int:
        return int(round(self.horizon / self.step))

    def to_json_dict(self) -> dict:
        out = {
            "space": self.space.to_json_dict(),
            "start": list(self.start),
            "horizon": self.horizon,
            "step": self.step,
            "n_paths": self.n_paths,
            "seed": self.seed,
            "workers": self.workers,
        }
        if self.domain is not None:
            out["domain"] = self.domain.to_json_dict()
        return out

    @classmethod
    def from_json_dict(cls, obj: dict) -> "PathConfig":
        try:
            space = ModelSpace.from_json_dict(obj["space"])
            domain = obj.get("domain")
            return cls(space=space, start=tuple(obj["start"]),
                       horizon=float(obj["horizon"]), step=float(obj["step"]),
                       n_paths=int(obj["n_paths"]), seed=int(obj["seed"]),
                       workers=int(obj.get("workers", 1)),
                       domain=None if domain is None else
                       KillingRegion.from_json_dict(domain))
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"malformed path configuration: {exc}") from exc


@dataclass
class Estimate:
    """Monte Carlo estimate with its sampling error and run accounting.

    std_error is the sample standard deviation over paths divided by
    sqrt(n_paths); for complex values it uses |X - mean|^2.  bias_bound is
    the reported step-discretization envelope (estimator-specific), and
    cap_events counts capped singular evaluations.
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

    positions has shape (B, S+1, ambient); alive[b, k] says the path was
    still inside the region at step k (alive[:, 0] is True by config
    validation).  exit_step[b] is the first dead index, or S+1 if the path
    survived the whole horizon.  first is the index of the batch's first
    path in the reference layout, so the batch holds paths
    [first, first + B) of the configuration's n_paths.
    """

    times: np.ndarray
    positions: np.ndarray
    alive: np.ndarray
    exit_step: np.ndarray
    first: int


def _worker_counts(n_paths: int, workers: int) -> list[int]:
    base, rem = divmod(n_paths, workers)
    return [base + (1 if w < rem else 0) for w in range(workers)]


def _worker_bits(seed: int, worker: int) -> np.random.Philox:
    key = np.array([seed % (2 ** 64), worker], dtype=np.uint64)
    return np.random.Philox(key=key)



def _batch_size(n_steps: int) -> int:
    """Paths per batch: about _NODE_BUDGET path nodes, at most _MAX_BATCH paths."""
    return min(_MAX_BATCH, max(1, _NODE_BUDGET // (n_steps + 1)))


def _pool_rows(config: PathConfig) -> int:
    """Paths in the largest batch of a configuration: its buffers' first axis."""
    return min(_batch_size(config.n_steps), -(-config.n_paths // config.workers))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _killing_scan(domain: KillingRegion | None, space: ModelSpace,
                  positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """alive and exit_step of a (B, S+1, ambient) block of paths.

    The region test runs on row chunks of at most _SCAN_NODES nodes, so
    its temporaries stay small whatever the batch size.
    """
    B, nodes = positions.shape[:2]
    if domain is None:
        return np.ones((B, nodes), dtype=bool), np.full(B, nodes, dtype=int)
    inside = np.empty((B, nodes), dtype=bool)
    rows = max(1, _SCAN_NODES // nodes)
    for lo in range(0, B, rows):
        chunk = positions[lo:lo + rows]
        inside[lo:lo + rows] = domain.inside(
            space, chunk.reshape(-1, chunk.shape[-1])).reshape(-1, nodes)
    # the start is inside (PathConfig checks it); the scan starts at step 1
    inside[:, 0] = True
    alive = np.logical_and.accumulate(inside, axis=1)
    exit_step = np.where(alive[:, -1], nodes, np.argmin(alive, axis=1))
    return alive, exit_step


def _sample_batch(config: PathConfig, rng: np.random.Generator, pos: np.ndarray,
                  increments: np.ndarray, first: int) -> PathBatch:
    """Draw the next pos.shape[0] paths of a stream into pos.

    increments is the (B, S, dim) draw buffer, overwritten.  Draws are
    path-major, so the batch size never changes the numbers.  Only draws,
    array arithmetic and the killing scan run here, never a potential or a
    user callback: this runs on a producer thread.
    """
    space = config.space
    S = config.n_steps
    h = config.step
    start = np.asarray(config.start, dtype=float)
    times = h * np.arange(S + 1)
    pos[:, 0] = start
    rng.standard_normal(increments.shape, out=increments)
    increments *= math.sqrt(h)
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
        y += math.log(y0) - 0.5 * (space.dim - 1) * times
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
    alive, exit_step = _killing_scan(config.domain, space, pos)
    return PathBatch(times=times, positions=pos, alive=alive,
                     exit_step=exit_step, first=first)


class _PathKernel:
    """Whole Brownian paths, one PathBatch of up to _batch_size paths per task."""

    def __init__(self, config: PathConfig):
        self.config = config
        self.size = _batch_size(config.n_steps)

    def tasks(self, count: int, first: int) -> list:
        return [(first + lo, min(self.size, count - lo))
                for lo in range(0, count, self.size)]

    def buffers(self) -> tuple[list, np.ndarray]:
        """Two position buffers and one draw buffer."""
        config = self.config
        rows, nodes = _pool_rows(config), config.n_steps + 1
        positions = [np.empty((rows, nodes, len(config.start))) for _ in range(2)]
        return positions, np.empty((rows, nodes - 1, config.space.dim))

    def open(self, worker: int) -> np.random.Generator:
        return np.random.Generator(_worker_bits(self.config.seed, worker))

    def fill(self, rng: np.random.Generator, task: tuple, pos: np.ndarray,
             draws: np.ndarray) -> PathBatch:
        first, B = task
        return _sample_batch(self.config, rng, pos[:B], draws[:B], first)


def _stream(config: PathConfig, kernel) -> Iterator:
    """Run a kernel over every worker stream and yield its items.

    The kernel splits worker w's count of paths into tasks, in stream
    order, and fills one output buffer per task on a producer thread.
    Items arrive round-robin across the workers (task 0 of every worker,
    then task 1, ...), an order fixed by the configuration alone.  The
    streams run on min(workers, usable CPUs) producer threads; worker w
    belongs to one thread, which keeps the kernel's state for it
    (``kernel.open(w)``) across its tasks.

    Each producer thread owns two output buffers and one scratch buffer
    (``kernel.buffers()``), allocated here once, on the caller's thread.
    An item is valid until the next one is requested, which hands its
    output buffer back to its producer.  A producer waits for a free
    buffer, which is the back-pressure.  Closing the generator, or an
    exception in the caller's loop, stops and joins every producer; a
    producer's exception is raised here.
    """
    counts = _worker_counts(config.n_paths, config.workers)
    firsts = np.cumsum([0] + counts[:-1]).tolist()
    workers = [w for w, count in enumerate(counts) if count]
    tasks = {w: kernel.tasks(counts[w], firsts[w]) for w in workers}
    plan = [(w, tasks[w][i]) for i in range(max(len(t) for t in tasks.values()))
            for w in workers if i < len(tasks[w])]
    n_threads = min(len(workers), _usable_cpus())
    owner = {w: i % n_threads for i, w in enumerate(workers)}
    free = [queue.SimpleQueue() for _ in range(n_threads)]
    filled = [queue.SimpleQueue() for _ in range(n_threads)]
    scratch = []
    for t in range(n_threads):
        outs, spare = kernel.buffers()
        for out in outs:
            free[t].put(out)
        scratch.append(spare)
    stop = threading.Event()

    def produce(t: int) -> None:
        states = {}
        try:
            for w, task in plan:
                if owner[w] != t:
                    continue
                out = free[t].get()
                if stop.is_set():
                    return
                if w not in states:
                    states[w] = kernel.open(w)
                filled[t].put((out, kernel.fill(states[w], task, out, scratch[t])))
        except BaseException as exc:  # re-raised on the caller's thread
            filled[t].put((None, exc))

    threads = [threading.Thread(target=produce, args=(t,), daemon=True,
                                name=f"katoform-paths-{t}")
               for t in range(n_threads)]
    for thread in threads:
        thread.start()
    try:
        for w, _ in plan:
            out, item = filled[owner[w]].get()
            if out is None:
                raise item
            yield item
            free[owner[w]].put(out)
    finally:
        stop.set()
        for t, thread in enumerate(threads):
            free[t].put(None)     # wakes a producer waiting for a buffer
            thread.join()


def sample_paths(config: PathConfig) -> Iterator[PathBatch]:
    """Stream batches of Brownian paths for the given configuration.

    Worker w's Philox stream covers a contiguous block of the reference
    layout, and each batch's ``first`` says where it sits there.  Batches
    arrive round-robin across the workers (batch 0 of every worker, then
    batch 1, ...), an order fixed by the configuration alone.  The streams
    run on min(workers, usable CPUs) producer threads, one for a single
    worker or CPU.

    Each producer thread owns two position buffers and one draw buffer,
    allocated once per call, on the caller's thread: 3 x threads batch
    buffers whatever ``workers`` is.  A batch's arrays are valid until the
    next batch is requested, which hands its position buffer back to its
    producer; copy what you keep.  A producer waits for a free buffer,
    which is the back-pressure.  Closing the generator, or an exception in
    the caller's loop, stops and joins every producer; a producer's
    exception is raised here.
    """
    return _stream(config, _PathKernel(config))


# ---------------------------------------------------------------------------
# radius sampling

@dataclass
class _RadiusChunk:
    """|B_t| at nodes k0, k0 + 1, ... of one block of paths, time-major.

    radii has shape (rows, B) and alive the same (None without a region).
    A chunk that ends before the horizon repeats, in its last row, the
    first node of the block's next chunk.
    """

    radii: np.ndarray
    alive: np.ndarray | None
    first: int
    k0: int


def _about_origin(space: ModelSpace, point) -> bool:
    return bool(np.array_equal(np.asarray(point, dtype=float), space.origin()))


def _centred(config: PathConfig) -> bool:
    """No killing region, or a ball about the origin: |B_t| alone decides survival."""
    region = config.domain
    return region is None or (region.kind == "ball" and (
        region.center is None or _about_origin(config.space, region.center)))


def _radius_route(config: PathConfig) -> bool:
    """Whether mc_kato_integral samples the radius alone.

    It does on R^d, d >= 3, and on H^3 (by the Doob weight), with no
    region or a ball about the origin, which |B_t| alone decides.
    """
    space = config.space
    radial = space.dim >= 3 if space.kind == EUCLIDEAN else space.dim == 3
    return radial and _centred(config)


def _endpoint_route(config: PathConfig) -> bool:
    """Whether mc_heat_expectation draws each endpoint in one exact step.

    It does on R^3 and H^3 from the origin, with no region or a ball about it.
    """
    return config.space.dim == 3 and _about_origin(config.space, config.start) \
        and _centred(config)


class _RadiusKernel:
    """The exact Bessel chain BES(d) on the step grid, from |start|, d >= 3.

    On R^d it is |B_t|.  On H^3 it is started at d(o, start) and the
    estimator weighs its nodes into the H^3 radius (the Doob transform).

    Worker w's paths fill blocks of _BLOCK_WIDTH paths (the last one
    narrower) and each block runs in time chunks of about _NODE_BUDGET
    nodes, one task per chunk.  The per-worker state keeps the Philox
    streams and each path's radius and alive flag at the last node made.
    """

    def __init__(self, config: PathConfig):
        self.config = config
        # exponentials, and transverse normals (0 or 1), of chi^2_{d-1} per step
        self.n_exp, self.odd = divmod(config.space.dim - 1, 2)
        self.width = min(_BLOCK_WIDTH, -(-config.n_paths // config.workers))
        self.steps = min(config.n_steps, max(1, _NODE_BUDGET // self.width))
        start = config.start
        self.r0 = float(np.linalg.norm(start)) if config.space.kind == EUCLIDEAN \
            else math.acosh(max(start[0], 1.0))

    def tasks(self, count: int, first: int) -> list:
        return [(first + lo, min(self.width, count - lo), k0)
                for lo in range(0, count, self.width)
                for k0 in range(0, self.config.n_steps, self.steps)]

    def buffers(self) -> tuple[list, tuple]:
        """Two (radii, alive) chunk buffers, and the normal and exponential draws."""
        nodes = (self.steps + 1) * self.width
        killed = self.config.domain is not None
        outs = [(np.empty(nodes), np.empty(nodes, dtype=bool) if killed else None)
                for _ in range(2)]
        draws = self.steps * self.width
        return outs, (np.empty(draws * (1 + self.odd)), np.empty(draws * self.n_exp))

    def open(self, worker: int) -> tuple:
        bits = _worker_bits(self.config.seed, worker)
        return (np.random.Generator(bits), np.random.Generator(bits.jumped()),
                np.empty(self.width), np.empty(self.width, dtype=bool))

    def fill(self, state: tuple, task: tuple, out: tuple, scratch: tuple) -> _RadiusChunk:
        normal_rng, exp_rng, last_radius, last_alive = state
        first, B, k0 = task
        config = self.config
        steps = min(self.steps, config.n_steps - k0)
        radii = out[0][:(steps + 1) * B].reshape(steps + 1, B)
        radii[0] = self.r0 if k0 == 0 else last_radius[:B]
        normals = scratch[0][:steps * (1 + self.odd) * B].reshape(steps, 1 + self.odd, B)
        exps = scratch[1][:steps * self.n_exp * B].reshape(steps, self.n_exp, B)
        _bessel_steps(normal_rng, exp_rng, radii, normals, exps, config.step)
        np.copyto(last_radius[:B], radii[-1])
        alive = None
        if config.domain is not None:
            alive = out[1][:(steps + 1) * B].reshape(steps + 1, B)
            alive[0] = True if k0 == 0 else last_alive[:B]
            np.less(radii[1:], config.domain.radius, out=alive[1:])
            np.logical_and.accumulate(alive, axis=0, out=alive)
            np.copyto(last_alive[:B], alive[-1])
        return _RadiusChunk(radii=radii, alive=alive, first=first, k0=k0)


def _bessel_steps(normal_rng: np.random.Generator, exp_rng: np.random.Generator,
                  radii: np.ndarray, normals: np.ndarray, exps: np.ndarray,
                  h: float) -> None:
    """Advance the radii of a (steps + 1, B) chunk from its first row, in place.

    R_{k+1}^2 = (R_k + sqrt(h) Z_k)^2 + h chi^2_{d-1}, exact in law: turn
    the frame so that B_{t_k} lies on the first axis.  normals is the
    (steps, 1 + odd, B) draw buffer: the longitudinal Z, and when d - 1 is
    odd the transverse Z' with chi^2_{d-1} = 2 (E_1 + ... + E_m) + Z'^2.
    exps is the (steps, m, B) buffer of the E_j, drawn from the jumped
    stream.  Both fill step-major, so the chunk length never changes the
    numbers.
    """
    normal_rng.standard_normal(out=normals)
    exp_rng.standard_exponential(out=exps)
    chi = exps[:, 0]
    for j in range(1, exps.shape[1]):
        chi += exps[:, j]
    chi *= 2.0 * h
    if normals.shape[1] == 2:
        transverse = normals[:, 1]
        transverse *= transverse
        transverse *= h
        chi += transverse
    z = normals[:, 0]
    z *= math.sqrt(h)
    for k in range(len(z)):
        r = radii[k + 1]
        np.add(radii[k], z[k], out=r)
        np.multiply(r, r, out=r)
        r += chi[k]
        np.sqrt(r, out=r)


def _sinh_ratio(r: np.ndarray, out: np.ndarray) -> np.ndarray:
    """h(r) = sinh(r) / r of the radii r, 1 at r = 0, written into out."""
    np.sinh(r, out=out)
    np.divide(out, r, out=out, where=r > 0.0)
    # h >= 1 everywhere, and this sets h(0) = 1 where the division was skipped
    return np.maximum(out, 1.0, out=out)


def _bridge_survival(x, y, a: float, t: float,
                     terms: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """P(a BES(3) bridge from x to y over time t stays below a), and its error bound.

    BES(3) is 1-d Brownian motion killed at 0 and h-transformed by r, so
    its bridges are those of the killed motion, and their survival below a
    is the image series of the interval (0, a):
    sum_n [phi_t(y - x + 2na) - phi_t(y + x + 2na)] / [phi_t(y - x) - phi_t(y + x)].
    Divided through, the term of u = y + 2na reads
    sign(u) exp(-(|u| - y)(|u| + y - 2x) / 2t) expm1(-2x|u|/t) / expm1(-2xy/t);
    its last factor lies in [1, |u|/y] and tends to |u|/y as x -> 0, the
    value taken at x = 0.  The pairs n = +-k are summed for k up to terms,
    by default 2 + ceil(sqrt(20 t) / a), past which every term is below
    e^-40 |u|/y.

    An omitted term is at most b(u) = exp(-(|u| - y)(|u| + y - 2x) / 2t) |u|/y,
    and b falls faster at each k, so the omitted pairs add up to at most
    (b_+ + b_-) / (1 - rho) at k = terms + 1, with rho the larger of the
    two ratios to the next pair.  The returned bound is that tail plus the
    rounding of the sum, (2 terms + 1) eps times its absolute terms.  The
    factor is clipped to [0, 1], and it is 0 where x or y is not below a.
    """
    x, y = np.broadcast_arrays(np.asarray(x, dtype=float), np.asarray(y, dtype=float))
    if terms is None:
        terms = 2 + math.ceil(math.sqrt(20.0 * t) / a)
    factor, bound = np.zeros(y.shape), np.zeros(y.shape)
    inside = (x < a) & (y > 0.0) & (y < a)
    x, y = x[inside], y[inside]
    den = np.expm1(-2.0 * x * y / t)

    def term(u):
        """The term of |u| = u and its bound b(u)."""
        decay = np.exp(-(u - y) * (u + y - 2.0 * x) / (2.0 * t))
        ratio = np.divide(np.expm1(-2.0 * x * u / t), den, out=u / y, where=den != 0.0)
        return decay * ratio, decay * (u / y)

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
    if np.iscomplexobj(values):
        value = complex(mean)
    else:
        value = float(mean.real if np.iscomplexobj(mean) else mean)
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


def _radial_distances(space: ModelSpace, flat_pos: np.ndarray, out: np.ndarray,
                      tmp: np.ndarray) -> np.ndarray:
    """Distances of the (N, ambient) nodes from the origin, written into out.

    tmp is (N,) scratch.  Each coordinate is one long strided pass.
    """
    if space.kind == EUCLIDEAN:
        return _euclidean_norms(flat_pos, out, tmp)
    np.maximum(flat_pos[:, 0], 1.0, out=out)
    return np.arccosh(out, out=out)


class _KatoNodes:
    """Cap, start-node rule and truncated trapezoid weights of |v| node values.

    Both routes of mc_kato_integral hand it node-major (nodes, paths)
    blocks: a time-major radius chunk, or a path batch transposed, which
    is one chunk holding whole paths.  It counts cap events and, for a
    bounded potential, the largest node value seen.
    """

    def __init__(self, v, config: PathConfig):
        self.cap = 1.0 / config.step
        self.n_steps = config.n_steps
        self.bounded = not v.singular_radii
        self.trapezoid = np.ones(config.n_steps + 1)
        self.trapezoid[0] = self.trapezoid[-1] = 0.5
        self.cap_events = 0
        self.max_seen = 0.0

    def weigh(self, g: np.ndarray, alive: np.ndarray | None, k0: int,
              out: np.ndarray | None) -> tuple[np.ndarray, np.ndarray]:
        """Cap the nodes of g that this chunk reduces; return them and their weights.

        g holds |v| at nodes k0, k0 + 1, ...; alive is its alive mask, or
        None without a region.  A chunk that ends before the horizon
        repeats the next chunk's first node in its last row: that row is
        left to the next chunk, and only its alive flags are read, to find
        each path's last live node.  The weights are the trapezoid's
        (nodes,) slice without a region, else they are written into out,
        laid out like g.
        """
        n = len(g) if k0 + len(g) - 1 == self.n_steps else len(g) - 1
        head = g[:n]
        bad = ~np.isfinite(head) | (head > self.cap)
        if k0 == 0:
            # the shared start: a deterministic cap there would not vanish with h
            start_bad = bad[0]
            if np.any(start_bad):
                head[0, start_bad] = np.minimum(g[1, start_bad], self.cap)
                bad[0, start_bad] = False
        n_bad = int(np.count_nonzero(bad))
        if n_bad:
            self.cap_events += n_bad
            head[bad] = self.cap
        if self.bounded:
            self.max_seen = max(self.max_seen, float(head.max(initial=0.0)))
        rows = self.trapezoid[k0:k0 + n]
        if alive is None:
            return head, rows
        # trapezoid weights truncated at the exit: a path killed before the
        # horizon gives its last live node the half weight, so one killed at
        # step 1 keeps h * g_0 / 2
        w = np.multiply(alive[:n], rows[:, None], out=out[:n])
        last = alive[:-1] & ~alive[1:]
        w[:len(last)][last] = 0.5
        return head, w


def mc_kato_integral(v, config: PathConfig) -> Estimate:
    """E of the pathwise time integral of |v| up to min(horizon, lifetime).

    Trapezoidal in time along each path.  Node values above 1/h (or non
    finite) are capped at 1/h and counted as cap events; a non-finite
    value at the shared start point is replaced by each path's first-step
    value instead, because a deterministic cap there would not vanish
    with h.  The reported bias bound is the O(sqrt(h)) envelope 2 sqrt(h)
    for singular potentials and max|v| * h for bounded ones.

    On R^d, d >= 3, and H^3, with no region or a ball about the origin,
    the paths are sampled through their radius alone (the Bessel chain,
    Doob-weighted on H^3); elsewhere as whole paths from sample_paths.
    """
    if v.space != config.space:
        raise DomainError("potential and path configuration disagree on the space")
    S = config.n_steps
    nodes = _KatoNodes(v, config)
    sums = np.zeros(config.n_paths)
    killed = config.domain is not None
    if _radius_route(config):
        kernel = _RadiusKernel(config)
        # |v| of one chunk, written in place, under a region its weights,
        # and on H^3 its Doob weights
        size = (kernel.steps + 1) * kernel.width
        values = np.empty(size)
        weights = np.empty(size) if killed else None
        doob = None
        if config.space.kind == HYPERBOLIC:
            # node s carries e^{-s/2} h(R_s) / h(R_0), h(r) = sinh r / r
            doob = np.empty(size)
            decay = np.exp(-0.5 * config.step * np.arange(S + 1))
            decay /= _sinh_ratio(np.array(kernel.r0), np.empty(()))
        with closing(_stream(config, kernel)) as chunks:
            for chunk in chunks:
                rows, B = chunk.radii.shape
                g = np.asarray(v.abs_radial(chunk.radii.reshape(-1), out=values[:rows * B]),
                               dtype=float).reshape(rows, B)
                out = weights[:rows * B].reshape(rows, B) if killed else None
                head, w = nodes.weigh(g, chunk.alive, chunk.k0, out)
                # rows add in node order onto the running sums, so the
                # chunk length never changes the numbers
                head *= w.reshape(len(head), -1)
                if doob is not None:
                    n = len(head)
                    h = _sinh_ratio(chunk.radii[:n], doob[:n * B].reshape(n, B))
                    h *= decay[chunk.k0:chunk.k0 + n, None]
                    head *= h
                acc = sums[chunk.first:chunk.first + B]
                head[0] += acc
                np.add.reduce(head, axis=0, out=acc)
    else:
        # radii and |v| of one batch, written in place, and under a killing
        # region the truncated trapezoid weights
        size = _pool_rows(config) * (S + 1)
        radii, values = np.empty((2, size))
        weights = np.empty(size) if killed else None
        with closing(sample_paths(config)) as batches:
            for batch in batches:
                B = batch.positions.shape[0]
                r, g = radii[:B * (S + 1)], values[:B * (S + 1)]
                _radial_distances(config.space,
                                  batch.positions.reshape(-1, batch.positions.shape[-1]), r, g)
                g = np.asarray(v.abs_radial(r, out=g), dtype=float).reshape(B, S + 1)
                # the batch as one chunk of whole paths, node-major views of
                # path-major arrays: einsum then adds as it always has
                alive = batch.alive.T if killed else None
                out = weights[:B * (S + 1)].reshape(B, S + 1).T if killed else None
                head, w = nodes.weigh(g.T, alive, 0, out)
                sums[batch.first:batch.first + B] = np.einsum(
                    "kb,k->b" if w.ndim == 1 else "kb,kb->b", head, w)
    sums *= config.step
    bias = nodes.max_seen * config.step if nodes.bounded else 2.0 * math.sqrt(config.step)
    return _finish(sums, config, n_effective=config.n_paths,
                   cap_events=nodes.cap_events, bias_bound=bias)


def mc_heat_expectation(f: Callable, config: PathConfig) -> Estimate:
    """E[f(B_horizon); horizon < lifetime]; with f = 1 this is survival.

    f receives a (B, ambient) block of endpoints and must return (B,)
    values; killed paths contribute zero.

    On R^3 and H^3 from the origin, with no region or a ball about it,
    each path is one exact endpoint draw with a weight (the bridge
    survival factor, and the Doob weight on H^3): killing is then in
    continuous time and the configured step does not enter the estimand.
    bias_bound is the computed truncation of the bridge series (0 without
    a region), and n_effective counts the paths of nonzero weight.
    Elsewhere the paths come from sample_paths and are killed at the step
    grid's times; n_effective counts the survivors and bias_bound is None.
    """
    if _endpoint_route(config):
        return _endpoint_expectation(f, config)
    values = np.zeros(config.n_paths, dtype=complex)
    survivors = 0
    with closing(sample_paths(config)) as batches:
        for batch in batches:
            alive = batch.alive[:, -1]
            if np.any(alive):
                out = values[batch.first:batch.first + alive.size]
                out[alive] = np.asarray(f(batch.positions[alive, -1]))
            survivors += int(alive.sum())
    if np.max(np.abs(values.imag), initial=0.0) == 0.0:
        values = values.real
    return _finish(values, config, n_effective=survivors)


def _endpoint_expectation(f: Callable, config: PathConfig) -> Estimate:
    """mc_heat_expectation from the origin of R^3 or H^3, one exact draw a path.

    W = sqrt(T) Z, for a standard normal 3-vector Z, is B_T on R^3.  Its
    length is the exact one-step draw of the radius chain from 0 and its
    direction is uniform and independent of the whole radius path (the
    skew product), so on H^3 the endpoint is (cosh |W|, h(|W|) W), the
    point at distance |W| in that direction, weighted by e^{-T/2} h(|W|).
    Under a ball of radius a each path also carries the bridge survival
    factor from 0 to |W|.  Worker w draws its block of the reference
    layout from its own key, path-major, on the caller's thread: there is
    one draw a path, so no producer thread would pay for itself.
    """
    space, T = config.space, config.horizon
    hyperbolic = space.kind == HYPERBOLIC
    counts = _worker_counts(config.n_paths, config.workers)
    width = min(_BLOCK_WIDTH, counts[0])
    gauss, radii, tmp = np.empty((width, 3)), np.empty(width), np.empty(width)
    points = np.empty((width, 4)) if hyperbolic else gauss
    values = np.zeros(config.n_paths, dtype=complex)
    first, n_effective, bias = 0, 0, 0.0
    for worker, count in enumerate(counts):
        rng = np.random.Generator(_worker_bits(config.seed, worker))
        for lo in range(first, first + count, width):
            B = min(width, first + count - lo)
            w = rng.standard_normal(out=gauss[:B])
            w *= math.sqrt(T)
            r = _euclidean_norms(w, radii[:B], tmp[:B])
            weight, tail = np.ones(B), np.zeros(B)
            if config.domain is not None:
                weight, tail = _bridge_survival(0.0, r, config.domain.radius, T)
            if hyperbolic:
                h = _sinh_ratio(r, tmp[:B])
                np.cosh(r, out=points[:B, 0])
                for i in range(3):
                    np.multiply(w[:, i], h, out=points[:B, i + 1])
                h *= math.exp(-0.5 * T)
                weight *= h
            live = weight > 0.0
            n_live = int(np.count_nonzero(live))
            if n_live:
                fx = np.asarray(f(points[:B][live]))
                values[lo:lo + B][live] = fx * weight[live]
                # the series truncation of each path, times |f| and the Doob weight
                err = np.abs(fx) * tail[live]
                if hyperbolic:
                    err *= h[live]
                bias += float(err.sum())
            n_effective += n_live
        first += count
    if np.max(np.abs(values.imag), initial=0.0) == 0.0:
        values = values.real
    return _finish(values, config, n_effective=n_effective,
                   bias_bound=bias / config.n_paths)


def transport_phase(path: np.ndarray, A: Callable) -> complex:
    """exp(-i sum A(midpoint) . increment) along one discrete path.

    The Stratonovich midpoint sum is the discrete line integral of the
    connection form; the result has modulus exactly 1.
    """
    path = np.asarray(path, dtype=float)
    if path.ndim != 2 or path.shape[0] < 2:
        raise DomainError("a path needs at least two points")
    mids = 0.5 * (path[1:] + path[:-1])
    incs = path[1:] - path[:-1]
    a_vals = np.asarray(A(mids), dtype=float)
    total = float(np.einsum("ki,ki->", a_vals, incs))
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
    # step midpoints and increments of one batch, written in place
    mids_buf, incs_buf = np.empty((2, _pool_rows(config), S, ambient))
    survivors = 0
    with closing(sample_paths(config)) as batches:
        for batch in batches:
            pos = batch.positions
            B = pos.shape[0]
            mids = np.add(pos[:, 1:], pos[:, :-1], out=mids_buf[:B])
            mids *= 0.5
            incs = np.subtract(pos[:, 1:], pos[:, :-1], out=incs_buf[:B])
            a_vals = np.asarray(A(mids.reshape(-1, ambient)), dtype=float)
            seg = np.einsum("ki,ki->k", a_vals, incs.reshape(-1, ambient)).reshape(B, S)
            if config.domain is not None:
                # only steps before the exit contribute to the accumulated phase
                seg *= batch.alive[:, 1:]
            angles = seg.sum(axis=1)
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

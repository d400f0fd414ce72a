"""Monte Carlo Brownian paths with killing and transport phases.

Path-integral estimators that cross-check the quadrature and matrix sides
of the package from an entirely different direction: sampled Brownian
motion.  The generator convention is Delta/2 throughout, i.e. coordinate
increments have variance h per step of size h.

Euclidean paths use exact Gaussian increments.  Hyperboloid paths take a
geodesic step: a tangent Gaussian with covariance h * Id is mapped through
the exponential map, an O(h) weak approximation.  Killing regions (a
geodesic ball, or a Euclidean half-space) stop a path at the first step
that lands outside; the exit step is recorded as the lifetime.

Streams are counter-based (Philox) keyed by (seed, worker index).  Worker
w draws a contiguous block of the path indices, worker 0's first; this is
the reference layout.  Each batch carries the index of its first path
there (``PathBatch.first``), the estimators write per-path values into
those slots and reduce the whole array in index order, so the numbers
depend only on the configuration, that is on (seed, workers), never on
thread timing.

The streams run on min(workers, usable CPUs) producer threads, one
thread for a single worker or CPU, so drawing overlaps the estimator's
work: Philox draws and the large ufuncs release the interpreter lock.
Producers only draw, integrate the increments and run the killing scan;
potentials and user callbacks run on the caller's thread.  sample_paths
hands out batches round-robin across the workers.  A batch holds about
2**17 path nodes (at most 1024 paths), so its arrays stay near cache
size; draws are path-major within a stream, so the batch size never
changes the numbers.
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
_NODE_BUDGET = 2 ** 17
_QUEUE_DEPTH = 2


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
                d = np.linalg.norm(points - center[None, :], axis=1)
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
            if "radius" not in obj or obj["radius"] <= 0:
                raise ConfigError("ball region needs a positive radius")
            center = obj.get("center")
            return cls(kind="ball", radius=float(obj["radius"]),
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
        if self.horizon <= 0:
            raise ConfigError("horizon must be positive")
        if self.step <= 0 or self.step > self.horizon / 10:
            raise ConfigError("step must be positive and at most horizon/10")
        ratio = self.horizon / self.step
        if abs(ratio - round(ratio)) > 1e-9 * max(1.0, ratio):
            raise ConfigError("step must divide the horizon evenly")
        if self.n_paths < 100:
            raise ConfigError("need at least 100 paths")
        if self.workers < 1:
            raise ConfigError("workers must be >= 1")
        start = np.asarray(self.start, dtype=float)
        self.space.validate_point(start)
        object.__setattr__(self, "start", tuple(float(x) for x in start))
        if self.domain is not None:
            inside = self.domain.inside(self.space, np.asarray([self.start]))
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

    def to_json_dict(self) -> dict:
        if isinstance(self.value, complex):
            val = {"re": self.value.real, "im": self.value.imag}
        else:
            val = float(self.value)
        out = {
            "value": val,
            "std_error": float(self.std_error),
            "n_effective": int(self.n_effective),
            "n_paths": int(self.n_paths),
            "step": float(self.step),
            "cap_events": int(self.cap_events),
            "provenance": "monte_carlo",
        }
        if self.bias_bound is not None:
            out["bias_bound"] = float(self.bias_bound)
        out.update({k: v for k, v in self.extras.items()})
        return out


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


def _worker_rng(seed: int, worker: int) -> np.random.Generator:
    key = np.array([seed % (2 ** 64), worker], dtype=np.uint64)
    return np.random.Generator(np.random.Philox(key=key))


def _batch_size(n_steps: int) -> int:
    """Paths per batch: about _NODE_BUDGET path nodes, at most _MAX_BATCH paths."""
    return min(_MAX_BATCH, max(1, _NODE_BUDGET // (n_steps + 1)))


def _usable_cpus() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def _hyperbolic_step(points: np.ndarray, incr: np.ndarray) -> np.ndarray:
    """Geodesic step on the hyperboloid from tangent increments.

    incr holds coordinates in an orthonormal tangent frame; the frame at
    (x0, xv) maps u to (xv . u, u + (xv . u / (1 + x0)) xv), which is then
    pushed through the exponential map.
    """
    x0 = points[:, 0]
    xv = points[:, 1:]
    dot = np.einsum("bi,bi->b", xv, incr)
    tang0 = dot
    tangv = incr + (dot / (1.0 + x0))[:, None] * xv
    norm = np.sqrt(np.maximum(np.einsum("bi,bi->b", incr, incr), 1e-300))
    ch, sh = np.cosh(norm), np.sinh(norm)
    scale = sh / norm
    out = np.empty_like(points)
    out[:, 0] = ch * x0 + scale * tang0
    out[:, 1:] = ch[:, None] * xv + scale[:, None] * tangv
    # pin the points back onto the sheet against roundoff drift
    out[:, 0] = np.sqrt(1.0 + np.einsum("bi,bi->b", out[:, 1:], out[:, 1:]))
    return out


def _killing_scan(domain: KillingRegion | None, space: ModelSpace,
                  positions: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """alive and exit_step of a (B, S+1, ambient) block of paths."""
    B, nodes = positions.shape[:2]
    if domain is None:
        return np.ones((B, nodes), dtype=bool), np.full(B, nodes, dtype=int)
    inside = domain.inside(space, positions.reshape(-1, positions.shape[-1]))
    inside = inside.reshape(B, nodes)
    # the start is inside (PathConfig checks it); the scan starts at step 1
    inside[:, 0] = True
    alive = np.logical_and.accumulate(inside, axis=1)
    exit_step = np.where(alive[:, -1], nodes, np.argmin(alive, axis=1))
    return alive, exit_step


def _worker_batches(config: PathConfig, worker: int, count: int,
                    first: int) -> Iterator[PathBatch]:
    """The batches of one worker's stream: paths [first, first + count).

    Draws are path-major, so the batch size never changes the numbers.
    Only draws, array arithmetic and the killing scan run here, never a
    potential or a user callback: this runs on a producer thread.
    """
    space = config.space
    S = config.n_steps
    h = config.step
    sqrt_h = math.sqrt(h)
    start = np.asarray(config.start, dtype=float)
    times = h * np.arange(S + 1)
    size = _batch_size(S)
    rng = _worker_rng(config.seed, worker)
    for lo in range(0, count, size):
        B = min(size, count - lo)
        pos = np.empty((B, S + 1, start.size))
        pos[:, 0] = start
        increments = rng.standard_normal((B, S, space.dim))
        increments *= sqrt_h
        if space.kind == EUCLIDEAN:
            np.cumsum(increments, axis=1, out=pos[:, 1:])
            if np.any(start):
                pos[:, 1:] += start
        else:
            cur = np.broadcast_to(start, (B, start.size)).copy()
            for k in range(S):
                cur = _hyperbolic_step(cur, increments[:, k])
                pos[:, k + 1] = cur
        alive, exit_step = _killing_scan(config.domain, space, pos)
        yield PathBatch(times=times, positions=pos, alive=alive,
                        exit_step=exit_step, first=first + lo)


def _put(q: queue.Queue, item, stop: threading.Event) -> bool:
    """Put item on q, giving up (False) once stop is set."""
    while not stop.is_set():
        try:
            q.put(item, timeout=0.05)
            return True
        except queue.Full:
            pass
    return False


def sample_paths(config: PathConfig) -> Iterator[PathBatch]:
    """Stream batches of Brownian paths for the given configuration.

    Worker w's Philox stream covers a contiguous block of the reference
    layout, and each batch's ``first`` says where it sits there.  Batches
    arrive round-robin across the workers (batch 0 of every worker, then
    batch 1, ...), an order fixed by the configuration alone.  The streams
    run on min(workers, usable CPUs) producer threads, one for a single
    worker or CPU, each feeding the caller through a queue of depth
    _QUEUE_DEPTH.  Closing the generator, or an exception in the caller's
    loop, stops and joins every producer; a producer's exception is raised
    here.
    """
    counts = _worker_counts(config.n_paths, config.workers)
    firsts = np.cumsum([0] + counts[:-1]).tolist()
    size = _batch_size(config.n_steps)
    workers = [w for w, count in enumerate(counts) if count]
    streams = {w: _worker_batches(config, w, counts[w], firsts[w]) for w in workers}
    order = [w for r in range(-(-max(counts) // size))
             for w in workers if r * size < counts[w]]
    n_threads = min(len(workers), _usable_cpus())
    owner = {w: i % n_threads for i, w in enumerate(workers)}
    queues = [queue.Queue(maxsize=_QUEUE_DEPTH) for _ in range(n_threads)]
    stop = threading.Event()

    def produce(t: int) -> None:
        try:
            for w in order:
                if owner[w] == t and not _put(queues[t], next(streams[w]), stop):
                    return
        except BaseException as exc:  # re-raised on the caller's thread
            _put(queues[t], exc, stop)

    threads = [threading.Thread(target=produce, args=(t,), daemon=True,
                                name=f"katoform-paths-{t}")
               for t in range(n_threads)]
    for thread in threads:
        thread.start()
    try:
        for w in order:
            item = queues[owner[w]].get()
            if isinstance(item, BaseException):
                raise item
            yield item
    finally:
        stop.set()
        for thread in threads:
            thread.join()


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


def _radial_distances(space: ModelSpace, flat_pos: np.ndarray) -> np.ndarray:
    if space.kind == EUCLIDEAN:
        # sqrt(x0*x0 + x1*x1 + ...), summed in np.linalg.norm's order
        r = flat_pos[:, 0] * flat_pos[:, 0]
        for i in range(1, flat_pos.shape[1]):
            r += flat_pos[:, i] * flat_pos[:, i]
        return np.sqrt(r, out=r)
    return np.arccosh(np.maximum(flat_pos[:, 0], 1.0))


def mc_kato_integral(v, config: PathConfig) -> Estimate:
    """E of the pathwise time integral of |v| up to min(horizon, lifetime).

    Trapezoidal in time along each path.  Node values above 1/h (or non
    finite) are capped at 1/h and counted as cap events; a non-finite
    value at the shared start point is replaced by each path's first-step
    value instead, because a deterministic cap there would not vanish
    with h.  The reported bias bound is the O(sqrt(h)) envelope 2 sqrt(h)
    for singular potentials and max|v| * h for bounded ones.
    """
    if v.space != config.space:
        raise DomainError("potential and path configuration disagree on the space")
    h = config.step
    cap = 1.0 / h
    S = config.n_steps
    wts = np.ones(S + 1)
    wts[0] = wts[-1] = 0.5
    all_vals = np.empty(config.n_paths)
    cap_events = 0
    max_seen = 0.0
    with closing(sample_paths(config)) as batches:
        for batch in batches:
            B = batch.positions.shape[0]
            r = _radial_distances(config.space,
                                  batch.positions.reshape(-1, batch.positions.shape[-1]))
            g = np.asarray(v.abs_radial(r), dtype=float).reshape(B, S + 1)
            bad = ~np.isfinite(g) | (g > cap)
            start_bad = bad[:, 0]
            if np.any(start_bad):
                g[start_bad, 0] = np.minimum(g[start_bad, 1], cap)
                bad[start_bad, 0] = False
            n_bad = int(np.count_nonzero(bad))
            if n_bad:
                cap_events += n_bad
                g[bad] = cap
            if not v.singular_radii:
                max_seen = max(max_seen, float(g.max(initial=0.0)))
            if config.domain is None:
                vals = np.einsum("bk,k->b", g, wts)
            else:
                # trapezoid weights, truncated at the exit step
                live = np.arange(S + 1)[None, :] < batch.exit_step[:, None]
                trunc = np.where(live, g, 0.0)
                # paths killed before the horizon end with a full-weight last node
                ends = np.minimum(batch.exit_step, S + 1) - 1
                w_matrix = np.where(live, wts[None, :], 0.0)
                short = ends < S
                w_matrix[short, ends[short]] = 0.5
                vals = np.einsum("bk,bk->b", trunc, w_matrix)
            all_vals[batch.first:batch.first + B] = h * vals
    if v.singular_radii:
        bias = 2.0 * math.sqrt(h)
    else:
        bias = max_seen * h
    return _finish(all_vals, config, n_effective=config.n_paths,
                   cap_events=cap_events, bias_bound=bias)


def mc_heat_expectation(f: Callable, config: PathConfig) -> Estimate:
    """E[f(B_horizon); horizon < lifetime]; with f = 1 this is survival.

    f receives a (B, ambient) block of endpoints and must return (B,)
    values; killed paths contribute zero.
    """
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
    survivors = 0
    with closing(sample_paths(config)) as batches:
        for batch in batches:
            pos = batch.positions
            mids = 0.5 * (pos[:, 1:] + pos[:, :-1])
            incs = pos[:, 1:] - pos[:, :-1]
            B, S = incs.shape[0], incs.shape[1]
            a_vals = np.asarray(A(mids.reshape(-1, pos.shape[-1])), dtype=float)
            seg = np.einsum("ki,ki->k", a_vals, incs.reshape(-1, pos.shape[-1])).reshape(B, S)
            if config.domain is not None:
                # only steps before the exit contribute to the accumulated phase
                seg *= np.arange(1, S + 1)[None, :] < batch.exit_step[:, None]
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

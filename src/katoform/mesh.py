"""Weighted graphs with unitary edge transports.

A mesh here is a finite model of a Hermitian vector bundle: vertices carry
volume weights mu_u > 0 and an n-dimensional fiber, edges carry coupling
weights w_uv > 0 and a unitary U that identifies the two fibers.  Dirichlet
flags mark killed vertices; sections supported there are treated as zero by
the operators built on top.

Transport orientation: for the edge record (u, v, w, U) the matrix U maps
the fiber over v into the fiber over u.  The reverse direction is U^dagger,
which is what ``transport_into`` returns when asked to move u -> v.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import MeshError

_UNITARY_TOL = 1e-12


@dataclass
class BundleMesh:
    fiber_dim: int
    mu: np.ndarray                 # (N,) positive vertex weights
    dirichlet: np.ndarray          # (N,) bool
    edge_u: np.ndarray             # (E,) int
    edge_v: np.ndarray             # (E,) int
    edge_w: np.ndarray             # (E,) positive coupling weights
    transports: np.ndarray         # (E, n, n) complex, v-fiber -> u-fiber
    positions: np.ndarray | None = None   # optional (N, d) embedding
    name: str = "mesh"
    metadata: dict = field(default_factory=dict)

    def __post_init__(self):
        self.mu = np.asarray(self.mu, dtype=float)
        self.dirichlet = np.asarray(self.dirichlet, dtype=bool)
        self.edge_u = np.asarray(self.edge_u, dtype=int)
        self.edge_v = np.asarray(self.edge_v, dtype=int)
        self.edge_w = np.asarray(self.edge_w, dtype=float)
        self.transports = np.asarray(self.transports, dtype=complex)
        self.validate()

    # -- basic facts --------------------------------------------------------

    @property
    def n_vertices(self) -> int:
        return self.mu.shape[0]

    @property
    def n_edges(self) -> int:
        return self.edge_u.shape[0]

    @property
    def interior(self) -> np.ndarray:
        return ~self.dirichlet

    def validate(self) -> None:
        n = self.fiber_dim
        N = self.n_vertices
        if n < 1:
            raise MeshError("fiber dimension must be >= 1")
        if self.dirichlet.shape != (N,):
            raise MeshError("dirichlet flags must match vertex count")
        if np.any(self.mu <= 0) or not np.all(np.isfinite(self.mu)):
            raise MeshError("vertex weights must be positive and finite")
        E = self.n_edges
        if self.edge_v.shape != (E,) or self.edge_w.shape != (E,):
            raise MeshError("edge arrays must have matching lengths")
        if self.transports.shape != (E, n, n):
            raise MeshError(f"transports must have shape ({E}, {n}, {n})")
        if E == 0:
            if N > 1:
                raise MeshError("graph is disconnected")
        else:
            if np.any(self.edge_u < 0) or np.any(self.edge_u >= N) or \
                    np.any(self.edge_v < 0) or np.any(self.edge_v >= N):
                raise MeshError("edge endpoints out of range")
            if np.any(self.edge_u == self.edge_v):
                raise MeshError("self-loops are not allowed")
            if np.any(self.edge_w <= 0) or not np.all(np.isfinite(self.edge_w)):
                raise MeshError("edge weights must be positive and finite")
            # one integer key per unordered pair: a repeat sorts next to its twin
            keys = np.sort(np.minimum(self.edge_u, self.edge_v) * N
                           + np.maximum(self.edge_u, self.edge_v))
            if np.any(keys[1:] == keys[:-1]):
                raise MeshError("duplicate edges are not allowed")
            eye = np.eye(n)
            gram = np.einsum("eij,ekj->eik", self.transports, self.transports.conj())
            defect = np.max(np.abs(gram - eye[None]))
            if not defect <= _UNITARY_TOL:  # a nan defect fails too
                raise MeshError(f"edge transport fails unitarity by {defect:.3e}")
        if not np.any(self.interior):
            raise MeshError("mesh needs at least one non-Dirichlet vertex")
        if self.positions is not None:
            self.positions = np.asarray(self.positions, dtype=float)
            if self.positions.shape[0] != N:
                raise MeshError("positions must cover every vertex")
        self._check_connected()

    def _check_connected(self) -> None:
        """Raise MeshError unless the edges connect every vertex.

        Label propagation with pointer jumping: each vertex points at the
        smallest vertex known to share its component.  Every round points
        the larger label of each edge at the smaller one, then jumps
        pointers until each vertex points at a root, so the labels of one
        component fall to its smallest vertex in a few rounds.
        """
        N = self.n_vertices
        if N == 1:
            return
        u, v = self.edge_u, self.edge_v
        label = np.arange(N)
        while True:
            lu, lv = label[u], label[v]
            hi, lo = np.maximum(lu, lv), np.minimum(lu, lv)
            if (hi == lo).all():
                break
            np.minimum.at(label, hi, lo)        # hi is a root: label[hi] == hi
            jumped = label[label]
            while (jumped != label).any():
                label = jumped
                jumped = label[label]
        if label.any():
            raise MeshError("graph is disconnected")

    # -- transport access ---------------------------------------------------

    def transport_into(self, e: int, target: int) -> np.ndarray:
        """Transport matrix carrying the far fiber of edge e into ``target``."""
        if target == self.edge_u[e]:
            return self.transports[e]
        if target == self.edge_v[e]:
            return self.transports[e].conj().T
        raise MeshError(f"vertex {target} is not an endpoint of edge {e}")

    def holonomy(self, cycle) -> np.ndarray:
        """Product of transports along the closed vertex sequence ``cycle``.

        The result maps the fiber over cycle[0] to itself after one loop
        cycle[0] -> cycle[1] -> ... -> cycle[0].
        """
        cycle = list(cycle)
        if cycle[0] != cycle[-1]:
            cycle = cycle + [cycle[0]]
        lookup = {}
        for e in range(self.n_edges):
            lookup[(int(self.edge_u[e]), int(self.edge_v[e]))] = e
            lookup[(int(self.edge_v[e]), int(self.edge_u[e]))] = e
        out = np.eye(self.fiber_dim, dtype=complex)
        for a, b in zip(cycle[:-1], cycle[1:]):
            e = lookup.get((int(a), int(b)))
            if e is None:
                raise MeshError(f"no edge between {a} and {b}")
            out = self.transport_into(e, int(b)) @ out
        return out


# ---------------------------------------------------------------------------
# generators

def interval_mesh(a: float, b: float, h: float, dirichlet_at=None) -> BundleMesh:
    """Uniform chain on [a, b] with spacing h; mu = h, w = 1/h.

    With those weights the vertex operator is the standard second
    difference (2 f_u - f_{u-1} - f_{u+1}) / (2 h^2).  ``dirichlet_at``
    lists x-values of killed vertices (default: both endpoints); each must
    land on a grid point.  a, b and the step count (b - a)/h must be
    finite, and h positive.
    """
    k = (b - a) / h if 0.0 < h < math.inf else math.nan
    if not math.isfinite(k):
        raise MeshError("an interval needs finite ends and a positive finite spacing")
    K = int(round(k))
    if K < 2 or abs(k - K) > 1e-9 * max(1.0, abs(k)):
        raise MeshError("interval length must be an integral number of steps")
    xs = a + h * np.arange(K + 1)
    xs[-1] = b
    N = K + 1
    dirichlet = np.zeros(N, dtype=bool)
    targets = [a, b] if dirichlet_at is None else list(dirichlet_at)
    for x0 in targets:
        idx = int(round((x0 - a) / h))
        if idx < 0 or idx > K or abs(xs[idx] - x0) > 1e-9 * max(1.0, abs(x0)):
            raise MeshError(f"dirichlet point {x0} is not a grid vertex")
        dirichlet[idx] = True
    E = K
    return BundleMesh(
        fiber_dim=1,
        mu=np.full(N, h),
        dirichlet=dirichlet,
        edge_u=np.arange(E),
        edge_v=np.arange(1, E + 1),
        edge_w=np.full(E, 1.0 / h),
        transports=np.ones((E, 1, 1), dtype=complex),
        positions=xs[:, None],
        name="interval",
        metadata={"a": a, "b": b, "h": h},
    )


def grid_mesh_2d(half_width: float, spacing: float, b_field: float = 0.0,
                 dirichlet_boundary: bool = True) -> BundleMesh:
    """Square grid on [-L, L]^2 with mu = a^2, w = 1 and Peierls phases.

    The edge phase is exp(-i integral A . dl) with the symmetric gauge
    A = (B/2) (-y, x), evaluated by the midpoint rule (exact for linear A).
    Vertex operator: (1 / 2 a^2) sum over the four neighbors.  L and the
    spacing count 2L/a must be finite, and a positive.
    """
    L, a = float(half_width), float(spacing)
    k = 2.0 * L / a if 0.0 < a < math.inf else math.nan
    if not math.isfinite(k):
        raise MeshError("a grid needs a finite half-width and a positive finite spacing")
    K = int(round(k))
    if K < 2 or abs(k - K) > 1e-9 * max(1.0, k):
        raise MeshError("grid width must be an integral number of spacings")
    side = K + 1
    xs = -L + a * np.arange(side)
    N = side * side
    # vertex j * side + i sits at (xs[i], xs[j]): row-major in y
    gx, gy = np.meshgrid(xs, xs)
    pos = np.stack([gx.ravel(), gy.ravel()], axis=1)
    vid = np.arange(N)
    i, j = vid % side, vid // side
    dirichlet = dirichlet_boundary & ((i == 0) | (i == K) | (j == 0) | (j == K))

    # each vertex in turn emits its +x edge, then its +y edge
    ok = np.stack([i < K, j < K], axis=1)
    eu = np.broadcast_to(vid[:, None], ok.shape)[ok]
    ev = np.stack([vid + 1, vid + side], axis=1)[ok]
    p, q = pos[eu], pos[ev]
    mid = 0.5 * (p + q)
    # A . dl along v -> u, so U maps the v-fiber into the u-fiber
    ax, ay = -0.5 * b_field * mid[:, 1], 0.5 * b_field * mid[:, 0]
    line = ax * (p[:, 0] - q[:, 0]) + ay * (p[:, 1] - q[:, 1])

    return BundleMesh(
        fiber_dim=1,
        mu=np.full(N, a * a),
        dirichlet=dirichlet,
        edge_u=eu, edge_v=ev, edge_w=np.ones(eu.size),
        transports=np.exp(-1j * line)[:, None, None],
        positions=pos,
        name="grid2d",
        metadata={"half_width": L, "spacing": a, "b_field": b_field,
                  "side": side},
    )


def cycle_mesh(k: int, theta: float = 0.0) -> BundleMesh:
    """k-cycle with unit weights and total flux theta through the loop.

    Each forward step j -> j+1 carries the phase exp(-i theta / k), so the
    holonomy around 0 -> 1 -> ... -> 0 is exp(-i theta).  The spectrum of
    the vertex operator is {1 - cos((2 pi m + theta) / k)}.
    """
    if k < 3:
        raise MeshError("a cycle needs at least 3 vertices")
    step = np.exp(1j * theta / k)  # stored matrix maps fiber j+1 -> j
    angles = 2.0 * np.pi * np.arange(k) / k
    return BundleMesh(
        fiber_dim=1,
        mu=np.ones(k),
        dirichlet=np.zeros(k, dtype=bool),
        edge_u=np.arange(k),
        edge_v=(np.arange(k) + 1) % k,
        edge_w=np.ones(k),
        transports=np.array([[[step]] for _ in range(k)]),
        positions=np.stack([np.cos(angles), np.sin(angles)], axis=1),
        name="cycle",
        metadata={"k": k, "theta": theta},
    )


def _haar_block(count: int, n: int, rng) -> np.ndarray:
    """count Haar U(n) samples with one batched QR and phase fix.

    Sample k takes the real then the imaginary part of its Gaussian from
    the stream, as consecutive single draws would, so the samples do not
    depend on count.
    """
    g = rng.standard_normal((count, 2, n, n))
    q, r = np.linalg.qr(g[:, 0] + 1j * g[:, 1])
    d = np.diagonal(r, axis1=-2, axis2=-1)
    return q * (d / np.abs(d))[:, None, :]


def gauge_transform(mesh: BundleMesh, gauges) -> BundleMesh:
    """Rotate every fiber by a unitary; transports become G_u U G_v^dagger.

    Gauge-covariant quantities (spectra, pointwise section norms, holonomy
    conjugacy classes) are unchanged; this is what tests use to confirm it.
    """
    gauges = np.asarray(gauges, dtype=complex)
    n = mesh.fiber_dim
    if gauges.shape != (mesh.n_vertices, n, n):
        raise MeshError("need one gauge unitary per vertex")
    new_t = np.einsum("eij,ejk,elk->eil", gauges[mesh.edge_u], mesh.transports,
                      gauges[mesh.edge_v].conj())
    return BundleMesh(
        fiber_dim=n, mu=mesh.mu.copy(), dirichlet=mesh.dirichlet.copy(),
        edge_u=mesh.edge_u.copy(), edge_v=mesh.edge_v.copy(),
        edge_w=mesh.edge_w.copy(), transports=new_t,
        positions=None if mesh.positions is None else mesh.positions.copy(),
        name=mesh.name, metadata=dict(mesh.metadata),
    )


def trivial_line(mesh: BundleMesh) -> BundleMesh:
    """The trivial line bundle on the graph of ``mesh``: fibre 1, unit transports.

    Its sections are the functions on the mesh's weighted graph, with the
    mesh's Dirichlet flags: the scalar picture of Kato's inequality and of
    semigroup domination.  It is a mesh like any other, so every operator,
    with or without a potential, applies to it.
    """
    return BundleMesh(fiber_dim=1, mu=mesh.mu, dirichlet=mesh.dirichlet,
                      edge_u=mesh.edge_u, edge_v=mesh.edge_v, edge_w=mesh.edge_w,
                      transports=np.ones((mesh.n_edges, 1, 1), dtype=complex))


def random_bundle_mesh(n_vertices: int, fiber_dim: int = 2, seed: int = 0,
                       extra_edge_prob: float = 0.3,
                       dirichlet_count: int = 0, w_range=(0.5, 2.0)) -> BundleMesh:
    """Random connected mesh: spanning tree plus extra edges, Haar transports.

    Deterministic in the seed.  Vertex masses are uniform on [0.5, 2), edge
    weights on ``w_range``.  ``dirichlet_count`` vertices (chosen at
    random, never all of them) are flagged as killed.  The three counts
    must be integers (a bool is not one).
    """
    for count, low, what in ((n_vertices, 2, "n_vertices"), (fiber_dim, 1, "fiber_dim"),
                             (dirichlet_count, 0, "dirichlet_count")):
        if isinstance(count, bool) or not isinstance(count, numbers.Integral) or count < low:
            raise MeshError(f"{what} must be an integer >= {low}")
    if dirichlet_count >= n_vertices:
        raise MeshError("cannot kill every vertex")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_vertices)
    # vertex order[i] hangs from one of the i vertices before it
    eu = order[1:].tolist()
    ev = order[rng.integers(0, np.arange(1, n_vertices))].tolist()
    pairs = {(min(a, b), max(a, b)) for a, b in zip(eu, ev)}
    n_extra = rng.binomial(n_vertices, extra_edge_prob)
    for _ in range(n_extra * 3):
        if len(pairs) - (n_vertices - 1) >= n_extra:
            break
        a, b = map(int, rng.integers(0, n_vertices, size=2))
        key = (min(a, b), max(a, b))
        if a != b and key not in pairs:
            pairs.add(key)
            eu.append(a)
            ev.append(b)
    mu = rng.uniform(0.5, 2.0, size=n_vertices)
    w = rng.uniform(w_range[0], w_range[1], size=len(eu))
    mats = _haar_block(len(eu), fiber_dim, rng)
    dirichlet = np.zeros(n_vertices, dtype=bool)
    if dirichlet_count > 0:
        killed = rng.choice(n_vertices, size=dirichlet_count, replace=False)
        dirichlet[killed] = True
    return BundleMesh(
        fiber_dim=fiber_dim, mu=mu, dirichlet=dirichlet,
        edge_u=eu, edge_v=ev, edge_w=w, transports=mats,
        name="random", metadata={"seed": seed},
    )

"""Weighted graphs with unitary edge transports.

A mesh here is a finite model of a Hermitian vector bundle: vertices carry
volume weights mu_u > 0 and an n-dimensional fiber, edges carry coupling
weights w_uv > 0 and a unitary U that identifies the two fibers.  Dirichlet
flags mark killed vertices; sections supported there are treated as zero by
the operators built on top.

Transport orientation: for the edge record (u, v, w, U) the matrix U maps
the fiber over v into the fiber over u.  The reverse direction is U^dagger,
which is what ``transport_into`` returns when asked to move u -> v.

The JSON form encodes complex entries as [re, im] pairs, row-major:

    {"fiber_dim": n,
     "vertices": [{"mu": 1.0, "dirichlet": false}, ...],
     "edges": [{"u": 0, "v": 1, "w": 1.0, "U": [[[re, im], ...], ...]}, ...]}
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from scipy.sparse.csgraph import connected_components

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
            pairs = np.stack([np.minimum(self.edge_u, self.edge_v),
                              np.maximum(self.edge_u, self.edge_v)], axis=1)
            if len(np.unique(pairs, axis=0)) != E:
                raise MeshError("duplicate edges are not allowed")
            eye = np.eye(n)
            gram = np.einsum("eij,ekj->eik", self.transports, self.transports.conj())
            defect = np.max(np.abs(gram - eye[None]))
            if defect > _UNITARY_TOL:
                raise MeshError(f"edge transport fails unitarity by {defect:.3e}")
        if not np.any(self.interior):
            raise MeshError("mesh needs at least one non-Dirichlet vertex")
        if self.positions is not None:
            self.positions = np.asarray(self.positions, dtype=float)
            if self.positions.shape[0] != N:
                raise MeshError("positions must cover every vertex")
        self._check_connected()

    def _check_connected(self) -> None:
        N = self.n_vertices
        if N == 1:
            return
        # CSR rows straight from the edge list (edge u -> v in row u): on small
        # meshes scipy's COO conversion would cost about as much again
        order = np.argsort(self.edge_u)
        indptr = np.concatenate(([0], np.cumsum(np.bincount(self.edge_u, minlength=N))))
        adj = sp.csr_array((np.ones(self.n_edges), self.edge_v[order], indptr), shape=(N, N))
        if connected_components(adj, directed=False, return_labels=False) > 1:
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

    # -- wire form ----------------------------------------------------------

    def to_json_dict(self) -> dict:
        def encode_u(U):
            return [[[float(z.real), float(z.imag)] for z in row] for row in U]

        return {
            "fiber_dim": int(self.fiber_dim),
            "vertices": [{"mu": float(m), "dirichlet": bool(d)}
                         for m, d in zip(self.mu, self.dirichlet)],
            "edges": [{"u": int(a), "v": int(b), "w": float(w), "U": encode_u(U)}
                      for a, b, w, U in zip(self.edge_u, self.edge_v,
                                            self.edge_w, self.transports)],
        }

    @classmethod
    def from_json_dict(cls, obj: dict) -> "BundleMesh":
        try:
            n = int(obj["fiber_dim"])
            verts = obj["vertices"]
            edges = obj["edges"]
            mu = [v["mu"] for v in verts]
            dirichlet = [bool(v.get("dirichlet", False)) for v in verts]
            eu = [e["u"] for e in edges]
            ev = [e["v"] for e in edges]
            ew = [e["w"] for e in edges]
            mats = []
            for e in edges:
                U = e["U"]
                mat = np.array([[complex(cell[0], cell[1]) for cell in row]
                                for row in U], dtype=complex)
                mats.append(mat)
        except (KeyError, TypeError, IndexError) as exc:
            raise MeshError(f"malformed mesh JSON: {exc}") from exc
        mats = np.array(mats, dtype=complex) if mats else np.zeros((0, n, n), complex)
        return cls(fiber_dim=n, mu=mu, dirichlet=dirichlet,
                   edge_u=eu, edge_v=ev, edge_w=ew, transports=mats)


# ---------------------------------------------------------------------------
# generators

def interval_mesh(a: float, b: float, h: float, dirichlet_at=None,
                  fiber_dim: int = 1) -> BundleMesh:
    """Uniform chain on [a, b] with spacing h; mu = h, w = 1/h.

    With those weights the vertex operator is the standard second
    difference (2 f_u - f_{u-1} - f_{u+1}) / (2 h^2).  ``dirichlet_at``
    lists x-values of killed vertices (default: both endpoints); each must
    land on a grid point.
    """
    span = b - a
    k = span / h
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
    eye = np.eye(fiber_dim, dtype=complex)
    E = K
    return BundleMesh(
        fiber_dim=fiber_dim,
        mu=np.full(N, h),
        dirichlet=dirichlet,
        edge_u=np.arange(E),
        edge_v=np.arange(1, E + 1),
        edge_w=np.full(E, 1.0 / h),
        transports=np.broadcast_to(eye, (E, fiber_dim, fiber_dim)).copy(),
        positions=xs[:, None],
        name="interval",
        metadata={"a": a, "b": b, "h": h},
    )


def grid_mesh_2d(half_width: float, spacing: float, b_field: float = 0.0,
                 dirichlet_boundary: bool = True) -> BundleMesh:
    """Square grid on [-L, L]^2 with mu = a^2, w = 1 and Peierls phases.

    The edge phase is exp(-i integral A . dl) with the symmetric gauge
    A = (B/2) (-y, x), evaluated by the midpoint rule (exact for linear A).
    Vertex operator: (1 / 2 a^2) sum over the four neighbors.
    """
    L, a = float(half_width), float(spacing)
    k = 2.0 * L / a
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


def haar_unitary(n: int, rng) -> np.ndarray:
    """Haar-distributed U(n) sample (QR of a complex Gaussian, phase-fixed)."""
    return _haar_block(1, n, rng)[0]


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


def random_bundle_mesh(n_vertices: int, fiber_dim: int = 2, seed: int = 0,
                       extra_edge_prob: float = 0.3,
                       dirichlet_count: int = 0,
                       mu_range=(0.5, 2.0), w_range=(0.5, 2.0)) -> BundleMesh:
    """Random connected mesh: spanning tree plus extra edges, Haar transports.

    Deterministic in the seed.  ``dirichlet_count`` vertices (chosen at
    random, never all of them) are flagged as killed.
    """
    if n_vertices < 2:
        raise MeshError("need at least two vertices")
    rng = np.random.default_rng(seed)
    order = rng.permutation(n_vertices)
    pairs = set()
    eu, ev = [], []
    for idx in range(1, n_vertices):
        a = int(order[idx])
        b = int(order[rng.integers(0, idx)])
        key = (min(a, b), max(a, b))
        pairs.add(key)
        eu.append(a)
        ev.append(b)
    n_extra = rng.binomial(n_vertices, extra_edge_prob)
    for _ in range(n_extra * 3):
        if len(pairs) - (n_vertices - 1) >= n_extra:
            break
        a, b = rng.integers(0, n_vertices, size=2)
        a, b = int(a), int(b)
        if a == b:
            continue
        key = (min(a, b), max(a, b))
        if key in pairs:
            continue
        pairs.add(key)
        eu.append(a)
        ev.append(b)
    E = len(eu)
    mu = rng.uniform(mu_range[0], mu_range[1], size=n_vertices)
    w = rng.uniform(w_range[0], w_range[1], size=E)
    mats = _haar_block(E, fiber_dim, rng)
    dirichlet = np.zeros(n_vertices, dtype=bool)
    if dirichlet_count > 0:
        if dirichlet_count >= n_vertices:
            raise MeshError("cannot kill every vertex")
        killed = rng.choice(n_vertices, size=dirichlet_count, replace=False)
        dirichlet[killed] = True
    return BundleMesh(
        fiber_dim=fiber_dim, mu=mu, dirichlet=dirichlet,
        edge_u=eu, edge_v=ev, edge_w=w, transports=mats,
        name="random", metadata={"seed": seed},
    )

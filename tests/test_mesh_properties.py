"""Hypothesis properties of the bundle operators on random meshes.

The per-edge loops below evaluate the kinetic form and the Kato gap one
edge at a time, the way they were first written; they are the oracle for
the edge-array passes in ``katoform.operators``.  Another per-edge loop
builds the dense operator matrices entry by entry, the oracle for the
block assembly, and a scipy BSR matrix converted to CSR is the oracle
for the CSR layout of ``_block_csr``, bit for bit.  The dense Schur route
of the KLMN pencil is the oracle for its sparse route, and dense Pade
``scipy.linalg.expm`` for the Chebyshev semigroup, which must land within
the error bound it computes.
"""

import contextlib
from unittest import mock

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from katoform import operators
from katoform.errors import ConvergenceError, KernelHandlingError
from katoform.mesh import (BundleMesh, gauge_transform, haar_unitary, random_bundle_mesh,
                           trivial_line)
from katoform.operators import (_as_matrix_field, _assemble, _klmn_dense, _section_dofs,
                                bochner_laplacian, diagonal_potential,
                                form_sum_spectrum, kato_inequality_gap,
                                klmn_optimal_c1, quad_form,
                                semigroup_domination_gap, semigroup_evolve)

STACK = 3


def loop_kinetic(mesh, f):
    f = np.where(mesh.dirichlet[:, None], 0.0, f)
    total = 0.0
    for e in range(mesh.n_edges):
        u, v = mesh.edge_u[e], mesh.edge_v[e]
        diff = f[u] - mesh.transports[e] @ f[v]
        total += 0.5 * mesh.edge_w[e] * float(np.real(np.vdot(diff, diff)))
    return total


def loop_kato_gap(mesh, f):
    f = np.where(mesh.dirichlet[:, None], 0.0, f)
    norms = np.linalg.norm(f, axis=1)
    scalar = 0.0
    for e in range(mesh.n_edges):
        d = norms[mesh.edge_u[e]] - norms[mesh.edge_v[e]]
        scalar += 0.5 * mesh.edge_w[e] * d * d
    return loop_kinetic(mesh, f) - scalar


def loop_matrices(mesh, scalar=False, V=None):
    """Dense M^{-1/2} K M^{-1/2} + blockdiag(V) and the generator M^{-1} K, edge by edge."""
    n = 1 if scalar else mesh.fiber_dim
    slot = {u: s for s, u in enumerate(np.flatnonzero(mesh.interior))}
    K = np.zeros((len(slot) * n, len(slot) * n), dtype=complex)

    def block(a, b):
        return slice(slot[a] * n, slot[a] * n + n), slice(slot[b] * n, slot[b] * n + n)

    for e in range(mesh.n_edges):
        u, v, w = mesh.edge_u[e], mesh.edge_v[e], mesh.edge_w[e]
        U = np.eye(1) if scalar else mesh.transports[e]
        for a in (u, v):
            if a in slot:
                K[block(a, a)] += 0.5 * w * np.eye(n)
        if u in slot and v in slot:
            K[block(u, v)] -= 0.5 * w * U
            K[block(v, u)] -= 0.5 * w * U.conj().T
    mu = np.repeat(mesh.mu[mesh.interior], n)
    A = K / np.sqrt(mu)[:, None] / np.sqrt(mu)[None, :]
    if V is not None:
        for a in slot:
            A[block(a, a)] += V[a]
    return A, K / mu[:, None]


def assert_matrix(got, want):
    # the potential can cancel most of a kinetic diagonal entry, so entries
    # are also compared on the scale of the whole matrix
    assert got.has_canonical_format
    np.testing.assert_allclose(got.toarray(), want, rtol=1e-14,
                               atol=1e-14 * np.abs(want).max())


@st.composite
def meshes(draw, min_dirichlet=0):
    """(mesh, rng): 2-30 vertices, fibre 1-3, ``min_dirichlet``-2 Dirichlet vertices."""
    n_vertices = draw(st.integers(2, 30))
    mesh = random_bundle_mesh(n_vertices, fiber_dim=draw(st.integers(1, 3)),
                              seed=draw(st.integers(0, 2 ** 31 - 1)),
                              dirichlet_count=min(draw(st.integers(min_dirichlet, 2)),
                                                  n_vertices - 1))
    return mesh, np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))


def converted(mesh, V):
    """The field a public call hands to the private helpers: None stays None."""
    return None if V is None else _as_matrix_field(mesh, V)


def sections(mesh, rng, count=STACK):
    shape = (count, mesh.n_vertices, mesh.fiber_dim)
    return rng.standard_normal(shape) + 1j * rng.standard_normal(shape)


@given(meshes())
def test_kinetic_form_matches_assembly_and_loop(case):
    mesh, rng = case
    A, root = _assemble(mesh)
    for f in sections(mesh, rng):
        kinetic = quad_form(mesh, f).kinetic
        g = _section_dofs(mesh, f) * root
        assert kinetic == pytest.approx(float(np.real(np.vdot(g, A @ g))), rel=1e-12)
        assert kinetic == pytest.approx(loop_kinetic(mesh, f), rel=1e-12)


@given(meshes())
def test_assembly_matches_loop_entrywise(case):
    mesh, rng = case
    n = mesh.fiber_dim
    g = rng.standard_normal((mesh.n_vertices, n, n)) + 1j * rng.standard_normal((mesh.n_vertices, n, n))
    herm = g + g.conj().transpose(0, 2, 1)
    values = rng.standard_normal(mesh.n_vertices)
    A, L = loop_matrices(mesh)
    assert_matrix(_assemble(mesh)[0], A)
    assert_matrix(bochner_laplacian(mesh), L)
    assert_matrix(_assemble(trivial_line(mesh))[0], loop_matrices(mesh, scalar=True)[0])
    for V, field in ((herm, herm), (values, diagonal_potential(mesh, values))):
        assert_matrix(_assemble(mesh, _as_matrix_field(mesh, V))[0],
                      loop_matrices(mesh, V=field)[0])


@given(meshes())
def test_kato_gap_nonnegative_and_matches_loop(case):
    mesh, rng = case
    for f in sections(mesh, rng):
        scale = max(1.0, loop_kinetic(mesh, f))
        gap = kato_inequality_gap(mesh, f)
        assert gap >= -1e-12 * scale
        assert abs(gap - loop_kato_gap(mesh, f)) <= 1e-12 * scale


@settings(max_examples=50)
@given(meshes())
def test_kinetic_form_and_spectrum_gauge_invariant(case):
    mesh, rng = case
    gauges = np.array([haar_unitary(mesh.fiber_dim, rng) for _ in range(mesh.n_vertices)])
    moved = gauge_transform(mesh, gauges)
    f = sections(mesh, rng, 1)[0]
    assert quad_form(moved, np.einsum("uij,uj->ui", gauges, f)).kinetic == pytest.approx(
        quad_form(mesh, f).kinetic, rel=1e-12)
    a = form_sum_spectrum(mesh).eigenvalues
    b = form_sum_spectrum(moved).eigenvalues
    assert np.allclose(a, b, rtol=0.0, atol=1e-10 * max(1.0, float(np.abs(a).max())))


@settings(max_examples=50)
@given(meshes(), st.sampled_from([0.1, 1.0, 10.0]))
def test_semigroup_domination(case, t):
    mesh, rng = case
    assert semigroup_domination_gap(mesh, sections(mesh, rng, 1)[0], t) >= -1e-10


@st.composite
def semigroup_cases(draw):
    """(mesh, V, rng): a bundle of at most 90 or of 420-540 degrees of freedom and a potential.

    V is None, a PSD field, or a mild negative well with blocks in [-1/2, 0].
    """
    large = draw(st.booleans())
    n_vertices = draw(st.integers(140, 180) if large else st.integers(2, 30))
    mesh = random_bundle_mesh(n_vertices, fiber_dim=3 if large else draw(st.integers(1, 3)),
                              seed=draw(st.integers(0, 2 ** 31 - 1)),
                              dirichlet_count=min(draw(st.integers(0, 2)), n_vertices - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    kind = draw(st.sampled_from(["none", "positive", "well"]))
    V = None if kind == "none" else psd_field(mesh, rng)
    if kind == "well":
        V *= -0.5 / np.linalg.eigvalsh(V).max()
    return mesh, V, rng


@settings(max_examples=30)
@given(semigroup_cases(), st.sampled_from([1e-3, 0.1, 1.0, 10.0]))
def test_semigroup_evolve_within_its_bound_of_dense_expm(case, t):
    mesh, V, rng = case
    f = sections(mesh, rng, 1)[0]
    bounds = []
    series = operators._semigroup_series

    def recorded(*args):
        results = series(*args)
        bounds.extend(bound for _, bound in results)
        return results

    with mock.patch.object(operators, "_semigroup_series", recorded):
        got = semigroup_evolve(mesh, f, t, V=V)
    A, root = _assemble(mesh, converted(mesh, V))
    g = _section_dofs(mesh, f) * root
    want = sla.expm(-t * A.toarray()) @ g
    assert np.linalg.norm(_section_dofs(mesh, got) * root - want) <= bounds[0]


@settings(max_examples=40)
@given(semigroup_cases(), st.lists(st.sampled_from([1e-6, 1e-4, 1e-3, 0.1, 1.0, 10.0]),
                                   min_size=1, max_size=5))
def test_semigroup_series_equals_single_calls(case, times):
    # one recurrence for every time gives each time's sum and bound bit for
    # bit, and refuses when any one time's call would
    mesh, V, rng = case
    field = converted(mesh, V)
    x = _section_dofs(mesh, sections(mesh, rng, 1)[0])
    singles = []
    try:
        for t in times:
            singles.append(operators._flow(mesh, x, field, (t,))[3][0])
    except ConvergenceError:
        with pytest.raises(ConvergenceError):
            operators._flow(mesh, x, field, times)
        return
    series = operators._flow(mesh, x, field, times)[3]
    assert len(series) == len(times)
    for (out, bound), (want, want_bound) in zip(series, singles):
        assert np.array_equal(out, want) and bound == want_bound


@st.composite
def real_chains(draw):
    """(mesh, V, rng): a path of 1-400 vertices with real transports +-1.

    mu and w are log-uniform over two decades, and Dirichlet vertices fall
    anywhere, ends and interior splits alike, with at least one vertex left
    free; V is None or random vertex values.
    """
    n_vertices = draw(st.integers(1, 400))
    rng = np.random.default_rng(draw(st.integers(0, 2 ** 32 - 1)))
    dirichlet = np.zeros(n_vertices, dtype=bool)
    killed = rng.choice(n_vertices, size=draw(st.integers(0, min(8, n_vertices - 1))),
                        replace=False)
    dirichlet[killed] = True
    edges = np.arange(n_vertices - 1)
    mesh = BundleMesh(fiber_dim=1, mu=10.0 ** rng.uniform(-1.0, 1.0, n_vertices),
                      dirichlet=dirichlet, edge_u=edges, edge_v=edges + 1,
                      edge_w=10.0 ** rng.uniform(-1.0, 1.0, edges.size),
                      transports=rng.choice([-1.0, 1.0], size=(edges.size, 1, 1)))
    V = rng.standard_normal(n_vertices) * 10.0 ** rng.uniform(-1.0, 1.0) \
        if draw(st.booleans()) else None
    return mesh, V, rng


@settings(max_examples=60)
@given(real_chains(), st.booleans())
def test_tridiagonal_route_matches_dense_solve(case, subset):
    mesh, V, rng = case
    A = _assemble(mesh, converted(mesh, V))[0]
    dense = A.toarray().real
    n = dense.shape[0]
    scale = max(1.0, float(np.abs(dense).max()))
    lo = int(rng.integers(0, n)) if subset else 0
    hi = int(rng.integers(lo, n)) if subset else n - 1
    want = sla.eigh(dense, driver="evr", eigvals_only=True)
    tridiagonal = sla.eigh_tridiagonal
    with mock.patch.object(sla, "eigh_tridiagonal", wraps=tridiagonal) as spy:
        lam, Q = operators._dense_eigh(A.real, (lo, hi) if subset else None)
        k = int(rng.integers(1, n + 1))
        spec = form_sum_spectrum(mesh, V=V, k=k)
    assert spy.call_count == 2 and Q.dtype == np.float64
    np.testing.assert_allclose(lam, want[lo:hi + 1], rtol=0.0, atol=1e-13 * scale)
    assert float(operators._residual_norms(A.real, lam, Q).max()) < 1e-8 * scale
    assert spec.method == "dense"
    np.testing.assert_allclose(spec.eigenvalues, want[:k], rtol=0.0, atol=1e-13 * scale)
    assert float(spec.residuals.max()) < 1e-8 * scale


def bsr_block_csr(blocks, block_rows, block_cols, k):
    """``_block_csr`` through scipy: one BSR matrix, converted to CSR, exact zeros dropped."""
    n = blocks.shape[-1]
    order = np.argsort(block_rows * k + block_cols)
    indptr = np.concatenate(([0], np.cumsum(np.bincount(block_rows, minlength=k))))
    A = sp.bsr_matrix((blocks[order], block_cols[order], indptr),
                      shape=(k * n, k * n)).tocsr()
    if n > 1:
        A.eliminate_zeros()
    return A


@given(meshes(), st.floats(0.1, 3.0))
def test_block_csr_equals_bsr_construction(case, c2):
    mesh, rng = case
    v2 = psd_field(mesh, rng)
    # V2 = C2 I at one interior vertex: an all-zero block of B, so empty rows
    v2[rng.choice(np.flatnonzero(mesh.interior))] = c2 * np.eye(mesh.fiber_dim)
    built = []
    block_csr = operators._block_csr

    def recorded(*args):
        built.append(args)
        return block_csr(*args)

    # the kinetic matrix, with and without a potential, and on the trivial line
    with mock.patch.object(operators, "_block_csr", recorded):
        for m, V in ((mesh, None), (mesh, v2), (trivial_line(mesh), None)):
            _assemble(m, converted(m, V))
    slots = np.arange(np.count_nonzero(mesh.interior))
    built.append((v2[mesh.interior] - c2 * np.eye(mesh.fiber_dim), slots, slots, slots.size))
    for args in built:
        got, want = block_csr(*args), bsr_block_csr(*args)
        assert got.shape == want.shape
        assert got.indptr.dtype == want.indptr.dtype and got.indices.dtype == want.indices.dtype
        assert np.array_equal(got.indptr, want.indptr)
        assert np.array_equal(got.indices, want.indices)
        assert got.data.dtype == want.data.dtype and np.array_equal(got.data, want.data)
        assert got.has_canonical_format and want.has_canonical_format


def psd_field(mesh, rng):
    """Random PSD blocks G G^H, one per vertex."""
    shape = (mesh.n_vertices, mesh.fiber_dim, mesh.fiber_dim)
    g = rng.standard_normal(shape) + 1j * rng.standard_normal(shape)
    return np.einsum("uij,ukj->uik", g, g.conj())


def dense_pencil(mesh, v2, c2):
    """Dense A and B = blockdiag(V2) - C2 I on interior DOFs, built apart."""
    A = _assemble(mesh)[0].toarray()
    B = sla.block_diag(*v2[mesh.interior]) - c2 * np.eye(A.shape[0])
    return A, B


@settings(max_examples=60)
@given(meshes(min_dirichlet=1), st.floats(0.1, 3.0))
def test_klmn_pencil_matches_dense_schur(case, c2):
    mesh, rng = case
    v2 = psd_field(mesh, rng)
    want = _klmn_dense(*dense_pencil(mesh, v2, c2))
    assert klmn_optimal_c1(mesh, v2, c2) == pytest.approx(want, rel=1e-10, abs=1e-13)


@settings(max_examples=30)
@given(meshes(), st.floats(0.0, 3.0))
def test_klmn_potential_matrix_is_blockdiag(case, c2):
    mesh, rng = case
    v2 = psd_field(mesh, rng)
    built = []
    block_csr = operators._block_csr

    def recorded(*args):
        built.append(block_csr(*args))
        return built[-1]

    # B is built before the solve, which may find no finite C1
    with mock.patch.object(operators, "_block_csr", recorded), \
            contextlib.suppress(KernelHandlingError):
        klmn_optimal_c1(mesh, v2, c2)
    B = built[-1]       # the kinetic matrix is built first
    assert B.has_canonical_format
    want = sla.block_diag(*(v2[mesh.interior] - c2 * np.eye(mesh.fiber_dim)))
    assert np.array_equal(B.toarray(), want)


def test_dirichlet_free_klmn_takes_dense_route(monkeypatch):
    # random Haar transports leave A without a kernel, but with no Dirichlet
    # vertex nothing certifies that, so the pencil route must not run
    mesh = random_bundle_mesh(12, fiber_dim=2, seed=4)
    v2 = psd_field(mesh, np.random.default_rng(4))
    want = _klmn_dense(*dense_pencil(mesh, v2, 0.5))

    def no_pencil(A, B):
        raise AssertionError("pencil route on a Dirichlet-free mesh")

    monkeypatch.setattr(operators, "_klmn_pencil", no_pencil)
    assert want > 0.0
    assert klmn_optimal_c1(mesh, v2, 0.5) == want


def test_dirichlet_free_klmn_memory_and_agreement(traced_peak):
    # 600 DOF and no Dirichlet vertex: the dense route holds one dense copy
    # of A and its eigenvectors, then the eigenvectors and the reduced
    # pencil, two n x n arrays at a time besides blocks of columns
    mesh = random_bundle_mesh(300, fiber_dim=2, seed=2)
    v2 = psd_field(mesh, np.random.default_rng(2))
    A, B = dense_pencil(mesh, v2, 0.5)
    n = A.shape[0]
    assert n == 600
    got = []
    assert traced_peak(lambda: got.append(klmn_optimal_c1(mesh, v2, 0.5))) <= 2.5 * n * n * 16
    # Haar transports leave A without a kernel, so C1 is the top eigenvalue
    # of the pencil itself
    assert np.linalg.eigvalsh(A)[0] > 1e-6
    assert got[0] == pytest.approx(sla.eigh(B, A, eigvals_only=True)[-1], rel=1e-10)


def flat_closed(mesh):
    """The same weighted graph, identity transports, no Dirichlet vertex: ker A = constants."""
    return BundleMesh(fiber_dim=mesh.fiber_dim, mu=mesh.mu,
                      dirichlet=np.zeros(mesh.n_vertices, dtype=bool),
                      edge_u=mesh.edge_u, edge_v=mesh.edge_v, edge_w=mesh.edge_w,
                      transports=np.broadcast_to(np.eye(mesh.fiber_dim), mesh.transports.shape))


@settings(max_examples=30)
@given(meshes(), st.floats(0.05, 1.0))
def test_klmn_schur_route_matches_bisection(case, margin):
    # on the constants, B is the mu-average of V2 less C2; a C2 just above
    # its top eigenvalue keeps B negative there but not everywhere, so the
    # Schur term is nonzero.  C1 is the least c >= 0 with B - c A <= 0.
    mesh, rng = case
    mesh = flat_closed(mesh)
    v2 = psd_field(mesh, rng)
    mean = np.einsum("u,uij->ij", mesh.mu, v2) / mesh.mu.sum()
    c2 = float(np.linalg.eigvalsh(mean)[-1]) * (1.0 + margin)
    A, B = dense_pencil(mesh, v2, c2)

    def top(c):
        return np.linalg.eigvalsh(B - c * A)[-1]

    lo, hi = 0.0, 1.0
    while top(hi) > 0.0:
        lo, hi = hi, 2.0 * hi
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        lo, hi = (mid, hi) if top(mid) > 0.0 else (lo, mid)
    assert klmn_optimal_c1(mesh, v2, c2) == pytest.approx(hi, rel=1e-8, abs=1e-10)

"""Discrete Bochner Laplacians, forms, KLMN pencils, spectra.

Spectral oracles used here:

  * 2-vertex chain, w = 1, mu = 1: eigenvalues {0, 1}.
  * k-cycle with flux theta: {1 - cos((2 pi j + theta)/k)}.
  * Dirichlet path on [0, 5], h = 1: {1 - cos(j pi / 5)}, j = 1..4.
  * 2-vertex KLMN pencil with V2 = diag(1, 0), C2 = 3/4: optimal C1 = 3/4
    (hand optimization over the two-dimensional section space).
  * positive-definite pencil with V2 - C2 = identity: C1 = 1/lambda_min.
"""

import math

import numpy as np
import pytest
import scipy.linalg as sla
import scipy.sparse as sp
import scipy.sparse.linalg as spla

from katoform import bundled, operators
from katoform.errors import ConvergenceError, KernelHandlingError, MeshError
from katoform.mesh import (BundleMesh, _haar_block, cycle_mesh, gauge_transform,
                           grid_mesh_2d, interval_mesh, random_bundle_mesh,
                           trivial_line)
from katoform.operators import (_as_matrix_field, _assemble, bochner_laplacian,
                                form_limit_check,
                                form_sum_spectrum,
                                kato_inequality_gap, klmn_optimal_c1,
                                quad_form,
                                semigroup_domination_gap, semigroup_evolve)


def two_vertex():
    return BundleMesh(fiber_dim=1, mu=[1.0, 1.0], dirichlet=[False, False],
                      edge_u=[0], edge_v=[1], edge_w=[1.0],
                      transports=np.eye(1, dtype=complex)[None])


def random_section(mesh, rng):
    f = (rng.standard_normal((mesh.n_vertices, mesh.fiber_dim))
         + 1j * rng.standard_normal((mesh.n_vertices, mesh.fiber_dim)))
    norm = math.sqrt(float(np.sum(mesh.mu * np.sum(np.abs(f) ** 2, axis=1))))
    return f / norm


# ---------------------------------------------------------------------------
# spectra against closed forms

def test_two_vertex_spectrum():
    spec = form_sum_spectrum(two_vertex())
    assert np.allclose(spec.eigenvalues, [0.0, 1.0], atol=1e-12)


def test_cycle_spectrum_with_flux():
    k, theta = 3, math.pi / 3.0
    spec = form_sum_spectrum(cycle_mesh(k, theta=theta))
    expect = sorted(1.0 - math.cos((2 * math.pi * j + theta) / k)
                    for j in range(k))
    assert np.allclose(spec.eigenvalues, expect, atol=1e-12)


def test_cycle_flux_shifts_ground_state():
    # zero flux has a zero mode; any nonzero flux lifts it
    assert form_sum_spectrum(cycle_mesh(4, 0.0)).lowest == pytest.approx(
        0.0, abs=1e-13)
    assert form_sum_spectrum(cycle_mesh(4, 1.0)).lowest > 0.01


def test_dirichlet_path_spectrum():
    mesh = interval_mesh(0.0, 5.0, 1.0)
    spec = form_sum_spectrum(mesh)
    expect = sorted(1.0 - math.cos(j * math.pi / 5.0) for j in range(1, 5))
    assert np.allclose(spec.eigenvalues, expect, atol=1e-12)


def test_interval_spacing_scaling():
    # refinement approaches the continuum Dirichlet value pi^2/(2 L^2)
    lam = [form_sum_spectrum(interval_mesh(0.0, 1.0, h)).lowest
           for h in (1.0 / 8, 1.0 / 32, 1.0 / 128)]
    target = math.pi ** 2 / 2.0
    errs = [abs(x - target) for x in lam]
    assert errs[0] > errs[1] > errs[2]
    assert errs[2] < 1e-3 * target


def test_gauge_invariant_spectrum():
    mesh = random_bundle_mesh(9, fiber_dim=2, seed=4, dirichlet_count=1)
    rng = np.random.default_rng(8)
    gauges = _haar_block(9, 2, rng)
    a = form_sum_spectrum(mesh).eigenvalues
    b = form_sum_spectrum(gauge_transform(mesh, gauges)).eigenvalues
    assert np.allclose(a, b, atol=1e-10)


def test_spectrum_residuals_small():
    mesh = random_bundle_mesh(12, fiber_dim=2, seed=5)
    spec = form_sum_spectrum(mesh)
    assert float(np.max(spec.residuals)) < 1e-10


def test_sparse_path_matches_dense():
    mesh = random_bundle_mesh(30, fiber_dim=2, seed=6, dirichlet_count=2)
    dense = form_sum_spectrum(mesh)
    part = form_sum_spectrum(mesh, k=5)
    assert np.allclose(part.eigenvalues, dense.eigenvalues[:5], atol=1e-9)


def test_lanczos_route_matches_dense_with_negative_potential():
    # 37 x 37 Peierls grid: 35^2 = 1225 interior DOF, above the dense cutoff
    mesh = grid_mesh_2d(1.8, 0.1, b_field=1.0)
    V = -20.0 * np.exp(-np.sum(mesh.positions ** 2, axis=1))
    part = form_sum_spectrum(mesh, V=V, k=6)
    dense = form_sum_spectrum(mesh, V=V)
    assert part.method == "lanczos" and dense.method == "dense"
    assert part.lowest < 0.0
    assert np.allclose(part.eigenvalues, dense.eigenvalues[:6], rtol=0.0, atol=1e-9)


def test_lanczos_route_with_singular_operator():
    # no Dirichlet vertices and no field: the constants span the kernel of
    # A, and the shift below the Gershgorin bound keeps A - sigma I definite
    mesh = grid_mesh_2d(1.7, 0.1, dirichlet_boundary=False)
    assert mesh.n_vertices == 1225
    part = form_sum_spectrum(mesh, k=5)
    dense = form_sum_spectrum(mesh)
    assert part.method == "lanczos"
    assert abs(part.lowest) < 1e-9
    assert np.allclose(part.eigenvalues, dense.eigenvalues[:5], rtol=0.0, atol=1e-9)


def test_real_operator_solves_in_real_arithmetic(monkeypatch):
    # the Coulomb interval carries no phase, so its dense solve runs on the
    # real part; a flux cycle keeps the complex solve and complex eigenvectors
    seen = []
    eigh = operators._dense_eigh

    def spy(a, *args, **kwargs):
        lam, Q = eigh(a, *args, **kwargs)
        seen.append(Q.dtype)
        return lam, Q

    monkeypatch.setattr(operators, "_dense_eigh", spy)
    mesh, values = bundled.coulomb_interval_system()
    spec = form_sum_spectrum(mesh, V=values)
    dense = _assemble(mesh, _as_matrix_field(mesh, values))[0].toarray()
    forced = np.linalg.eigvalsh(dense)      # complex128 input, complex solver
    scale = max(1.0, float(np.abs(dense).max()))
    assert dense.dtype == np.complex128 and spec.method == "dense"
    assert seen == [np.float64]
    np.testing.assert_allclose(spec.eigenvalues, forced, rtol=0.0, atol=1e-12 * scale)
    assert float(spec.residuals.max()) < 1e-8 * scale

    flux = form_sum_spectrum(cycle_mesh(7, theta=0.7))
    assert seen[-1] == np.complex128
    assert float(flux.residuals.max()) < 1e-10

    # Lanczos too: the field-free grid factors and iterates in float64, a
    # Peierls grid stays complex.  Its memory is one SuperLU factor, made
    # in 4-column panels, and a Krylov basis of 2k + 1 vectors
    eigsh, splu, lanczos, panels = spla.eigsh, spla.splu, [], []

    def eigsh_spy(A, *args, **kwargs):
        lanczos.append((A.dtype, kwargs["OPinv"].dtype, kwargs["k"], kwargs["ncv"]))
        return eigsh(A, *args, **kwargs)

    def splu_spy(M, *args, **kwargs):
        panels.append(kwargs["panel_size"])
        return splu(M, *args, **kwargs)

    monkeypatch.setattr(spla, "eigsh", eigsh_spy)
    monkeypatch.setattr(spla, "splu", splu_spy)
    free_grid = grid_mesh_2d(1.7, 0.1, dirichlet_boundary=False)
    free = form_sum_spectrum(free_grid, k=5)
    grid = grid_mesh_2d(1.8, 0.1, b_field=1.0)
    peierls = form_sum_spectrum(grid, k=6)
    assert free.method == peierls.method == "lanczos"
    assert lanczos == [(np.float64, np.float64, 5, 11), (np.complex128, np.complex128, 6, 13)]
    assert panels == [4, 4]
    assert abs(free.lowest) < 1e-9 and peierls.lowest > 0.0
    A = _assemble(grid)[0]
    assert (grid.n_vertices, A.shape) == (1369, (1225, 1225))    # the wall is Dirichlet
    want = operators._dense_eigh(A, (0, 5))[0]
    np.testing.assert_allclose(peierls.eigenvalues, want, rtol=1e-10, atol=0.0)

    # the smallest bases, 3 to 7 vectors, still find the k lowest: on the
    # Peierls grid, and across the field-free grid's degenerate pair
    # 0.4026 (twice), which k = 2 splits and k = 3 holds whole
    for k in (1, 2, 3):
        part = form_sum_spectrum(grid, k=k)
        assert lanczos[-1][2:] == (k, 2 * k + 1)
        np.testing.assert_allclose(part.eigenvalues, want[:k], rtol=1e-10, atol=0.0)
    want = operators._dense_eigh(_assemble(free_grid)[0], (0, 2))[0]
    assert want[2] - want[1] < 1e-12 < want[1] - want[0]
    for k in (2, 3):
        part = form_sum_spectrum(free_grid, k=k)
        assert lanczos[-1][2:] == (k, 2 * k + 1)
        np.testing.assert_allclose(part.eigenvalues, want[:k], rtol=0.0, atol=1e-10)


@pytest.mark.parametrize("case", ["coulomb", "bundle"])
def test_dense_spectrum_memory_and_agreement(traced_peak, case):
    # one dense copy of A, overwritten by the solver, and the eigenvectors:
    # two n x n arrays, the residual taking a block of columns at a time.
    # The real tridiagonal Coulomb A makes no copy and holds the
    # eigenvectors alone: 1.20 n^2 measured.
    if case == "coulomb":
        mesh, values = bundled.coulomb_interval_system()
        field = _as_matrix_field(mesh, values)
    else:
        mesh, values = random_bundle_mesh(400, fiber_dim=2, seed=1, dirichlet_count=1), None
        field = None
    dense = _assemble(mesh, field)[0].toarray()
    if not np.any(dense.imag):
        dense = dense.real
    n, itemsize = dense.shape[0], dense.itemsize
    assert (n, itemsize) == ((1022, 8) if case == "coulomb" else (798, 16))
    out = []
    bound = 1.3 if case == "coulomb" else 2.2
    assert traced_peak(lambda: out.append(form_sum_spectrum(mesh, V=values))) \
        <= bound * n * n * itemsize
    spec = out[0]
    scale = max(1.0, float(np.abs(dense).max()))
    assert spec.method == "dense" and spec.eigenvalues.shape == (n,)
    np.testing.assert_allclose(spec.eigenvalues, np.linalg.eigvalsh(dense),
                               rtol=0.0, atol=1e-12 * scale)
    assert float(spec.residuals.max()) < 1e-8 * scale
    part = form_sum_spectrum(mesh, V=values, k=5)
    assert part.method == "dense" and part.eigenvalues.shape == (5,)
    np.testing.assert_allclose(part.eigenvalues, spec.eigenvalues[:5],
                               rtol=0.0, atol=1e-12 * scale)
    assert float(part.residuals.max()) < 1e-8 * scale


def _no_dense(monkeypatch):
    """Make every sparse-to-dense conversion raise."""
    def no_dense(self, *args, **kwargs):
        raise AssertionError("dense matrix formed")

    for cls in (sp.csr_matrix, sp.csc_matrix, sp.coo_matrix):
        monkeypatch.setattr(cls, "toarray", no_dense)
        monkeypatch.setattr(cls, "todense", no_dense)


@pytest.mark.parametrize("k", [None, 5])
def test_tridiagonal_route_matches_dense_solve_bit_for_bit(k):
    # the tridiagonal solvers are the kernels the dense ?syevr ends in, and
    # its reduction of a tridiagonal matrix is exact
    mesh, values = bundled.coulomb_interval_system()
    spec = form_sum_spectrum(mesh, V=values, k=k)
    A = _assemble(mesh, _as_matrix_field(mesh, values))[0].real
    lam, Q = sla.eigh(A.toarray(), driver="evr",
                      subset_by_index=None if k is None else (0, k - 1))
    assert spec.method == "dense"
    assert np.array_equal(spec.eigenvalues, lam)
    assert np.array_equal(spec.residuals, operators._residual_norms(A, lam, Q))


def test_tridiagonal_route_forms_no_dense_matrix(monkeypatch):
    mesh, values = bundled.coulomb_interval_system()
    want = {k: form_sum_spectrum(mesh, V=values, k=k).eigenvalues for k in (None, 5)}
    _no_dense(monkeypatch)
    with pytest.raises(AssertionError):
        _assemble(mesh)[0].toarray()
    for k, lam in want.items():
        spec = form_sum_spectrum(mesh, V=values, k=k)
        assert spec.method == "dense"
        assert np.array_equal(spec.eigenvalues, lam)


def test_tridiagonal_route_beyond_the_dense_limit(monkeypatch):
    # 9,999 DOF: no dense copy is formed, so no size limit sends the chain
    # to shift-invert Lanczos; eigenvalues (1 - cos(j pi / K)) / h^2, in a
    # form that does not cancel
    def no_splu(*args, **kwargs):
        raise AssertionError("splu called")

    monkeypatch.setattr(spla, "splu", no_splu)
    h, K = 0.01, 10_000
    spec = form_sum_spectrum(interval_mesh(0.0, 100.0, h), k=8)
    j = np.arange(1, 9)
    want = 2.0 * np.sin(0.5 * j * math.pi / K) ** 2 / h ** 2
    assert spec.method == "dense" and spec.eigenvalues.shape == (8,)
    np.testing.assert_allclose(spec.eigenvalues, want, rtol=0.0, atol=1e-13 / h ** 2)
    assert float(spec.residuals.max()) < 1e-8 / h ** 2


@pytest.mark.parametrize("k", [0, -1, 2.5, 3.0, True, "3"])
def test_spectrum_rejects_bad_k(monkeypatch, k):
    # unchecked, k = -1 would slice off the top eigenvalue and k = 0 return
    # nothing; checked before any assembly, a bad k costs no matrix
    def unreachable(*args, **kwargs):
        raise AssertionError("assembled before checking k")

    monkeypatch.setattr(operators, "_assemble", unreachable)
    with pytest.raises(MeshError, match="positive integer"):
        form_sum_spectrum(cycle_mesh(7, theta=0.7), k=k)


def test_lanczos_route_rejects_zero_k():
    # above the dense cutoff, k = 0 must not reach ARPACK
    mesh = grid_mesh_2d(1.8, 0.1, b_field=1.0)
    with pytest.raises(MeshError, match="positive integer"):
        form_sum_spectrum(mesh, k=0)


@pytest.mark.parametrize("k", [3, np.int64(3), 6, 7, 100])
def test_spectrum_k_lowest_pairs(k):
    # k >= dim returns every pair
    mesh = cycle_mesh(7, theta=0.7)
    full = form_sum_spectrum(mesh)
    spec = form_sum_spectrum(mesh, k=k)
    assert spec.eigenvalues.shape == (min(int(k), 7),)
    np.testing.assert_allclose(spec.eigenvalues, full.eigenvalues[:k],
                               rtol=0.0, atol=1e-14)


# ---------------------------------------------------------------------------
# forms and operators

def test_scalar_equals_bundle_for_trivial_line():
    mesh = interval_mesh(0.0, 2.0, 0.5)
    a = bochner_laplacian(mesh).toarray()
    b = bochner_laplacian(trivial_line(mesh)).toarray()
    assert np.allclose(a, b)


def test_quad_form_matches_matrix_form():
    mesh = random_bundle_mesh(10, fiber_dim=2, seed=7, dirichlet_count=1)
    rng = np.random.default_rng(0)
    f = random_section(mesh, rng)
    q = quad_form(mesh, f).kinetic
    # independent route: mu-weighted inner product with the generator
    L = bochner_laplacian(mesh)
    live = ~mesh.dirichlet
    g = f.copy()
    g[mesh.dirichlet] = 0.0
    flat = g.reshape(-1)[np.repeat(live, mesh.fiber_dim)]
    mu_dof = np.repeat(np.asarray(mesh.mu)[live], mesh.fiber_dim)
    expect = float(np.real(np.vdot(flat * mu_dof, L @ flat)))
    assert q == pytest.approx(expect, rel=1e-11)


def test_quad_form_potential_term():
    mesh = two_vertex()
    f = np.array([[1.0 + 0j], [2.0]])
    vals = np.array([3.0, -1.0])
    fv = quad_form(mesh, f, V=vals)
    assert fv.potential == pytest.approx(3.0 * 1.0 - 1.0 * 4.0)


# ---------------------------------------------------------------------------
# kinetic comparison and domination

def test_kato_gap_equality_for_positive_scalar_sections():
    mesh = interval_mesh(0.0, 3.0, 0.5)
    rng = np.random.default_rng(1)
    f = np.abs(rng.standard_normal((mesh.n_vertices, 1))) + 0.1
    assert abs(kato_inequality_gap(mesh, f)) < 1e-12


def test_kato_gap_nonnegative_random():
    rng = np.random.default_rng(2)
    for seed in range(5):
        mesh = random_bundle_mesh(10, fiber_dim=2, seed=seed)
        for _ in range(20):
            f = random_section(mesh, rng)
            assert kato_inequality_gap(mesh, f) >= -1e-12


def test_kato_gap_strictly_positive_with_flux():
    mesh = cycle_mesh(3, theta=1.0)
    f = np.array([[1.0 + 0j], [1.0], [1.0]])
    assert kato_inequality_gap(mesh, f) > 0.1


def test_domination_gap_nonnegative():
    rng = np.random.default_rng(3)
    for seed in range(3):
        mesh = random_bundle_mesh(12, fiber_dim=2, seed=seed,
                                  dirichlet_count=1)
        for t in (0.1, 1.0, 10.0):
            f = random_section(mesh, rng)
            assert semigroup_domination_gap(mesh, f, t) >= -1e-10


def test_semigroup_evolve_matches_dense_exponential():
    mesh = random_bundle_mesh(8, fiber_dim=2, seed=13, dirichlet_count=1)
    rng = np.random.default_rng(4)
    f = random_section(mesh, rng)
    t = 0.7
    got = semigroup_evolve(mesh, f, t)

    # independent dense route on the generator L = M^{-1} K
    L = bochner_laplacian(mesh).toarray()
    live = np.repeat(~mesh.dirichlet, mesh.fiber_dim)
    g = f.copy()
    g[mesh.dirichlet] = 0.0
    flat = g.reshape(-1)[live]
    evolved = sla.expm(-t * L) @ flat
    expect = np.zeros(mesh.n_vertices * mesh.fiber_dim, dtype=complex)
    expect[live] = evolved
    assert np.allclose(got.reshape(-1), expect, atol=1e-10)


def test_semigroup_refuses_where_its_bound_fails():
    # Weyl's floor is min V = -64 at the vertices beside the origin, far
    # below the ground energy -1/2: at t = 1 the bound carries e^{64} and
    # the call must raise rather than answer; at t = 0.01 it is certified
    mesh, values = bundled.coulomb_interval_system()
    f = np.exp(-mesh.positions[:, :1] ** 2)
    with pytest.raises(ConvergenceError, match="misses its target"):
        semigroup_evolve(mesh, f, 1.0, V=values)
    got = semigroup_evolve(mesh, f, 0.01, V=values)
    A, root = _assemble(mesh, _as_matrix_field(mesh, values))
    g = f[mesh.interior, 0] * root
    want = sla.expm(-0.01 * A.toarray()) @ g
    assert np.linalg.norm(got[mesh.interior, 0] * root - want) <= 1e-13 * np.linalg.norm(want)


def test_semigroup_refuses_a_huge_time_before_any_coefficient(monkeypatch):
    # t = 1e13 would need about 5e7 Chebyshev terms: refused before a
    # single Bessel coefficient (or any array of them) is computed
    def refuse(*args):
        raise AssertionError("coefficients computed")

    monkeypatch.setattr(operators.scipy.special, "ive", refuse)
    mesh = random_bundle_mesh(8, fiber_dim=2, seed=1)
    ones = np.ones((mesh.n_vertices, mesh.fiber_dim))
    with pytest.raises(ConvergenceError, match="budget"):
        semigroup_evolve(mesh, ones, 1e13)


def test_chebyshev_term_budget_bounds_the_order(monkeypatch):
    """At a budget one below the order tau = 100 needs, the doubling search raises."""
    a, tail = operators._chebyshev_coefficients(100.0)
    order = a.size - 1
    monkeypatch.setattr(operators, "_CHEBYSHEV_TERMS", order + 1)
    b, same_tail = operators._chebyshev_coefficients(100.0)
    assert np.array_equal(a, b) and tail == same_tail
    monkeypatch.setattr(operators, "_CHEBYSHEV_TERMS", order - 1)
    with pytest.raises(ConvergenceError, match="Chebyshev terms"):
        operators._chebyshev_coefficients(100.0)


def test_semigroup_evolve_preserves_positivity_scalar():
    mesh = interval_mesh(0.0, 3.0, 0.25)
    f = np.zeros((mesh.n_vertices, 1))
    f[5, 0] = 1.0
    out = semigroup_evolve(trivial_line(mesh), f, 0.5)
    live = ~mesh.dirichlet
    assert np.all(np.real(out[live]) >= -1e-14)


@pytest.mark.parametrize("c", [1.5, -0.7])
def test_scalar_semigroup_with_a_constant_potential(c):
    """On the trivial line, V = c commutes with H(0): e^{-t H(c)} = e^{-ct} e^{-t H(0)}."""
    line = trivial_line(random_bundle_mesh(12, fiber_dim=2, seed=3, dirichlet_count=2))
    f = np.abs(np.random.default_rng(3).standard_normal((line.n_vertices, 1)))
    t = 0.4
    free = semigroup_evolve(line, f, t)
    shifted = semigroup_evolve(line, f, t, V=np.full(line.n_vertices, c))
    np.testing.assert_allclose(shifted, math.exp(-c * t) * free, rtol=0.0,
                               atol=1e-12 * np.linalg.norm(free))


# ---------------------------------------------------------------------------
# KLMN pencil

def test_klmn_two_vertex_hand_oracle():
    mesh = two_vertex()
    v2 = np.array([1.0, 0.0])
    assert klmn_optimal_c1(mesh, v2, 0.75) == pytest.approx(0.75, abs=1e-10)


def test_klmn_definite_identity_shift():
    mesh = interval_mesh(0.0, 3.0, 1.0)   # two interior vertices
    c2 = 0.5
    v2 = np.full(mesh.n_vertices, 1.0 + c2)
    a_sym = _assemble(mesh)[0].toarray()
    lam_min = float(np.linalg.eigvalsh(a_sym)[0])
    assert klmn_optimal_c1(mesh, v2, c2) == pytest.approx(1.0 / lam_min,
                                                          rel=1e-10)


def test_klmn_zero_when_shift_covers_potential():
    mesh = two_vertex()
    v2 = np.array([0.5, 0.5])
    assert klmn_optimal_c1(mesh, v2, 1.0) == 0.0


def test_klmn_matches_bisection_oracle():
    # independent route: bisect the smallest c with c*A - W >= 0
    mesh = random_bundle_mesh(9, fiber_dim=2, seed=17, dirichlet_count=2)
    rng = np.random.default_rng(5)
    base = rng.standard_normal((9, 2, 2)) + 1j * rng.standard_normal((9, 2, 2))
    herm = 0.5 * (base + np.conj(np.transpose(base, (0, 2, 1))))
    v2 = np.einsum("vij,vkj->vik", herm, np.conj(herm))  # PSD blocks
    c2 = 0.3
    got = klmn_optimal_c1(mesh, v2, c2)

    a_sym = _assemble(mesh)[0].toarray()
    live = np.repeat(~mesh.dirichlet, mesh.fiber_dim)
    blocks = sla.block_diag(*[v2[i] for i in range(9)])
    w = (blocks - c2 * np.eye(18))[np.ix_(live, live)]

    def feasible(c):
        return float(np.linalg.eigvalsh(c * a_sym - w)[0]) >= -1e-11

    lo, hi = 0.0, 1.0
    while not feasible(hi):
        hi *= 2.0
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if feasible(mid):
            hi = mid
        else:
            lo = mid
    assert got == pytest.approx(hi, abs=1e-6)


SCALE_VERTICES = 12


def rotated_field(diagonal):
    """Q diag(d) Q^H at each vertex, Q Haar: Hermitian up to rounding relative to |d|."""
    Q = _haar_block(SCALE_VERTICES, 3, np.random.default_rng(1))
    d = np.broadcast_to(np.asarray(diagonal, dtype=float), (SCALE_VERTICES, 3))
    return np.einsum("uij,uj,ukj->uik", Q, d, Q.conj())


def scale_mesh():
    return random_bundle_mesh(SCALE_VERTICES, fiber_dim=3, seed=3, dirichlet_count=1)


@pytest.mark.parametrize("s", [1e6, 1e8])
def test_potential_checks_are_relative_to_its_size(s):
    # at s = 1e6 the rounding of Q D Q^H once broke the absolute 1e-10 of the
    # Hermitian check (defect 1.16e-10) and of klmn_optimal_c1's PSD check
    mesh = scale_mesh()
    spec = form_sum_spectrum(mesh, V=rotated_field([s, -0.3 * s, 0.0]), k=2)
    assert np.all(np.isfinite(spec.eigenvalues)) and spec.eigenvalues[0] < 0.0

    def c1(scale):
        V2 = rotated_field([scale, 0.0, 0.0])
        return klmn_optimal_c1(mesh, 0.5 * (V2 + V2.conj().transpose(0, 2, 1)), scale / 2)

    assert c1(s) == pytest.approx(s * c1(1.0), rel=1e-8)


@pytest.mark.parametrize("s", [1.0, 1e4, 1e6, 1e8])
def test_relative_hermitian_defect_is_refused_at_every_size(s):
    mesh = scale_mesh()
    V = rotated_field([s, -0.3 * s, 0.0])
    V[np.flatnonzero(mesh.interior)[0], 0, 1] += 1e-6 * s
    with pytest.raises(MeshError, match="not Hermitian"):
        form_sum_spectrum(mesh, V=V, k=2)


def test_hermitian_check_survives_an_overflowing_size():
    # |1.5e308 (1 + i)| overflows: a size read from it would accept any defect
    V = np.zeros((2, 2, 2), dtype=complex)
    V[0, 0, 1], V[0, 1, 0] = 1.5e308 * (1 + 1j), 1.5e308 * (1 - 1j)
    V[1, 0, 1], V[1, 1, 0] = 1e308, -1e308
    with pytest.raises(MeshError, match="not Hermitian"):
        operators._check_hermitian(V, "field")


def test_klmn_rejects_negative_v2():
    mesh = two_vertex()
    with pytest.raises(MeshError):
        klmn_optimal_c1(mesh, np.array([-1.0, 0.0]), 0.5)


@pytest.mark.parametrize("t", [-1.0, math.nan, math.inf])
def test_semigroup_evolve_rejects_bad_time(t):
    with pytest.raises(MeshError, match="nonnegative and finite"):
        semigroup_evolve(two_vertex(), np.ones((2, 1)), t)
    mesh = random_bundle_mesh(8, fiber_dim=2, seed=1)
    f = random_section(mesh, np.random.default_rng(1))
    for grid in ([t], [1e-3, t], [t, 1e-3, 1e-2]):
        with pytest.raises(MeshError, match="positive and finite"):
            form_limit_check(mesh, f, grid)


def test_klmn_kernel_obstruction():
    # constant vector spans ker(A); a potential exceeding C2 there cannot
    # be compensated by any multiple of the form
    mesh = two_vertex()
    with pytest.raises(KernelHandlingError):
        klmn_optimal_c1(mesh, np.array([2.0, 2.0]), 1.0)


def test_klmn_kernel_coupling_obstruction():
    # W vanishes on the kernel but couples it to the positive modes
    mesh = two_vertex()
    with pytest.raises(KernelHandlingError):
        klmn_optimal_c1(mesh, np.array([2.0, 0.0]), 1.0)


def test_klmn_certifies_lower_bound():
    # once klmn_optimal_c1(V2, C2) <= 1, the form sum obeys H >= -C2
    mesh = interval_mesh(0.0, 4.0, 0.25)
    x = mesh.positions[:, 0]
    vals = np.where(mesh.dirichlet, 0.0, -1.0 / np.maximum(np.abs(x - 2.0), 0.125))
    v2 = np.maximum(-vals, 0.0)
    c2 = 4.0
    c1 = klmn_optimal_c1(mesh, v2, c2)
    lowest = form_sum_spectrum(mesh, V=vals).lowest
    if c1 <= 1.0:
        assert lowest >= -c2 - 1e-10


def _perturbed_vector(eigsh):
    def wrapped(*args, **kwargs):
        lam, X = eigsh(*args, **kwargs)
        return lam, X * (1.0 + 1e-6 * np.random.default_rng(0).standard_normal(X.shape))
    return wrapped


def _no_convergence(eigsh):
    def wrapped(*args, **kwargs):
        raise spla.ArpackNoConvergence("ARPACK error -1: No convergence", [], [])
    return wrapped


@pytest.mark.parametrize("fault", [_perturbed_vector, _no_convergence])
def test_klmn_pencil_raises_on_bad_eigenpair(monkeypatch, fault):
    mesh, values = bundled.coulomb_interval_system()
    v2 = np.maximum(-values, 0.0)
    assert klmn_optimal_c1(mesh, v2, 4.0) > 0.0
    monkeypatch.setattr(spla, "eigsh", fault(spla.eigsh))
    with pytest.raises(ConvergenceError):
        klmn_optimal_c1(mesh, v2, 4.0)


def test_klmn_pencil_on_large_peierls_grid(monkeypatch):
    # 121 x 121 Peierls grid, 14,161 interior DOF, solved without forming a
    # dense matrix; with V2 = a constant, C1 = max(0, (a - C2) / lambda_0)
    mesh = grid_mesh_2d(3.0, 0.05, b_field=1.0)
    _no_dense(monkeypatch)
    with pytest.raises(AssertionError):
        bochner_laplacian(two_vertex()).toarray()
    lam0 = form_sum_spectrum(mesh, k=1).lowest
    c2 = 1.0
    for a in (3.0, 0.5):
        c1 = klmn_optimal_c1(mesh, np.full(mesh.n_vertices, a), c2)
        assert c1 == pytest.approx(max(0.0, (a - c2) / lam0), rel=1e-8)


# ---------------------------------------------------------------------------
# form limit

def test_form_limit_matches_spectral_oracle():
    mesh = random_bundle_mesh(7, fiber_dim=1, seed=19,
                              w_range=(0.05, 0.1))
    rng = np.random.default_rng(6)
    f = random_section(mesh, rng)
    t_grid = [1e-6, 1e-4, 1e-2]
    res = form_limit_check(mesh, f, t_grid)

    # spectral route: Q(t) = sum |c_i|^2 lambda_i h(t lambda_i)
    a_sym = _assemble(mesh)[0].toarray()
    lam, vecs = np.linalg.eigh(a_sym)
    root_mu = np.sqrt(np.repeat(mesh.mu, mesh.fiber_dim))
    coeff = vecs.conj().T @ (root_mu * f.reshape(-1))
    for t, q in zip(t_grid, res.quotients):
        hx = np.where(lam * t > 1e-12,
                      -np.expm1(-lam * t) / np.maximum(lam * t, 1e-300),
                      1.0 - lam * t / 2.0)
        expect = float(np.sum(np.abs(coeff) ** 2 * lam * hx))
        # the exponential route loses about eps/t to cancellation, so the
        # two routes can only be expected to agree to ~1e-10 at t = 1e-6
        assert q == pytest.approx(expect, abs=5e-10)
    assert res.monotone
    assert res.form_value == pytest.approx(
        quad_form(mesh, f).kinetic, rel=1e-12)


def test_form_limit_quotients_increase_as_t_shrinks():
    mesh = random_bundle_mesh(6, fiber_dim=2, seed=23, w_range=(0.02, 0.05))
    rng = np.random.default_rng(7)
    f = random_section(mesh, rng)
    res = form_limit_check(mesh, f, [1e-6, 1e-5, 1e-4, 1e-3, 1e-2])
    qs = res.quotients
    assert all(qs[i] >= qs[i + 1] - 1e-12 for i in range(len(qs) - 1))
    assert res.defect < 1e-8


# ---------------------------------------------------------------------------
# checked input: one conversion per potential, one section check

def nan_chain():
    """The chain on [0, 1] at spacing 1/4, a potential with a NaN inside, and a section."""
    mesh = interval_mesh(0.0, 1.0, 0.25)
    return mesh, np.array([0.0, math.nan, 1.0, 1.0, 0.0]), np.array([0.0, 0.3, 1.0, -0.5, 0.0])


# every public call that takes a potential (klmn_optimal_c1's V2 must be PSD)
POTENTIAL_CALLS = {
    "quad_form": lambda mesh, f, V: quad_form(mesh, f, V=V),
    "semigroup_evolve": lambda mesh, f, V: semigroup_evolve(mesh, f, 0.1, V=V),
    "form_limit_check": lambda mesh, f, V: form_limit_check(mesh, f, [1e-3, 1e-2], V=V),
    "form_sum_spectrum": lambda mesh, f, V: form_sum_spectrum(mesh, V=V),
    "klmn_optimal_c1": lambda mesh, f, V: klmn_optimal_c1(mesh, V, 1.0),
}


def psd_field(mesh, rng):
    n = mesh.fiber_dim
    B = (rng.standard_normal((mesh.n_vertices, n, n))
         + 1j * rng.standard_normal((mesh.n_vertices, n, n)))
    return np.einsum("uij,ukj->uik", B, B.conj())


@pytest.mark.parametrize("call", sorted(POTENTIAL_CALLS))
@pytest.mark.parametrize("bad", ["nan", "complex"])
def test_bad_potential_raises_before_any_solve(monkeypatch, call, bad):
    # a NaN once reached LAPACK's tridiagonal solver, which never returned,
    # or made Weyl's interval [0, 0] and the evolution the identity; a
    # complex 1-D potential lost its imaginary part
    def unreachable(*args, **kwargs):
        raise AssertionError("a solve ran on a bad potential")

    monkeypatch.setattr(operators, "_dense_eigh", unreachable)
    monkeypatch.setattr(operators, "_semigroup_series", unreachable)
    monkeypatch.setattr(operators, "_klmn_pencil", unreachable)
    mesh, V, f = nan_chain()
    if bad == "complex":
        V = np.array([0.0, 1 + 2j, 1.0, 1 - 1j, 0.0])
    with pytest.raises(MeshError, match="not finite" if bad == "nan" else "must be real"):
        POTENTIAL_CALLS[call](mesh, f, V)


@pytest.mark.parametrize("c2", [math.nan, math.inf, -math.inf])
def test_klmn_rejects_non_finite_c2(c2):
    # C2 = inf once took the B <= 0 shortcut to C1 = 0, and nan reached ARPACK
    mesh, _, _ = nan_chain()
    with pytest.raises(MeshError, match="C2 must be finite"):
        klmn_optimal_c1(mesh, np.ones(mesh.n_vertices), c2)


def test_field_checks_name_their_fault():
    mesh = random_bundle_mesh(7, fiber_dim=2, seed=3, dirichlet_count=1)
    rng = np.random.default_rng(3)
    u = int(np.flatnonzero(mesh.interior)[0])
    field = psd_field(mesh, rng)
    for entry, match in ((math.nan, "not finite"), (math.inf, "not finite"),
                         (complex(0.0, math.inf), "not finite"), (5.0, "not Hermitian")):
        bad = field.copy()
        bad[u, 0, 1] = entry
        with pytest.raises(MeshError, match=match):
            form_sum_spectrum(mesh, V=bad)
    with pytest.raises(MeshError, match="block is not finite"):
        operators._check_hermitian(np.full((1, 2, 2), math.nan), "block")
    values = np.zeros(mesh.n_vertices, dtype=complex)
    values[u] = 1j
    with pytest.raises(MeshError, match="must be real"):
        _as_matrix_field(mesh, values)
    # a complex array with no imaginary part is real
    assert np.array_equal(_as_matrix_field(mesh, values.real + 0j),
                          _as_matrix_field(mesh, values.real))


def assert_same_result(got, want, name):
    """Every field of a result object, or the plain result, equal bit for bit."""
    fields = vars(want) if hasattr(want, "__dict__") else {"value": want}
    for key, value in fields.items():
        assert np.array_equal(getattr(got, key, got), value), (name, key)


def test_non_finite_potential_at_dirichlet_vertices_runs():
    # Dirichlet blocks never enter a form and are not checked: the results
    # are those of the potential that is zero there, bit for bit
    mesh, _, f = nan_chain()
    bundle = random_bundle_mesh(8, fiber_dim=2, seed=4, dirichlet_count=2)
    rng = np.random.default_rng(4)
    clean_field = psd_field(bundle, rng)
    clean_field[bundle.dirichlet] = 0.0
    dirty_field = clean_field.copy()
    dirty_field[bundle.dirichlet] = math.nan
    clean = np.array([0.0, 0.5, 1.0, 1.0, 0.0])
    cases = ((mesh, f, clean, np.array([math.nan, 0.5, 1.0, 1.0, math.inf])),
             (bundle, random_section(bundle, rng), clean_field, dirty_field))
    for m, g, V, dirty in cases:
        for name, call in POTENTIAL_CALLS.items():
            assert_same_result(call(m, g, dirty), call(m, g, V), name)


def test_each_call_converts_its_potential_once_and_checks_its_section_once(monkeypatch):
    counts = {}
    for name in ("_as_matrix_field", "_section"):
        def spy(mesh, x, _real=getattr(operators, name), _name=name):
            if x is not None:       # None, no potential, passes through
                counts[_name] = counts.get(_name, 0) + 1
            return _real(mesh, x)

        monkeypatch.setattr(operators, name, spy)
    mesh = random_bundle_mesh(8, fiber_dim=2, seed=4, dirichlet_count=1)
    rng = np.random.default_rng(4)
    f = random_section(mesh, rng)
    checks_section = {"quad_form", "semigroup_evolve", "form_limit_check"}
    for V in (psd_field(mesh, rng), rng.random(mesh.n_vertices)):
        for name, call in POTENTIAL_CALLS.items():
            counts.clear()
            call(mesh, f, V)
            want = {"_as_matrix_field": 1, "_section": int(name in checks_section)}
            assert counts == {k: v for k, v in want.items() if v}, name
    for call in (lambda: semigroup_domination_gap(mesh, f, 0.1),
                 lambda: kato_inequality_gap(mesh, f),
                 lambda: semigroup_evolve(trivial_line(mesh), np.abs(f[:, 0]), 0.1)):
        counts.clear()
        call()
        assert counts == {"_section": 1}


def test_evolutions_take_one_section():
    mesh = random_bundle_mesh(8, fiber_dim=2, seed=4, dirichlet_count=1)
    rng = np.random.default_rng(4)
    stack = np.stack([random_section(mesh, rng) for _ in range(2)])
    calls = (lambda g: semigroup_evolve(mesh, g, 0.1),
             lambda g: semigroup_domination_gap(mesh, g, 0.1),
             lambda g: form_limit_check(mesh, g, [1e-3]))
    for call in calls:
        for g in (stack, stack[:1]):
            with pytest.raises(MeshError, match="one section, not a stack"):
                call(g)
        call(stack[0])


def test_forms_take_one_section():
    # a stack (S, N, n) once gave arrays of S values; now every
    # section-taking call refuses it with the evolutions' error
    mesh = random_bundle_mesh(8, fiber_dim=2, seed=4, dirichlet_count=1)
    rng = np.random.default_rng(4)
    stack = np.stack([random_section(mesh, rng) for _ in range(2)])
    for call in (quad_form, kato_inequality_gap):
        for g in (stack, stack[:1]):
            with pytest.raises(MeshError, match="one section, not a stack"):
                call(mesh, g)
    for V in (None, rng.random(mesh.n_vertices)):
        fv = quad_form(mesh, stack[0], V=V)
        assert type(fv.kinetic) is float and type(fv.potential) is float
    assert type(kato_inequality_gap(mesh, stack[0])) is float


SECTION_CALLS = {
    "quad_form": lambda mesh, f: quad_form(mesh, f, V=np.ones(mesh.n_vertices)),
    "kato_inequality_gap": kato_inequality_gap,
    "semigroup_evolve": lambda mesh, f: semigroup_evolve(mesh, f, 0.1),
    "semigroup_domination_gap": lambda mesh, f: semigroup_domination_gap(mesh, f, 0.1),
    "form_limit_check": lambda mesh, f: form_limit_check(mesh, f, [1e-3, 1e-2]),
}


@pytest.mark.parametrize("entry", [math.nan, math.inf, complex(0.0, -math.inf)])
def test_non_finite_section_raises_at_interior_vertices(entry):
    # a NaN inside once gave nan forms, and a misleading ConvergenceError
    # ("semigroup error bound nan") from the evolutions; at a Dirichlet
    # vertex it is zeroed first, and the results are those of the section
    # that is zero there, bit for bit
    mesh = random_bundle_mesh(8, fiber_dim=2, seed=4, dirichlet_count=2)
    rng = np.random.default_rng(4)
    clean = random_section(mesh, rng)
    clean[mesh.dirichlet] = 0.0
    inside, dirty = clean.copy(), clean.copy()
    inside[np.flatnonzero(mesh.interior)[1], 1] = entry
    dirty[mesh.dirichlet] = entry
    for name, call in SECTION_CALLS.items():
        with pytest.raises(MeshError, match="section is not finite"):
            call(mesh, inside)
        assert_same_result(call(mesh, dirty), call(mesh, clean), name)

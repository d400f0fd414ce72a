"""Operators and quadratic forms on bundle meshes.

Everything acts on sections restricted to non-Dirichlet vertices, stacked
as one complex vector with fiber blocks in vertex order.  Two matrix
pictures are used:

* the generator L with (L f)_u = (1 / 2 mu_u) sum_v w_uv (f_u - U_vu f_v),
  which is symmetric in the mu-weighted inner product, and
* its symmetrization A = M^{-1/2} K M^{-1/2} (K the stiffness matrix,
  M = diag(mu)), a genuinely Hermitian matrix with the same spectrum.

The scalar picture of Kato's inequality and semigroup domination is the
trivial line bundle on the same graph (fibre 1, unit transports), the mesh
``katoform.mesh.trivial_line`` builds: every operator here applies to it
as to any other mesh, potentials included.

Quadratic forms are reported against the mu-weighted inner product, which
is where the kinetic form (1/2) sum_e w ||f_u - U f_v||^2, the potential
form sum_u mu_u <V_u f_u, f_u>, and the Kato and domination inequalities
all live.

Each public call converts its potential once (``_as_matrix_field``: real
values or Hermitian blocks, finite at interior vertices) and checks its
section once (``_sections``); evolutions take one section, not a stack.

Every matrix comes from one block-to-CSR constructor, ``_block_csr``,
which sorts the rows of the blocks into CSR order and builds the CSR
arrays from them directly: ``_assemble`` broadcasts the edge arrays into
one list of the diagonal, transport and potential blocks of A, and the
KLMN pencil's B is a list of diagonal blocks.  The section forms
(``quad_form``, ``kato_inequality_gap``) never build a matrix: each is one
einsum over the edge transports and a dot with the edge weights, for one
section (N, n) or a stack (S, N, n).  Spectra are dense up to 1200 degrees
of freedom, in real arithmetic when A has no imaginary part, and
shift-invert Lanczos about a shift below the Gershgorin bound beyond that;
a real tridiagonal A (a chain of fibre 1 with real transports) is dense at
any size, since its solve makes no dense copy.  Lanczos for the k lowest
pairs holds one sparse LU factor of the shifted A and a Krylov basis of
2k + 1 vectors, the smallest with more than 2k, as ARPACK recommends
(scipy's default is at least 20).  Every sparse factorization, of the
shifted A here and of the KLMN pencil's A, is ``_definite_solver``'s: a
symmetric ordering, no pivoting, which positive definiteness allows, and
4-column panels, which keep SuperLU's dense working storage small.

Every dense Hermitian eigensolve goes through ``_dense_eigh``, a direct
LAPACK solve of every pair asked for, which is what method "dense"
reports.  A real tridiagonal sparse matrix goes to the tridiagonal
solvers as its diagonal and subdiagonal: MRRR (?stemr) for every pair,
bisection and inverse iteration (?stebz, ?stein) for an index range.
Those are the kernels that the dense ?syevr ends in, and its reduction
of a tridiagonal matrix is exact, so the pairs are the dense solve's (bit
for bit on the bundled 1-D Coulomb system).  Any other matrix is one
dense copy, overwritten by LAPACK's MRRR solver (?syevr / ?heevr), which
needs only O(n) workspace beside the eigenvectors and computes just the
pairs asked for.  Residuals are formed through the sparse matrix a block
of eigenvector columns at a time, so a dense spectrum holds about one
n x n array (the eigenvectors) at its peak on the tridiagonal route and
two otherwise.

The semigroup e^{-tA} g has one route: a Chebyshev expansion of e^{-tx}
(Tal-Ezer and Kosloff) on a certified interval [lo, hi], with hi the
Gershgorin bound and lo = 0 without a potential (A >= 0), otherwise
min(0, min_u lambda_min(V_u)) over interior vertices (Weyl).  Its
coefficients 2 (-1)^k e^{-t lo} ive(k, t (hi - lo)/2) are applied by the
three-term recurrence through the CSR A until their tail falls below
rounding; ``form_limit_check`` runs the recurrence once, to the order its
largest time needs, and sums every time from it.  Every time computes the
error bound e^{-t lo} (tail + n_terms eps) ||g|| and raises
ConvergenceError when it exceeds 1e-10 max(||g||, ||e^{-tA} g||), or when
e^{-t lo} ||g|| would overflow.  Under a strongly negative V, Weyl's lo
lies far below the lowest eigenvalue, so at large t the bound fails and
the call refuses.  The expansion needs about 8.2 sqrt(t (hi - lo)/2)
terms, one matvec each; past 2**16 terms the call raises
ConvergenceError too, before it computes a coefficient when the estimate
alone is over.

The KLMN constant is the top eigenvalue of the pencil B x = lambda A x with
B = blockdiag(V2) - C2 I.  The mesh is connected and its edge weights are
positive, so a section of zero kinetic energy is parallel along every
edge, and one Dirichlet vertex, where it vanishes, makes it zero: A is
positive definite on every mesh with a Dirichlet vertex.  There the pencil
is solved sparsely, by Lanczos in generalized mode with its residual
checked, through one factor of A from ``_definite_solver``; on
Dirichlet-free meshes A can have a kernel, which a dense Schur reduction
on the eigenvectors of A handles, with B kept sparse.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass

import numpy as np
import scipy.linalg
import scipy.sparse as sp
import scipy.sparse.linalg as spla
import scipy.special

from .errors import ConvergenceError, KernelHandlingError, MeshError
from .mesh import BundleMesh, trivial_line

_DENSE_EIG_LIMIT = 1200
_COLUMN_BLOCK = 64
# eigenvector columns per residual block: a block and each of its
# temporaries take 16 n values (0.13 MB at n = 1022, real), small enough for
# freed heap to hold, so residuals do not grow the heap above the eigenvectors
_RESIDUAL_BLOCK = 16
_HERMITIAN_TOL = 1e-10
_SHIFT_MARGIN = 1e-4
# columns per SuperLU panel: its dense working storage grows with the
# panel.  Against SuperLU's default, 4 took about 3 MB off the peak resident
# set of a process that factors the 14,161-DOF Peierls grid after other
# work, and factored that grid no slower (46 against 54 ms, best of 5)
_SUPERLU_PANEL = 4
_SEMIGROUP_RTOL = 1e-10
_EPS = float(np.finfo(float).eps)
_LOG_MAX = math.log(np.finfo(float).max) - 1.0     # an e-fold below overflow
# Chebyshev terms a semigroup call may take, one sparse matvec each; the
# rounding term n eps of its bound stays below 1.5e-11, under _SEMIGROUP_RTOL
_CHEBYSHEV_TERMS = 2 ** 16


# ---------------------------------------------------------------------------
# assembly

def _block_csr(blocks, block_rows, block_cols, k: int) -> sp.csr_matrix:
    """Canonical CSR of the n x n ``blocks`` at distinct positions of a k x k grid.

    Degree of freedom i of interior slot s is s * n + i, so DOF row s * n + i
    holds row i of each block of block row s by block column: one sort of
    the blocks' rows lays out the data and the column indices.  Exact zeros
    are dropped when n > 1 (a 1 x 1 block is one entry either way).
    """
    n = blocks.shape[-1]
    # row i of block b is row b * n + i of blocks.reshape(-1, n): sort by (DOF row, column)
    order = np.argsort((n * block_rows[:, None] + np.arange(n)) * k + block_cols[:, None],
                       axis=None)
    data = blocks.reshape(-1, n)[order].ravel()
    indices = (n * block_cols[order // n, None] + np.arange(n)).ravel()
    counts = np.repeat(n * np.bincount(block_rows, minlength=k), n)     # entries per DOF row
    indptr = np.concatenate(([0], np.cumsum(counts)))
    if n > 1:
        keep = data != 0
        indptr = np.concatenate(([0], np.cumsum(keep)))[indptr]
        data, indices = data[keep], indices[keep]
    return sp.csr_matrix((data, indices, indptr), shape=(k * n, k * n))


def _assemble(mesh: BundleMesh, field=None):
    """Hermitian A = M^{-1/2} K M^{-1/2} (+ field blocks) and sqrt(mu) per DOF.

    K is the stiffness matrix of the kinetic form on interior DOFs: each
    edge adds w/2 to the diagonal blocks of its interior endpoints and, when
    both are interior, -w/2 U and -w/2 U^H off the diagonal.  All blocks
    form one list, diagonal blocks first, built in one broadcast pass over
    the edge arrays and scaled by sqrt(mu) of their block row and column;
    the blocks V_u of the converted potential ``field`` (already in the
    symmetrized picture, since the potential form carries the weight mu)
    are added to the diagonal blocks, and ``_block_csr`` lays the list out.
    """
    n = mesh.fiber_dim
    interior = mesh.interior
    k = np.count_nonzero(interior)
    slot = np.cumsum(interior) - 1
    half_w = 0.5 * mesh.edge_w
    degree = (np.bincount(mesh.edge_u, half_w, mesh.n_vertices)
              + np.bincount(mesh.edge_v, half_w, mesh.n_vertices))
    inner = interior[mesh.edge_u] & interior[mesh.edge_v]
    su, sv = slot[mesh.edge_u[inner]], slot[mesh.edge_v[inner]]
    off = -half_w[inner, None, None] * mesh.transports[inner]
    slots = np.arange(k)
    rows = np.concatenate((slots, su, sv))
    cols = np.concatenate((slots, sv, su))
    blocks = np.concatenate((degree[interior, None, None] * np.eye(n, dtype=complex),
                             off, off.conj().transpose(0, 2, 1)))
    root = np.sqrt(mesh.mu[interior])
    blocks /= root[rows, None, None]
    blocks /= root[cols, None, None]
    if field is not None:
        blocks[:k] += field[interior]
    return _block_csr(blocks, rows, cols, k), np.repeat(root, n)


def bochner_laplacian(mesh: BundleMesh, symmetrized: bool = False) -> sp.csr_matrix:
    """Matrix of the bundle vertex operator on interior degrees of freedom.

    Default is the generator L itself (mu-symmetric); with
    ``symmetrized=True`` the unitarily equivalent Hermitian form
    M^{-1/2} K M^{-1/2} is returned instead.  Spectra agree.
    """
    A, root = _assemble(mesh)
    if not symmetrized:
        # the generator L = M^{-1} K = M^{-1/2} A M^{1/2}, entry by entry
        rows = np.repeat(np.arange(A.shape[0]), np.diff(A.indptr))
        A.data *= root[A.indices] / root[rows]
    return A


def diagonal_potential(mesh: BundleMesh, values) -> np.ndarray:
    """Lift real vertex values to the (N, n, n) field v_u * I; a complex value raises MeshError."""
    values = np.asarray(values)
    if values.shape != (mesh.n_vertices,):
        raise MeshError("need one scalar per vertex")
    if np.iscomplexobj(values) and np.any(values.imag):
        raise MeshError("scalar potential values must be real")
    n = mesh.fiber_dim
    out = np.zeros((mesh.n_vertices, n, n), dtype=complex)
    out[:, np.arange(n), np.arange(n)] = np.asarray(values.real, dtype=float)[:, None]
    return out


def _as_matrix_field(mesh: BundleMesh, V) -> np.ndarray:
    """The one conversion of a potential V (real values or blocks) to its (N, n, n) field.

    Interior blocks must be finite and Hermitian; Dirichlet blocks enter no form.
    """
    V, n = np.asarray(V), mesh.fiber_dim
    field = diagonal_potential(mesh, V) if V.ndim == 1 else V.astype(complex)
    if field.shape != (mesh.n_vertices, n, n):
        raise MeshError(f"potential field must have shape ({mesh.n_vertices}, {n}, {n})")
    _check_hermitian(field[mesh.interior], "potential at the interior vertices")
    return field


def _check_hermitian(V: np.ndarray, what: str) -> None:
    """Raise MeshError naming ``what`` unless each (N, n, n) block of V is finite and Hermitian."""
    with np.errstate(invalid="ignore", over="ignore"):     # a non-finite entry: inf or nan
        defect = np.max(np.abs(V - V.conj().transpose(0, 2, 1)), initial=0.0)
    if not defect <= _HERMITIAN_TOL:
        if not np.all(np.isfinite(V)):
            raise MeshError(f"{what} is not finite")
        raise MeshError(f"{what} is not Hermitian (defect {defect:.2e})")


# ---------------------------------------------------------------------------
# quadratic forms

@dataclass
class FormValue:
    kinetic: float | np.ndarray      # arrays of length S for a section stack
    potential: float | np.ndarray

    @property
    def total(self) -> float:
        return self.kinetic + self.potential


def _sections(mesh: BundleMesh, f) -> np.ndarray:
    """Validated (S, N, n) copy of one section or a stack, zero on Dirichlet."""
    N, n = mesh.n_vertices, mesh.fiber_dim
    f = np.asarray(f, dtype=complex)
    if f.shape == (N,) and n == 1:
        f = f[:, None]
    if f.ndim not in (2, 3) or f.shape[-2:] != (N, n):
        raise MeshError(f"section must have shape ({N}, {n}) or (S, {N}, {n})")
    return np.where(mesh.dirichlet[:, None], 0.0, f.reshape(-1, N, n))


def _section_dofs(mesh: BundleMesh, f) -> np.ndarray:
    """One section (N, n), checked by ``_sections``, as its interior DOF vector; a stack raises."""
    if np.ndim(f) == 3:
        raise MeshError("an evolution takes one section, not a stack")
    return _sections(mesh, f)[0, mesh.interior].reshape(-1)


def _edge_energies(mesh: BundleMesh, f: np.ndarray) -> np.ndarray:
    """(S, E) squared norms ||f_u - U_e f_v||^2 of a section stack."""
    diff = f[:, mesh.edge_u] - np.einsum("eij,sej->sei", mesh.transports, f[:, mesh.edge_v])
    return np.sum(diff.real ** 2 + diff.imag ** 2, axis=2)


def quad_form(mesh: BundleMesh, f, V=None) -> FormValue:
    """Evaluate the energy form at a section (Dirichlet values forced to 0).

    kinetic = (1/2) sum_e w_e ||f_u - U_e f_v||^2,
    potential = sum_u mu_u <V_u f_u, f_u>.

    ``f`` is one (N, n) section, or an (S, N, n) stack for which both
    fields come back as length-S arrays.
    """
    g = _sections(mesh, f)
    kinetic = 0.5 * (_edge_energies(mesh, g) @ mesh.edge_w)
    potential = np.zeros(g.shape[0])
    if V is not None:
        idx = np.flatnonzero(mesh.interior)
        V = _as_matrix_field(mesh, V)[idx]
        gi = g[:, idx]
        potential = np.einsum("sui,uij,suj->su", gi.conj(), V, gi).real @ mesh.mu[idx]
    if np.ndim(f) == 3:
        return FormValue(kinetic=kinetic, potential=potential)
    return FormValue(kinetic=float(kinetic[0]), potential=float(potential[0]))


def fiber_split(V) -> tuple[np.ndarray, np.ndarray]:
    """Pointwise decomposition V = V1 - V2 with both parts PSD.

    Works fiberwise through the eigendecomposition of each Hermitian V_u;
    zero eigenvalues sit in V1 (and contribute nothing either way).
    """
    V = np.asarray(V, dtype=complex)
    if V.ndim != 3 or V.shape[1] != V.shape[2]:
        raise MeshError("expected an (N, n, n) field")
    _check_hermitian(V, "field")
    lam, Q = np.linalg.eigh(V)
    plus = np.einsum("uij,uj,ukj->uik", Q, np.maximum(lam, 0.0), Q.conj())
    minus = np.einsum("uij,uj,ukj->uik", Q, np.maximum(-lam, 0.0), Q.conj())
    return plus, minus


def kato_inequality_gap(mesh: BundleMesh, f) -> float | np.ndarray:
    """Kinetic energy of the section minus that of its pointwise norm.

    The discrete Kato inequality says this is nonnegative: taking |f|
    vertexwise can only lower the energy, by the reverse triangle
    inequality on every edge.  A stack (S, N, n) gives one gap per section.
    """
    g = _sections(mesh, f)
    norms = np.linalg.norm(g, axis=2)
    d = norms[:, mesh.edge_u] - norms[:, mesh.edge_v]
    gap = 0.5 * ((_edge_energies(mesh, g) - d * d) @ mesh.edge_w)
    return gap if np.ndim(f) == 3 else float(gap[0])


# ---------------------------------------------------------------------------
# semigroups

def _gershgorin(A) -> tuple[float, float]:
    """Gershgorin bounds (lo, hi) on the spectrum of Hermitian sparse A."""
    diag = A.diagonal().real
    radius = np.asarray(abs(A).sum(axis=1)).ravel() - np.abs(diag)
    return float(np.min(diag - radius)), float(np.max(diag + radius))


def _chebyshev_coefficients(tau: float) -> tuple[np.ndarray, float]:
    """Coefficients a_k of e^{-tau (1 + y)} = sum_k a_k T_k(y) on [-1, 1], and their tail.

    a_0 = ive(0, tau) and a_k = 2 (-1)^k ive(k, tau), kept up to the first
    order N whose tail sum_{k > N} |a_k| is at most eps.  The ratio
    I_{k+1} / I_k falls as k grows (Turan's inequality), so that tail is at
    most 2 ive(N + 1) / (1 - ive(N + 2) / ive(N + 1)), the returned bound.

    N grows like 8.2 sqrt(tau) (it lies below 32 + 10 sqrt(tau) at every
    tau), so an order past _CHEBYSHEV_TERMS raises ConvergenceError: at
    once when 8 sqrt(tau) already exceeds it, else once the coefficients
    up to the budget are spent.
    """
    root = math.sqrt(tau)
    if 8.0 * root > _CHEBYSHEV_TERMS:
        raise ConvergenceError(f"tau = {tau:.3g} needs about {8.2 * root:.3g} Chebyshev "
                               f"terms, over the budget of {_CHEBYSHEV_TERMS}",
                               residual=math.inf)
    m = min(32 + int(10.0 * root), _CHEBYSHEV_TERMS)
    while True:
        c = scipy.special.ive(np.arange(m + 2), tau)
        ratio = np.divide(c[2:], c[1:-1], out=np.zeros(m), where=c[1:-1] > 0.0)
        tails = 2.0 * c[1:-1] / (1.0 - ratio)
        stop = np.flatnonzero(tails <= _EPS)
        if stop.size:
            n = int(stop[0])
            a = 2.0 * c[:n + 1]
            a[0] = c[0]
            a[1::2] *= -1.0
            return a, float(tails[n])
        if m == _CHEBYSHEV_TERMS:
            raise ConvergenceError(f"tau = {tau:.3g} needs over {_CHEBYSHEV_TERMS} "
                                   "Chebyshev terms", residual=float(tails[-1]))
        m = min(2 * m, _CHEBYSHEV_TERMS)


def _semigroup_series(A, times, g: np.ndarray, lo: float, hi: float) -> list:
    """(e^{-tA} g, error bound) for each of ``times``; A Hermitian sparse, spectrum in [lo, hi].

    With x = lo + (hi - lo)(1 + y)/2 and tau = t (hi - lo)/2, e^{-tx} =
    e^{-t lo} e^{-tau (1 + y)}; the series in T_k(y) is summed by
    T_{k+1} = 2 y T_k - T_{k-1}.  |T_k| <= 1 on [-1, 1], so truncation costs
    at most e^{-t lo} tail ||g||, and n_terms eps stands for the rounding of
    the recurrence.  Norms go through BLAS nrm2, which scales and so neither
    overflows nor warns.

    The vectors T_k(y) g do not depend on t, so the recurrence runs once,
    to the largest order any time needs; each time adds its terms in the
    order of a call with that time alone, bit for bit, and the first time
    that fails its check raises.

    The bound is relative to e^{-t lo}, the peak of e^{-tx} on [lo, hi], so
    a lo far below the lowest eigenvalue costs relative accuracy at large
    t: on the 1d Coulomb system (lo = -64, ground energy -1/2) t = 0.01 is
    certified to 3e-14 and t = 1 raises.
    """
    half = 0.5 * (hi - lo)
    norm_g = float(scipy.linalg.norm(g, check_finite=False))
    series = []
    for t in times:
        tau = t * half
        if not math.isfinite(tau):
            raise ConvergenceError("spectral interval is not finite", residual=math.inf)
        if -t * lo + math.log(max(norm_g, 1.0)) > _LOG_MAX:
            raise ConvergenceError(f"e^(-t lo) |g| overflows at t lo = {t * lo:.3g}",
                                   residual=math.inf)
        series.append(_chebyshev_coefficients(tau))
    outs = [a[0] * g for a, _ in series]
    order = max(a.size for a, _ in series)
    if order > 1:
        centre = lo + half
        prev, cur = g, (A @ g - centre * g) / half      # T_0 g and T_1 g = y g
        for k in range(1, order):
            if k > 1:
                nxt = A @ cur
                nxt -= centre * cur
                nxt *= 2.0 / half
                nxt -= prev
                prev, cur = cur, nxt
            for out, (a, _) in zip(outs, series):
                if k < a.size:
                    out += a[k] * cur
    results = []
    for t, out, (a, tail) in zip(times, outs, series):
        scale = math.exp(-t * lo)
        out *= scale
        norm_out = float(scipy.linalg.norm(out, check_finite=False))
        bound = scale * (tail + a.size * _EPS) * norm_g
        if not (math.isfinite(norm_out) and bound <= _SEMIGROUP_RTOL * max(norm_g, norm_out)):
            raise ConvergenceError(f"semigroup error bound {bound:.2e} misses its target "
                                   f"(|g| = {norm_g:.2e}, t = {t:.3g}, lo = {lo:.3g})",
                                   residual=bound)
        results.append((out, bound))
    return results


def _flow(mesh: BundleMesh, x: np.ndarray, field, times) -> tuple:
    """(A, sqrt(mu) per DOF, g = sqrt(mu) x, [(e^{-tA} g, bound) per time]), x interior DOFs.

    A carries the converted ``field``, and the series runs on [lo, hi]: the
    kinetic part is >= 0, so by Weyl lo = min(0, the lowest eigenvalue of
    any interior V_u), and hi is Gershgorin's.
    """
    if not all(0 <= t < math.inf for t in times):
        raise MeshError("time must be nonnegative and finite")
    A, root = _assemble(mesh, field)
    lo = 0.0
    if field is not None:
        lo = min(lo, float(np.linalg.eigvalsh(field[mesh.interior]).min()))
    g = x * root
    return A, root, g, _semigroup_series(A, times, g, lo, max(lo, _gershgorin(A)[1]))


def semigroup_evolve(mesh: BundleMesh, f, t: float, V=None) -> np.ndarray:
    """Apply e^{-t H(V)} to one section (N, n), returned on the full vertex set.

    The evolution runs in the symmetrized picture and is mapped back, so
    the result is the mu-space semigroup applied to f, V converted once.
    """
    field = None if V is None else _as_matrix_field(mesh, V)
    _, root, _, [(out, _)] = _flow(mesh, _section_dofs(mesh, f), field, (t,))
    full = np.zeros((mesh.n_vertices, mesh.fiber_dim), dtype=complex)   # 0 on Dirichlet vertices
    full[mesh.interior] = (out / root).reshape(-1, mesh.fiber_dim)
    return full


def semigroup_domination_gap(mesh: BundleMesh, f, t: float) -> float:
    """min_u [ (e^{-t H_scalar} |f|)_u - |(e^{-t H_bundle} f)_u| ].

    Nonnegative by semigroup domination: the scalar flow of the pointwise
    norm, on ``trivial_line(mesh)``, dominates the norm of the bundle flow.
    f is checked once.
    """
    x = _section_dofs(mesh, f)
    _, root, _, [(out, _)] = _flow(mesh, x, None, (t,))
    norms_after = np.linalg.norm((out / root).reshape(-1, mesh.fiber_dim), axis=1)
    start_norms = np.linalg.norm(x.reshape(-1, mesh.fiber_dim), axis=1).astype(complex)
    _, root, _, [(out, _)] = _flow(trivial_line(mesh), start_norms, None, (t,))
    return float(np.min((out / root).real - norms_after))


# ---------------------------------------------------------------------------
# spectra and form bounds

@dataclass
class SpectrumResult:
    eigenvalues: np.ndarray
    residuals: np.ndarray
    method: str

    @property
    def lowest(self) -> float:
        return float(self.eigenvalues[0])


def _tridiagonal(M) -> bool:
    """Whether every stored entry of sparse M lies within one place of the diagonal."""
    C = M.tocsr()
    rows = np.repeat(np.arange(C.shape[0]), np.diff(C.indptr))
    return bool(np.all(np.abs(C.indices - rows) <= 1))


def _dense_eigh(M, subset=None):
    """Ascending eigenpairs of Hermitian M by a direct LAPACK solve.

    A real tridiagonal sparse M goes straight to the tridiagonal solvers
    on its diagonal and subdiagonal, with no n x n copy: MRRR (?stemr) for
    every pair, bisection and inverse iteration (?stebz, ?stein) for an
    index range, the kernels that the dense ?syevr ends in.  Any other
    sparse M is laid out once in Fortran order; a dense M is overwritten
    when it is Fortran-ordered (the caller's scratch) and copied
    otherwise.  The MRRR solver (?syevr / ?heevr) needs O(n) workspace
    beside the eigenvectors.  ``subset`` is an inclusive (lo, hi) index
    range of the ascending spectrum, or None for every pair.
    """
    if sp.issparse(M) and M.dtype.kind == "f" and _tridiagonal(M):
        # the lower triangle, which the dense solve reads too
        d, e = M.diagonal(), M.diagonal(-1)
        if subset is None:
            return scipy.linalg.eigh_tridiagonal(d, e, check_finite=False,
                                                 lapack_driver="stemr")
        return scipy.linalg.eigh_tridiagonal(d, e, select="i", select_range=subset,
                                             check_finite=False, lapack_driver="stebz")
    a = M.toarray(order="F") if sp.issparse(M) else np.asfortranarray(M)
    return scipy.linalg.eigh(a, overwrite_a=True, check_finite=False, driver="evr",
                             subset_by_index=subset)


def _residual_norms(A, lam: np.ndarray, Q: np.ndarray) -> np.ndarray:
    """||A x - lambda x||_2 of each eigenpair, through sparse A, a block of columns at a time."""
    res = np.empty(lam.size)
    for start in range(0, lam.size, _RESIDUAL_BLOCK):
        b = slice(start, start + _RESIDUAL_BLOCK)
        R = A @ Q[:, b]
        R -= Q[:, b] * lam[b]
        res[b] = np.linalg.norm(R, axis=0)
    return res


def _definite_solver(M) -> spla.LinearOperator:
    """x -> M^{-1} x for Hermitian positive definite sparse M, from one sparse LU factor.

    A symmetric fill-reducing ordering of M + M^T and no pivoting, which
    definiteness allows, in panels of _SUPERLU_PANEL columns.
    """
    lu = spla.splu(M.tocsc(), permc_spec="MMD_AT_PLUS_A", diag_pivot_thresh=0.0,
                   panel_size=_SUPERLU_PANEL, options={"SymmetricMode": True})
    return spla.LinearOperator(M.shape, matvec=lu.solve, dtype=M.dtype)


def form_sum_spectrum(mesh: BundleMesh, V=None, k: int | None = None) -> SpectrumResult:
    """Eigenvalues of H(V) = H(0) + V (ascending), with solver residuals.

    ``k`` asks for the k lowest pairs (every pair when k >= the number of
    degrees of freedom); it must be a positive integer.  Both routes run
    in real arithmetic when A has no imaginary part.  Dense Hermitian
    solve (``_dense_eigh``, method "dense") up to 1200 degrees of freedom,
    computing only the k lowest pairs when k is given: a real tridiagonal
    A goes to the tridiagonal solvers on its two diagonals with no dense
    copy, at any size, and any other A is one dense copy overwritten by
    the MRRR solver.  Beyond that, with k given and A not real
    tridiagonal, shift-invert Lanczos finds the k lowest: the shift sits
    below the Gershgorin lower bound of A by 1e-4 * scale, so A - sigma I
    is positive definite even when A has a kernel or V is negative, and
    the k eigenvalues nearest the shift are the k lowest.  That matrix is
    factored once (``_definite_solver``), and the factor is freed once
    Lanczos returns; beside it Lanczos holds 2k + 1 basis vectors.
    Residuals are ||H x - lambda x||_2 for the returned pairs, through
    the sparse A; a residual above 1e-8 * scale raises ConvergenceError.
    """
    if k is not None and (isinstance(k, bool) or not isinstance(k, numbers.Integral) or k < 1):
        raise MeshError(f"k must be a positive integer, got {k!r}")
    A, _ = _assemble(mesh, None if V is None else _as_matrix_field(mesh, V))
    dim = A.shape[0]
    if k is not None:
        k = min(int(k), dim)
    scale = max(1.0, float(np.abs(A.data).max(initial=0.0)))
    real = not np.any(A.data.imag)
    if real:
        A = A.real
    if (k is None or dim <= _DENSE_EIG_LIMIT or k >= dim - 1
            or (real and _tridiagonal(A))):
        lam, Q = _dense_eigh(A, None if k is None or k == dim else (0, k - 1))
        method = "dense"
    else:
        sigma = _gershgorin(A)[0] - _SHIFT_MARGIN * scale
        v0 = np.full(dim, 1.0 / math.sqrt(dim))
        OPinv = _definite_solver(A - sigma * sp.identity(dim, dtype=A.dtype, format="csr"))
        try:
            lam, Q = spla.eigsh(A, k=k, sigma=sigma, which="LM", v0=v0, OPinv=OPinv,
                                ncv=min(dim, 2 * k + 1), maxiter=max(2000, 40 * dim))
        except spla.ArpackNoConvergence as exc:
            raise ConvergenceError("Lanczos did not converge",
                                   residual=math.inf) from exc
        del OPinv
        order = np.argsort(lam.real)
        lam, Q = lam.real[order], Q[:, order]
        method = "lanczos"
    res = _residual_norms(A, lam, Q)
    worst = float(res.max()) if res.size else 0.0
    if worst > 1e-8 * scale:
        raise ConvergenceError(f"eigenpair residual {worst:.2e} too large",
                               residual=worst)
    return SpectrumResult(eigenvalues=lam.real, residuals=res, method=method)


def klmn_optimal_c1(mesh: BundleMesh, V2, c2: float) -> float:
    """Smallest C1 with potential form <= C1 * kinetic + C2 * mass.

    C1 is the top eigenvalue of the pencil B x = lambda A x, clipped at 0,
    with A the kinetic matrix and B = blockdiag(V2) - C2 I on interior
    DOFs.  A section of zero kinetic energy is parallel along every edge of
    the connected, positively weighted mesh, so one Dirichlet vertex makes
    it zero and A positive definite.  Such meshes take the sparse route:
    C1 = 0 outright when every V2 block is <= C2 (then B <= 0), otherwise
    one Lanczos solve of the pencil in generalized mode, in real arithmetic
    when A and B are real, whose residual ||B x - lambda A x||_2 at the
    unit vector x must stay below 1e-8 * scale or ConvergenceError is
    raised.  Dirichlet-free meshes, where A can have a kernel, and pencils
    of at most two DOFs (too small for ARPACK) take the dense route,
    ``_klmn_dense``.  V2 must be PSD at every interior vertex, C2 finite.
    """
    if not math.isfinite(c2):
        raise MeshError(f"C2 must be finite, got {c2!r}")
    V2 = _as_matrix_field(mesh, V2)[mesh.interior]
    lam_field = np.linalg.eigvalsh(V2)
    if lam_field.min() < -1e-10:
        raise MeshError("V2 must be positive semidefinite")
    A = _assemble(mesh)[0]
    slots = np.arange(V2.shape[0])
    B = _block_csr(V2 - c2 * np.eye(mesh.fiber_dim), slots, slots, slots.size)
    if mesh.dirichlet.any() and A.shape[0] > 2:
        if lam_field.max() <= c2:
            return 0.0      # B <= 0 and A > 0: the whole pencil is <= 0
        return _klmn_pencil(A, B)
    return _klmn_dense(A, B)


def _klmn_pencil(A: sp.csr_matrix, B: sp.csr_matrix) -> float:
    """Top eigenvalue of B x = lambda A x, for A > 0 and B not <= 0."""
    if not (np.any(A.data.imag) or np.any(B.data.imag)):
        A, B = A.real.copy(), B.real.copy()   # real arithmetic on contiguous data
    # a seeded start vector: reproducible, and with no symmetry of the
    # mesh to hide the top eigenvector from the Krylov space
    v0 = np.random.default_rng(0).standard_normal(A.shape[0])
    try:
        lam, X = spla.eigsh(B, k=1, M=A, Minv=_definite_solver(A), which="LA", v0=v0)
    except spla.ArpackNoConvergence as exc:
        raise ConvergenceError("pencil Lanczos did not converge",
                               residual=math.inf) from exc
    top, x = float(lam[0]), X[:, 0] / np.linalg.norm(X[:, 0])
    res = float(np.linalg.norm(B @ x - top * (A @ x)))
    scale = max(1.0, float(abs(B).max()), abs(top) * float(abs(A).max()))
    if not res <= 1e-8 * scale:
        raise ConvergenceError(f"pencil eigenpair residual {res:.2e} too large",
                               residual=res)
    return top


def _klmn_dense(A, B) -> float:
    """Dense route of ``klmn_optimal_c1`` for Hermitian A >= 0 and B, sparse or dense.

    Solves max spec(B, A) on the range of A.  Zero modes of A are handled
    by Schur reduction and must see a nonpositive B block, otherwise no
    finite C1 exists and KernelHandlingError is raised; with no zero modes
    there is no Schur term.  The eigenvectors Q of A come from one dense
    copy of A solved in place; the eigenvalues ascend, so the zero modes
    Q0 and the range Qp are a prefix and a suffix of Q's columns.  B stays
    sparse: B Qp is formed one block of columns at a time, straight into
    the reduced pencil W, whose top eigenvalue alone is computed.
    """
    B = sp.csr_matrix(B)
    lam, Q = _dense_eigh(A)
    lam_max = float(lam[-1]) if lam.size else 0.0
    cut = max(1e-12 * max(lam_max, 1.0), 1e-14)
    m0 = int(np.count_nonzero(lam <= cut))
    Q0, Qp = Q[:, :m0], Q[:, m0:]
    lam_p = lam[m0:]
    p = lam_p.size
    scale = max(1.0, float(abs(B).max()))
    if m0:
        BQ0 = B @ Q0
        K00 = Q0.conj().T @ BQ0
        K0p = BQ0.conj().T @ Qp      # Q0^H B Qp, B being Hermitian
        # Schur complement onto the range: B_pp + B_p0 (-B_00)^+ B_0p
        lam0, Q00 = _dense_eigh(-K00)
        if -lam0[0] > 1e-10 * scale:
            raise KernelHandlingError(
                "potential is positive along a kinetic zero mode; no finite C1")
        inv = np.where(lam0 > 1e-12 * scale, 1.0 / np.maximum(lam0, 1e-300), 0.0)
        # zero modes of the kernel block must not couple to the range
        null_mask = lam0 <= 1e-12 * scale
        if np.any(null_mask):
            coupling = np.abs(Q00[:, null_mask].conj().T @ K0p)
            if coupling.size and coupling.max() > 1e-8 * scale:
                raise KernelHandlingError(
                    "kinetic zero mode couples through the potential; no finite C1")
        G = (Q00 * inv) @ (Q00.conj().T @ K0p)      # (-B_00)^+ B_0p
    S = np.empty((p, p), dtype=np.result_type(Q, B.dtype))
    for start in range(0, p, _COLUMN_BLOCK):
        b = slice(start, start + _COLUMN_BLOCK)
        # rows b of (B Qp)^H Qp = Qp^H B Qp, which is Hermitian
        S[b] = (B @ Qp[:, b]).conj().T @ Qp
        if m0:
            S[b] += K0p[:, b].conj().T @ G
    del Q, Q0, Qp
    if not p:
        return 0.0
    S /= np.sqrt(lam_p)[None, :]
    S /= np.sqrt(lam_p)[:, None]
    # W = S is Hermitian, so its Fortran-ordered transpose has its spectrum
    top = float(_dense_eigh(S.T, subset=(p - 1, p - 1))[0][0])
    return max(0.0, top)


# ---------------------------------------------------------------------------
# form limits

@dataclass
class FormLimitResult:
    times: np.ndarray
    quotients: np.ndarray
    form_value: float
    monotone: bool
    defect: float

    @property
    def converged(self) -> bool:
        return math.isfinite(self.defect)


def form_limit_check(mesh: BundleMesh, f, t_grid, V=None) -> FormLimitResult:
    """Difference quotients <f, (I - e^{-tH}) f>_mu / t against the form value.

    As t decreases to 0 the quotient increases to q(f) = <H f, f>_mu for
    any self-adjoint H, which is checked on the supplied grid of positive
    finite times, with V converted once.  The defect is |Q(t_min) - q(f)|.
    Every time comes from one Chebyshev recurrence (``_semigroup_series``),
    with the result and error bound of a semigroup call of its own.
    """
    t_grid = np.sort(np.asarray(t_grid, dtype=float))
    if t_grid.size == 0 or not np.all(np.isfinite(t_grid)) or t_grid[0] <= 0:
        raise MeshError("t_grid must be positive and finite")
    times = t_grid.tolist()
    field = None if V is None else _as_matrix_field(mesh, V)
    A, _, g, evolved = _flow(mesh, _section_dofs(mesh, f), field, times)
    q_exact = float(np.real(np.vdot(g, A @ g)))
    quotients = np.array([float(np.real(np.vdot(g, g - out))) / t
                          for t, (out, _) in zip(times, evolved)])
    # smaller t gives a larger quotient, up to solver noise
    steps = quotients[:-1] - quotients[1:]
    floor = -1e-12 * max(1.0, abs(q_exact))
    monotone = bool(np.all(steps >= floor))
    defect = abs(quotients[0] - q_exact)
    return FormLimitResult(times=t_grid, quotients=quotients, form_value=q_exact,
                           monotone=monotone, defect=defect)

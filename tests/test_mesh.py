"""Bundle meshes: construction, validation, holonomy, serialization."""

import math

import numpy as np
import pytest

from katoform import mesh as mesh_mod
from katoform.errors import MeshError
from katoform.mesh import (BundleMesh, cycle_mesh, gauge_transform,
                           grid_mesh_2d, haar_unitary, interval_mesh,
                           random_bundle_mesh)
from katoform.operators import quad_form


def two_vertex(w=1.0, mu=(1.0, 1.0), U=None):
    if U is None:
        U = np.eye(1, dtype=complex)
    return BundleMesh(fiber_dim=U.shape[0], mu=list(mu),
                      dirichlet=[False, False], edge_u=[0], edge_v=[1],
                      edge_w=[w], transports=np.array([U]))


# ---------------------------------------------------------------------------
# constructors

def test_interval_mesh_shape():
    mesh = interval_mesh(0.0, 1.0, 0.25)
    assert mesh.n_vertices == 5
    assert np.allclose(mesh.mu, 0.25)
    assert np.allclose(mesh.edge_w, 4.0)
    assert mesh.dirichlet[0] and mesh.dirichlet[-1]
    assert not mesh.dirichlet[2]
    assert np.allclose(mesh.positions[:, 0], [0.0, 0.25, 0.5, 0.75, 1.0])


def test_interval_mesh_custom_dirichlet():
    mesh = interval_mesh(-1.0, 1.0, 0.5, dirichlet_at=(-1.0, 0.0, 1.0))
    killed = np.flatnonzero(mesh.dirichlet)
    assert list(killed) == [0, 2, 4]
    with pytest.raises(MeshError):
        interval_mesh(-1.0, 1.0, 0.5, dirichlet_at=(0.3,))


def test_cycle_mesh_holonomy():
    theta = 1.1
    mesh = cycle_mesh(5, theta=theta)
    hol = mesh.holonomy([0, 1, 2, 3, 4])
    assert complex(hol[0, 0]) == pytest.approx(np.exp(-1j * theta), abs=1e-12)


def test_grid_mesh_plaquette_holonomy():
    a, b_field = 0.5, 1.3
    mesh = grid_mesh_2d(1.0, a, b_field=b_field)
    side = mesh.metadata["side"]

    def vid(i, j):
        return j * side + i

    cycle = [vid(1, 1), vid(2, 1), vid(2, 2), vid(1, 2)]
    hol = mesh.holonomy(cycle)
    assert complex(hol[0, 0]) == pytest.approx(
        np.exp(-1j * b_field * a * a), abs=1e-12)


def test_grid_zero_field_trivial_transport():
    mesh = grid_mesh_2d(1.0, 0.5, b_field=0.0)
    assert np.allclose(mesh.transports, np.eye(1), atol=1e-15)


def loop_grid(L, a, b_field, dirichlet_boundary):
    """The square grid vertex by vertex and edge by edge, as first written."""
    K = int(round(2.0 * L / a))
    side = K + 1
    xs = -L + a * np.arange(side)
    pos = np.array([(x, y) for y in xs for x in xs])
    dirichlet = np.zeros(side * side, dtype=bool)
    if dirichlet_boundary:
        for i in range(side):
            for j in (0, K):
                dirichlet[j * side + i] = True
                dirichlet[i * side + j] = True
    eu, ev, mats = [], [], []
    for j in range(side):
        for i in range(side):
            for i1, j1 in ((i + 1, j), (i, j + 1)):
                if i1 > K or j1 > K:
                    continue
                u, v = j * side + i, j1 * side + i1
                p, q = pos[u], pos[v]
                mid = 0.5 * (p + q)
                ax, ay = -0.5 * b_field * mid[1], 0.5 * b_field * mid[0]
                line = ax * (p[0] - q[0]) + ay * (p[1] - q[1])
                eu.append(u)
                ev.append(v)
                mats.append(np.array([[np.exp(-1j * line)]], dtype=complex))
    return pos, dirichlet, np.array(eu), np.array(ev), np.array(mats)


@pytest.mark.parametrize("L, a, b_field, dirichlet_boundary",
                         [(1.0, 0.25, 1.3, True), (2.4, 0.1, 1.0, True),
                          (1.5, 0.5, -0.7, False), (0.5, 0.5, 0.0, True)])
def test_grid_mesh_matches_loop_construction(L, a, b_field, dirichlet_boundary):
    mesh = grid_mesh_2d(L, a, b_field=b_field, dirichlet_boundary=dirichlet_boundary)
    pos, dirichlet, eu, ev, mats = loop_grid(L, a, b_field, dirichlet_boundary)
    assert np.array_equal(mesh.positions, pos)
    assert np.array_equal(mesh.dirichlet, dirichlet)
    assert np.array_equal(mesh.edge_u, eu) and np.array_equal(mesh.edge_v, ev)
    assert np.array_equal(mesh.edge_w, np.ones(len(eu)))
    # bit for bit, signed zeros included
    assert mesh.transports.tobytes() == mats.tobytes()


def test_random_bundle_mesh_properties():
    mesh = random_bundle_mesh(15, fiber_dim=2, seed=3, dirichlet_count=2)
    assert mesh.n_vertices == 15
    assert int(np.sum(mesh.dirichlet)) == 2
    # unitary transports
    for U in mesh.transports:
        assert np.allclose(U.conj().T @ U, np.eye(2), atol=1e-12)
    # deterministic in the seed
    again = random_bundle_mesh(15, fiber_dim=2, seed=3, dirichlet_count=2)
    assert np.allclose(mesh.transports, again.transports)
    assert np.allclose(mesh.mu, again.mu)
    other = random_bundle_mesh(15, fiber_dim=2, seed=4, dirichlet_count=2)
    assert not np.allclose(mesh.mu, other.mu)


def test_haar_unitary():
    rng = np.random.default_rng(0)
    U = haar_unitary(3, rng)
    assert np.allclose(U.conj().T @ U, np.eye(3), atol=1e-12)


def loop_haar(count, n, rng):
    """Reference: one QR of a complex Gaussian per sample, phase-fixed."""
    out = []
    for _ in range(count):
        z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
        q, r = np.linalg.qr(z)
        d = np.diagonal(r)
        out.append(q * (d / np.abs(d)))
    return np.array(out)


@pytest.mark.parametrize("n", [1, 2, 3])
def test_haar_samples_match_loop(n):
    for seed in range(20):
        rng, ref_rng = np.random.default_rng(seed), np.random.default_rng(seed)
        assert np.array_equal(mesh_mod._haar_block(25, n, rng), loop_haar(25, n, ref_rng))
        assert np.array_equal(haar_unitary(n, rng), loop_haar(1, n, ref_rng)[0])
        # the stream is left where the loop leaves it
        assert rng.bit_generator.state == ref_rng.bit_generator.state


@pytest.mark.parametrize("n", [1, 2, 3])
def test_random_bundle_mesh_transports_match_loop(monkeypatch, n):
    batched = [random_bundle_mesh(14 + seed, fiber_dim=n, seed=seed, dirichlet_count=1)
               for seed in range(10)]
    monkeypatch.setattr(mesh_mod, "_haar_block", loop_haar)
    for seed, mesh in enumerate(batched):
        ref = random_bundle_mesh(14 + seed, fiber_dim=n, seed=seed, dirichlet_count=1)
        assert np.array_equal(mesh.transports, ref.transports)
        assert np.array_equal(mesh.dirichlet, ref.dirichlet)
        assert np.array_equal(mesh.edge_w, ref.edge_w)


# ---------------------------------------------------------------------------
# validation

def test_rejects_nonpositive_weights():
    with pytest.raises(MeshError):
        two_vertex(w=0.0)
    with pytest.raises(MeshError):
        two_vertex(mu=(1.0, -1.0))


def test_rejects_non_unitary_transport():
    with pytest.raises(MeshError):
        two_vertex(U=np.array([[2.0 + 0j]]))


def test_rejects_self_loop_and_duplicates():
    with pytest.raises(MeshError):
        BundleMesh(fiber_dim=1, mu=[1.0, 1.0], dirichlet=[False, False],
                   edge_u=[0], edge_v=[0], edge_w=[1.0],
                   transports=np.eye(1, dtype=complex)[None])
    with pytest.raises(MeshError):
        BundleMesh(fiber_dim=1, mu=[1.0, 1.0], dirichlet=[False, False],
                   edge_u=[0, 1], edge_v=[1, 0], edge_w=[1.0, 1.0],
                   transports=np.repeat(np.eye(1, dtype=complex)[None], 2, 0))


def test_rejects_disconnected():
    with pytest.raises(MeshError):
        BundleMesh(fiber_dim=1, mu=[1.0] * 4, dirichlet=[False] * 4,
                   edge_u=[0, 2], edge_v=[1, 3], edge_w=[1.0, 1.0],
                   transports=np.repeat(np.eye(1, dtype=complex)[None], 2, 0))


def test_rejects_all_dirichlet():
    with pytest.raises(MeshError):
        BundleMesh(fiber_dim=1, mu=[1.0, 1.0], dirichlet=[True, True],
                   edge_u=[0], edge_v=[1], edge_w=[1.0],
                   transports=np.eye(1, dtype=complex)[None])


# ---------------------------------------------------------------------------
# transport bookkeeping

def test_transport_into_directions():
    U = haar_unitary(2, np.random.default_rng(5))
    mesh = BundleMesh(fiber_dim=2, mu=[1.0, 1.0], dirichlet=[False, False],
                      edge_u=[0], edge_v=[1], edge_w=[1.0],
                      transports=np.array([U]))
    into_u = mesh.transport_into(0, target=0)
    into_v = mesh.transport_into(0, target=1)
    assert np.allclose(into_u, U)
    assert np.allclose(into_v, U.conj().T)


def test_holonomy_requires_existing_edges():
    mesh = interval_mesh(0.0, 1.0, 0.25)
    with pytest.raises(MeshError):
        mesh.holonomy([0, 2])


# ---------------------------------------------------------------------------
# serialization and gauge moves

def test_json_round_trip_preserves_forms():
    mesh = random_bundle_mesh(8, fiber_dim=2, seed=9, dirichlet_count=1)
    clone = BundleMesh.from_json_dict(mesh.to_json_dict())
    rng = np.random.default_rng(1)
    f = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    a = quad_form(mesh, f)
    b = quad_form(clone, f)
    assert a.kinetic == pytest.approx(b.kinetic, rel=1e-13)


def test_json_rejects_malformed():
    with pytest.raises(MeshError):
        BundleMesh.from_json_dict({"fiber_dim": 1, "vertices": []})


def test_gauge_transform_preserves_kinetic_form():
    mesh = random_bundle_mesh(8, fiber_dim=2, seed=11)
    rng = np.random.default_rng(2)
    gauges = np.array([haar_unitary(2, rng) for _ in range(8)])
    gauged = gauge_transform(mesh, gauges)
    f = rng.standard_normal((8, 2)) + 1j * rng.standard_normal((8, 2))
    gf = np.einsum("vij,vj->vi", gauges, f)
    a = quad_form(mesh, f)
    b = quad_form(gauged, gf)
    assert a.kinetic == pytest.approx(b.kinetic, rel=1e-12)


def test_gauge_transform_matches_edge_loop():
    mesh = random_bundle_mesh(12, fiber_dim=3, seed=21, dirichlet_count=1)
    rng = np.random.default_rng(9)
    gauges = np.array([haar_unitary(3, rng) for _ in range(12)])
    got = gauge_transform(mesh, gauges).transports
    for e in range(mesh.n_edges):
        u, v = mesh.edge_u[e], mesh.edge_v[e]
        want = gauges[u] @ mesh.transports[e] @ gauges[v].conj().T
        assert np.allclose(got[e], want, rtol=0.0, atol=1e-15)


def test_gauge_transform_changes_nothing_observable():
    theta = 0.9
    mesh = cycle_mesh(4, theta=theta)
    rng = np.random.default_rng(3)
    gauges = np.exp(1j * rng.uniform(0, 2 * math.pi, size=4))[:, None, None]
    gauged = gauge_transform(mesh, gauges)
    hol_a = mesh.holonomy([0, 1, 2, 3])[0, 0]
    hol_b = gauged.holonomy([0, 1, 2, 3])[0, 0]
    # holonomy conjugates by the base-point gauge; for U(1) it is invariant
    assert complex(hol_b) == pytest.approx(complex(hol_a), abs=1e-12)

"""Acceptance gate: one test per shipped guarantee, with runtime budgets.

Each test prints a single ACCEPTANCE nn PASS/FAIL line on the real stdout
(past the capture) so a plain pytest run shows the verdict table.  The
expected values are closed forms or independently computed references;
statistical checks carry explicit confidence envelopes.
"""

import dataclasses
import json
import math
import time

import numpy as np
import pytest

from katoform import bundled, cli
from katoform.feynman_kac import PathConfig, mc_covariant_semigroup, mc_kato_integral
from katoform.geometry import (EUCLIDEAN, HYPERBOLIC, ModelSpace,
                               VolumeProfile, chapman_kolmogorov_residual,
                               geodesic_point, heat_mass, model_ball_volume)
from katoform.kato import (kato_eta, kato_verdict, lp_kato_classify,
                           resolvent_constant, sandwich_check)
from katoform.mesh import grid_mesh_2d, random_bundle_mesh
from katoform.operators import (form_limit_check, form_sum_spectrum,
                                kato_inequality_gap, klmn_optimal_c1,
                                quad_form, semigroup_domination_gap,
                                semigroup_evolve)
from katoform.potentials import bump, constant, coulomb, inverse_square

E1 = ModelSpace(EUCLIDEAN, 1)
E2 = ModelSpace(EUCLIDEAN, 2)
E3 = ModelSpace(EUCLIDEAN, 3)
H3 = ModelSpace(HYPERBOLIC, 3)
ORIGIN3 = [(0.0, 0.0, 0.0)]


def verdict_line(capsys, n, ok, started, budget, detail):
    elapsed = time.monotonic() - started
    word = "PASS" if ok and elapsed < budget else "FAIL"
    with capsys.disabled():
        print(f"ACCEPTANCE {n:02d} {word}: {detail} [{elapsed:.1f}s / {budget:.0f}s]")
    assert ok, detail
    assert elapsed < budget, f"criterion {n} overran its {budget:.0f}s budget"


def random_section(mesh, rng, normalize=True):
    f = (rng.standard_normal((mesh.n_vertices, mesh.fiber_dim))
         + 1j * rng.standard_normal((mesh.n_vertices, mesh.fiber_dim)))
    if normalize:
        f /= math.sqrt(float(np.sum(mesh.mu * np.sum(np.abs(f) ** 2, axis=1))))
    return f


def test_criterion_01_coulomb_closed_forms(capsys):
    started = time.monotonic()
    v = coulomb(E3)
    worst = 0.0
    for t in (1e-4, 1e-3, 1e-2, 1e-1):
        eta, _ = kato_eta(v, t, ORIGIN3)
        want = 2.0 * math.sqrt(2.0 * t / math.pi)
        worst = max(worst, abs(eta - want) / want)
    for r in (2.0, 8.0, 100.0):
        c_r = resolvent_constant(v, r, ORIGIN3)
        want = math.sqrt(2.0 / r)
        worst = max(worst, abs(c_r - want) / want)
    verdict_line(capsys, 1, worst < 0.01, started, 30.0,
                 f"eta and C_r match Gaussian closed forms, worst rel err {worst:.2e}")


def test_criterion_02_sandwich_grid(capsys):
    started = time.monotonic()
    potentials = (coulomb(E3), constant(E3, 1.0), bump(E3, amplitude=2.0))
    rs = np.geomspace(0.5, 32.0, 5)
    ts = np.geomspace(1e-3, 1.0, 5)
    all_ok = True
    for v in potentials:
        for r in rs:
            for t in ts:
                res = sandwich_check(v, float(r), float(t), ORIGIN3)
                all_ok = all_ok and res.lower_ok and res.upper_ok
    verdict_line(capsys, 2, all_ok, started, 60.0,
                 "resolvent sandwich holds on the 5x5 grid for all three potentials")


def test_criterion_03_verdict_suite(capsys):
    started = time.monotonic()
    t_grid = (1e-4, 1e-3, 1e-2, 1e-1)
    got = [
        kato_verdict(coulomb(E3), t_grid, ORIGIN3).verdict,
        kato_verdict(inverse_square(E3), t_grid, ORIGIN3).verdict,
        kato_verdict(constant(E3, 3.0), t_grid, ORIGIN3).verdict,
        kato_verdict(bump(E3, amplitude=1.0), t_grid, ORIGIN3).verdict,
    ]
    want = ["member", "nonmember", "member", "member"]
    rule = lp_kato_classify(2, 3)
    ok = got == want and rule == "sufficient"
    verdict_line(capsys, 3, ok, started, 60.0,
                 f"verdicts {got}, L^2(R^3) rule '{rule}'")


def test_criterion_04_heat_kernel_self_tests(capsys):
    started = time.monotonic()
    worst_ck, worst_mass = 0.0, 0.0
    for space in (E1, E3, H3):
        for t in (0.1, 0.5, 1.0):
            worst_mass = max(worst_mass, abs(heat_mass(space, t) - 1.0))
        for s in (0.1, 0.5, 1.0):
            for t in (0.1, 0.5, 1.0):
                for d in (0.1, 1.0, 2.0):
                    y = geodesic_point(space, d)
                    res = chapman_kolmogorov_residual(space, s, t,
                                                      space.origin(), y)
                    worst_ck = max(worst_ck, res)
    ok = worst_ck < 1e-6 and worst_mass < 1e-6
    verdict_line(capsys, 4, ok, started, 60.0,
                 f"max CK residual {worst_ck:.2e}, max mass defect {worst_mass:.2e}")


def test_criterion_05_volume_profiles(capsys):
    started = time.monotonic()
    vals = (
        (model_ball_volume(VolumeProfile(3, 0.0), 1.0), 4.0 * math.pi / 3.0),
        (model_ball_volume(VolumeProfile(2, -1.0), 1.0),
         2.0 * math.pi * (math.cosh(1.0) - 1.0)),
        (model_ball_volume(VolumeProfile(3, 1.0), math.pi),
         2.0 * math.pi ** 2),
    )
    ok = all(abs(got - want) < 1e-10 for got, want in vals)
    for m in (2, 3):
        neg = VolumeProfile(m, -1.0)
        fla = VolumeProfile(m, 0.0)
        pos = VolumeProfile(m, 1.0)
        for r in np.linspace(0.05, math.pi - 0.05, 25):
            a = model_ball_volume(neg, float(r))
            b = model_ball_volume(fla, float(r))
            c = model_ball_volume(pos, float(r))
            ok = ok and a >= b >= c
    verdict_line(capsys, 5, ok, started, 1.0,
                 "ball volumes match closed forms and order by curvature")


def test_criterion_06_kato_inequality(capsys):
    started = time.monotonic()
    rng = np.random.default_rng(606)
    worst_rel = math.inf
    ok = True
    for trial in range(10):
        mesh = random_bundle_mesh(12 + trial, fiber_dim=1 + trial % 3,
                                  seed=700 + trial, dirichlet_count=trial % 3)
        for _ in range(1000):
            f = random_section(mesh, rng, normalize=False)
            gap = kato_inequality_gap(mesh, f)
            scale = max(1.0, quad_form(mesh, f).kinetic)
            rel = gap / scale
            worst_rel = min(worst_rel, rel)
            ok = ok and rel >= -1e-12
    # a new, validated mesh: the same graph with unit transports
    base = random_bundle_mesh(15, fiber_dim=1, seed=911)
    eq_mesh = dataclasses.replace(base, transports=np.ones_like(base.transports))
    worst_eq = 0.0
    for _ in range(100):
        f = np.abs(rng.standard_normal((eq_mesh.n_vertices, 1)))
        gap = kato_inequality_gap(eq_mesh, f)
        worst_eq = max(worst_eq, abs(gap))
        ok = ok and abs(gap) < 1e-12
    verdict_line(capsys, 6, ok, started, 30.0,
                 f"10k section gaps >= -1e-12 (worst rel {worst_rel:.1e}), "
                 f"equality gap {worst_eq:.1e}")


def test_criterion_07_semigroup_domination(capsys):
    started = time.monotonic()
    rng = np.random.default_rng(707)
    worst = math.inf
    ok = True
    for trial in range(100):
        mesh = random_bundle_mesh(int(rng.integers(6, 31)),
                                  fiber_dim=int(rng.integers(1, 4)),
                                  seed=int(rng.integers(0, 2 ** 31)),
                                  dirichlet_count=int(rng.integers(0, 3)))
        f = random_section(mesh, rng, normalize=False)
        t = float(rng.choice([0.1, 1.0, 10.0]))
        gap = semigroup_domination_gap(mesh, f, t)
        worst = min(worst, gap)
        ok = ok and gap >= -1e-10
    verdict_line(capsys, 7, ok, started, 60.0,
                 f"100 domination gaps >= -1e-10 (worst {worst:.1e})")


def test_criterion_08_klmn_chain(capsys):
    started = time.monotonic()
    mesh, values = bundled.coulomb_interval_system()
    v2 = np.maximum(-values, 0.0)
    c1 = klmn_optimal_c1(mesh, v2, 4.0)
    lowest = form_sum_spectrum(mesh, V=values).lowest
    ok = c1 <= 0.5 + 0.05 and lowest >= -4.0
    verdict_line(capsys, 8, ok, started, 120.0,
                 f"optimal C1 {c1:.4f} <= 0.55 and ground energy "
                 f"{lowest:.4f} >= -4.0")


def test_criterion_09_form_limit(capsys):
    started = time.monotonic()
    rng = np.random.default_rng(909)
    worst_defect, ok = 0.0, True
    t_grid = (1e-6, 1e-5, 1e-4, 1e-3)
    for trial in range(100):
        mesh = random_bundle_mesh(int(rng.integers(4, 16)),
                                  fiber_dim=1 + trial % 3,
                                  seed=3000 + trial,
                                  w_range=(0.02, 0.05))
        f = random_section(mesh, rng)
        res = form_limit_check(mesh, f, t_grid)
        worst_defect = max(worst_defect, res.defect)
        ok = ok and res.monotone and res.defect < 1e-8
    verdict_line(capsys, 9, ok, started, 30.0,
                 f"quotients monotone, worst defect {worst_defect:.1e} < 1e-8")


def test_criterion_10_feynman_kac_cross_validation(capsys):
    started = time.monotonic()
    # independent route 1: running Coulomb integral against the closed form
    cfg = PathConfig(space=E3, start=(0.0, 0.0, 0.0), horizon=0.01,
                     step=1e-5, n_paths=100_000, seed=1010)
    est = mc_kato_integral(coulomb(E3), cfg)
    want = 0.159577
    # the randomized-time route is unbiased (bias_bound 0), so 3 SE alone
    tol = 3.0 * est.std_error
    ok = abs(est.value - want) <= tol and est.bias_bound == 0.0
    detail = (f"Coulomb integral {est.value:.6f} vs {want} "
              f"(tol {tol:.2e})")

    # independent route 2: covariant estimator against the Peierls mesh flow
    b_field, t, spacing = 1.0, 0.2, 0.1
    mesh = grid_mesh_2d(2.4, spacing, b_field=b_field)
    side = mesh.metadata["side"]
    origin = ((side - 1) // 2) * side + (side - 1) // 2

    def psi(p):
        return np.exp(-0.5 * np.sum(p * p, axis=1))

    def gauge(p):
        return 0.5 * b_field * np.stack([-p[:, 1], p[:, 0]], axis=1)

    mesh_value = complex(semigroup_evolve(mesh, psi(mesh.positions), t)[origin, 0])
    step = 1e-3
    cfg2 = PathConfig(space=E2, start=(0.0, 0.0), horizon=t, step=step,
                      n_paths=40_000, seed=2020)
    cov = mc_covariant_semigroup(psi, gauge, cfg2)
    # the five-point scheme is second order in the spacing; envelopes are
    # calibrated (measured 1.0e-3 per unit step weak error, 0.032 a^2 mesh
    # error) with a 3x margin on each
    tol2 = 3.0 * cov.std_error + 1.0 * step + 0.1 * spacing ** 2
    ok2 = abs(cov.value - mesh_value) <= tol2
    scalar_cap = (cov.extras["scalar_value"]
                  + 3.0 * cov.extras["scalar_std_error"])
    ok3 = abs(cov.value) <= scalar_cap
    detail += (f"; covariant {abs(cov.value):.5f} vs mesh {mesh_value.real:.5f} "
               f"(tol {tol2:.2e}), magnitude within scalar cap")
    verdict_line(capsys, 10, ok and ok2 and ok3, started, 600.0, detail)


def test_criterion_11_reference_determinism(capsys, tmp_path):
    started = time.monotonic()
    ok = True
    for name in bundled.list_configs():
        digests = []
        for tag in ("a", "b"):
            out = tmp_path / f"{name}-{tag}"
            code = cli.main(["run", "--config",
                             str(bundled.config_dir() / f"{name}.json"),
                             "--out", str(out), "--reference"])
            ok = ok and code == 0
            digests.append((out / "report.json").read_bytes())
        ok = ok and digests[0] == digests[1]
    verdict_line(capsys, 11, ok, started, 600.0,
                 f"{len(bundled.list_configs())} bundled configs byte-stable "
                 "under reference reruns")

#!/usr/bin/env python3
"""Monte Carlo path estimators as an independent cross-check.

None of these numbers reuse the quadrature code: paths and exact
positions are sampled with counter-based RNG streams and the estimators
carry standard errors plus a bias bound (the computed truncation of a
series, or an explicit discretization envelope), so agreement is a
genuine two-route test.
"""

import math

import numpy as np

from katoform.feynman_kac import (KillingRegion, PathConfig,
                                  mc_covariant_semigroup, mc_heat_expectation,
                                  mc_kato_integral)
from katoform.geometry import EUCLIDEAN, HYPERBOLIC, ModelSpace, geodesic_point
from katoform.mesh import grid_mesh_2d
from katoform.operators import semigroup_evolve
from katoform.potentials import coulomb

E2 = ModelSpace(EUCLIDEAN, 2)
E3 = ModelSpace(EUCLIDEAN, 3)
H3 = ModelSpace(HYPERBOLIC, 3)

print("running Coulomb integral E int_0^t 1/|X_s| ds from the origin")
cfg = PathConfig(space=E3, start=(0.0, 0.0, 0.0), horizon=0.01, step=1e-4,
                 n_paths=20000, seed=42)
# by randomized time: each sample is one time s = t U^2, weighted by
# 2 sqrt(st), and one exact position, so no step enters and the bias bound is 0
est = mc_kato_integral(coulomb(E3), cfg)
want = 2.0 * math.sqrt(2.0 * 0.01 / math.pi)
print(f"  estimate {est.value:.6f} +/- {est.std_error:.6f} "
      f"(bias bound {est.bias_bound:.4f})")
print(f"  closed form 2 sqrt(2t/pi) = {want:.6f}")

print("\nsurvival in the unit ball, t = 0.1")
series = 2.0 * sum((-1) ** (n + 1) * math.exp(-n * n * math.pi ** 2 * 0.1 / 2)
                   for n in range(1, 60))
cfg = PathConfig(space=E3, start=(0.0, 0.0, 0.0), horizon=0.1, step=1e-3,
                 n_paths=20000, seed=7,
                 domain=KillingRegion(kind="ball", radius=1.0))
est = mc_heat_expectation(lambda p: np.ones(p.shape[0]), cfg)
# from the centre each path is one exact endpoint draw, weighted by the
# chance that its Bessel bridge stayed inside: killing in continuous time
print(f"  estimate {est.value:.5f} +/- {est.std_error:.5f} "
      f"({est.n_effective} of {cfg.n_paths} paths end inside, "
      f"series truncation {est.bias_bound:.1e})")
print(f"  eigenfunction series      {series:.5f}")

print("\nE cosh d(x, B_t) on H^3 from a point x at distance 1 from the origin")
# Delta cosh d = 3 cosh d on H^3, so the mean grows like exp(3t/2); the
# Minkowski pairing with the start is cosh d.  With no killing region each
# path is one exact endpoint: drawn at the origin with the Doob weight and
# moved to x by the Lorentz boost, so the step does not enter
x = geodesic_point(H3, 1.0)
for t in (0.25, 0.5, 1.0):
    cfg = PathConfig(space=H3, start=tuple(x), horizon=t, step=t / 64,
                     n_paths=20000, seed=17)
    est = mc_heat_expectation(lambda p: p[:, 0] * x[0] - p[:, 1:] @ x[1:], cfg)
    print(f"  t = {t:4.2f}: estimate {est.value:.4f} +/- {est.std_error:.4f}, "
          f"exp(3t/2) = {math.exp(1.5 * t):.4f}")

print("\ncovariant semigroup, constant field B = 1, vs the Peierls mesh")
mesh = grid_mesh_2d(2.4, 0.1, b_field=1.0)
side = mesh.metadata["side"]
origin = ((side - 1) // 2) * side + (side - 1) // 2


def psi(p):
    return np.exp(-0.5 * np.sum(p * p, axis=1))


def gauge(p):
    return 0.5 * np.stack([-p[:, 1], p[:, 0]], axis=1)


mesh_value = semigroup_evolve(mesh, psi(mesh.positions), 0.2)[origin, 0]
cfg = PathConfig(space=E2, start=(0.0, 0.0), horizon=0.2, step=1e-3,
                 n_paths=20000, seed=13)
cov = mc_covariant_semigroup(psi, gauge, cfg)
print(f"  path estimate |{cov.value:.5f}| = {abs(cov.value):.5f} "
      f"+/- {cov.std_error:.5f}")
print(f"  mesh exponential at the same point: {mesh_value.real:.5f}")
print(f"  scalar estimate (no field): {cov.extras['scalar_value']:.5f} "
      f">= magnitude, domination_ok={cov.extras['domination_ok']}")

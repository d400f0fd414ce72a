"""Reference values the benchmark checks katoform's answers against.

Every function here is a closed form, or a short quadrature of one, derived
independently of katoform's own code paths.  Heat kernels use the Delta/2
normalization throughout, as katoform does.
"""

from __future__ import annotations

import math

import numpy as np
from scipy.integrate import quad
from scipy.special import erf, erfc

# Tolerance for deterministic quadrature values: katoform's outer relative
# target (quadrature.OUTER_REL).
QUAD_REL = 1e-7


def rel_close(value, want, rel):
    return abs(value - want) <= rel * abs(want)


# ---------------------------------------------------------------------------
# Kato functionals of the Coulomb potential 1/r, probe at the origin

def eta_coulomb_r3(t):
    """eta(t) on R^3: integral_0^t E|B_s|^{-1} ds = 2 sqrt(2t/pi)."""
    return 2.0 * math.sqrt(2.0 * t / math.pi)


def resolvent_coulomb_r3(r):
    """C_r on R^3: integral_0^inf e^{-rs} sqrt(2/(pi s)) ds = sqrt(2/r)."""
    return math.sqrt(2.0 / r)


# C_8 = 1/2 on R^3, so the KLMN search for target C1 = 1/2 lands on r = 8.
KLMN_COULOMB_R3 = (8.0, 0.5, 4.0)


def eta_coulomb_r3_offcentre(t, b):
    """eta at a probe at distance b > 0: E|x + B_s|^{-1} = erf(b/sqrt(2s))/b."""
    val, _ = quad(lambda s: erf(b / math.sqrt(2.0 * s)) / b, 0.0, t,
                  epsabs=0.0, epsrel=1e-12, limit=200)
    return val


def eta_coulomb_h3_origin(t):
    """eta(t) on H^3 = integral_0^t erf(sqrt(s/2))/s ds (s = u^2 below)."""
    val, _ = quad(lambda u: 2.0 * erf(u / math.sqrt(2.0)) / u if u > 0.0
                  else 2.0 * math.sqrt(2.0 / math.pi),
                  0.0, math.sqrt(t), epsabs=0.0, epsrel=1e-13, limit=200)
    return val


def resolvent_coulomb_h3_origin(r):
    """C_r on H^3 = ln((sqrt(2r+1)+1)/(sqrt(2r+1)-1))."""
    q = math.sqrt(2.0 * r + 1.0)
    return math.log((q + 1.0) / (q - 1.0))


def eta_coulomb_h2_origin(t):
    """eta(t) on H^2 by Fubini over the Millson-type kernel formula.

    With p_s(w) = sqrt(2) (2 pi s)^{-3/2} e^{-s/8}
    integral_w^inf rho e^{-rho^2/(2s)} / sqrt(cosh rho - cosh w) d rho,
    the time integral has the closed form K(rho) below, and the w integral
    (against |v| times the ring area, 2 pi sinh(w) / w) is done at fixed
    rho.  katoform integrates in the opposite order (time outside, space
    inside, kernel innermost), so this is an independent route.
    """

    def K(rho):
        # integral_0^t (2 pi s)^{-3/2} exp(-s/8 - rho^2/(2s)) ds
        a, b = 0.125, 0.5 * rho * rho
        q, c = math.sqrt(b / t), math.sqrt(a * t)
        ab = 2.0 * math.sqrt(a * b)
        return (2.0 * math.pi) ** -1.5 * 0.5 * math.sqrt(math.pi / b) * (
            math.exp(-ab) * erfc(q - c) + math.exp(ab) * erfc(q + c))

    def G(rho):
        # integral_0^rho 2 pi sinh(w)/(w sqrt(cosh rho - cosh w)) dw, w = rho - u^2
        def f(u):
            w = rho - u * u
            if u == 0.0:
                return 4.0 * math.pi * math.sinh(w) / w / math.sqrt(math.sinh(rho))
            ring = 2.0 * math.pi * (math.sinh(w) / w if w > 0.0 else 1.0)
            gap = 2.0 * math.sinh(rho - 0.5 * u * u) * math.sinh(0.5 * u * u)
            return ring * 2.0 * u / math.sqrt(gap)

        val, _ = quad(f, 0.0, math.sqrt(rho), epsabs=0.0, epsrel=1e-12, limit=200)
        return val

    reach = 2.0 + math.sqrt(100.0 * t)  # K(rho) ~ exp(-rho^2/(2t)) beyond
    val, _ = quad(lambda rho: rho * K(rho) * G(rho), 0.0, reach,
                  epsabs=0.0, epsrel=1e-11, limit=200)
    return math.sqrt(2.0) * val


def sandwich_violations(eta_rows, resolvent_rows):
    """Pairs (t, r) where (1 - e^{-rt}) C_r <= eta(t) <= e^{rt} C_r fails.

    Rows are (parameter, value, error) triples; the slack is twice the
    combined error estimate, as in kato.sandwich_check.
    """
    bad = []
    for t, eta, eta_err in eta_rows:
        for r, c, c_err in resolvent_rows:
            if not (math.isfinite(eta) and math.isfinite(c)):
                continue
            slack = 2.0 * (eta_err + math.exp(r * t) * c_err)
            lower = -math.expm1(-r * t) * c
            upper = math.exp(r * t) * c
            if not (lower <= eta + slack and eta <= upper + slack):
                bad.append((t, r))
    return bad


# ---------------------------------------------------------------------------
# Brownian survival in the unit ball, started at the centre

def ball_survival_r3(t, terms=60):
    """P(tau > t) = 2 sum (-1)^{n+1} exp(-n^2 pi^2 t / 2)."""
    return 2.0 * sum((-1) ** (n + 1) * math.exp(-n * n * math.pi ** 2 * t / 2.0)
                     for n in range(1, terms + 1))


def ball_survival_h3(t, terms=200):
    """Same on H^3: u = v / sinh r turns (1/2) Delta_H into (1/2)(d^2/dr^2 - 1).

    Expanding v(r, 0) = sinh r in sin(n pi r) on (0, 1) gives
    P(tau > t) = 2 sinh(1) sum (-1)^{n+1} k^2/(1+k^2) exp(-(k^2+1) t/2),
    k = n pi.
    """
    total = 0.0
    for n in range(1, terms + 1):
        k2 = (n * math.pi) ** 2
        total += (-1) ** (n + 1) * k2 / (1.0 + k2) * math.exp(-(k2 + 1.0) * t / 2.0)
    return 2.0 * math.sinh(1.0) * total


# ---------------------------------------------------------------------------
# magnetic Laplacian in the plane, symmetric gauge A = (B/2)(-y, x)

def landau_gaussian(t, points, a0, b_field):
    """(e^{-tH} g)(x) for g = exp(-a0 |x|^2), H = (1/2)(-i grad - A)^2.

    g is radial, so L_z g = 0 and H acts on it as the oscillator
    (1/2)(-Delta) + (B^2/8)|x|^2 with frequency w = B/2.  The Gaussian ansatz
    c(t) exp(-a(t)|x|^2) solves a' = w^2/2 - 2a^2, c'/c = -2a exactly.
    """
    w = 0.5 * abs(b_field)
    if w == 0.0:
        a, c = a0 / (1.0 + 2.0 * a0 * t), 1.0 / (1.0 + 2.0 * a0 * t)
    else:
        half = 0.5 * w
        th = math.tanh(w * t)
        a = half * (a0 + half * th) / (half + a0 * th)
        c = 1.0 / (math.cosh(w * t) + (a0 / half) * math.sinh(w * t))
    points = np.asarray(points, dtype=float)
    return c * np.exp(-a * np.sum(points * points, axis=-1))


def dirichlet_grid_ground(half_width, spacing):
    """Lowest eigenvalue of the scalar grid operator on [-L, L]^2, Dirichlet edge.

    The grid operator is (1/(2 a^2)) sum over the four neighbours, so it
    separates into two second differences: (2/a^2)(1 - cos(pi a / (2L))).
    """
    return 2.0 / spacing ** 2 * (1.0 - math.cos(math.pi * spacing / (2.0 * half_width)))


def flux_cycle_spectrum(k, theta):
    """Spectrum {1 - cos((2 pi m + theta)/k)} of the k-cycle with flux theta."""
    return sorted(1.0 - math.cos((2.0 * math.pi * m + theta) / k) for m in range(k))


# ---------------------------------------------------------------------------
# bundle-mesh forms, evaluated edge-vectorized (katoform loops over edges)

def kinetic_form(mesh, f):
    """(1/2) sum_e w_e ||f_u - U_e f_v||^2 with f zeroed on Dirichlet vertices.

    f is one (N, n) section or a stack (S, N, n); the result has shape ()
    or (S,).
    """
    f = np.where(mesh.dirichlet[:, None], 0.0, f)
    diff = f[..., mesh.edge_u, :] - np.einsum("eij,...ej->...ei", mesh.transports,
                                              f[..., mesh.edge_v, :])
    return 0.5 * np.sum(mesh.edge_w * np.sum(np.abs(diff) ** 2, axis=-1), axis=-1)


def kato_gap(mesh, f):
    """Bundle kinetic energy minus the scalar energy of the pointwise norm."""
    norms = np.where(mesh.dirichlet, 0.0, np.linalg.norm(f, axis=-1))
    d = norms[..., mesh.edge_u] - norms[..., mesh.edge_v]
    return kinetic_form(mesh, f) - 0.5 * np.sum(mesh.edge_w * d * d, axis=-1)


def generator_norm_bound(mesh):
    """Gershgorin bound on the largest eigenvalue of the mesh operator.

    Row u of the generator has diagonal (1/(2 mu_u)) sum_v w_uv and
    off-diagonal blocks of the same total norm.
    """
    load = np.zeros(mesh.n_vertices)
    np.add.at(load, mesh.edge_u, mesh.edge_w)
    np.add.at(load, mesh.edge_v, mesh.edge_w)
    return float(np.max(load / mesh.mu))

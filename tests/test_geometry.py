"""Geometry layer: model spaces, heat kernels, volume profiles.

Oracles used here:
  * closed-form Gaussian and hyperbolic kernel expressions evaluated
    independently with math/scipy inside the tests,
  * a numerically integrated hyperboloid geodesic ODE (solve_ivp) as an
    independent check of the exponential map,
  * exact ball volumes 4 pi / 3, 2 pi (cosh 1 - 1), 2 pi^2.
"""

import math

import numpy as np
import pytest
from scipy.integrate import quad, solve_ivp

from katoform.errors import DomainError, InvalidPointError
from katoform.geometry import (EUCLIDEAN, HYPERBOLIC, ModelSpace,
                               VolumeProfile, chapman_kolmogorov_residual,
                               distance, geodesic_point, h_kernel,
                               heat_kernel, heat_kernel_radial, heat_mass,
                               law_of_cosines, model_ball_volume, ring_area)
from katoform.kato import analytic_kato_functional
from katoform.potentials import coulomb

E1, E2, E3 = (ModelSpace(EUCLIDEAN, m) for m in (1, 2, 3))
H2, H3 = (ModelSpace(HYPERBOLIC, m) for m in (2, 3))


# ---------------------------------------------------------------------------
# model space plumbing

def test_origin_and_validation():
    assert np.allclose(E3.origin(), [0.0, 0.0, 0.0])
    assert np.allclose(H3.origin(), [1.0, 0.0, 0.0, 0.0])
    with pytest.raises(InvalidPointError):
        E2.validate_point(np.array([1.0, 2.0, 3.0]))
    with pytest.raises(InvalidPointError):
        H2.validate_point(np.array([1.0, 0.5, 0.0]))  # not on the sheet


@pytest.mark.parametrize("space", [E2, H2], ids=["E2", "H2"])
@pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf])
def test_validate_point_rejects_non_finite(space, bad):
    x = space.origin()
    x[-1] = bad
    with pytest.raises(InvalidPointError, match="non-finite"):
        space.validate_point(x)


@pytest.mark.parametrize("x", [(1e200, 0.0, 0.0, 0.0), (1e200, 5e199, 0.0, 0.0)])
def test_validate_point_rejects_far_points_off_the_sheet(x):
    """x_0^2 overflows here; the check relative to x_0^2 must not."""
    with pytest.raises(InvalidPointError, match="hyperboloid"):
        H3.validate_point(x)


def test_validate_point_accepts_far_points_on_the_sheet():
    x = geodesic_point(H3, 400.0)        # x_0 about 2.6e173
    assert np.array_equal(H3.validate_point(x), x)


def test_unsupported_spaces_rejected():
    with pytest.raises(DomainError):
        ModelSpace("hyperbolic", 1)
    with pytest.raises(DomainError):
        ModelSpace("euclidean", 0)
    with pytest.raises(DomainError):
        ModelSpace("mystery", 2)


def test_geodesic_point_distance_round_trip():
    for space in (E1, E2, E3, H2, H3):
        for r in (0.0, 0.3, 1.7, 4.0):
            x = geodesic_point(space, r)
            assert distance(space, space.origin(), x) == pytest.approx(r, abs=1e-12)


@pytest.mark.parametrize("space,direction", [
    (E3, [1.0, 0.0]),                    # once returned the 2-D point (0.5, 0)
    (E3, [math.nan, 0.0, 0.0]),          # once a nan point with a RuntimeWarning
    (E3, [math.inf, 1.0, 0.0]),
    (E3, [0.0, 0.0, 0.0]),
    (E3, [1e200, 1e200, 0.0]),           # finite, but its norm overflows
    (E3, [[1.0, 0.0, 0.0]]),
    (H3, [1.0, 0.0]),                    # once a bare numpy ValueError
    (H3, [math.nan, 1.0, 0.0]),
], ids=["E3_short", "E3_nan", "E3_inf", "E3_zero", "E3_overflow", "E3_row", "H3_short",
        "H3_nan"])
def test_geodesic_point_refuses_a_bad_direction(space, direction):
    with pytest.raises(DomainError, match="direction"):
        geodesic_point(space, 0.5, direction)


def test_geodesic_point_refuses_an_overflowing_cosh():
    # once a bare OverflowError; R^3 takes the same radius
    with pytest.raises(DomainError, match="overflows"):
        geodesic_point(H3, 800.0)
    assert np.isfinite(geodesic_point(H3, 710.0)).all()
    assert np.array_equal(geodesic_point(E3, 800.0, (0.0, 2.0, 0.0)), [0.0, 800.0, 0.0])


def test_hyperboloid_geodesic_matches_ode_oracle():
    # Minkowski geodesics on the hyperboloid satisfy x'' = x (unit speed).
    r = 1.3
    direction = np.array([0.6, 0.8, 0.0])

    def rhs(_s, y):
        return np.concatenate([y[4:], y[:4]])

    y0 = np.concatenate([H3.origin(), [0.0, *direction]])
    sol = solve_ivp(rhs, (0.0, r), y0, rtol=1e-12, atol=1e-12,
                    dense_output=True)
    expected = sol.y[:4, -1]
    got = geodesic_point(H3, r, direction=direction)
    assert np.allclose(got, expected, atol=1e-9)


def test_hyperbolic_law_of_cosines_against_direct_distance():
    a, b, gamma = 0.9, 1.4, 2.0 * math.pi / 5.0
    u = np.array([1.0, 0.0])
    v = np.array([math.cos(gamma), math.sin(gamma)])
    x = geodesic_point(H2, a, direction=u)
    y = geodesic_point(H2, b, direction=v)
    assert law_of_cosines(H2, a, b, gamma) == pytest.approx(
        distance(H2, x, y), abs=1e-12)


@pytest.mark.parametrize("theta", [1e-9, 1e-6])
def test_law_of_cosines_small_angle(theta):
    # the cosine form loses every digit of d = 2 a sin(theta/2) here
    a = 0.5
    assert law_of_cosines(E2, a, a, theta) == pytest.approx(2.0 * a * math.sin(0.5 * theta),
                                                            rel=1e-14)
    assert law_of_cosines(H2, a, a, theta) == pytest.approx(
        2.0 * math.asinh(math.sinh(a) * math.sin(0.5 * theta)), rel=1e-14)


def test_euclidean_law_of_cosines():
    a, b, gamma = 2.0, 3.0, math.pi / 3.0
    expected = math.sqrt(a * a + b * b - 2 * a * b * math.cos(gamma))
    assert law_of_cosines(E2, a, b, gamma) == pytest.approx(expected, rel=1e-14)


# ---------------------------------------------------------------------------
# heat kernels (Delta/2 convention)

def test_euclidean_kernel_closed_forms():
    # p_t(d) = (2 pi t)^(-m/2) exp(-d^2 / (2t))
    assert heat_kernel_radial(E1, 1.0, np.array([0.0]))[0] == pytest.approx(
        1.0 / math.sqrt(2.0 * math.pi), rel=1e-14)
    val = heat_kernel_radial(E3, 0.5, np.array([1.0]))[0]
    assert val == pytest.approx(math.pi ** -1.5 * math.exp(-1.0), rel=1e-14)
    grid = np.array([0.0, 0.2, 1.5, 3.0])
    expect = (2 * math.pi * 0.7) ** -1.0 * np.exp(-grid ** 2 / 1.4)
    assert np.allclose(heat_kernel_radial(E2, 0.7, grid), expect, rtol=1e-14)


def test_h3_kernel_closed_form():
    # p_t(d) = (2 pi t)^(-3/2) (d / sinh d) exp(-t/2 - d^2/(2t))
    t, d = 0.8, 1.9
    expect = ((2 * math.pi * t) ** -1.5 * (d / math.sinh(d))
              * math.exp(-t / 2.0 - d * d / (2.0 * t)))
    assert heat_kernel_radial(H3, t, np.array([d]))[0] == pytest.approx(
        expect, rel=1e-13)
    # d -> 0 limit: (2 pi t)^(-3/2) exp(-t/2)
    small = heat_kernel_radial(H3, 1.0, np.array([1e-9]))[0]
    assert small == pytest.approx((2 * math.pi) ** -1.5 * math.exp(-0.5),
                                  rel=1e-9)


def test_h2_kernel_against_raw_integral():
    # McKean: p_t(d) = sqrt(2) (2 pi t)^(-3/2) e^(-t/8)
    #                  * int_d^inf s e^(-s^2/(2t)) / sqrt(cosh s - cosh d) ds
    # evaluated here directly with an endpoint-singularity split.
    t, d = 1.0, 1.2

    def integrand(u):
        # substitution s = d + u^2 regularizes the endpoint
        s = d + u * u
        return (s * math.exp(-s * s / (2 * t)) * 2.0 * u
                / math.sqrt(math.cosh(s) - math.cosh(d)))

    val, err = quad(integrand, 0.0, math.sqrt(60.0 - d), limit=300)
    expect = math.sqrt(2.0) * (2 * math.pi * t) ** -1.5 * math.exp(-t / 8) * val
    got = heat_kernel_radial(H2, t, np.array([d]))[0]
    assert got == pytest.approx(expect, rel=1e-7)


def test_heat_kernel_point_form_matches_radial():
    x = geodesic_point(H3, 0.9)
    y = geodesic_point(H3, 1.4, direction=np.array([0.0, 1.0, 0.0]))
    d = distance(H3, x, y)
    assert heat_kernel(H3, 0.6, x, y) == pytest.approx(
        heat_kernel_radial(H3, 0.6, np.array([d]))[0], rel=1e-13)


@pytest.mark.parametrize("space", [E1, E2, E3, H2, H3])
@pytest.mark.parametrize("t", [0.1, 1.0])
def test_heat_mass_is_one(space, t):
    assert abs(heat_mass(space, t) - 1.0) < 1e-6


@pytest.mark.parametrize("space,s,t,d", [
    (E1, 0.2, 0.5, 0.0), (E1, 0.1, 0.1, 1.3),
    (E3, 0.3, 0.4, 0.7), (E3, 0.05, 0.2, 2.0),
    (H3, 0.2, 0.3, 0.0), (H3, 0.5, 0.5, 1.5),
])
def test_chapman_kolmogorov(space, s, t, d):
    y = geodesic_point(space, d)
    assert chapman_kolmogorov_residual(space, s, t, space.origin(), y) < 1e-6


def test_chapman_kolmogorov_h2_spot():
    y = geodesic_point(H2, 0.8)
    assert chapman_kolmogorov_residual(H2, 0.4, 0.6, H2.origin(), y) < 1e-5


# the self-tests integrate on the package's own panels: no QUADPACK call
@pytest.mark.parametrize("space", [E1, E3, H2, H3])
def test_quadpack_budget_heat_mass(space, evaluations):
    assert abs(heat_mass(space, 0.5) - 1.0) < 1e-6
    assert evaluations.quadpack == 0


@pytest.mark.parametrize("space", [E3, H2])
def test_quadpack_budget_chapman_kolmogorov(space, evaluations):
    y = geodesic_point(space, 0.8)
    assert chapman_kolmogorov_residual(space, 0.4, 0.6, space.origin(), y) < 1e-5
    assert evaluations.quadpack == 0


def test_kernel_rejects_bad_time():
    with pytest.raises(DomainError):
        heat_kernel_radial(E3, 0.0, np.array([1.0]))
    with pytest.raises(DomainError):
        heat_kernel_radial(E3, -1.0, np.array([1.0]))


# a NaN passes a `<= 0` test, so each check reads `not 0 < x < inf`
NON_FINITE_ARGUMENT = {
    "analytic_kato_functional": lambda x: analytic_kato_functional(coulomb(E3), x, [E3.origin()]),
    "heat_kernel_radial_E3": lambda x: heat_kernel_radial(E3, x, 0.5),
    "heat_kernel_radial_H2": lambda x: heat_kernel_radial(H2, x, 0.5),
    "chapman_kolmogorov_s": lambda x: chapman_kolmogorov_residual(
        E3, x, 0.5, E3.origin(), geodesic_point(E3, 0.5)),
    "chapman_kolmogorov_t": lambda x: chapman_kolmogorov_residual(
        E3, 0.5, x, E3.origin(), geodesic_point(E3, 0.5)),
    "geodesic_point": lambda x: geodesic_point(E3, x),
}


@pytest.mark.parametrize("x", [math.nan, math.inf], ids=["nan", "inf"])
@pytest.mark.parametrize("call", sorted(NON_FINITE_ARGUMENT))
def test_non_finite_radius_or_time_is_a_domain_error(call, x):
    with pytest.raises(DomainError):
        NON_FINITE_ARGUMENT[call](x)


# ---------------------------------------------------------------------------
# spheres and volumes

def test_ring_area_closed_forms():
    w = 1.3
    assert ring_area(E3, w) == pytest.approx(4 * math.pi * w * w, rel=1e-14)
    assert ring_area(E2, w) == pytest.approx(2 * math.pi * w, rel=1e-14)
    assert ring_area(H3, w) == pytest.approx(
        4 * math.pi * math.sinh(w) ** 2, rel=1e-14)
    assert ring_area(H2, w) == pytest.approx(
        2 * math.pi * math.sinh(w), rel=1e-14)
    assert ring_area(E1, w) == pytest.approx(2.0, rel=1e-14)


def test_ball_volume_reference_values():
    assert model_ball_volume(VolumeProfile(3, 0.0), 1.0) == pytest.approx(
        4.0 * math.pi / 3.0, abs=1e-10)
    assert model_ball_volume(VolumeProfile(2, -1.0), 1.0) == pytest.approx(
        2.0 * math.pi * (math.cosh(1.0) - 1.0), abs=1e-10)
    assert model_ball_volume(VolumeProfile(3, 1.0), math.pi) == pytest.approx(
        2.0 * math.pi ** 2, abs=1e-10)


def test_ball_volume_curvature_ordering():
    for m in (2, 3):
        for r in np.linspace(0.05, math.pi - 0.05, 24):
            neg = model_ball_volume(VolumeProfile(m, -1.0), r)
            fla = model_ball_volume(VolumeProfile(m, 0.0), r)
            pos = model_ball_volume(VolumeProfile(m, 1.0), r)
            assert neg >= fla >= pos


def test_ball_volume_kappa_scaling():
    # l_{m,kappa}(r) rescales through snk(r) = sin(sqrt(k) r)/sqrt(k).
    r, kap = 0.7, 2.5
    direct = model_ball_volume(VolumeProfile(2, kap), r)
    expect = 2 * math.pi * quad(
        lambda s: (math.sin(math.sqrt(kap) * s) / math.sqrt(kap)), 0, r)[0]
    assert direct == pytest.approx(expect, rel=1e-12)


def test_positive_curvature_radius_cap():
    with pytest.raises(DomainError):
        model_ball_volume(VolumeProfile(3, 1.0), math.pi + 0.01)


def test_h_kernel_values():
    assert h_kernel(3, 0.25) == pytest.approx(4.0, rel=1e-14)       # r^(2-m)
    assert h_kernel(2, 0.25) == pytest.approx(math.log(4.0), rel=1e-14)
    with pytest.raises(DomainError):
        h_kernel(1, 0.5)

"""Kato functionals against closed-form Gaussian oracles.

Frozen reference values (all derived independently of the implementation):

  * Coulomb on R^3, averages from the origin:
      E[1/|B_s|] = sqrt(2/pi) s^(-1/2)
    and from |x| = b:
      E[1/|x + B_s|] = erf(b / sqrt(2 s)) / b,
    hence eta(t) = 2 sqrt(2 t / pi) and C_r = sqrt(2 / r).
  * constant c: average c, eta = c t, C_r = c / r.
  * 1/|y|^2 on R^3: average 1/s, eta divergent.
  * |x|^(-1/2) on R: average (2 pi s)^(-1/2) (2 s)^(1/4) Gamma(1/4).
  * analytic functional, m = 3 Coulomb at the origin, radius rho: 4 pi rho.
  * analytic functional, m = 2, v = 1, radius 1/2:
      2 pi (ln(2)/8 + 1/16) = 0.9370956042746247.
  * Green potential of the unit bump (1 - r^2)^2 on R^3 at the origin:
      C_0 = 2 integral_0^1 w (1 - w^2)^2 dw = 1/3.
"""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf

from katoform import geometry, kato
from katoform.errors import ConvergenceError, DomainError, NotFormBoundedError
from katoform.geometry import (EUCLIDEAN, HYPERBOLIC, ModelSpace, geodesic_point, h_kernel,
                               sphere_mean)
from katoform.kato import (analytic_kato_functional, form_bound_constants,
                           kato_eta, kato_verdict, lp_kato_classify,
                           resolvent_constant, sandwich_check)
from katoform.potentials import (Potential, bump, constant, coulomb, inverse_power,
                                 inverse_square)
from katoform.reports import kato_report_json
from nested_oracle import (algebraic_weight_integral, heat_potential_average, nested_eta_b,
                           nested_resolvent_b, qaws_sphere_mean)

E1 = ModelSpace(EUCLIDEAN, 1)
E2 = ModelSpace(EUCLIDEAN, 2)
E3 = ModelSpace(EUCLIDEAN, 3)
E4 = ModelSpace(EUCLIDEAN, 4)
H2 = ModelSpace(HYPERBOLIC, 2)
H3 = ModelSpace(HYPERBOLIC, 3)

COULOMB = coulomb(E3)
ORIGIN3 = [E3.origin()]


# ---------------------------------------------------------------------------
# heat-kernel averages, the inner integral of the nested oracle

def test_coulomb_average_at_origin():
    for s in (1e-4, 1e-2, 1.0):
        expect = math.sqrt(2.0 / math.pi) / math.sqrt(s)
        got = heat_potential_average(COULOMB, E3.origin(), s)
        assert got == pytest.approx(expect, rel=1e-9)


def test_coulomb_average_off_center():
    b, s = 0.5, 0.02
    expect = erf(b / math.sqrt(2.0 * s)) / b
    x = np.array([b, 0.0, 0.0])
    assert heat_potential_average(COULOMB, x, s) == pytest.approx(
        expect, rel=1e-9)


def test_constant_average_everywhere():
    v = constant(E3, value=2.5)
    for x in (E3.origin(), np.array([1.0, -2.0, 0.5])):
        assert heat_potential_average(v, x, 0.3) == pytest.approx(
            2.5, rel=1e-9)


def test_inverse_square_average():
    v = inverse_square(E3)
    for s in (0.1, 1.0):
        assert heat_potential_average(v, E3.origin(), s) == pytest.approx(
            1.0 / s, rel=1e-8)


def test_line_inverse_sqrt_average():
    v = inverse_power(E1, power=0.5)
    s = 0.1
    expect = (2 * math.pi * s) ** -0.5 * (2 * s) ** 0.25 * math.gamma(0.25)
    got = heat_potential_average(v, E1.origin(), s)
    assert got == pytest.approx(expect, rel=1e-9)
    assert got == pytest.approx(3.0587828, rel=1e-7)


def test_h3_constant_average():
    v = constant(H3, value=1.0)
    x = geodesic_point(H3, 0.7)
    assert heat_potential_average(v, x, 0.4) == pytest.approx(1.0, rel=1e-8)


# ---------------------------------------------------------------------------
# eta and the resolvent constant

def test_eta_coulomb_closed_form():
    for t in (1e-4, 1e-2, 0.5):
        value, probe = kato_eta(COULOMB, t, ORIGIN3)
        assert value == pytest.approx(2.0 * math.sqrt(2.0 * t / math.pi),
                                      rel=1e-7)
        assert np.allclose(probe, E3.origin())


def test_eta_frozen_value():
    value, _ = kato_eta(COULOMB, 0.01, ORIGIN3)
    assert value == pytest.approx(0.15957691216057307, rel=1e-8)


def test_eta_constant_linear_in_t():
    v = constant(E3, value=3.0)
    value, _ = kato_eta(v, 0.2, ORIGIN3)
    assert value == pytest.approx(0.6, rel=1e-9)


def test_eta_divergent_for_inverse_square():
    value, _ = kato_eta(inverse_square(E3), 0.1, ORIGIN3)
    assert value == math.inf


def test_eta_picks_worst_probe():
    # for the bump the origin dominates any far-away probe
    v = bump(E3, amplitude=1.0, radius=1.0)
    probes = [np.array([5.0, 0.0, 0.0]), E3.origin()]
    value, probe = kato_eta(v, 0.05, probes)
    assert np.allclose(probe, E3.origin())
    assert value > 0.0


def test_resolvent_constant_closed_form():
    for r in (2.0, 8.0, 100.0):
        got = resolvent_constant(COULOMB, r, ORIGIN3)
        assert got == pytest.approx(math.sqrt(2.0 / r), rel=1e-6)


def test_resolvent_constant_constant_potential():
    v = constant(E3, value=4.0)
    assert resolvent_constant(v, 8.0, ORIGIN3) == pytest.approx(0.5, rel=1e-8)


def test_resolvent_constant_at_r_zero():
    # C_0 is the Green potential: finite for the bump, divergent for Coulomb
    assert resolvent_constant(bump(E3), 0.0, ORIGIN3) == pytest.approx(1.0 / 3.0, rel=1e-9)
    assert resolvent_constant(COULOMB, 0.0, ORIGIN3) == math.inf
    with pytest.raises(DomainError):
        resolvent_constant(COULOMB, -1.0, ORIGIN3)
    for space in (E1, E2):
        with pytest.raises(DomainError):
            resolvent_constant(constant(space, 1.0), 0.0, [space.origin()])


def test_eta_rejects_bad_time():
    with pytest.raises(DomainError):
        kato_eta(COULOMB, 0.0, ORIGIN3)


# ---------------------------------------------------------------------------
# sandwich inequalities

@pytest.mark.parametrize("v", [COULOMB, constant(E3, 1.0),
                               bump(E3, amplitude=2.0, radius=1.0)])
@pytest.mark.parametrize("r,t", [(1.0, 0.1), (8.0, 0.01), (4.0, 1.0)])
def test_sandwich_holds(v, r, t):
    res = sandwich_check(v, r, t, ORIGIN3)
    assert res.ok, (res.lower, res.eta, res.upper)
    assert res.lower <= res.eta + res.slack
    assert res.eta <= res.upper + res.slack


def test_sandwich_values_coulomb():
    # both bounds from C_r = sqrt(2/r) exactly
    r, t = 8.0, 0.01
    res = sandwich_check(COULOMB, r, t, ORIGIN3)
    cr = math.sqrt(2.0 / r)
    assert res.lower == pytest.approx((1.0 - math.exp(-r * t)) * cr, rel=1e-6)
    assert res.upper == pytest.approx(math.exp(r * t) * cr, rel=1e-6)


# ---------------------------------------------------------------------------
# the analytic membership functional

def test_analytic_functional_coulomb_center():
    rho = 0.5
    got = analytic_kato_functional(COULOMB, rho, ORIGIN3)
    assert got == pytest.approx(4.0 * math.pi * rho, rel=1e-8)


def test_analytic_functional_m2_frozen_value():
    v = constant(E2, value=1.0)
    got = analytic_kato_functional(v, 0.5, [E2.origin()])
    assert got == pytest.approx(0.9370956042746247, rel=1e-8)


def test_analytic_functional_linearity():
    a = analytic_kato_functional(COULOMB, 0.3, ORIGIN3)
    b = analytic_kato_functional(coulomb(E3, strength=2.0), 0.3, ORIGIN3)
    assert b == pytest.approx(2.0 * a, rel=1e-10)


def test_analytic_functional_rejects_m1():
    v = constant(E1, value=1.0)
    with pytest.raises(DomainError):
        analytic_kato_functional(v, 0.5, [E1.origin()])


def test_analytic_functional_m2_radius_cap():
    v = constant(E2, value=1.0)
    with pytest.raises(DomainError):
        analytic_kato_functional(v, 1.5, [E2.origin()])


# ---------------------------------------------------------------------------
# Lp sufficiency rule

def test_lp_rule():
    assert lp_kato_classify(2.0, 3) == "sufficient"
    assert lp_kato_classify(1.5, 3) == "not_covered"   # needs p > m/2
    assert lp_kato_classify(1.0, 1) == "sufficient"
    assert lp_kato_classify(1.0, 2) == "not_covered"
    assert lp_kato_classify(1.1, 2) == "sufficient"
    with pytest.raises(DomainError):
        lp_kato_classify(0.5, 3)


# ---------------------------------------------------------------------------
# form bounds

def test_form_bounds_coulomb_frozen_triple():
    r, c1, c2 = form_bound_constants(COULOMB, ORIGIN3, target_c1=0.5)
    assert c1 == pytest.approx(0.5, rel=1e-3)
    assert r == pytest.approx(8.0, rel=1e-2)
    assert c2 == pytest.approx(4.0, rel=1e-2)
    assert c2 == pytest.approx(r * c1, rel=1e-9)


def test_form_bounds_unattainable():
    with pytest.raises(NotFormBoundedError):
        form_bound_constants(inverse_square(E3), ORIGIN3, target_c1=0.5)


def test_form_bounds_green_potential_meets_target():
    # C_0 = 1/3 <= 1/2, so no positive r is needed
    r, c1, c2 = form_bound_constants(bump(E3), ORIGIN3, 0.5)
    assert r == 0.0 and c2 == 0.0
    assert c1 == pytest.approx(1.0 / 3.0, rel=1e-9)


def test_form_bounds_trivial_potential():
    r, c1, c2 = form_bound_constants(constant(E3, 0.0), ORIGIN3, 0.5)
    assert c1 == 0.0 and c2 == 0.0


# ---------------------------------------------------------------------------
# verdicts

T_GRID = [1e-4, 1e-3, 1e-2, 1e-1]


def test_verdict_coulomb_member():
    rep = kato_verdict(COULOMB, T_GRID, ORIGIN3)
    assert rep.verdict == "member"
    assert rep.klmn is not None
    assert rep.klmn[1] <= 0.5 * (1 + 1e-6)
    # eta ~ sqrt(t) so the fitted small-t exponent is about 1/2
    assert rep.fit_exponent == pytest.approx(0.5, abs=0.05)
    assert rep.locally_integrable


def test_verdict_inverse_square_nonmember():
    rep = kato_verdict(inverse_square(E3), T_GRID, ORIGIN3)
    assert rep.verdict == "nonmember"
    assert rep.klmn is None


def test_verdict_bounded_member():
    rep = kato_verdict(constant(E3, 1.0), T_GRID, ORIGIN3)
    assert rep.verdict == "member"


def test_verdict_bump_member():
    rep = kato_verdict(bump(E3, amplitude=1.0, radius=1.0), T_GRID, ORIGIN3)
    assert rep.verdict == "member"


def test_verdict_needs_four_times():
    with pytest.raises(DomainError):
        kato_verdict(COULOMB, [0.1, 0.2], ORIGIN3)


def test_verdict_needs_four_distinct_times():
    # the fit through the three smallest times would run through one time
    with pytest.raises(DomainError, match="4 distinct times"):
        kato_verdict(COULOMB, [0.01, 0.01, 0.01, 0.1], ORIGIN3)
    # a repeated time counts once
    rep = kato_verdict(constant(E3, 1.0), T_GRID + T_GRID[1:3], ORIGIN3)
    assert [row[0] for row in rep.eta_grid] == T_GRID


@pytest.mark.parametrize("space,r_grid", [(E3, (-1.0, 8.0)), (E3, (math.nan,)),
                                          (E3, (math.inf,)), (E1, (0.0,)), (E2, (0.0, 1.0))],
                         ids=["negative", "nan", "inf", "r0_on_R1", "r0_on_R2"])
def test_verdict_validates_r_grid(space, r_grid):
    # r = 0 on a recurrent space would report C_0 = inf rather than fail
    with pytest.raises(DomainError, match="resolvent parameter|transient"):
        kato_verdict(constant(space, 1.0), T_GRID, [space.origin()], r_grid=r_grid)


def test_sandwich_rejects_an_overflowing_envelope():
    with pytest.raises(DomainError, match="overflows"):
        sandwich_check(bump(E3), 1e5, 0.01, ORIGIN3)


def test_verdict_rejects_non_finite_times():
    with pytest.raises(DomainError, match="finite"):
        kato_verdict(COULOMB, T_GRID[:3] + [math.nan], ORIGIN3)


def test_report_json_shape():
    rep = kato_verdict(constant(E3, 1.0), T_GRID, ORIGIN3)
    obj = kato_report_json(rep)
    assert len(obj["eta_grid"]) == len(T_GRID)
    assert obj["verdict"] == "member"


def test_probes_must_cover_singularities():
    # all probes far from the origin leave the Coulomb singularity uncovered
    with pytest.raises(DomainError):
        kato_eta(COULOMB, 0.01, [np.array([3.0, 0.0, 0.0])])


# ---------------------------------------------------------------------------
# the kernel route against the nested time-and-space route

@pytest.mark.parametrize("space", [E3, H3, E2], ids=["R3", "H3", "R2"])
@pytest.mark.parametrize("make", [coulomb, bump, lambda sp: constant(sp, 2.0)],
                         ids=["coulomb", "bump", "constant"])
@pytest.mark.parametrize("b", [0.0, 0.5])
def test_kernel_route_matches_nested(space, make, b):
    v = make(space)
    eta, _ = kato._eta_b(v, b, 0.01)
    assert eta == pytest.approx(nested_eta_b(v, b, 0.01)[0], rel=1e-7)
    c_r, _ = kato._resolvent_b(v, b, 2.0)
    assert c_r == pytest.approx(nested_resolvent_b(v, b, 2.0)[0], rel=1e-7)


def test_kernel_route_matches_nested_h2_origin():
    v = coulomb(H2)
    eta, _ = kato._eta_b(v, 0.0, 0.01)
    assert eta == pytest.approx(nested_eta_b(v, 0.0, 0.01)[0], rel=1e-7)
    c_r, _ = kato._resolvent_b(v, 0.0, 8.0)
    assert c_r == pytest.approx(nested_resolvent_b(v, 0.0, 8.0)[0], rel=1e-7)


def test_kernel_route_matches_nested_r4_offcentre():
    v = coulomb(E4)
    eta, _ = kato._eta_b(v, 0.5, 0.01)
    assert eta == pytest.approx(nested_eta_b(v, 0.5, 0.01)[0], rel=1e-7)
    c_r, _ = kato._resolvent_b(v, 0.5, 2.0)
    assert c_r == pytest.approx(nested_resolvent_b(v, 0.5, 2.0)[0], rel=1e-7)


# the generic sphere mean also holds in dimension 3, where it must agree
# with the chord forms; on H^3 this pins its hyperbolic Jacobian
@pytest.mark.parametrize("space", [E3, H3], ids=["R3", "H3"])
@pytest.mark.parametrize("make", [coulomb, bump], ids=["coulomb", "bump"])
@pytest.mark.parametrize("kernel", [lambda sp: kato._heat_kernel(sp, 1e-2),
                                    lambda sp: kato._heat_kernel(sp, 1e-4),
                                    lambda sp: kato._green_kernel(sp, 8.0)],
                         ids=["K-1e-2", "K-1e-4", "G-8"])
def test_generic_sphere_mean_matches_chords(space, make, kernel):
    v, k = make(space), kernel(space)
    assert k.chord is not None
    chord, _ = kato._fubini_b(v, 0.5, k)
    generic, err = kato._fubini_b(v, 0.5, dataclasses.replace(k, chord=None))
    assert generic == pytest.approx(chord, rel=1e-12)
    assert 0.0 < err < 1e-7 * generic


@pytest.mark.parametrize("space", [E2, E3, E4, H2, H3], ids=["R2", "R3", "R4", "H2", "H3"])
@pytest.mark.parametrize("kernel", [lambda sp: kato._heat_kernel(sp, 1e-4),
                                    lambda sp: kato._heat_kernel(sp, 1e-2),
                                    lambda sp: kato._green_kernel(sp, 8.0)],
                         ids=["K-1e-4", "K-1e-2", "G-8"])
@pytest.mark.parametrize("b", [1e-3, 0.5, 2.0])
def test_sphere_mean_matches_qaws_and_chords(space, kernel, b):
    k = kernel(space)
    hyperbolic = space.kind == HYPERBOLIC
    if k.radial is None:
        def radial(rho, shift):
            return k.transform(rho, shift)[0]
    else:
        radial = k.radial
    assert sphere_mean(space, radial, 0.0, b) == (0.0, 0.0)
    for w in sorted({*np.linspace(0.25, 3.0, 12), b}):
        got, err = sphere_mean(space, radial, w, b)
        assert err <= 1e-8 * got + 1e-300
        want, _ = qaws_sphere_mean(radial, hyperbolic, space.dim, w, b)
        assert got == pytest.approx(want, rel=1e-10, abs=1e-300)
        if k.chord is not None:
            scaled, exponent = geometry._split_S(hyperbolic, w)
            s_b = math.sinh(b) if hyperbolic else b
            chord = 2.0 * math.pi * scaled * k.chord(abs(w - b), 2.0 * min(w, b), exponent) / s_b
            assert got == pytest.approx(chord, rel=1e-10, abs=1e-300)


@pytest.mark.parametrize("space", [E2, E4, H2], ids=["R2", "R4", "H2"])
def test_offcentre_eta_at_small_t(space):
    # the sphere of radius w ~ 1e-16 next to the probe once made the mean nan;
    # for small t, eta(t) is about t v(b) = 2e-4
    eta, err = kato._eta_b(coulomb(space), 0.5, 1e-4)
    assert math.isfinite(eta) and math.isfinite(err)
    assert eta == pytest.approx(2e-4, rel=1e-3)


def test_offcentre_probe_verdict_at_small_t():
    rep = kato_verdict(coulomb(E2), (1e-4, 1e-3, 1e-2, 1e-1),
                       [E2.origin(), geodesic_point(E2, 0.5)])
    assert rep.verdict == "member"


# the sphere about the probe passes through the Coulomb pole at rho = b;
# the true values come from iterated QUADPACK with a breakpoint there (R^2)
# and from Gauss's law (R^3: the mean of 1/|y| over a sphere through 0)
@pytest.mark.parametrize("space,want", [(E2, 2.2447017075301), (E3, math.pi)], ids=["R2", "R3"])
def test_offcentre_ball_integral_covers_truth(space, want):
    value, err = kato._ball_integral(coulomb(space), 0.5, 0.5,
                                     lambda rho: h_kernel(space.dim, rho))
    assert abs(value - want) <= err


def test_ball_integral_on_the_line():
    # |y|^{-1/2} over [b - 1, b + 1]: the sphere of radius rho about the probe
    # is the two points b -+ rho
    v = inverse_power(E1, power=0.5)
    for b, want in ((0.0, 4.0), (0.5, 2.0 * (math.sqrt(0.5) + math.sqrt(1.5)))):
        value, err = kato._ball_integral(v, b, 1.0, lambda rho: 1.0)
        assert abs(value - want) <= err < 1e-7 * want


def test_offcentre_ball_integral_at_a_shell():
    # |r - 1/2|^{-1/2} on R^3 over the unit ball about a probe on the shell:
    # every sphere about the probe crosses the shell at an interior angle.
    # The truth integrates over spheres about the centre instead, each
    # cut to its cap inside the ball, |v| taken in the variable
    # |w - 1/2|^{1/2}
    def cap(w):
        return 4.0 * math.pi * w * w if w <= 0.5 else 2.0 * math.pi * w * (w + 0.75 - w * w)

    want = sum(quad(lambda x: 2.0 * cap(0.5 + side * x * x), 0.0, top,
                    epsabs=0.0, epsrel=1e-13)[0]
               for side, top in ((-1.0, math.sqrt(0.5)), (1.0, 1.0)))
    value, err = kato._ball_integral(shell_potential(-0.5), 0.5, 1.0, lambda rho: 1.0)
    assert abs(value - want) <= err < 1e-6 * value


@pytest.mark.parametrize("beta,want", [(-0.9, 58.98352073099464), (-0.99, 624.093212295585)])
def test_offcentre_ball_integral_at_a_strong_shell(beta, want):
    # as at beta = -1/2, over caps of spheres about the centre, |w - 1/2|^beta
    # taken as QUADPACK's algebraic weight on each side of the shell
    def cap(w):
        return 4.0 * math.pi * w * w if w <= 0.5 else 2.0 * math.pi * w * (w + 0.75 - w * w)

    truth = (quad(cap, 0.0, 0.5, weight="alg", wvar=(0.0, beta), epsabs=0.0, epsrel=1e-13)[0]
             + quad(cap, 0.5, 1.5, weight="alg", wvar=(beta, 0.0), epsabs=0.0, epsrel=1e-13)[0])
    assert truth == pytest.approx(want, rel=1e-12)
    value, err = kato._ball_integral(shell_potential(beta), 0.5, 1.0, lambda rho: 1.0)
    assert abs(value - want) <= err < 1e-6 * value


# values recorded from the route that took the sphere mean of |v| about
# the probe: the ball about a probe at b = 2 misses the pole, so the
# support trims the radial integral to [1, 3] and no singular radius is
# declared; on R^3 the mean value property gives vol(B_1) / b
@pytest.mark.parametrize("space,want,want_err", [
    (E2, 1.6251955458398408, 4.204421729220322e-12),
    (E3, 2.0943951023931957, 1.5743802721792407e-13)], ids=["R2", "R3"])
def test_ball_integral_from_a_far_probe(space, want, want_err):
    value, err = kato._ball_integral(coulomb(space), 2.0, 1.0, lambda rho: 1.0)
    assert abs(value - want) <= err + want_err


def _coulomb_eta_offcentre(t, b):
    # integral_0^t erf(b / sqrt(2s)) / b ds with s = u^2, which removes the
    # s^(-1/2) endpoint: the integrand is sqrt(2) erf(x) / x at
    # x = b / (sqrt(2) u), and erf(x)/x -> 2/sqrt(pi) as x -> 0
    def integrand(x):
        ratio = erf(x) / x if x > 1e-8 else 2.0 / math.sqrt(math.pi)
        return math.sqrt(2.0) * ratio

    def piece(f, lo, hi):
        return quad(f, lo, hi, epsabs=0.0, epsrel=1e-13, limit=200)[0]

    # the average drops from 2/sqrt(pi) to 0 across u ~ b: split at b 2^k.
    # Below the last split the pieces run in v = u / b, so that a subnormal
    # b never enters the integrand
    root = math.sqrt(t)
    splits = [2.0 ** k for k in range(64) if b * 2.0 ** k < root]
    val = 0.0
    for lo, hi in zip([0.0] + splits[:-1], splits):
        val += b * piece(lambda v: integrand(1.0 / (math.sqrt(2.0) * v)) if v else 0.0,
                         lo, hi)
    last = b * splits[-1] if splits else 0.0
    return val + piece(lambda u: integrand(b / (math.sqrt(2.0) * u)) if u else 0.0,
                       last, root)


@settings(max_examples=25, deadline=None)
@given(t=st.floats(min_value=1e-4, max_value=1.0),
       b=st.floats(min_value=0.0, max_value=2.0, exclude_min=True))
def test_coulomb_eta_offcentre_closed_form(t, b):
    eta, _ = kato._eta_b(COULOMB, b, t)
    assert eta == pytest.approx(_coulomb_eta_offcentre(t, b), rel=1e-9)


def test_algebraic_weight_integral():
    # integral_0^1 x^{-1/2} (1 - x)^{-1/2} dx = pi, and with f = x it is pi/2
    val, err = algebraic_weight_integral(lambda x: 1.0, 0.0, 1.0, -0.5)
    assert val == pytest.approx(math.pi, rel=1e-13) and err < 1e-10
    assert algebraic_weight_integral(lambda x: x, 0.0, 1.0, -0.5)[0] == \
        pytest.approx(0.5 * math.pi, rel=1e-13)
    with pytest.raises(ConvergenceError):
        algebraic_weight_integral(lambda x: math.sin(1e7 * x), 0.0, 1.0, -0.5)
    with pytest.raises(ConvergenceError):
        algebraic_weight_integral(lambda x: math.nan, 0.0, 1.0, 0.0)


def test_inner_failure_is_not_divergence(monkeypatch):
    # radial_integral reads a QuadratureError as divergence; a sphere mean
    # whose integral comes back nan must surface as a solver failure
    # instead of eta = +inf
    monkeypatch.setattr(geometry, "panel_integral", lambda F, panels: (math.nan, math.nan))
    with pytest.raises(ConvergenceError):
        kato_eta(coulomb(E2), 0.01, [E2.origin(), geodesic_point(E2, 0.5)])


CONSTANT_CASES = [(ModelSpace(EUCLIDEAN, m), b) for m in (1, 2, 3, 4) for b in (0.0, 0.5)] + \
    [(H3, 0.0), (H3, 0.5), (H2, 0.0), (H2, 0.5)]


@pytest.mark.parametrize("space,b", CONSTANT_CASES,
                         ids=[f"{sp.kind[0]}{sp.dim}-b{b}" for sp, b in CONSTANT_CASES])
def test_constant_potential_on_every_route(space, b):
    c = 2.5
    probe = geodesic_point(space, b)
    v = constant(space, c)
    assert kato_eta(v, 0.1, [probe])[0] == pytest.approx(c * 0.1, rel=1e-8)
    assert resolvent_constant(v, 2.0, [probe]) == pytest.approx(c / 2.0, rel=1e-8)


@pytest.mark.parametrize("space", [H2, E4], ids=["H2", "R4"])
def test_constant_potential_small_r_offcentre(space):
    # G_r reaches out to rho ~ 1/r, where the H^2 ring and kernel factors
    # overflow and underflow unless their exponents cancel in the shift
    c, r = 2.5, 1e-3
    v = constant(space, c)
    assert resolvent_constant(v, r, [geodesic_point(space, 0.5)]) == \
        pytest.approx(c / r, rel=1e-8)


# ---------------------------------------------------------------------------
# condensation at the kato level: slow divergences, slow tails, budgets

CUT = math.exp(-1.0)


def log_sq(gamma):
    """|v| = 1/(r^2 log^gamma(1/r)) below 1/e, flat e^2 up to r = 2, 0 beyond.

    In the Kato class of R^3 iff gamma > 1 (Aizenman-Simon: integral_0 r |v| dr < inf).
    """
    def radial(r):
        r = np.asarray(r, dtype=float)
        near = np.minimum(np.where(r == 0.0, 0.5, r), 0.5)
        core = 1.0 / (near * near * np.log(1.0 / near) ** gamma)
        flat = np.where(r < 2.0, math.e ** 2, 0.0)
        return np.where(r == 0.0, math.inf, np.where(r < CUT, core, flat))

    return Potential(space=E3, radial=radial, singular_radii=(0.0,), name="log_sq")


def ball_weight(rho):
    return 1.0 / rho


@pytest.mark.parametrize("gamma", [0.5, 1.0])
def test_log_sq_slow_divergence_is_found(gamma):
    v = log_sq(gamma)
    for t in (1e-6, 1e-3):
        assert kato_eta(v, t, ORIGIN3)[0] == math.inf
    for radius in (1e-1, 1e-6):
        assert analytic_kato_functional(v, radius, ORIGIN3) == math.inf
    rep = kato_verdict(v, T_GRID, ORIGIN3)
    assert rep.verdict == "nonmember" and rep.reason is None


@pytest.mark.parametrize("gamma", [1.5, 2.0, 3.0])
def test_log_sq_member_small_ball_closed_form(gamma):
    # the small-ball functional at the centre is 4 pi (log 1/a)^{1-gamma} / (gamma - 1)
    v = log_sq(gamma)
    for radius in (1e-1, 1e-6):
        want = 4.0 * math.pi * math.log(1.0 / radius) ** (1.0 - gamma) / (gamma - 1.0)
        value, err = kato._ball_integral(v, 0.0, radius, ball_weight)
        assert abs(value - want) <= err
        assert analytic_kato_functional(v, radius, ORIGIN3) == value


@pytest.mark.parametrize("gamma", [2.0, 3.0])
def test_log_sq_member_verdict(gamma):
    rep = kato_verdict(log_sq(gamma), T_GRID, ORIGIN3)
    assert rep.verdict == "member" and rep.reason is None
    assert all(math.isfinite(row[1]) for row in rep.eta_grid)


def test_undecided_integral_makes_the_verdict_inconclusive():
    # gamma = 1.15 lies between the divergent and the convergent margins
    rep = kato_verdict(log_sq(1.15), T_GRID, ORIGIN3)
    assert rep.verdict == "inconclusive"
    assert rep.reason.startswith("divergence_undecided")
    assert all(math.isnan(row[1]) for row in rep.eta_grid)
    assert kato_report_json(rep)["reason"] == rep.reason
    assert "reason" not in kato_report_json(kato_verdict(COULOMB, T_GRID, ORIGIN3))


def decaying(p):
    return Potential(space=E3, radial=lambda r: (1.0 + np.asarray(r, dtype=float)) ** -p,
                     name="decaying")


@pytest.mark.parametrize("p", [2.2, 2.5, 3.0])
def test_green_potential_of_slow_tail(p):
    # C_0 of (1 + |x|)^{-p} at the centre of R^3 is 2 integral w (1 + w)^{-p} dw
    value, err = kato._resolvent_b(decaying(p), 0.0, 0.0)
    exact = 2.0 / ((p - 2.0) * (p - 1.0))
    assert abs(value - exact) <= min(err, 1e-7 * exact)


def shell_potential(beta):
    # |r - 1/2|^beta on R^3, declared singular at r = 1/2
    return Potential(space=E3, radial=lambda r: np.abs(np.asarray(r, dtype=float) - 0.5) ** beta,
                     singular_radii=(0.5,), name="shell")


def test_probe_beside_a_singular_radius():
    # a probe one rounding away from the declared radius is merged into it
    v = shell_potential(-0.5)
    at = kato_eta(v, 0.01, [geodesic_point(E3, 0.5)])[0]
    beside = kato_eta(v, 0.01, [geodesic_point(E3, 0.5 * (1.0 + 1e-12))])[0]
    assert math.isfinite(at) and beside == pytest.approx(at, rel=1e-9)


@pytest.mark.parametrize("make,calls,points", [(inverse_square, 10, 4000), (coulomb, 25, 11000)],
                         ids=["inverse_square", "coulomb"])
def test_verdict_evaluation_budget(make, calls, points, evaluations):
    # a divergent integral is classified from its first round of windows
    kato_verdict(make(E3), T_GRID, ORIGIN3)
    assert evaluations.quadpack == 0
    assert evaluations.radial_calls <= calls and evaluations.radial_points <= points


@pytest.mark.xfail(strict=True, reason="FOUND: near a crossing of a strong shell singularity "
                   "(|r - s|^beta, beta <= -0.9) the sphere mean cannot sample |d - s| below "
                   "rounding and has no condensation tail there, so it misses by far more than "
                   "its error")
def test_sphere_mean_across_a_strong_shell():
    # |d - 1/2|^-0.9 over the sphere of radius 1/4 about a probe on the shell r = 1/2 of R^3:
    # ring(w) mean = 2 pi (w / b) integral_{1/4}^{3/4} |d - 1/2|^-0.9 d dd
    beta, w, b = -0.9, 0.25, 0.5
    edge = 0.25
    want = 2.0 * math.pi * w / b * (2.0 * 0.5 * edge ** (beta + 1) / (beta + 1))
    value, err = sphere_mean(E3, lambda d, shift: np.abs(d - 0.5) ** beta * math.exp(shift),
                             w, b, (0.5,))
    assert abs(value - want) <= err

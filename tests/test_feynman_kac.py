"""Path-sampling estimators against closed forms and quadrature oracles.

The sampler is exact in law on Euclidean spaces (independent Gaussian
increments), so moment and law tests there carry only statistical error.
So do the estimators' exact routes, two reductions over one draw core
on R^d and H^3, with the Doob weight on H^3, the Bessel-bridge factor
under a ball about the origin and the Brownian bridge factor under a
half-space: mc_kato_integral's randomized time (one time s = T U^2 and
one exact position a sample), and mc_heat_expectation's one exact
endpoint a path, from any start with no region or under a half-space,
and from the origin under a ball about it (on H^3 off the origin the
endpoint is drawn at the origin and boosted to the start).  Hyperbolic
paths are exact in the upper-half-space height and take the trapezoidal
variance for the other coordinates; they and the killing scan are
O(step) weak approximations, so their tests carry an explicit step
envelope on top of 3 sigma.

Frozen references:
  * Coulomb running integral from the origin: 2 sqrt(2 t / pi).
  * survival in the unit ball at t = 0.1 against the Dirichlet eigenfunction
    series 2 sum_n (-1)^(n+1) exp(-n^2 pi^2 t / 2) = 0.96599...
  * E cosh d(x, B_t) = exp(m t / 2) on H^m, since Delta cosh d = m cosh d;
    more generally E <B_t, y> = exp(m t / 2) <x, y> for the Minkowski
    pairing, since each hyperboloid coordinate is an eigenfunction.
  * E exp(-|B_t|^2 / 2) from x in R^d is (1 + t)^(-d/2) exp(-|x|^2 / (2 (1 + t))).
  * on H^3 from the origin d(o, B_t) has the law of |W_t + t e| in R^3
    (Rogers and Pitman, Ann. Probab. 9, 1981).
  * int_0^t E|B_s|^-p ds from the origin of R^3 is
    2^{-p/2} Gamma((3 - p)/2) / Gamma(3/2) t^{1 - p/2} / (1 - p/2).
  * P_x(tau > s) in the unit ball of R^3 from |x| = rho is
    2 sum_n (-1)^(n+1) sin(n pi rho) / (n pi rho) exp(-n^2 pi^2 s / 2), and
    at distance d from a half-space's plane it is erf(d / sqrt(2 s)).
"""

import math
import sys
import threading
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.special import erf
from scipy.stats import ks_2samp

from katoform import feynman_kac as fk
from katoform import kato
from katoform.errors import ConfigError, DomainError, InvalidPointError
from katoform.feynman_kac import (Estimate, KillingRegion, PathConfig,
                                  mc_covariant_semigroup, mc_heat_expectation,
                                  mc_kato_integral, sample_paths,
                                  transport_phase)
from katoform.geometry import (EUCLIDEAN, HYPERBOLIC, ModelSpace, distance,
                               geodesic_point, heat_kernel_radial, ring_area)
from katoform.potentials import (Potential, bump, constant, coulomb, inverse_power,
                                 inverse_square)
from katoform.quadrature import radial_integral
from katoform.reports import estimate_json

E1 = ModelSpace(EUCLIDEAN, 1)
E2 = ModelSpace(EUCLIDEAN, 2)
E3 = ModelSpace(EUCLIDEAN, 3)
E4 = ModelSpace(EUCLIDEAN, 4)
E5 = ModelSpace(EUCLIDEAN, 5)
H2 = ModelSpace(HYPERBOLIC, 2)
H3 = ModelSpace(HYPERBOLIC, 3)


def econf(**kw):
    base = dict(space=E3, start=(0.0, 0.0, 0.0), horizon=0.2, step=2e-3,
                n_paths=1000, seed=5)
    base.update(kw)
    return PathConfig(**base)


def hconf(**kw):
    return econf(space=H3, start=(1.0, 0.0, 0.0, 0.0), **kw)


# ---------------------------------------------------------------------------
# configuration contracts

def test_pathconfig_validation():
    with pytest.raises(ConfigError):
        econf(step=0.03)                     # step > horizon / 10
    with pytest.raises(ConfigError):
        econf(step=0.0003)                   # does not divide horizon
    with pytest.raises(ConfigError):
        econf(n_paths=50)
    with pytest.raises(ConfigError, match="path nodes"):   # past float range
        econf(n_paths=10 ** 400)
    with pytest.raises(ConfigError):
        econf(horizon=-1.0)
    with pytest.raises(ConfigError, match="workers"):
        econf(workers=2 ** 10 + 1)
    with pytest.raises(ConfigError, match="workers"):
        econf(workers=0)
    with pytest.raises(ConfigError):
        econf(start=(5.0, 0.0, 0.0),
              domain=KillingRegion(kind="ball", radius=1.0))
    # regions the space cannot hold
    with pytest.raises(InvalidPointError):   # would broadcast to (0.1, 0.1, 0.1)
        econf(domain=KillingRegion(kind="ball", radius=1.0, center=(0.1,)))
    with pytest.raises(InvalidPointError):   # off the hyperboloid sheet
        hconf(domain=KillingRegion(kind="ball", radius=1.0,
                                   center=(1.0, 0.5, 0.0, 0.0)))
    with pytest.raises(ConfigError, match="length 3"):
        econf(domain=KillingRegion(kind="halfspace", normal=(1.0,), offset=1.0))
    with pytest.raises(ConfigError, match="nonzero"):
        econf(domain=KillingRegion(kind="halfspace", normal=(0.0, 0.0, 0.0),
                                   offset=1.0))
    with pytest.raises(ConfigError, match="Euclidean only"):
        hconf(domain=KillingRegion(kind="halfspace", normal=(1.0, 0.0, 0.0),
                                   offset=1.0))
    econf(domain=KillingRegion(kind="ball", radius=1.0, center=(0.1, 0.0, 0.0)))


@pytest.mark.parametrize("field,bad", [("horizon", math.nan), ("horizon", math.inf),
                                       ("step", math.nan)])
def test_pathconfig_rejects_non_finite_times(field, bad):
    with pytest.raises(ConfigError):
        econf(**{field: bad})


@pytest.mark.parametrize("normal,offset,match", [
    ((math.nan, 0.0, 0.0), 0.0, "finite nonzero"),
    ((1.0, 0.0, 0.0), math.inf, "offset"),
    ((1.0, 0.0, 0.0), math.nan, "offset"),
    # |n| overflows, or underflows to 0: the plane x_1 + x_2 < 0.5 either way
    ((1e200, 1e200, 0.0), 5e199, "finite nonzero length"),
    ((1e-200, 1e-200, 0.0), 5e-201, "finite nonzero length"),
    # offset / |n| overflows
    ((1e-150, 0.0, 0.0), 1e300, "offset"),
], ids=["nan_normal", "inf_offset", "nan_offset", "huge_normal", "tiny_normal",
        "huge_level"])
def test_pathconfig_rejects_non_finite_halfspace_normal(normal, offset, match):
    with pytest.raises(ConfigError, match=match):
        econf(domain=KillingRegion(kind="halfspace", normal=normal, offset=offset))


def test_halfspace_inside():
    half = KillingRegion(kind="halfspace", normal=(1.0, 0.0), offset=2.0)
    pts = np.array([[0.0, 0.0], [3.0, 0.0]])
    assert list(half.inside(E2, pts)) == [True, False]


@pytest.mark.parametrize("radius", [math.inf, math.nan, 0.0, -1.0])
def test_killing_region_rejects_bad_radius(radius):
    with pytest.raises(ConfigError, match="positive finite radius"):
        KillingRegion(kind="ball", radius=radius)


def test_halfspace_keeps_its_unit_normal_and_level():
    """The half-space {x . n < c} is {x . n / |n| < c / |n|}; neither enters ==."""
    half = KillingRegion(kind="halfspace", normal=(0.0, 3.0, 4.0), offset=2.5)
    assert np.array_equal(half.unit, [0.0, 0.6, 0.8]) and half.level == 0.5
    assert half == KillingRegion(kind="halfspace", normal=(0.0, 3.0, 4.0), offset=2.5)
    with pytest.raises(ConfigError, match="unknown killing region kind"):
        KillingRegion(kind="torus")


def test_hyperbolic_ball_region():
    reg = KillingRegion(kind="ball", radius=1.0)
    inside = np.array([1.0, 0.0, 0.0, 0.0])
    far = np.array([math.cosh(2.0), math.sinh(2.0), 0.0, 0.0])
    got = reg.inside(H3, np.stack([inside, far]))
    assert list(got) == [True, False]


@pytest.mark.parametrize("space", [E1, E2, E3])
def test_euclidean_distances_are_norms_bit_for_bit(space):
    """The per-coordinate distance kernel against np.linalg.norm over whole rows."""
    rng = np.random.default_rng(8)
    points = rng.standard_normal((5000, space.dim)) * np.exp(rng.uniform(-8, 3, (5000, 1)))
    center = 0.1 * rng.standard_normal(space.dim)
    r, tmp = np.empty(5000), np.empty(5000)
    assert np.array_equal(fk._distances(space, points, r, tmp),
                          np.linalg.norm(points, axis=1))
    d = np.linalg.norm(points - center, axis=1)
    # a radius equal to a sample's distance puts that sample on the edge, so
    # a distance off in its last bit would move it inside
    for radius in d[:50]:
        ball = KillingRegion(kind="ball", radius=float(radius), center=tuple(center))
        assert np.array_equal(ball.inside(space, points), d < radius)


# ---------------------------------------------------------------------------
# sampler law

def test_euclidean_moments():
    cfg = PathConfig(space=E3, start=(0.0, 0.0, 0.0), horizon=0.5, step=5e-3,
                     n_paths=20000, seed=11)
    est = mc_heat_expectation(lambda p: np.sum(p * p, axis=1), cfg)
    # E |B_t|^2 = m t = 1.5
    assert abs(est.value - 1.5) <= 4.0 * est.std_error


def test_deterministic_per_seed_and_layout():
    a = mc_heat_expectation(lambda p: p[:, 0] ** 2, econf())
    b = mc_heat_expectation(lambda p: p[:, 0] ** 2, econf())
    assert a.value == b.value and a.std_error == b.std_error
    c1 = mc_heat_expectation(lambda p: p[:, 0] ** 2, econf(workers=3))
    c2 = mc_heat_expectation(lambda p: p[:, 0] ** 2, econf(workers=3))
    assert c1.value == c2.value
    d = mc_heat_expectation(lambda p: p[:, 0] ** 2, econf(seed=6))
    assert d.value != a.value


def test_batches_expose_geometry():
    cfg = econf(n_paths=256)
    batch = next(iter(sample_paths(cfg)))
    assert batch.positions.shape == (256, cfg.n_steps + 1, 3)
    assert np.all(batch.alive)


def test_hyperboloid_walk_stays_on_sheet():
    cfg = PathConfig(space=H3, start=(1.0, 0.0, 0.0, 0.0), horizon=0.5,
                     step=1.0 / 256.0, n_paths=500, seed=3)
    batch = next(iter(sample_paths(cfg)))
    x = batch.positions.reshape(-1, 4)
    q = x[:, 0] ** 2 - np.sum(x[:, 1:] ** 2, axis=1)
    assert np.max(np.abs(q - 1.0)) < 1e-9


def test_hyperbolic_second_moment_vs_quadrature():
    t = 0.5
    moment = radial_integral(
        lambda w: w * w * heat_kernel_radial(H3, t, np.array([w]))[0]
        * ring_area(H3, w), 12.0, singular=[])[0]
    cfg = PathConfig(space=H3, start=(1.0, 0.0, 0.0, 0.0), horizon=t,
                     step=1.0 / 256.0, n_paths=20000, seed=17)
    est = mc_heat_expectation(
        lambda p: np.arccosh(np.maximum(p[:, 0], 1.0)) ** 2, cfg)
    tol = 3.0 * est.std_error + 2.0 / 256.0   # O(step) walk bias
    assert abs(est.value - moment) <= tol


def hyperbolic_endpoints(space, start, seed):
    """Endpoints of 20k paths at t = 0.5, step 1/128, and their config."""
    cfg = PathConfig(space=space, start=tuple(start), horizon=0.5,
                     step=1.0 / 128.0, n_paths=20000, seed=seed, workers=2)
    # a batch's buffers are reused once the next batch is requested
    return np.concatenate([b.positions[:, -1].copy() for b in sample_paths(cfg)]), cfg


@pytest.mark.parametrize("space", [H2, H3], ids=["H2", "H3"])
@pytest.mark.parametrize("distance", [0.0, 2.0])
def test_hyperbolic_cosh_distance_mean(space, distance):
    direction = np.arange(1.0, space.dim + 1.0)
    start = geodesic_point(space, distance, direction)
    ends, cfg = hyperbolic_endpoints(space, start, seed=21)
    # cosh d(start, B_t) is the Minkowski pairing with the start
    cosh_d = ends[:, 0] * start[0] - ends[:, 1:] @ start[1:]
    exact = math.exp(space.dim * cfg.horizon / 2.0)
    se = cosh_d.std(ddof=1) / math.sqrt(cosh_d.size)
    tol = 3.0 * se + cfg.step * exact         # O(step) trapezoid bias
    assert abs(cosh_d.mean() - exact) <= tol


def test_h3_distance_law_rogers_pitman():
    ends, cfg = hyperbolic_endpoints(H3, H3.origin(), seed=23)
    d = np.arccosh(np.maximum(ends[:, 0], 1.0))
    t = cfg.horizon
    w = np.random.default_rng(29).normal(0.0, math.sqrt(t), (cfg.n_paths, 3))
    w[:, 0] += t
    assert ks_2samp(d, np.linalg.norm(w, axis=1)).pvalue > 0.01


# ---------------------------------------------------------------------------
# mc_kato_integral's routes

# 2p >= 3: E|v(B_s)|^2 is infinite at every s, so this power keeps the path route
HEAVY = 1.6


def centred_far_ball(space):
    """A ball 1e-12 off the origin, too large to kill a path here: it forces the path route."""
    return KillingRegion(kind="ball", radius=50.0, center=tuple(geodesic_point(space, 1e-12)))


def forced_path(cfg):
    """cfg on the path route: a ball 1e-12 off the origin in place of no region or a centred ball."""
    region = cfg.domain
    ball = centred_far_ball(cfg.space) if region is None else KillingRegion(
        kind="ball", radius=region.radius, center=tuple(geodesic_point(cfg.space, 1e-12)))
    return PathConfig(**{**vars(cfg), "domain": ball})


def power_integral_r3(p, t):
    """int_0^t E|B_s|^-p ds from the origin of R^3."""
    return 2.0 ** (-p / 2) * math.gamma((3 - p) / 2) / math.gamma(1.5) \
        * t ** (1 - p / 2) / (1 - p / 2)


HALF = KillingRegion(kind="halfspace", normal=(0.6, 0.0, 0.8), offset=0.3)


@pytest.mark.parametrize("cfg", [
    econf(),
    econf(start=(0.1, 0.0, -0.2)),
    econf(domain=KillingRegion(kind="ball", radius=0.6)),
    econf(domain=KillingRegion(kind="ball", radius=0.6, center=(0.0, 0.0, 0.0))),
    econf(start=(0.1, 0.0, -0.2), domain=KillingRegion(kind="ball", radius=0.6)),
    econf(start=(0.1, 0.0, -0.2), domain=HALF),
    econf(space=E4, start=(0.1, 0.0, 0.0, 0.0)),
    hconf(),
    hconf(domain=KillingRegion(kind="ball", radius=0.6, center=(1.0, 0.0, 0.0, 0.0))),
    econf(space=H3, start=tuple(geodesic_point(H3, 0.3)),
          domain=KillingRegion(kind="ball", radius=0.6)),
], ids=["E3", "E3_offorigin", "E3_ball", "E3_centred_ball", "E3_offorigin_ball",
        "E3_halfspace", "E4", "H3", "H3_centred_ball", "H3_offorigin_ball"])
def test_exact_route_covers(cfg):
    assert fk._exact_route(coulomb(cfg.space), cfg)


# an H^3 ball about a point off the origin, far too large to kill a path
# within the horizons used here: it sends H^3 down the path route
FAR_H3_BALL = KillingRegion(kind="ball", radius=50.0, center=tuple(geodesic_point(H3, 1.0)))


@pytest.mark.parametrize("cfg", [
    econf(domain=KillingRegion(kind="ball", radius=1.0, center=(0.1, 0.0, 0.0))),
    econf(space=E2, start=(0.0, 0.0)),
    econf(space=E4, start=(0.0,) * 4, domain=KillingRegion(kind="ball", radius=1.0)),
    hconf(domain=FAR_H3_BALL),
    econf(space=H2, start=(1.0, 0.0, 0.0)),
], ids=["offcentre_ball", "E2", "E4_ball", "H3_offcentre_ball", "H2"])
def test_path_route_elsewhere(cfg):
    """Coulomb on R^2 has 2p = d: its variance is infinite.

    The heat expectation on R^2 with no region is one Gaussian draw; the
    balls and H^2 keep their paths.
    """
    assert not fk._exact_route(coulomb(cfg.space), cfg)
    assert fk._exact_heat_route(cfg) == (cfg.space == E2)


@pytest.mark.parametrize("pot,exact", [
    (coulomb(E3), True),
    (inverse_power(E3, 1.2), True),
    (inverse_power(E3, HEAVY), False),
    (inverse_square(E3), False),
    (constant(E3, 2.0), True),
    (bump(E3), True),
    # a singular radius with no declared power, and one besides the origin
    (Potential(space=E3, radial=lambda r: 1.0 / r, singular_radii=(0.0,)), False),
    (Potential(space=E3, radial=lambda r: 1.0 / r, singular_radii=(0.0, 0.5),
               singular_power=1.0), False),
], ids=["coulomb", "power_1.2", "power_1.6", "inverse_square", "constant", "bump",
        "undeclared_power", "second_singular_radius"])
def test_route_follows_the_variance_rule(pot, exact):
    assert fk._exact_route(pot, econf()) == exact


def test_infinite_variance_takes_the_path_route():
    """|x|^-1.6 on R^3: the path route, its caps counted and no bias bound claimed.

    Nothing bounds the capped trapezoid's bias at the singularity: from the
    origin it misses the integral by many times 2 sqrt(h).
    """
    cfg = econf()
    est = mc_kato_integral(inverse_power(E3, HEAVY), cfg)
    assert est.cap_events > 0
    assert est.bias_bound is None
    assert math.isfinite(est.value) and est.value > 0.0


def test_finite_variance_power_from_the_origin():
    """|x|^-1.2 on R^3 from the origin: the exact route covers its closed form."""
    cfg = econf(horizon=0.05, step=5e-3, n_paths=20000, seed=51, workers=2)
    pot = inverse_power(E3, 1.2)
    assert fk._exact_route(pot, cfg)
    est = mc_kato_integral(pot, cfg)
    assert est.bias_bound == 0.0 and est.cap_events == 0
    assert abs(est.value - power_integral_r3(1.2, cfg.horizon)) <= 3.0 * est.std_error


@pytest.mark.parametrize("pot", ["coulomb", "bump"])
@pytest.mark.parametrize("space,start,domain", [
    (E3, (0.0, 0.0, 0.0), None),
    (E3, (0.2, -0.1, 0.0), None),
    (E3, (0.0, 0.0, 0.0), KillingRegion(kind="ball", radius=0.3)),
    (H3, tuple(H3.origin()), None),
    (H3, tuple(geodesic_point(H3, 0.3, (1.0, 2.0, 0.0))), None),
    (H3, tuple(H3.origin()), KillingRegion(kind="ball", radius=0.3)),
], ids=["E3_origin", "E3_offorigin", "E3_ball", "H3_origin", "H3_offorigin", "H3_ball"])
@pytest.mark.parametrize("step", [1e-3, 2.5e-4])
def test_exact_route_agrees_with_path_route(pot, space, start, domain, step):
    """Within 4 combined SE plus the path route's bias, at two step sizes.

    The path route is forced by a ball centred 1e-12 off the origin.  The
    bump's bias is the route's bound max|v| h; Coulomb's route reports
    none, so the test states its own envelope 2 sqrt(h).
    """
    v = coulomb(space) if pot == "coulomb" else bump(space, amplitude=2.0, radius=0.5)
    cfg = PathConfig(space=space, start=start, horizon=0.1, step=step, n_paths=4000,
                     seed=37, workers=2, domain=domain)
    path = forced_path(cfg)
    assert fk._exact_route(v, cfg) and not fk._exact_route(v, path)
    exact, paths = mc_kato_integral(v, cfg), mc_kato_integral(v, path)
    bias = 2.0 * math.sqrt(step) if pot == "coulomb" else paths.bias_bound
    tol = 4.0 * math.hypot(exact.std_error, paths.std_error) + bias
    assert abs(exact.value - paths.value) <= tol
    assert exact.cap_events == 0 and exact.bias_bound < 1e-12


@pytest.mark.parametrize("pot", ["coulomb", "bump", "halfspace"])
@pytest.mark.parametrize("space", [E3, H3], ids=["E3", "H3"])
def test_exact_route_against_quadrature_eta(pot, space):
    """Off-centre starts against the quadrature route's eta(t) at the same probe, 4 SE.

    The half-space case runs Coulomb under a plane 4.5 sqrt(t) from the
    start, which kills about 1e-5 of the mass, far below the SE; H^3 has
    no half-spaces, so its third case is Coulomb from a second start.
    """
    t = 0.05
    start = geodesic_point(space, 0.15, (1.0, -1.0, 0.5))
    v = bump(space, amplitude=2.0, radius=0.5) if pot == "bump" else coulomb(space)
    domain = None
    if pot == "halfspace":
        if space.kind == EUCLIDEAN:
            domain = KillingRegion(kind="halfspace", normal=(0.0, 0.0, 2.0),
                                   offset=2.0 * (start[2] + 4.5 * math.sqrt(t)))
        else:
            start = geodesic_point(space, 0.6, (0.0, 1.0, 1.0))
    cfg = PathConfig(space=space, start=tuple(start), horizon=t, step=t / 10, n_paths=20000,
                     seed=53, workers=2, domain=domain)
    assert fk._exact_route(v, cfg)
    want = kato._eta_b(v, distance(space, space.origin(), start), t)[0]
    est = mc_kato_integral(v, cfg)
    assert est.bias_bound == 0.0
    assert abs(est.value - want) <= 4.0 * est.std_error


def ball_time_integral(space, rho, t):
    """int_0^t P(tau > s) ds in the unit ball, from distance rho to its centre (rho = 0 on H^3)."""
    total = 0.0
    for n in range(1, 400):
        k = n * math.pi
        if space.kind == EUCLIDEAN:
            shape = math.sin(k * rho) / (k * rho) if rho else 1.0
            total += (-1) ** (n + 1) * shape * -math.expm1(-k * k * t / 2) / (k * k / 2)
        else:
            rate = (k * k + 1.0) / 2
            total += (-1) ** (n + 1) * math.sinh(1.0) * k * k / (1.0 + k * k) \
                * -math.expm1(-rate * t) / rate
    return 2.0 * total


@pytest.mark.parametrize("space,rho,domain", [
    (E3, 0.0, KillingRegion(kind="ball", radius=1.0)),
    (E3, 0.4, KillingRegion(kind="ball", radius=1.0)),
    (H3, 0.0, KillingRegion(kind="ball", radius=1.0)),
    (E3, 0.0, HALF),
], ids=["E3_ball", "E3_offorigin_ball", "H3_ball", "E3_halfspace"])
def test_exact_killing_weights_against_closed_forms(space, rho, domain):
    """|v| = 1 makes the integral the expected lifetime up to t: 4 SE plus the bias bound.

    From the origin the half-space's plane is 0.3 away, and the lifetime's
    survival is erf(0.3 / sqrt(2 s)).
    """
    t = 0.25
    start = geodesic_point(space, rho)
    cfg = PathConfig(space=space, start=tuple(start), horizon=t, step=t / 10, n_paths=20000,
                     seed=59, workers=2, domain=domain)
    v = constant(space, 1.0)
    assert fk._exact_route(v, cfg)
    est = mc_kato_integral(v, cfg)
    if domain.kind == "ball":
        want = ball_time_integral(space, rho, t)
        assert 0.0 < est.bias_bound < 1e-12
    else:
        want = quad(lambda s: erf(0.3 / math.sqrt(2.0 * s)), 0.0, t)[0]
        assert est.bias_bound == 0.0
    assert abs(est.value - want) <= 4.0 * est.std_error + est.bias_bound


class ZeroFirstUniform:
    """A generator whose uniforms start every block with U = 0."""

    def __init__(self, rng):
        self.rng = rng

    def random(self, out):
        self.rng.random(out=out)
        out[0] = 0.0
        return out

    def standard_normal(self, out):
        return self.rng.standard_normal(out=out)


@pytest.mark.parametrize("space,start,domain", [
    (E3, (0.0, 0.0, 0.0), None),
    (E3, (0.0, 0.0, 0.0), KillingRegion(kind="ball", radius=1.0)),
    (E3, (0.1, 0.0, -0.2), HALF),
    (H3, tuple(H3.origin()), KillingRegion(kind="ball", radius=1.0)),
], ids=["E3", "E3_ball", "E3_halfspace", "H3_ball"])
def test_zero_time_draw_adds_nothing(monkeypatch, space, start, domain):
    """U = 0 puts the sample at s = 0, on the singularity from the origin: it adds 0, not nan."""
    blocks = fk._exact_blocks
    monkeypatch.setattr(fk, "_exact_blocks", lambda config: (
        (ZeroFirstUniform(rng), lo, B) for rng, lo, B in blocks(config)))
    finish = fk._finish
    seen = []

    def record(values, *args, **kwargs):
        seen.append(values.copy())
        return finish(values, *args, **kwargs)

    monkeypatch.setattr(fk, "_finish", record)
    cfg = PathConfig(space=space, start=start, horizon=0.1, step=1e-2, n_paths=400, seed=2,
                     workers=2, domain=domain)
    est = mc_kato_integral(coulomb(space), cfg)
    values = seen[0]
    assert values[0] == values[200] == 0.0      # the first sample of each worker
    assert np.all(np.isfinite(values)) and np.count_nonzero(values) > 300
    assert math.isfinite(est.value) and math.isfinite(est.std_error)


# ---------------------------------------------------------------------------
# worker streams: layout, threads, lifecycle

def threaded(monkeypatch, cpus):
    """Make the sampler see ``cpus`` usable CPUs (1 runs every stream on one thread)."""
    monkeypatch.setattr(fk, "_usable_cpus", lambda: cpus)


def all_estimates(cfg):
    """Every Estimate field of the three estimators on one configuration.

    The killed heat expectation runs from the start (the exact route from
    the origin) and from a point off it (the path route); the Kato
    integral runs Coulomb on the exact route and a heavier power on the
    path route.
    """
    ball = KillingRegion(kind="ball", radius=0.5)
    killed = PathConfig(**{**vars(cfg), "domain": ball})
    shifted = PathConfig(**{**vars(killed),
                            "start": tuple(geodesic_point(cfg.space, 0.2, (1.0, 0.0, -1.0)))})
    plane = PathConfig(**{**vars(cfg), "space": E2, "start": (0.1, 0.0)})

    def gauss(p):
        return np.exp(-np.sum(p * p, axis=1))

    def A(p):
        return np.stack([-p[:, 1], p[:, 0]], axis=1)

    pot, heavy = coulomb(cfg.space), inverse_power(cfg.space, HEAVY)
    ests = [mc_kato_integral(pot, cfg), mc_kato_integral(pot, killed),
            mc_kato_integral(heavy, cfg), mc_kato_integral(heavy, killed),
            mc_heat_expectation(lambda p: p[:, 0] + 1j * p[:, 1], killed),
            mc_heat_expectation(lambda p: p[:, 0] + 1j * p[:, 1], shifted),
            mc_covariant_semigroup(gauss, A, plane)]
    return [vars(e) for e in ests]


@pytest.mark.parametrize("workers", [1, 2, 3, 7])
@pytest.mark.parametrize("cpus", [1, 2])
def test_batches_tile_the_reference_layout(monkeypatch, workers, cpus):
    threaded(monkeypatch, cpus)
    monkeypatch.setattr(fk, "_NODE_BUDGET", 4000)      # 39 paths per batch
    cfg = econf(n_paths=1001, workers=workers)
    spans = sorted((b.first, b.positions.shape[0]) for b in sample_paths(cfg))
    assert spans[0][0] == 0
    for (lo, size), (nxt, _) in zip(spans, spans[1:]):
        assert lo + size == nxt
    assert spans[-1][0] + spans[-1][1] == cfg.n_paths


@settings(max_examples=200)
@given(n_paths=st.integers(100, 10 ** 5), workers=st.integers(1, 1024),
       width=st.integers(1, 2 ** 14))
def test_blocks_tile_the_layout(n_paths, workers, width):
    """The reference layout: one function, pure, so no thread starts here."""
    layout = fk._blocks(econf(n_paths=n_paths, workers=workers), width)
    assert len(layout) == workers
    spans = [span for blocks in layout for span in blocks]
    assert spans[0][0] == 0
    for (lo, size), (nxt, _) in zip(spans, spans[1:]):
        assert lo + size == nxt
    assert spans[-1][0] + spans[-1][1] == n_paths
    assert all(1 <= size <= width for _, size in spans)
    counts = [sum(size for _, size in blocks) for blocks in layout]
    assert max(counts) - min(counts) <= 1
    # the pool and the exact routes' scratch are sized by this block
    assert layout[0][0][1] == max(size for _, size in spans)


def test_batch_order_does_not_depend_on_threads(monkeypatch):
    monkeypatch.setattr(fk, "_NODE_BUDGET", 4000)
    cfg = econf(n_paths=1001, workers=3)
    orders = []
    for cpus in (1, 2, 3):
        threaded(monkeypatch, cpus)
        orders.append([b.first for b in sample_paths(cfg)])
    assert orders[0] == orders[1] == orders[2]
    # round-robin: the first batch of each worker comes first
    assert orders[0][:3] == [0, 334, 668]


@pytest.mark.parametrize("workers", [2, 3])
def test_threaded_estimates_equal_inline(monkeypatch, workers):
    for cfg in (econf(workers=workers), hconf(workers=workers)):
        threaded(monkeypatch, 1)
        inline = all_estimates(cfg)
        threaded(monkeypatch, 2)
        assert all_estimates(cfg) == inline


def test_batch_size_does_not_change_estimates(monkeypatch):
    for cfg in (econf(workers=2), hconf(workers=2)):
        default = all_estimates(cfg)
        with monkeypatch.context() as patch:
            patch.setattr(fk, "_NODE_BUDGET", 600)     # 5 paths per batch
            assert all_estimates(cfg) == default


def test_more_threads_than_cores_under_fast_switching(monkeypatch):
    cfg = econf(workers=7)
    threaded(monkeypatch, 1)
    inline = all_estimates(cfg)
    threaded(monkeypatch, 6)
    monkeypatch.setattr(fk, "_NODE_BUDGET", 1000)
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        assert all_estimates(cfg) == inline
    finally:
        sys.setswitchinterval(interval)


def test_thread_count_capped_by_cpus():
    baseline = threading.active_count()
    cfg = econf(n_paths=1000, workers=500)
    peak = baseline
    for _ in sample_paths(cfg):
        peak = max(peak, threading.active_count())
    assert peak <= baseline + fk._usable_cpus()
    assert threading.active_count() == baseline


def test_closing_early_joins_producers(monkeypatch):
    threaded(monkeypatch, 2)
    monkeypatch.setattr(fk, "_NODE_BUDGET", 2000)
    baseline = threading.active_count()
    batches = sample_paths(econf(workers=2))
    next(batches)
    assert threading.active_count() == baseline + 2
    batches.close()
    assert threading.active_count() == baseline


@pytest.mark.parametrize("cpus", [1, 2])
def test_single_worker_draws_on_one_producer(monkeypatch, cpus):
    threaded(monkeypatch, cpus)
    monkeypatch.setattr(fk, "_NODE_BUDGET", 2000)
    baseline = threading.active_count()
    batches = sample_paths(econf(workers=1))
    next(batches)
    assert threading.active_count() == baseline + 1
    batches.close()
    assert threading.active_count() == baseline


# a configuration for each route: the far ball kills no path but keeps
# R^3 on the path route; three workers give the exact route three blocks
ROUTE_CONFIGS = {
    "paths": econf(workers=2, domain=centred_far_ball(E3)),
    "exact": econf(workers=3),
}


@pytest.mark.parametrize("route", sorted(ROUTE_CONFIGS))
def test_caller_error_joins_producers(monkeypatch, route):
    threaded(monkeypatch, 2)
    monkeypatch.setattr(fk, "_NODE_BUDGET", 2000)
    cfg = ROUTE_CONFIGS[route]
    assert fk._exact_route(coulomb(E3), cfg) == (route == "exact")
    pot = coulomb(E3)
    calls = []
    radial = pot.abs_radial

    def abs_radial(r, **kwargs):
        calls.append(threading.get_ident())
        if len(calls) == 3:
            raise RuntimeError("potential failed on the third batch")
        return radial(r, **kwargs)

    monkeypatch.setattr(pot, "abs_radial", abs_radial)
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="third batch"):
        mc_kato_integral(pot, cfg)
    assert threading.active_count() == baseline
    # potentials run on the caller's thread only
    assert set(calls) == {threading.get_ident()}


@pytest.mark.parametrize("space,start,producer_step", [
    (H2, (1.0, 0.0, 0.0), "_killing_scan"),
], ids=["paths"])
def test_producer_error_reaches_caller(monkeypatch, space, start, producer_step):
    threaded(monkeypatch, 2)

    def broken(*args):
        raise FloatingPointError("scan failed")

    monkeypatch.setattr(fk, producer_step, broken)
    cfg = PathConfig(space=space, start=start, horizon=0.1,
                     step=1e-3, n_paths=400, seed=2, workers=2)
    baseline = threading.active_count()
    outcome = []

    def run():
        try:
            mc_kato_integral(coulomb(space), cfg)
        except FloatingPointError as exc:
            outcome.append(exc)

    guard = threading.Thread(target=run, daemon=True)
    guard.start()
    guard.join(timeout=60.0)
    assert not guard.is_alive()
    assert len(outcome) == 1 and str(outcome[0]) == "scan failed"
    assert threading.active_count() == baseline


def loop_killing_scan(domain, space, positions):
    """Reference: the per-step scan, one node column at a time."""
    B, nodes = positions.shape[:2]
    alive = np.ones((B, nodes), dtype=bool)
    exit_step = np.full(B, nodes, dtype=int)
    for k in range(1, nodes):
        inside = domain.inside(space, positions[:, k])
        dead_now = alive[:, k - 1] & ~inside
        exit_step[dead_now] = k
        alive[:, k] = alive[:, k - 1] & inside
    return alive, exit_step


@pytest.mark.parametrize("space,start,domain", [
    (E3, (0.1, 0.0, -0.2), KillingRegion(kind="ball", radius=0.5)),
    (E2, (0.0, 0.0), KillingRegion(kind="halfspace", normal=(0.6, 0.8), offset=0.3)),
    (H3, (math.cosh(0.3), 0.0, math.sinh(0.3), 0.0), KillingRegion(kind="ball", radius=0.6)),
])
def test_killing_scan_matches_step_loop(space, start, domain):
    cfg = PathConfig(space=space, start=start, horizon=0.2, step=2e-3,
                     n_paths=600, seed=13, workers=2, domain=domain)
    survivors = 0
    for batch in sample_paths(cfg):
        alive, exit_step = loop_killing_scan(domain, space, batch.positions)
        assert np.array_equal(batch.alive, alive)
        assert np.array_equal(batch.alive.sum(axis=1), exit_step)
        survivors += int(alive[:, -1].sum())
    assert 0 < survivors < cfg.n_paths


# ---------------------------------------------------------------------------
# the batch pool: 1 position buffer and 1 draw buffer per producer thread,
# which draws a batch's normals before it waits for the position buffer

def test_pool_keeps_the_estimates():
    """Literals recorded with a fresh allocation per batch, compared exactly.

    The kato line was re-recorded when R^3 moved to the radius kernel, and
    again when it moved to the randomized-time route, which draws no path
    and allocates no pool; the heat line when the H^3 origin moved to the
    endpoint route: its start is now off the origin, on the path route.
    """
    kato = mc_kato_integral(coulomb(E3), econf(start=(0.1, 0.0, -0.2), workers=2))
    assert (kato.value, kato.std_error) == (0.5251986971483086, 0.014810129937107855)
    ball = KillingRegion(kind="ball", radius=1.0)
    heat = mc_heat_expectation(lambda p: p[:, 0],
                               econf(space=H3, start=(math.cosh(0.3), 0.0, math.sinh(0.3), 0.0),
                                     workers=2, domain=ball))
    assert (heat.value, heat.std_error) == (0.7482302663258076, 0.018850513768837854)
    cov = mc_covariant_semigroup(lambda p: np.exp(-np.sum(p * p, axis=1)),
                                 lambda p: np.stack([-p[:, 1], p[:, 0]], axis=1),
                                 econf(space=E2, start=(0.1, 0.0), workers=2))
    assert (cov.value, cov.std_error) == (
        0.6985466826787804 - 0.0020716151808224986j, 0.008027173803755585)


def test_killed_covariant_semigroup_keeps_the_estimate():
    """Literals recorded while the phase mask was recomputed from exit_step."""
    ball = KillingRegion(kind="ball", radius=0.5)
    cov = mc_covariant_semigroup(lambda p: np.exp(-np.sum(p * p, axis=1)),
                                 lambda p: np.stack([-p[:, 1], p[:, 0]], axis=1),
                                 econf(space=E2, start=(0.1, 0.0), workers=2, domain=ball))
    assert (cov.value, cov.std_error) == (
        0.17290410629607897 - 0.000985717905947789j, 0.011441871160192244)


def test_killed_kato_integral_keeps_the_estimate():
    """Literals recorded when the randomized-time route came in, with the bridge factor.

    The bias bound is the bridge series' computed truncation.
    """
    ball = KillingRegion(kind="ball", radius=1.0)
    est = mc_kato_integral(coulomb(E3), econf(start=(0.1, 0.0, -0.2), workers=2, domain=ball))
    assert (est.value, est.std_error, est.cap_events, est.bias_bound) == (
        0.5048528900149986, 0.015172199001431618, 0, 1.0459401609643601e-15)


def test_halfspace_kato_integral_keeps_the_estimate():
    """Literals recorded when R^3 under a half-space moved to the randomized-time route.

    One start off the origin, and one at it; the bridge factor is exact,
    so the bias bound is 0.
    """
    off = mc_kato_integral(coulomb(E3), econf(start=(0.1, 0.0, -0.2), workers=2, domain=HALF))
    assert (off.value, off.std_error, off.cap_events, off.bias_bound) == (
        0.45593920992515724, 0.014119428212677912, 0, 0.0)
    origin = mc_kato_integral(coulomb(E3), econf(workers=2, domain=HALF))
    assert (origin.value, origin.std_error) == (0.6029816783770127, 0.019536936876512097)


def test_batch_kernels_keep_the_estimates():
    """Literals recorded before the per-coordinate batch kernels, compared exactly.

    They cover the H^3 chart with a start off the x = 0 plane and from the
    origin (where the start node is replaced), under a far ball that keeps
    them on the path route, the H^2 chart under a ball,
    an off-origin Euclidean start under a ball, and a shifted start under
    a half-space, which mc_heat_expectation now draws exactly: that line
    calls the path route directly.  The Coulomb lines claim no bias bound,
    as the path route claims none at a singularity.
    """
    pot = coulomb(H3)
    # the far ball kills no path but keeps H^3 on the path route, which
    # leaves the literals as they were without a region
    off = mc_kato_integral(pot, econf(space=H3, start=(math.cosh(0.3), 0.0, math.sinh(0.3), 0.0),
                                      workers=2, domain=FAR_H3_BALL))
    assert (off.value, off.std_error, off.cap_events, off.bias_bound) == (
        0.4649527726914678, 0.0054720010804957895, 0, None)
    origin = mc_kato_integral(pot, hconf(workers=2, domain=FAR_H3_BALL))
    assert (origin.value, origin.std_error) == (0.6753446895145091, 0.006921485002493826)
    ball = KillingRegion(kind="ball", radius=1.0)
    plane = mc_heat_expectation(lambda p: p[:, 1],
                                econf(space=H2, start=(math.cosh(0.3), math.sinh(0.3), 0.0),
                                      workers=2, domain=ball))
    assert (plane.value, plane.std_error, plane.n_effective) == (
        0.1724094683865864, 0.01117118574256453, 772)
    surv = mc_heat_expectation(lambda p: p[:, 0] + 1.0,
                               econf(start=(0.1, 0.0, -0.2), workers=2, domain=ball))
    assert (surv.value, surv.std_error, surv.n_effective) == (
        0.7246876098773832, 0.018199426956879452, 677)
    half = KillingRegion(kind="halfspace", normal=(0.6, 0.8), offset=0.3)
    heat = fk._path_heat_expectation(lambda p: p[:, 1],
                                     econf(space=E2, start=(0.1, -0.2), workers=2, domain=half))
    assert (heat.value, heat.std_error, heat.n_effective) == (
        -0.24232494790285933, 0.011346581298059308, 660)


@pytest.mark.parametrize("workers", [1, 2, 3, 500])
@pytest.mark.parametrize("cpus", [1, 2])
def test_batches_reuse_one_position_buffer_per_thread(monkeypatch, workers, cpus):
    threaded(monkeypatch, cpus)
    monkeypatch.setattr(fk, "_NODE_BUDGET", 4000)      # 39 paths per batch
    cfg = econf(n_paths=1000, workers=workers)
    buffers = []
    for batch in sample_paths(cfg):
        if not any(np.shares_memory(batch.positions, buf) for buf in buffers):
            buffers.append(batch.positions)
    assert len(buffers) <= min(workers, cpus)


@pytest.mark.parametrize("case,cpus", [("kato_e3", 2), ("kato_e3", 1),
                                       ("kato_e3_killed", 2), ("kato_e3_exact", 2),
                                       ("survival_h3", 2), ("survival_h3_origin", 2)])
def test_traced_memory_is_bounded_by_the_pool(monkeypatch, traced_peak, case, cpus):
    threaded(monkeypatch, cpus)
    if case.startswith("kato_e3"):
        killed = case == "kato_e3_killed"
        cfg = PathConfig(space=E3, start=(0.0, 0.0, 0.0), horizon=0.1, step=1e-4,
                         n_paths=4000, seed=3, workers=2,
                         domain=KillingRegion(kind="ball", radius=1.0) if killed else None)
        # the path route: the estimator's radii and |v| scratch, the
        # profile's own result and the cap mask: a little over 3 floats a
        # node, one position buffer; a killing region adds the truncated
        # weights (one float a node) and the alive masks of the batches in
        # flight.  The exact route allocates no pool and a few floats a sample.
        temporaries = 1.8 if killed else 1.4
        # Coulomb with its power undeclared keeps the path route
        pot = coulomb(E3) if case.endswith("exact") else replace(coulomb(E3), singular_power=None)
        assert fk._exact_route(pot, cfg) == case.endswith("exact")

        def run():
            mc_kato_integral(pot, cfg)
    else:
        # off the origin the paths are sampled; from it (the exact route) no
        # path is, and no pool is allocated
        start = H3.origin() if case.endswith("origin") else geodesic_point(H3, 0.3)
        cfg = PathConfig(space=H3, start=tuple(start), horizon=0.1, step=1e-4,
                         n_paths=4000, seed=3, workers=2,
                         domain=KillingRegion(kind="ball", radius=1.0))
        # alive masks in flight and one killing-scan chunk per thread
        temporaries = 1

        def run():
            mc_heat_expectation(lambda p: np.ones(p.shape[0]), cfg)
    B, S = fk._batch_size(cfg.n_steps), cfg.n_steps
    positions = 8 * B * (S + 1) * len(cfg.start)
    draws = 8 * B * S * cfg.space.dim
    pool = min(cfg.workers, cpus) * (positions + draws)
    if case.endswith("origin"):
        assert fk._exact_heat_route(cfg)
        pool = 0
    if case.endswith("exact"):
        # no pool: a block's draws and scratch, and the per-sample values
        pool, temporaries = 16 * 8 * cfg.n_paths, 0
    assert traced_peak(run) <= pool + temporaries * positions


# ---------------------------------------------------------------------------
# running potential integrals

def test_constant_potential_exact():
    """Exact to rounding on the path route; on the randomized-time route it has variance."""
    cfg = econf()
    path = mc_kato_integral(constant(E3, 2.5), forced_path(cfg))
    assert path.value == pytest.approx(0.5, abs=1e-12)
    assert path.std_error < 1e-12
    assert path.cap_events == 0
    # the sample is 2.5 * 2 T U, whose SE is 2.5 T / sqrt(3 n)
    est = mc_kato_integral(constant(E3, 2.5), cfg)
    assert est.std_error == pytest.approx(0.5 / math.sqrt(3 * cfg.n_paths), rel=0.1)
    assert abs(est.value - 0.5) <= 3.0 * est.std_error
    assert est.cap_events == 0 and est.bias_bound == 0.0


def test_coulomb_integral_from_origin():
    cfg = PathConfig(space=E3, start=(0.0, 0.0, 0.0), horizon=0.01,
                     step=1e-4, n_paths=20000, seed=42)
    est = mc_kato_integral(coulomb(E3), cfg)
    want = 2.0 * math.sqrt(2.0 * 0.01 / math.pi)
    assert abs(est.value - want) <= 3.0 * est.std_error
    assert est.bias_bound == 0.0
    assert est.n_effective == 20000


def test_start_singularity_is_handled():
    # v(X_0) = +inf at the origin; on the path route the first node borrows
    # the next value
    cfg = forced_path(econf(n_paths=500))
    assert not fk._exact_route(coulomb(E3), cfg)
    est = mc_kato_integral(coulomb(E3), cfg)
    assert math.isfinite(est.value)
    assert est.value > 0.0


def test_cap_events_counted():
    hot = inverse_power(E3, power=8.0, strength=1e9)
    est = mc_kato_integral(hot, econf(start=(0.05, 0.0, 0.0), horizon=0.01,
                                      step=1e-4, n_paths=500))
    assert est.cap_events > 0
    assert math.isfinite(est.value)


def test_space_mismatch_rejected():
    with pytest.raises(DomainError):
        mc_kato_integral(coulomb(E2), econf())


def test_estimate_json_provenance():
    est = Estimate(value=1.0, std_error=0.1, n_effective=100, n_paths=100,
                   step=0.01)
    obj = estimate_json(est)
    assert obj["provenance"] == "monte_carlo"
    assert obj["value"] == 1.0


# ---------------------------------------------------------------------------
# killing

def test_ball_survival_against_eigen_series():
    t = 0.1
    series = 2.0 * sum((-1) ** (n + 1) * math.exp(-n * n * math.pi ** 2 * t / 2)
                       for n in range(1, 60))
    cfg = PathConfig(space=E3, start=(0.0, 0.0, 0.0), horizon=t, step=1e-3,
                     n_paths=20000, seed=7,
                     domain=KillingRegion(kind="ball", radius=1.0))
    est = mc_heat_expectation(lambda p: np.ones(p.shape[0]), cfg)
    # from the origin killing is in continuous time: no step envelope, only
    # the reported truncation of the bridge series
    tol = 3.0 * est.std_error + est.bias_bound
    assert abs(est.value - series) <= tol
    assert est.n_effective < cfg.n_paths


def test_survivors_counted():
    cfg = econf(domain=KillingRegion(kind="halfspace",
                                     normal=(1.0, 0.0, 0.0), offset=0.05))
    est = mc_heat_expectation(lambda p: np.ones(p.shape[0]), cfg)
    assert 0 < est.n_effective < cfg.n_paths
    assert 0.0 < est.value < 1.0


# ---------------------------------------------------------------------------
# the exact heat route: one endpoint draw, bridge killing and the Doob weight

def ball_survival_series(space, t):
    """P(tau > t) in the unit ball from its centre, by the Dirichlet eigen series.

    On H^3, u = v / sinh r turns (1/2) Delta into (1/2)(d^2/dr^2 - 1), and
    sinh r on (0, 1) expands in sin(n pi r).
    """
    total = 0.0
    for n in range(1, 200):
        k2 = (n * math.pi) ** 2
        if space.kind == EUCLIDEAN:
            total += (-1) ** (n + 1) * math.exp(-k2 * t / 2)
        else:
            total += (-1) ** (n + 1) * math.sinh(1.0) * k2 / (1.0 + k2) \
                * math.exp(-(k2 + 1.0) * t / 2)
    return 2.0 * total


@settings(max_examples=300)
@given(fx=st.floats(0.0, 0.999), fy=st.floats(1e-3, 0.999), a=st.floats(0.2, 3.0),
       s=st.floats(0.01, 4.0), grow=st.floats(1e-3, 1.0))
def test_bridge_factor_properties(fx, fy, a, s, grow):
    """In [0, 1], monotone in a, continuous as x -> 0+, and within its bound of 200 terms."""
    x, y, t = fx * a, np.array([fy * a]), s * a * a
    factor, bound = fk._bridge_survival(x, y, a, t)
    assert 0.0 <= factor[0] <= 1.0 and 0.0 <= bound[0] < 1e-9
    wider, wider_bound = fk._bridge_survival(x, y, a * (1.0 + grow), t)
    assert wider[0] >= factor[0] - (bound[0] + wider_bound[0])
    many, many_bound = fk._bridge_survival(x, y, a, t, terms=200)
    assert abs(factor[0] - many[0]) <= bound[0] + many_bound[0]
    at_zero = fk._bridge_survival(0.0, y, a, t)[0]
    assert abs(fk._bridge_survival(1e-9 * a, y, a, t)[0][0] - at_zero[0]) <= 1e-8


def test_bridge_factor_outside_the_ball_is_zero():
    factor, bound = fk._bridge_survival(0.0, np.array([1.0, 1.5, 0.5]), 1.0, 0.25)
    assert factor[0] == factor[1] == bound[0] == bound[1] == 0.0
    assert 0.0 < factor[2] < 1.0


def test_bridge_factor_over_array_times():
    """Each time its own series, and a bridge over no time stays where it started."""
    y, t = np.array([0.3, 0.5, 0.7]), np.array([0.0, 0.1, 0.3])
    factor, bound = fk._bridge_survival(0.3, y, 1.0, t)
    assert factor[0] == 1.0 and bound[0] == 0.0
    for i in (1, 2):
        single, single_bound = fk._bridge_survival(0.3, y[i:i + 1], 1.0, t[i], terms=200)
        assert abs(factor[i] - single[0]) <= bound[i] + single_bound[0]


@pytest.mark.parametrize("radius", [1e307, 1e308])
@pytest.mark.parametrize("space", [E3, H3], ids=["E3", "H3"])
def test_huge_ball_reads_as_no_region(space, radius):
    """Every image term's decay underflows to 0 there, and u / y overflows: the terms are 0."""
    free = econf(space=space, start=tuple(space.origin()), n_paths=2000, seed=17)
    killed = replace(free, domain=KillingRegion(kind="ball", radius=radius))
    one = lambda p: np.ones(p.shape[0])
    for run in (lambda cfg: mc_heat_expectation(one, cfg),
                lambda cfg: mc_kato_integral(coulomb(space, 1.0), cfg)):
        want, got = run(free), run(killed)
        assert got.value == want.value and got.std_error == want.std_error
        assert math.isfinite(got.bias_bound) and got.bias_bound < 1e-12


@pytest.mark.parametrize("space", [E3, H3], ids=["E3", "H3"])
def test_origin_survival_against_the_eigen_series(space):
    """Exact at every step: 10, 40 and 160 steps (a configuration takes at least 10)."""
    t = 0.25
    ball = KillingRegion(kind="ball", radius=1.0)
    ests = [mc_heat_expectation(lambda p: np.ones(p.shape[0]),
                                PathConfig(space=space, start=tuple(space.origin()), horizon=t,
                                           step=t / n, n_paths=20000, seed=41, workers=2,
                                           domain=ball))
            for n in (10, 40, 160)]
    want = ball_survival_series(space, t)
    for est in ests:
        assert abs(est.value - want) <= 4.0 * est.std_error
        assert 0.0 < est.bias_bound < 1e-12
        assert 0 < est.n_effective < est.n_paths
    # the step does not enter the estimand
    assert len({(e.value, e.std_error, e.n_effective) for e in ests}) == 1


@pytest.mark.parametrize("space,f,want", [
    (E3, lambda p: np.exp(p[:, 0]), lambda t: math.exp(t / 2)),
    # each hyperboloid coordinate is an eigenfunction of Delta/2 with
    # eigenvalue 3/2, and x_1 adds 0 from the origin
    (H3, lambda p: p[:, 0] + p[:, 1], lambda t: math.exp(1.5 * t)),
], ids=["E3", "H3"])
def test_non_radial_endpoint_mean_from_the_origin(space, f, want):
    cfg = PathConfig(space=space, start=tuple(space.origin()), horizon=0.5, step=0.05,
                     n_paths=20000, seed=43, workers=2)
    assert fk._exact_heat_route(cfg)
    est = mc_heat_expectation(f, cfg)
    assert abs(est.value - want(cfg.horizon)) <= 4.0 * est.std_error
    assert est.bias_bound == 0.0 and est.n_effective == cfg.n_paths


HALFSPACE_SURVIVAL = dict(space=E3, start=(0.3, 0.0, 0.0), horizon=0.25, n_paths=20000,
                          seed=61, workers=2,
                          domain=KillingRegion(kind="halfspace", normal=(1.0, 0.0, 0.0),
                                               offset=0.5))


def halfspace_survival():
    """P(tau > T) 0.2 from the plane x_1 = 0.5, T = 0.25: erf(0.2 / sqrt(2T))."""
    return erf(0.2 / math.sqrt(2.0 * HALFSPACE_SURVIVAL["horizon"]))


def test_halfspace_survival_is_exact():
    """One endpoint a path with the Brownian bridge factor: within 3 SE, and exactly no bias."""
    cfg = PathConfig(step=0.025, **HALFSPACE_SURVIVAL)
    assert fk._exact_heat_route(cfg)
    est = mc_heat_expectation(lambda p: np.ones(p.shape[0]), cfg)
    assert est.bias_bound == 0.0
    assert abs(est.value - halfspace_survival()) <= 3.0 * est.std_error + est.bias_bound
    assert 0 < est.n_effective < cfg.n_paths


def test_halfspace_survival_path_bias_shrinks_with_the_step():
    """The path route kills at grid times only: its gap to erf is upward and shrinks with h."""
    gaps = []
    for step in (0.0025, 0.000625):
        est = fk._path_heat_expectation(lambda p: np.ones(p.shape[0]),
                                        PathConfig(step=step, **HALFSPACE_SURVIVAL))
        assert est.bias_bound is None
        gaps.append(est.value - halfspace_survival())
    assert 0.0 < gaps[1] < gaps[0]


@pytest.mark.parametrize("space,start", [(E2, (0.4, -0.3)), (E3, (0.4, -0.3, 0.2))],
                         ids=["E2", "E3"])
def test_gaussian_heat_from_off_the_origin(space, start):
    """E exp(-|B_T|^2 / 2) from x: (1 + T)^(-d/2) exp(-|x|^2 / (2 (1 + T))), within 3 SE."""
    cfg = PathConfig(space=space, start=start, horizon=0.5, step=0.05, n_paths=20000,
                     seed=67, workers=2)
    assert fk._exact_heat_route(cfg)
    est = mc_heat_expectation(lambda p: np.exp(-0.5 * np.sum(p * p, axis=1)), cfg)
    t = cfg.horizon
    want = (1.0 + t) ** (-space.dim / 2) * math.exp(-np.dot(start, start) / (2.0 * (1.0 + t)))
    assert abs(est.value - want) <= 3.0 * est.std_error
    assert est.bias_bound == 0.0 and est.n_effective == cfg.n_paths


def test_h3_heat_from_off_the_origin_is_boosted():
    """E <B_T, y> = exp(3T/2) <x_0, y> from a start at distance 1, within 3 SE, on the sheet.

    The draw is made at the origin and moved by the boost that takes the
    origin to x_0; the pairing with y = x_0 is cosh d(x_0, B_T).
    """
    x0 = geodesic_point(H3, 1.0, (1.0, 2.0, -1.0))
    cfg = PathConfig(space=H3, start=tuple(x0), horizon=0.5, step=0.05, n_paths=20000,
                     seed=71, workers=2)
    assert fk._exact_heat_route(cfg)
    seen = []
    for y in (np.array([1.5, 0.2, -0.4, 0.7]), x0):
        def pairing(p):
            seen.append(p.copy())
            return p[:, 0] * y[0] - p[:, 1:] @ y[1:]

        est = mc_heat_expectation(pairing, cfg)
        want = math.exp(1.5 * cfg.horizon) * (x0[0] * y[0] - x0[1:] @ y[1:])
        assert abs(est.value - want) <= 3.0 * est.std_error
        assert est.bias_bound == 0.0 and est.n_effective == cfg.n_paths
    points = np.concatenate(seen)
    assert np.max(np.abs(points[:, 0] ** 2 - np.sum(points[:, 1:] ** 2, axis=1) - 1.0)) < 1e-9


def test_h3_heat_route_computes_the_sinh_ratio_once_a_block(monkeypatch):
    # the Doob weight and the boosted points share one sinh|Y| / |Y| a block;
    # the one 0-d call is h(|base|), once per run
    sinh_ratio, blocks = fk._sinh_ratio, fk._exact_blocks
    calls, drawn = [], []

    def counted_ratio(r, out):
        calls.append(np.ndim(r))
        return sinh_ratio(r, out)

    def counted_blocks(config):
        for block in blocks(config):
            drawn.append(block)
            yield block

    monkeypatch.setattr(fk, "_sinh_ratio", counted_ratio)
    monkeypatch.setattr(fk, "_exact_blocks", counted_blocks)
    cfg = PathConfig(space=H3, start=tuple(geodesic_point(H3, 1.0, (1.0, 2.0, -1.0))),
                     horizon=0.5, step=0.05, n_paths=40000, seed=71, workers=2)
    assert fk._exact_heat_route(cfg)
    est = mc_heat_expectation(lambda p: p[:, 0], cfg)
    assert math.isfinite(est.value) and len(drawn) >= 4
    assert calls == [0] + [1] * len(drawn)


class PathsDrawn(Exception):
    pass


def test_origin_routes_draw_no_path(monkeypatch):
    def refuse(config):
        raise PathsDrawn

    monkeypatch.setattr(fk, "sample_paths", refuse)
    ball = KillingRegion(kind="ball", radius=1.0)

    def ones(p):
        return np.ones(p.shape[0])

    for space in (E3, H3):
        for domain in (None, ball):
            cfg = PathConfig(space=space, start=tuple(space.origin()), horizon=0.1,
                             step=1e-2, n_paths=400, seed=2, workers=2, domain=domain)
            mc_heat_expectation(ones, cfg)
            mc_kato_integral(coulomb(space), cfg)
            off = PathConfig(**{**vars(cfg), "start": tuple(geodesic_point(space, 0.3))})
            mc_kato_integral(coulomb(space), off)
            if domain is None:
                mc_heat_expectation(ones, off)
            else:
                # off the origin a ball leaves only the Kato integral exact
                with pytest.raises(PathsDrawn):
                    mc_heat_expectation(ones, off)
    for start in ((0.0, 0.0, 0.0), (0.1, 0.0, -0.2)):
        half = PathConfig(space=E3, start=start, horizon=0.1, step=1e-2, n_paths=400,
                          seed=2, workers=2, domain=HALF)
        mc_kato_integral(coulomb(E3), half)
        mc_kato_integral(bump(E3), half)
        mc_heat_expectation(ones, half)
    with pytest.raises(PathsDrawn):
        mc_kato_integral(inverse_power(E3, HEAVY), half)
    # balls on R^2, R^4 and H^2 keep their paths
    for space in (E2, E4, H2):
        cfg = PathConfig(space=space, start=tuple(space.origin()), horizon=0.1, step=1e-2,
                         n_paths=400, seed=2, workers=2, domain=ball)
        with pytest.raises(PathsDrawn):
            mc_heat_expectation(ones, cfg)


def test_origin_routes_keep_the_estimates():
    """Literals recorded when the H^3 origin left the path route, compared exactly.

    The twins of the path-route literals above: H^3 heat from the origin
    under a ball, and the H^3 Coulomb integral from the origin and off it,
    whose lines were re-recorded when it moved to the randomized-time route.
    """
    ball = KillingRegion(kind="ball", radius=1.0)
    heat = mc_heat_expectation(lambda p: p[:, 0], hconf(workers=2, domain=ball))
    assert (heat.value, heat.std_error, heat.n_effective) == (
        0.8148381764322128, 0.012901953408624824, 827)
    pot = coulomb(H3)
    origin = mc_kato_integral(pot, hconf(workers=2))
    assert (origin.value, origin.std_error) == (0.7176054934841701, 0.01896878561606602)
    off = mc_kato_integral(pot, econf(space=H3, start=(math.cosh(0.3), 0.0, math.sinh(0.3), 0.0),
                                      workers=2))
    assert (off.value, off.std_error) == (0.4514339763119145, 0.011693550726529979)


# ---------------------------------------------------------------------------
# transport phases and the covariant estimator

def square_loop(n=50):
    sq = np.array([[0.0, 0.0], [1.0, 0.0], [1.0, 1.0], [0.0, 1.0], [0.0, 0.0]])
    fine = []
    for a, b in zip(sq[:-1], sq[1:]):
        for s in np.linspace(0.0, 1.0, n, endpoint=False):
            fine.append(a + s * (b - a))
    fine.append(sq[-1])
    return np.array(fine)


def test_transport_phase_zero_field():
    loop = square_loop()
    assert transport_phase(loop, lambda p: np.zeros_like(p)) == 1.0 + 0.0j


def test_transport_phase_stokes():
    b_field = 0.9
    loop = square_loop()
    ph = transport_phase(
        loop, lambda p: 0.5 * b_field * np.stack([-p[:, 1], p[:, 0]], axis=1))
    want = complex(math.cos(-b_field), math.sin(-b_field))  # unit area
    assert abs(ph - want) < 1e-12
    assert abs(abs(ph) - 1.0) < 1e-15


def test_transport_phase_gauge_shift():
    rng = np.random.default_rng(3)
    path = np.cumsum(rng.normal(0.0, 0.1, size=(40, 2)), axis=0)

    def A0(p):
        return 0.5 * np.stack([-p[:, 1], p[:, 0]], axis=1)

    grad_chi = np.array([0.7, 0.2])
    ph1 = transport_phase(path, A0)
    ph2 = transport_phase(path, lambda p: A0(p) + grad_chi[None, :])
    shift = grad_chi @ (path[-1] - path[0])
    assert abs(ph2 - ph1 * np.exp(-1j * shift)) < 1e-12


def test_covariant_zero_field_equals_scalar():
    cfg = PathConfig(space=E2, start=(0.2, -0.1), horizon=0.5, step=5e-3,
                     n_paths=4000, seed=21,
                     domain=KillingRegion(kind="ball", radius=3.0))

    def gauss(p):
        return np.exp(-np.sum(p * p, axis=1))

    cov = mc_covariant_semigroup(gauss, lambda p: np.zeros_like(p), cfg)
    sca = mc_heat_expectation(gauss, cfg)
    assert abs(cov.value - sca.value) < 1e-12
    assert cov.extras["domination_ok"]


def test_covariant_field_dominated_by_scalar():
    cfg = PathConfig(space=E2, start=(0.0, 0.0), horizon=0.5, step=5e-3,
                     n_paths=4000, seed=23)

    def gauss(p):
        return np.exp(-np.sum(p * p, axis=1))

    def A(p):
        return 2.0 * np.stack([-p[:, 1], p[:, 0]], axis=1)   # B = 4

    est = mc_covariant_semigroup(gauss, A, cfg)
    assert abs(est.value) <= est.extras["scalar_value"] + 1e-12
    assert est.extras["domination_ok"]
    # a field this strong suppresses the magnitude well past the noise
    assert abs(est.value) < est.extras["scalar_value"] - 5.0 * est.std_error


def test_covariant_requires_euclidean():
    cfg = PathConfig(space=H3, start=(1.0, 0.0, 0.0, 0.0), horizon=0.1,
                     step=1e-3, n_paths=200, seed=1)
    with pytest.raises(DomainError):
        mc_covariant_semigroup(lambda p: np.ones(p.shape[0]),
                               lambda p: np.zeros((p.shape[0], 3)), cfg)


@pytest.mark.parametrize("A", [lambda p: np.ones((p.shape[0], 1)), lambda p: np.ones(p.shape[0])],
                         ids=["one-column", "one-dimensional"])
def test_connection_of_the_wrong_shape_raises(A):
    # one value a midpoint on a 2-D path is no connection form: a column
    # must not be broadcast over both coordinates as A = (1, 1)
    path = square_loop()
    with pytest.raises(DomainError, match="one vector a midpoint"):
        transport_phase(path, A)
    cfg = PathConfig(space=E2, start=(0.0, 0.0), horizon=0.1, step=1e-2, n_paths=100, seed=1)
    with pytest.raises(DomainError, match="one vector a midpoint"):
        mc_covariant_semigroup(lambda p: np.ones(p.shape[0]), A, cfg)

"""Path-sampling estimators against closed forms and quadrature oracles.

The sampler is exact in law on Euclidean spaces (independent Gaussian
increments), and so is the radius kernel that mc_kato_integral uses on
R^d, d >= 3, and H^3 (the Bessel chain of |B_t| on the step grid, with
the Doob weight on H^3), so moment and law tests there carry only
statistical error.  So does mc_heat_expectation from the origin of R^3
and H^3, one exact endpoint draw a path with the Bessel-bridge killing
factor.  Hyperbolic paths are exact in the upper-half-space height and
take the trapezoidal variance for the other coordinates; they and the
killing scan are O(step) weak approximations, so their tests carry an
explicit step envelope on top of 3 sigma.

Frozen references:
  * Coulomb running integral from the origin: 2 sqrt(2 t / pi).
  * survival in the unit ball at t = 0.1 against the Dirichlet eigenfunction
    series 2 sum_n (-1)^(n+1) exp(-n^2 pi^2 t / 2) = 0.96599...
  * E cosh d(x, B_t) = exp(m t / 2) on H^m, since Delta cosh d = m cosh d.
  * on H^3 from the origin d(o, B_t) has the law of |W_t + t e| in R^3
    (Rogers and Pitman, Ann. Probab. 9, 1981).
  * on R^d, |B_T|^2 / T from x_0 is noncentral chi^2 with d degrees of
    freedom and noncentrality |x_0|^2 / T.
"""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.stats import ks_2samp, kstest, ncx2

from katoform import feynman_kac as fk
from katoform.errors import ConfigError, DomainError, InvalidPointError
from katoform.feynman_kac import (Estimate, KillingRegion, PathConfig,
                                  mc_covariant_semigroup, mc_heat_expectation,
                                  mc_kato_integral, sample_paths,
                                  transport_phase)
from katoform.geometry import (EUCLIDEAN, HYPERBOLIC, ModelSpace,
                               geodesic_point, heat_kernel_radial, ring_area)
from katoform.potentials import bump, constant, coulomb, inverse_power
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


def test_pathconfig_rejects_non_finite_halfspace_normal():
    with pytest.raises(ConfigError, match="finite nonzero"):
        econf(domain=KillingRegion(kind="halfspace", normal=(math.nan, 0.0, 0.0)))


def test_pathconfig_json_round_trip():
    cfg = econf(domain=KillingRegion(kind="ball", radius=2.0))
    clone = PathConfig.from_json_dict(cfg.to_json_dict())
    assert clone == cfg
    assert clone.n_steps == 100


def test_killing_region_json():
    ball = KillingRegion.from_json_dict({"kind": "ball", "radius": 1.5})
    assert ball.radius == 1.5
    half = KillingRegion.from_json_dict(
        {"kind": "halfspace", "normal": [1.0, 0.0], "offset": 2.0})
    pts = np.array([[0.0, 0.0], [3.0, 0.0]])
    assert list(half.inside(E2, pts)) == [True, False]
    with pytest.raises(ConfigError):
        KillingRegion.from_json_dict({"kind": "ball"})
    with pytest.raises(ConfigError):
        KillingRegion.from_json_dict({"kind": "torus"})


@pytest.mark.parametrize("radius", [math.nan, math.inf])
def test_killing_region_json_rejects_non_finite_radius(radius):
    with pytest.raises(ConfigError, match="positive finite radius"):
        KillingRegion.from_json_dict({"kind": "ball", "radius": radius})


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
    assert np.array_equal(fk._radial_distances(space, points, r, tmp),
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
    assert batch.times.shape == (cfg.n_steps + 1,)
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


def radius_chunks(cfg):
    """The radius kernel's chunks; a chunk's arrays are reused once the next is requested."""
    return fk._stream(cfg, fk._RadiusKernel(cfg))


def final_radii(cfg):
    """|B_horizon| of every path, in the reference layout."""
    out = np.empty(cfg.n_paths)
    for chunk in radius_chunks(cfg):
        if chunk.k0 + len(chunk.radii) - 1 == cfg.n_steps:
            out[chunk.first:chunk.first + chunk.radii.shape[1]] = chunk.radii[-1]
    return out


@pytest.mark.parametrize("space", [E3, E4, E5], ids=["E3", "E4", "E5"])
@pytest.mark.parametrize("offset", [0.0, 0.7])
def test_radius_kernel_law_is_noncentral_chi2(monkeypatch, space, offset):
    """|B_T|^2 / T against ncx2(d, |x_0|^2 / T), with several chunks a block."""
    monkeypatch.setattr(fk, "_NODE_BUDGET", 3000)
    start = np.zeros(space.dim)
    start[-1] = offset
    cfg = PathConfig(space=space, start=tuple(start), horizon=0.5, step=0.025,
                     n_paths=4000, seed=31, workers=2)
    law = ncx2(space.dim, offset ** 2 / cfg.horizon)
    assert kstest(final_radii(cfg) ** 2 / cfg.horizon, law.cdf).pvalue > 0.01


@pytest.mark.parametrize("domain", [None, KillingRegion(kind="ball", radius=0.6),
                                    KillingRegion(kind="ball", radius=0.6,
                                                  center=(0.0, 0.0, 0.0))])
def test_radius_route_covers_balls_about_the_origin(domain):
    assert fk._radius_route(econf(domain=domain))


@pytest.mark.parametrize("cfg", [
    hconf(),
    hconf(domain=KillingRegion(kind="ball", radius=0.6, center=(1.0, 0.0, 0.0, 0.0))),
    econf(space=H3, start=tuple(geodesic_point(H3, 0.3)),
          domain=KillingRegion(kind="ball", radius=0.6)),
], ids=["origin", "centred_ball", "offorigin_start"])
def test_radius_route_covers_h3(cfg):
    assert fk._radius_route(cfg)


# an H^3 ball about a point off the origin, far too large to kill a path
# within the horizons used here: it sends H^3 down the path route
FAR_H3_BALL = KillingRegion(kind="ball", radius=50.0, center=tuple(geodesic_point(H3, 1.0)))


@pytest.mark.parametrize("cfg", [
    econf(domain=KillingRegion(kind="ball", radius=1.0, center=(0.1, 0.0, 0.0))),
    econf(domain=KillingRegion(kind="halfspace", normal=(1.0, 0.0, 0.0), offset=1.0)),
    econf(space=E2, start=(0.0, 0.0)),
    hconf(domain=FAR_H3_BALL),
    econf(space=H2, start=(1.0, 0.0, 0.0)),
], ids=["offcentre_ball", "halfspace", "E2", "H3_offcentre_ball", "H2"])
def test_path_route_elsewhere(cfg):
    assert not fk._radius_route(cfg)
    assert not fk._endpoint_route(cfg)


@pytest.mark.parametrize("pot", [coulomb(E3), bump(E3, amplitude=2.0, radius=0.5)],
                         ids=["coulomb", "bump"])
@pytest.mark.parametrize("start", [(0.0, 0.0, 0.0), (0.2, -0.1, 0.0)])
def test_radius_route_agrees_with_path_route(pot, start):
    """A half-space 10^3 away kills no path but sends the estimate down the path route."""
    cfg = PathConfig(space=E3, start=start, horizon=0.1, step=1e-3, n_paths=8000,
                     seed=37, workers=2)
    far = PathConfig(**{**vars(cfg), "domain": KillingRegion(
        kind="halfspace", normal=(1.0, 0.0, 0.0), offset=1e3)})
    assert fk._radius_route(cfg) and not fk._radius_route(far)
    radius, path = mc_kato_integral(pot, cfg), mc_kato_integral(pot, far)
    assert abs(radius.value - path.value) <= 4.0 * math.hypot(radius.std_error,
                                                              path.std_error)
    assert radius.bias_bound > 0.0 and path.bias_bound > 0.0


@pytest.mark.parametrize("space", [E4, E5], ids=["E4", "E5"])
def test_radius_chunk_length_does_not_change_estimates(monkeypatch, space):
    """With one or two exponentials and a transverse normal per step."""
    cfg = PathConfig(space=space, start=(0.1,) + (0.0,) * (space.dim - 1), horizon=0.2,
                     step=2e-3, n_paths=1000, seed=5, workers=2,
                     domain=KillingRegion(kind="ball", radius=0.5))
    pot = coulomb(space)
    default = vars(mc_kato_integral(pot, cfg))
    for budget in (600, 20000):
        with monkeypatch.context() as patch:
            patch.setattr(fk, "_NODE_BUDGET", budget)
            assert vars(mc_kato_integral(pot, cfg)) == default


# ---------------------------------------------------------------------------
# worker streams: layout, threads, lifecycle

def threaded(monkeypatch, cpus):
    """Make the sampler see ``cpus`` usable CPUs (1 runs every stream on one thread)."""
    monkeypatch.setattr(fk, "_usable_cpus", lambda: cpus)


def all_estimates(cfg):
    """Every Estimate field of the three estimators on one configuration.

    The killed heat expectation runs from the start (the endpoint route
    from the origin) and from a point off it (the path route).
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

    pot = coulomb(cfg.space)
    ests = [mc_kato_integral(pot, cfg), mc_kato_integral(pot, killed),
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


# the path kernel through sample_paths, and the radius kernel on R^3
KERNELS = {"paths": sample_paths, "radii": radius_chunks}


@pytest.mark.parametrize("kernel", sorted(KERNELS))
def test_closing_early_joins_producers(monkeypatch, kernel):
    threaded(monkeypatch, 2)
    monkeypatch.setattr(fk, "_NODE_BUDGET", 2000)
    baseline = threading.active_count()
    batches = KERNELS[kernel](econf(workers=2))
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


# a configuration for each kernel: the far half-space kills no path but
# keeps R^3 on the path route
KERNEL_CONFIGS = {
    "paths": econf(workers=2, domain=KillingRegion(kind="halfspace", normal=(1.0, 0.0, 0.0),
                                                   offset=1e3)),
    "radii": econf(workers=2),
}


@pytest.mark.parametrize("kernel", sorted(KERNEL_CONFIGS))
def test_caller_error_joins_producers(monkeypatch, kernel):
    threaded(monkeypatch, 2)
    monkeypatch.setattr(fk, "_NODE_BUDGET", 2000)
    cfg = KERNEL_CONFIGS[kernel]
    assert fk._radius_route(cfg) == (kernel == "radii")
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
    (E3, (0.0, 0.0, 0.0), "_bessel_steps"),
], ids=["paths", "radii"])
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
        assert np.array_equal(batch.exit_step, exit_step)
        survivors += int(alive[:, -1].sum())
    assert 0 < survivors < cfg.n_paths


@pytest.mark.parametrize("space", [E3, E4], ids=["E3", "E4"])
def test_radius_killing_matches_step_loop(monkeypatch, space):
    """Alive masks of radius chunks against a per-step loop carried across chunks."""
    threaded(monkeypatch, 2)
    monkeypatch.setattr(fk, "_NODE_BUDGET", 7000)     # blocks of 300 paths
    ball = KillingRegion(kind="ball", radius=0.5)
    cfg = PathConfig(space=space, start=(0.1,) + (0.0,) * (space.dim - 1), horizon=0.2,
                     step=2e-3, n_paths=600, seed=13, workers=2, domain=ball)
    alive = np.ones(cfg.n_paths, dtype=bool)
    exit_step = np.full(cfg.n_paths, cfg.n_steps + 1)
    chunks = 0
    for chunk in radius_chunks(cfg):
        span = slice(chunk.first, chunk.first + chunk.radii.shape[1])
        assert np.array_equal(chunk.alive[0], alive[span])
        for j in range(1, len(chunk.radii)):
            k = chunk.k0 + j
            dead_now = alive[span] & ~(chunk.radii[j] < ball.radius)
            exit_step[span][dead_now] = k
            alive[span] &= ~dead_now
            assert np.array_equal(chunk.alive[j], alive[span])
        chunks += 1
    assert chunks == 2 * 5       # a block per worker, each in chunks of 23 steps
    assert 0 < int(alive.sum()) < cfg.n_paths
    assert np.all(exit_step[alive] == cfg.n_steps + 1)
    assert np.all(exit_step[~alive] <= cfg.n_steps)


# ---------------------------------------------------------------------------
# the batch pool: 2 position buffers and 1 draw buffer per producer thread

def test_pool_keeps_the_estimates():
    """Literals recorded with a fresh allocation per batch, compared exactly.

    The kato line was re-recorded when R^3 moved to the radius kernel, and
    the heat line when the H^3 origin moved to the endpoint route: its
    start is now off the origin, on the path route.
    """
    kato = mc_kato_integral(coulomb(E3), econf(start=(0.1, 0.0, -0.2), workers=2))
    assert (kato.value, kato.std_error) == (0.5175003059014031, 0.005734223030106741)
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
    """Literals recorded when the radius kernel came in, through its killed chunks."""
    ball = KillingRegion(kind="ball", radius=1.0)
    est = mc_kato_integral(coulomb(E3), econf(start=(0.1, 0.0, -0.2), workers=2, domain=ball))
    assert (est.value, est.std_error, est.cap_events, est.bias_bound) == (
        0.500169612920004, 0.006305988588604508, 0, 0.08944271909999159)


def test_halfspace_kato_integral_keeps_the_estimate():
    """Literals recorded before the radius kernel: R^3 under a half-space keeps the path route.

    One start off the origin, and one at it, where the start node is replaced.
    """
    half = KillingRegion(kind="halfspace", normal=(0.6, 0.0, 0.8), offset=0.3)
    off = mc_kato_integral(coulomb(E3), econf(start=(0.1, 0.0, -0.2), workers=2, domain=half))
    assert (off.value, off.std_error, off.cap_events, off.bias_bound) == (
        0.4582690855725452, 0.0065612207229207254, 0, 0.08944271909999159)
    origin = mc_kato_integral(coulomb(E3), econf(workers=2, domain=half))
    assert (origin.value, origin.std_error) == (0.5661492806387785, 0.008461418743720589)


def test_batch_kernels_keep_the_estimates():
    """Literals recorded before the per-coordinate batch kernels, compared exactly.

    They cover the H^3 chart with a start off the x = 0 plane and from the
    origin (where the start node is replaced), under a far ball that keeps
    them on the path route, the H^2 chart under a ball,
    an off-origin Euclidean start under a ball, and a shifted start under
    a half-space.
    """
    pot = coulomb(H3)
    # the far ball kills no path but keeps H^3 on the path route, which
    # leaves the literals as they were without a region
    off = mc_kato_integral(pot, econf(space=H3, start=(math.cosh(0.3), 0.0, math.sinh(0.3), 0.0),
                                      workers=2, domain=FAR_H3_BALL))
    assert (off.value, off.std_error, off.cap_events, off.bias_bound) == (
        0.4649527726914678, 0.0054720010804957895, 0, 0.08944271909999159)
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
    heat = mc_heat_expectation(lambda p: p[:, 1],
                               econf(space=E2, start=(0.1, -0.2), workers=2, domain=half))
    assert (heat.value, heat.std_error, heat.n_effective) == (
        -0.24232494790285933, 0.011346581298059308, 660)


@pytest.mark.parametrize("workers", [1, 2, 3, 500])
@pytest.mark.parametrize("cpus", [1, 2])
def test_batches_reuse_two_buffers_per_thread(monkeypatch, workers, cpus):
    threaded(monkeypatch, cpus)
    monkeypatch.setattr(fk, "_NODE_BUDGET", 4000)      # 39 paths per batch
    cfg = econf(n_paths=1000, workers=workers)
    buffers = []
    for batch in sample_paths(cfg):
        if not any(np.shares_memory(batch.positions, buf) for buf in buffers):
            buffers.append(batch.positions)
    assert len(buffers) <= 2 * min(workers, cpus)


@pytest.mark.parametrize("case,cpus", [("kato_e3", 2), ("kato_e3", 1),
                                       ("kato_e3_killed", 2), ("survival_h3", 2),
                                       ("survival_h3_origin", 2)])
def test_traced_memory_is_bounded_by_the_pool(monkeypatch, traced_peak, case, cpus):
    threaded(monkeypatch, cpus)
    if case.startswith("kato_e3"):
        killed = case == "kato_e3_killed"
        cfg = PathConfig(space=E3, start=(0.0, 0.0, 0.0), horizon=0.1, step=1e-4,
                         n_paths=4000, seed=3, workers=2,
                         domain=KillingRegion(kind="ball", radius=1.0) if killed else None)
        # the estimator's radii and |v| scratch, the profile's own result and
        # the cap mask: a little over 3 floats a node, one position buffer;
        # a killing region adds the truncated weights (one float a node) and
        # the alive masks of the batches in flight
        temporaries = 1.8 if killed else 1.4

        def run():
            mc_kato_integral(coulomb(E3), cfg)
    else:
        # off the origin the paths are sampled; from it (the endpoint route)
        # no path is, and no pool is allocated
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
    pool = min(cfg.workers, cpus) * (2 * positions + draws)
    if case.endswith("origin"):
        assert fk._endpoint_route(cfg)
        pool = 0
    assert traced_peak(run) <= pool + temporaries * positions


# ---------------------------------------------------------------------------
# running potential integrals

def test_constant_potential_exact():
    est = mc_kato_integral(constant(E3, 2.5), econf())
    assert est.value == pytest.approx(0.5, abs=1e-12)
    assert est.std_error < 1e-12
    assert est.cap_events == 0


def test_coulomb_integral_from_origin():
    cfg = PathConfig(space=E3, start=(0.0, 0.0, 0.0), horizon=0.01,
                     step=1e-4, n_paths=20000, seed=42)
    est = mc_kato_integral(coulomb(E3), cfg)
    want = 2.0 * math.sqrt(2.0 * 0.01 / math.pi)
    tol = 3.0 * est.std_error + est.bias_bound
    assert abs(est.value - want) <= tol
    assert est.bias_bound == pytest.approx(2.0 * math.sqrt(1e-4))
    assert est.n_effective == 20000


def test_start_singularity_is_handled():
    # v(X_0) = +inf at the origin; the first node borrows the next value
    est = mc_kato_integral(coulomb(E3), econf(n_paths=500))
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
# the exact routes from the origin: one endpoint draw, bridge killing and the
# Doob weight; the radius chain on H^3

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
    assert fk._endpoint_route(cfg)
    est = mc_heat_expectation(f, cfg)
    assert abs(est.value - want(cfg.horizon)) <= 4.0 * est.std_error
    assert est.bias_bound == 0.0 and est.n_effective == cfg.n_paths


@pytest.mark.parametrize("pot", [coulomb(H3), bump(H3, amplitude=2.0, radius=0.5)],
                         ids=["coulomb", "bump"])
@pytest.mark.parametrize("start,domain", [
    (H3.origin(), None),
    (geodesic_point(H3, 0.3, (1.0, 2.0, 0.0)), None),
    (H3.origin(), KillingRegion(kind="ball", radius=0.3)),
], ids=["origin", "offorigin", "ball"])
def test_h3_radius_route_agrees_with_path_route(pot, start, domain):
    """The path route is forced by a far ball, or by a ball 1e-12 off the origin.

    Both routes kill at the grid's times, so the ball case compares the
    same estimand.
    """
    cfg = PathConfig(space=H3, start=tuple(start), horizon=0.1, step=1e-3, n_paths=8000,
                     seed=37, workers=2, domain=domain)
    forced = FAR_H3_BALL if domain is None else KillingRegion(
        kind="ball", radius=domain.radius, center=tuple(geodesic_point(H3, 1e-12)))
    path = PathConfig(**{**vars(cfg), "domain": forced})
    assert fk._radius_route(cfg) and not fk._radius_route(path)
    radius, paths = mc_kato_integral(pot, cfg), mc_kato_integral(pot, path)
    assert abs(radius.value - paths.value) <= 4.0 * math.hypot(radius.std_error,
                                                               paths.std_error)


class PathsDrawn(Exception):
    pass


def test_origin_routes_draw_no_path(monkeypatch):
    def refuse(config):
        raise PathsDrawn

    monkeypatch.setattr(fk, "sample_paths", refuse)
    ball = KillingRegion(kind="ball", radius=1.0)
    for space in (E3, H3):
        for domain in (None, ball):
            cfg = PathConfig(space=space, start=tuple(space.origin()), horizon=0.1,
                             step=1e-2, n_paths=400, seed=2, workers=2, domain=domain)
            mc_heat_expectation(lambda p: np.ones(p.shape[0]), cfg)
            mc_kato_integral(coulomb(space), cfg)
    off = PathConfig(space=H3, start=tuple(geodesic_point(H3, 0.3)), horizon=0.1,
                     step=1e-2, n_paths=400, seed=2, workers=2, domain=ball)
    mc_kato_integral(coulomb(H3), off)
    with pytest.raises(PathsDrawn):
        mc_heat_expectation(lambda p: np.ones(p.shape[0]), off)


def test_origin_routes_keep_the_estimates():
    """Literals recorded when the H^3 origin left the path route, compared exactly.

    The twins of the path-route literals above: H^3 heat from the origin
    under a ball, and the H^3 Coulomb integral from the origin and off it.
    """
    ball = KillingRegion(kind="ball", radius=1.0)
    heat = mc_heat_expectation(lambda p: p[:, 0], hconf(workers=2, domain=ball))
    assert (heat.value, heat.std_error, heat.n_effective) == (
        0.8148381764322128, 0.012901953408624824, 827)
    pot = coulomb(H3)
    origin = mc_kato_integral(pot, hconf(workers=2))
    assert (origin.value, origin.std_error) == (0.6715859186359358, 0.006208449430437561)
    off = mc_kato_integral(pot, econf(space=H3, start=(math.cosh(0.3), 0.0, math.sinh(0.3), 0.0),
                                      workers=2))
    assert (off.value, off.std_error) == (0.4558343352189976, 0.004821753145561073)


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

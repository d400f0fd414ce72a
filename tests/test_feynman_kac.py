"""Path-sampling estimators against closed forms and quadrature oracles.

The sampler is exact in law on Euclidean spaces (independent Gaussian
increments), so moment tests carry only statistical error.  The hyperboloid
walk and the killing scan are O(step) weak approximations; their tests
carry an explicit step envelope on top of 3 sigma.

Frozen references:
  * Coulomb running integral from the origin: 2 sqrt(2 t / pi).
  * survival in the unit ball at t = 0.1 against the Dirichlet eigenfunction
    series 2 sum_n (-1)^(n+1) exp(-n^2 pi^2 t / 2) = 0.96599...
"""

import math
import sys
import threading

import numpy as np
import pytest

from katoform import feynman_kac as fk
from katoform.errors import ConfigError, DomainError
from katoform.feynman_kac import (Estimate, KillingRegion, PathConfig,
                                  mc_covariant_semigroup, mc_heat_expectation,
                                  mc_kato_integral, sample_paths,
                                  transport_phase)
from katoform.geometry import (EUCLIDEAN, HYPERBOLIC, ModelSpace,
                               heat_kernel_radial, ring_area)
from katoform.potentials import constant, coulomb, inverse_power
from katoform.quadrature import radial_integral

E1 = ModelSpace(EUCLIDEAN, 1)
E2 = ModelSpace(EUCLIDEAN, 2)
E3 = ModelSpace(EUCLIDEAN, 3)
H3 = ModelSpace(HYPERBOLIC, 3)


def econf(**kw):
    base = dict(space=E3, start=(0.0, 0.0, 0.0), horizon=0.2, step=2e-3,
                n_paths=1000, seed=5)
    base.update(kw)
    return PathConfig(**base)


# ---------------------------------------------------------------------------
# configuration contracts

def test_pathconfig_validation():
    with pytest.raises(ConfigError):
        econf(step=0.03)                     # step > horizon / 10
    with pytest.raises(ConfigError):
        econf(step=0.0003)                   # does not divide horizon
    with pytest.raises(ConfigError):
        econf(n_paths=50)
    with pytest.raises(ConfigError):
        econf(horizon=-1.0)
    with pytest.raises(ConfigError):
        econf(start=(5.0, 0.0, 0.0),
              domain=KillingRegion(kind="ball", radius=1.0))


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


def test_hyperbolic_ball_region():
    reg = KillingRegion(kind="ball", radius=1.0)
    inside = np.array([1.0, 0.0, 0.0, 0.0])
    far = np.array([math.cosh(2.0), math.sinh(2.0), 0.0, 0.0])
    got = reg.inside(H3, np.stack([inside, far]))
    assert list(got) == [True, False]


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


# ---------------------------------------------------------------------------
# worker streams: layout, threads, lifecycle

def threaded(monkeypatch, cpus):
    """Make the sampler see ``cpus`` usable CPUs (1 runs every stream on one thread)."""
    monkeypatch.setattr(fk, "_usable_cpus", lambda: cpus)


def all_estimates(cfg):
    """Every Estimate field of the three estimators on one configuration."""
    ball = KillingRegion(kind="ball", radius=0.5)
    killed = PathConfig(**{**vars(cfg), "domain": ball})
    plane = PathConfig(**{**vars(cfg), "space": E2, "start": (0.1, 0.0)})

    def gauss(p):
        return np.exp(-np.sum(p * p, axis=1))

    def A(p):
        return np.stack([-p[:, 1], p[:, 0]], axis=1)

    ests = [mc_kato_integral(coulomb(E3), cfg), mc_kato_integral(coulomb(E3), killed),
            mc_heat_expectation(lambda p: p[:, 0] + 1j * p[:, 1], killed),
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
    cfg = econf(workers=workers)
    threaded(monkeypatch, 1)
    inline = all_estimates(cfg)
    threaded(monkeypatch, 2)
    assert all_estimates(cfg) == inline


def test_batch_size_does_not_change_estimates(monkeypatch):
    cfg = econf(workers=2)
    default = all_estimates(cfg)
    monkeypatch.setattr(fk, "_NODE_BUDGET", 600)       # 5 paths per batch
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


def test_caller_error_joins_producers(monkeypatch):
    threaded(monkeypatch, 2)
    monkeypatch.setattr(fk, "_NODE_BUDGET", 2000)
    pot = coulomb(E3)
    calls = []
    radial = pot.abs_radial

    def abs_radial(r):
        calls.append(threading.get_ident())
        if len(calls) == 3:
            raise RuntimeError("potential failed on the third batch")
        return radial(r)

    monkeypatch.setattr(pot, "abs_radial", abs_radial)
    baseline = threading.active_count()
    with pytest.raises(RuntimeError, match="third batch"):
        mc_kato_integral(pot, econf(workers=2))
    assert threading.active_count() == baseline
    # potentials run on the caller's thread only
    assert set(calls) == {threading.get_ident()}


def test_producer_error_reaches_caller(monkeypatch):
    threaded(monkeypatch, 2)

    def broken(points, incr):
        raise FloatingPointError("step failed")

    monkeypatch.setattr(fk, "_hyperbolic_step", broken)
    cfg = PathConfig(space=H3, start=(1.0, 0.0, 0.0, 0.0), horizon=0.1,
                     step=1e-3, n_paths=400, seed=2, workers=2)
    baseline = threading.active_count()
    outcome = []

    def run():
        try:
            mc_kato_integral(coulomb(H3), cfg)
        except FloatingPointError as exc:
            outcome.append(exc)

    guard = threading.Thread(target=run, daemon=True)
    guard.start()
    guard.join(timeout=60.0)
    assert not guard.is_alive()
    assert len(outcome) == 1 and str(outcome[0]) == "step failed"
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
    obj = est.to_json_dict()
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
    # boundary-crossing discretization adds an O(sqrt(step)) bias
    tol = 3.0 * est.std_error + 0.4 * math.sqrt(1e-3)
    assert abs(est.value - series) <= tol
    assert est.n_effective < cfg.n_paths


def test_survivors_counted():
    cfg = econf(domain=KillingRegion(kind="halfspace",
                                     normal=(1.0, 0.0, 0.0), offset=0.05))
    est = mc_heat_expectation(lambda p: np.ones(p.shape[0]), cfg)
    assert 0 < est.n_effective < cfg.n_paths
    assert 0.0 < est.value < 1.0


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

"""The benchmark's workloads: inputs built from a seed, ops checked against references.

Each workload builds everything its ops need in ``setup`` (meshes, grids,
potentials, path configurations, config files and reference values) and
runs its ops in ``run``.  Ops call katoform through module attributes
(``operators.quad_form``, not a name imported here), so the traced run's
wrappers see them.  An op fails when it raises, exits non-zero, reports
``status: fail``, or misses its reference.  A known failure is a miss by a
documented bias, inside a stated envelope; any other miss is unexpected.

``pass_s`` is a workload's nominal pass time, measured when the benchmark
was defined (2 shared vCPUs).  A run makes as many passes as fit in its
``--seconds`` at that time, whatever the speed of the code under test.

The seed draws mesh structure, fields, sections and path streams, never
the amount of work: mesh sizes and times come from fixed lists, so every
seed costs the same and the spread over seeds is the machine's alone.
"""

from __future__ import annotations

import hashlib
import io
import json
import math
import os
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from types import SimpleNamespace

import numpy as np

from katoform import bundled, cli, feynman_kac, kato, operators
from katoform import mesh as kmesh
from katoform.feynman_kac import KillingRegion, PathConfig
from katoform.geometry import EUCLIDEAN, HYPERBOLIC, ModelSpace, geodesic_point
from katoform.potentials import bump, coulomb, inverse_square

import references as ref

# Monte Carlo estimators run with two Philox worker streams.  The value is
# fixed rather than taken from the CPU count so a seed gives the same paths
# on every machine.
WORKERS = 2

E2 = ModelSpace(EUCLIDEAN, 2)
E3 = ModelSpace(EUCLIDEAN, 3)
H2 = ModelSpace(HYPERBOLIC, 2)
H3 = ModelSpace(HYPERBOLIC, 3)


class Op(list):
    """The problems found with one op; empty when it passed."""

    def __init__(self, name):
        super().__init__()
        self.name = name
        self.known = []         # misses by a documented bias

    def expect(self, ok, detail):
        if not ok:
            self.append(detail)


class Tally:
    """Ops attempted in one pass, those that failed, and CLI report digests."""

    def __init__(self):
        self.attempted = {}
        self.failures = []      # (op name, what went wrong, known failure?)
        self.digests = {}       # CLI op name -> sha256 of its report.json

    @contextmanager
    def op(self, name):
        op = Op(name)
        self.attempted[name] = self.attempted.get(name, 0) + 1
        try:
            yield op
        except Exception as exc:  # a raising op is a failed op; the pass goes on
            op.append(f"raised {type(exc).__name__}: {exc}")
        if op:
            self.failures.append((name, "; ".join(op), False))
        elif op.known:
            self.failures.append((name, "; ".join(op.known), True))

    @property
    def n_attempted(self):
        return sum(self.attempted.values())


def _config(name):
    path = os.path.join(str(bundled.config_dir()), f"{name}.json")
    with open(path) as fh:
        return path, json.load(fh)


def _run_cli(tally, op, config, out_dir, seed):
    """``katoform run --reference`` in-process; returns the parsed report."""
    report_path = os.path.join(out_dir, "report.json")
    if os.path.exists(report_path):
        os.remove(report_path)
    err = io.StringIO()
    with redirect_stdout(io.StringIO()), redirect_stderr(err):
        code = cli.main(["run", "--config", config, "--out", out_dir,
                         "--reference", "--seed", str(seed)])
    op.expect(code == 0, f"exit {code}: {err.getvalue().strip()}")
    with open(report_path, "rb") as fh:
        raw = fh.read()
    tally.digests[op.name] = hashlib.sha256(raw).hexdigest()
    report = json.loads(raw)
    op.expect(report["status"] == "pass", f"status {report['status']}")
    return report["results"]


def _expect_mc(op, value, std_error, bias_bound, want):
    """Monte Carlo value within 3 sigma plus its reported bias bound."""
    tol = 3.0 * std_error + (bias_bound or 0.0)
    op.expect(abs(value - want) <= tol,
              f"{value:.6g} vs reference {want:.6g} (tol {tol:.2g})")


def _expect_survival(op, est, want, bias):
    """Survival probability that misses its closed form by at most ``bias`` upward.

    Within 3 sigma plus its bias bound the op passes; above that by at most
    ``bias`` it is a known failure; anything else, a non-finite value
    included, is unexpected.
    """
    tol = 3.0 * est.std_error + (est.bias_bound or 0.0)
    detail = f"{est.value:.6g} vs reference {want:.6g} (tol {tol:.2g})"
    if not (math.isfinite(est.value) and want - tol <= est.value <= want + tol + bias):
        op.append(f"{detail}, outside the known-bias envelope +{bias:.2g}")
    elif est.value > want + tol:
        op.known.append(f"{detail}, grid-time killing bias")


def _mesh_shapes(count, lo, hi):
    """count (vertices, fibre dimension, Dirichlet vertices) triples, the same for every seed.

    Vertex counts lo..hi and fibre dimensions 1-3 are taken in turn, with
    0-2 Dirichlet vertices; dense matrices cost (vertices x fibre)^3, so
    drawing the sizes at random made the work of a pass depend on the seed.
    """
    shapes = [(n, d) for d in (1, 2, 3) for n in range(lo, hi + 1)]
    return [(*shapes[i % len(shapes)], i % 3) for i in range(count)]


def _random_mesh(rng, shape):
    n, fiber_dim, dirichlet = shape
    return kmesh.random_bundle_mesh(n, fiber_dim=fiber_dim, seed=int(rng.integers(0, 2 ** 31)),
                                    extra_edge_prob=0.3, dirichlet_count=dirichlet)


def _unit_section(mesh, rng):
    f = (rng.standard_normal((mesh.n_vertices, mesh.fiber_dim))
         + 1j * rng.standard_normal((mesh.n_vertices, mesh.fiber_dim)))
    return f / math.sqrt(float(np.sum(mesh.mu[:, None] * np.abs(f) ** 2)))


def _haar_field(rng, count, n):
    """count Haar-distributed U(n) matrices (phase-fixed QR of complex Gaussians)."""
    z = rng.standard_normal((count, n, n)) + 1j * rng.standard_normal((count, n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


# ---------------------------------------------------------------------------

class KatoVerdicts:
    name = "kato_verdicts"
    ops = ("kato_coulomb_cli", "form_bounds_coulomb_cli", "verdict_inverse_square_r3",
           "verdict_bump_r3", "eta_coulomb_h3", "resolvent_coulomb_h3", "eta_coulomb_h2")
    pass_s = 15.0
    T_GRID = (1e-4, 1e-3, 1e-2, 1e-1)

    def setup(self, seed, out_dir, scale=1.0):
        rng = np.random.default_rng(seed)
        # the off-centre H^3 probe sits at distance 0.5 in a seeded direction;
        # for a radial potential its value does not depend on the direction
        off = geodesic_point(H3, 0.5, rng.standard_normal(3))
        inp = SimpleNamespace(
            seed=seed, out_dir=out_dir,
            kato_config=_config("kato_coulomb")[0],
            form_bounds_config=_config("form_bounds_coulomb")[0],
            inverse_square=inverse_square(E3), bump=bump(E3, amplitude=1.0),
            coulomb_h3=coulomb(H3), coulomb_h2=coulomb(H2),
            probes_h3=[H3.origin(), off],
            eta_h3=ref.eta_coulomb_h3_origin(0.01),
            c8_h3=ref.resolvent_coulomb_h3_origin(8.0),
            eta_h2=ref.eta_coulomb_h2_origin(0.01), assembly_meshes=())
        inp.potentials = [inp.inverse_square, inp.bump, inp.coulomb_h3, inp.coulomb_h2]
        return inp

    def run(self, inp, tally):
        with tally.op("kato_coulomb_cli") as op:
            res = _run_cli(tally, op, inp.kato_config,
                           os.path.join(inp.out_dir, "kato_coulomb"), inp.seed)["kato"]
            eta_rows = [(row["t"], row["eta"]["value"], row["eta"]["error"])
                        for row in res["eta_grid"]]
            c_rows = [(row["r"], row["C_r"]["value"], row["C_r"]["error"])
                      for row in res["resolvent_grid"]]
            for t, val, _ in eta_rows:
                op.expect(ref.rel_close(val, ref.eta_coulomb_r3(t), ref.QUAD_REL),
                          f"eta({t}) = {val!r}")
            for r, val, _ in c_rows:
                op.expect(ref.rel_close(val, ref.resolvent_coulomb_r3(r), ref.QUAD_REL),
                          f"C_{r} = {val!r}")
            op.expect(res["verdict"] == "member", f"verdict {res['verdict']}")
            _expect_klmn(op, res["klmn"])
            op.expect(not ref.sandwich_violations(eta_rows, c_rows), "sandwich fails")

        with tally.op("form_bounds_coulomb_cli") as op:
            res = _run_cli(tally, op, inp.form_bounds_config,
                           os.path.join(inp.out_dir, "form_bounds_coulomb"), inp.seed)
            _expect_klmn(op, res["klmn"])

        origin = [E3.origin()]
        with tally.op("verdict_inverse_square_r3") as op:
            rep = kato.kato_verdict(inp.inverse_square, self.T_GRID, origin)
            op.expect(rep.verdict == "nonmember", f"verdict {rep.verdict}")
            op.expect(all(math.isinf(v) for _, v, _ in rep.eta_grid), "eta finite")
            op.expect(rep.klmn is None, f"klmn {rep.klmn}")

        with tally.op("verdict_bump_r3") as op:
            rep = kato.kato_verdict(inp.bump, self.T_GRID, origin)
            op.expect(rep.verdict == "member", f"verdict {rep.verdict}")
            r, c1, c2 = rep.klmn
            op.expect(c1 <= 0.5, f"C1 {c1!r} > 0.5")
            op.expect(ref.rel_close(c2, r * c1, 1e-12), f"C2 {c2!r} != r C1")
            op.expect(not ref.sandwich_violations(rep.eta_grid, rep.resolvent_grid),
                      "sandwich fails")

        with tally.op("eta_coulomb_h3") as op:
            val, argmax = kato.kato_eta(inp.coulomb_h3, 0.01, inp.probes_h3)
            op.expect(ref.rel_close(val, inp.eta_h3, ref.QUAD_REL), f"eta {val!r}")
            op.expect(np.array_equal(argmax, H3.origin()), "maximum off the origin")

        with tally.op("resolvent_coulomb_h3") as op:
            val = kato.resolvent_constant(inp.coulomb_h3, 8.0, inp.probes_h3)
            op.expect(ref.rel_close(val, inp.c8_h3, ref.QUAD_REL), f"C_8 {val!r}")

        with tally.op("eta_coulomb_h2") as op:
            val, _ = kato.kato_eta(inp.coulomb_h2, 0.01, [H2.origin()])
            op.expect(ref.rel_close(val, inp.eta_h2, ref.QUAD_REL), f"eta {val!r}")


def _expect_klmn(op, klmn):
    got = tuple(klmn[k]["value"] for k in ("r", "c1", "c2"))
    op.expect(all(ref.rel_close(g, w, 1e-6) for g, w in zip(got, ref.KLMN_COULOMB_R3)),
              f"klmn {got}")


# ---------------------------------------------------------------------------

class MeshSections:
    """Many small meshes: per-edge Python loops and small dense expm (ROADMAP item 4)."""

    ops = ("section", "gauge_invariance", "domination", "form_limit",
           "check_random_bundle_cli", "spectrum_flux_cycle_cli")
    N_MESHES = 400          # 12-21 vertices, fibre 1-3, 0-2 Dirichlet vertices
    SECTIONS_PER_MESH = 25
    N_SMALL = 100           # 6-30 vertices: domination and form-limit meshes
    T_DOMINATION = (0.1, 1.0, 10.0)
    T_LIMIT = (1e-6, 1e-5, 1e-4, 1e-3)

    def setup(self, seed, out_dir, scale=1.0):
        rng = np.random.default_rng(seed)
        meshes = [_random_mesh(rng, shape)
                  for shape in _mesh_shapes(max(1, round(self.N_MESHES * scale)), 12, 21)]
        sections = []
        for m in meshes:
            fs = np.stack([_unit_section(m, rng) for _ in range(self.SECTIONS_PER_MESH)])
            sections.extend((m, f, float(kin), float(gap)) for f, kin, gap in
                            zip(fs, ref.kinetic_form(m, fs), ref.kato_gap(m, fs)))
        gauged = []
        for m in meshes:
            f = _unit_section(m, rng)
            gauged.append((m, _haar_field(rng, m.n_vertices, m.fiber_dim), f,
                           float(ref.kinetic_form(m, f))))
        small = [_random_mesh(rng, shape)
                 for shape in _mesh_shapes(max(1, round(self.N_SMALL * scale)), 6, 30)]
        domination = [(m, _unit_section(m, rng), self.T_DOMINATION[i % 3])
                      for i, m in enumerate(small)]
        limits = []
        for m in small:
            f = _unit_section(m, rng)
            # Q(t) = q - (t/2)|A g|^2 + O(t^2) with |g| = 1, plus roundoff
            tol = 1e-8 + self.T_LIMIT[0] * ref.generator_norm_bound(m) ** 2
            limits.append((m, f, float(ref.kinetic_form(m, f)), tol))
        return SimpleNamespace(
            seed=seed, out_dir=out_dir, sections=sections, gauged=gauged,
            domination=domination, limits=limits,
            random_bundle_config=_config("check_random_bundle")[0],
            flux_config=_config("spectrum_flux_cycle")[0],
            flux_spectrum=ref.flux_cycle_spectrum(3, math.pi / 3.0),
            potentials=(), assembly_meshes=meshes + small)

    def run(self, inp, tally):
        for m, f, kin, gap in inp.sections:
            with tally.op("section") as op:
                g = operators.kato_inequality_gap(m, f)
                q = operators.quad_form(m, f).kinetic
                scale = max(1.0, kin)
                if abs(q - kin) > 1e-10 * scale or abs(g - gap) > 1e-10 * scale \
                        or g < -1e-12 * scale:
                    op.append(f"kinetic {q!r} vs {kin!r}, gap {g!r} vs {gap!r}")

        for m, gauges, f, kin in inp.gauged:
            with tally.op("gauge_invariance") as op:
                moved = kmesh.gauge_transform(m, gauges)
                got = float(ref.kinetic_form(moved, np.einsum("uij,uj->ui", gauges, f)))
                op.expect(abs(got - kin) <= 1e-10 * max(1.0, kin), f"{got!r} vs {kin!r}")

        for m, f, t in inp.domination:
            with tally.op("domination") as op:
                gap = operators.semigroup_domination_gap(m, f, t)
                op.expect(gap >= -1e-10, f"gap {gap!r} at t={t}")

        for m, f, kin, tol in inp.limits:
            with tally.op("form_limit") as op:
                res = operators.form_limit_check(m, f, self.T_LIMIT)
                op.expect(res.monotone, "quotients not monotone")
                op.expect(res.defect <= tol, f"defect {res.defect!r} > {tol!r}")
                op.expect(abs(res.form_value - kin) <= 1e-10 * max(1.0, kin),
                          f"form value {res.form_value!r} vs {kin!r}")

        with tally.op("check_random_bundle_cli") as op:
            res = _run_cli(tally, op, inp.random_bundle_config,
                           os.path.join(inp.out_dir, "check_random_bundle"), inp.seed)
            op.expect(res["kato_gap_min_relative"]["value"] >= -1e-12, "Kato gap")
            op.expect(res["domination_gap_min"]["value"] >= -1e-10, "domination gap")
            op.expect(res["form_limit"]["defect"]["value"]
                      <= res["form_limit"]["defect_tolerance"], "form-limit defect")

        with tally.op("spectrum_flux_cycle_cli") as op:
            res = _run_cli(tally, op, inp.flux_config,
                           os.path.join(inp.out_dir, "spectrum_flux_cycle"), inp.seed)
            got = [e["value"] for e in res["eigenvalues"]]
            op.expect(len(got) == 3 and all(abs(g - w) <= 1e-12 for g, w in
                                            zip(got, inp.flux_spectrum)),
                      f"eigenvalues {got}")


# ---------------------------------------------------------------------------

class MeshLarge:
    """A few large operators: dense eigh, Lanczos and expm_multiply."""

    ops = ("klmn_coulomb_1d", "spectrum_coulomb_1d", "evolve_peierls_2.4",
           "evolve_peierls_3.0", "lanczos_peierls_3.0")
    B_FIELD = 1.0
    EVOLVE_T = 0.25
    A0 = 2.0                # initial Gaussian exp(-A0 |x|^2), width 0.5

    def setup(self, seed, out_dir, scale=1.0):
        interval, values = bundled.coulomb_interval_system()
        grids = [kmesh.grid_mesh_2d(L, a, b_field=self.B_FIELD)
                 for L, a in ((2.4, 0.1), (3.0, 0.05))]
        evolve = []
        for g in grids:
            L, a = g.metadata["half_width"], g.metadata["spacing"]
            x = g.positions
            # The closed form is for the free plane: compare at least one unit
            # from the Dirichlet wall.  The five-point scheme's error measured
            # 0.13 a^2 here; the tolerance keeps a 3x margin.
            evolve.append((f"evolve_peierls_{L}", g, np.exp(-self.A0 * np.sum(x * x, axis=1)),
                           ref.landau_gaussian(self.EVOLVE_T, x, self.A0, self.B_FIELD),
                           np.max(np.abs(x), axis=1) <= L - 1.0, 0.4 * a * a))
        big = grids[1]
        L, a = big.metadata["half_width"], big.metadata["spacing"]
        x = big.positions
        trial = np.exp(-0.25 * np.sum(x * x, axis=1)) * np.prod(np.cos(0.5 * math.pi * x / L),
                                                                 axis=1)
        return SimpleNamespace(
            seed=seed, out_dir=out_dir, interval=interval, values=values,
            v2=np.maximum(-values, 0.0), evolve=evolve, big=big,
            # lambda_0 lies above the zero-field ground state (diamagnetic
            # inequality, exact on the grid) and above the Landau level B/2
            # less 1% for the lattice; below the Rayleigh quotient of a trial
            # state that vanishes on the wall
            lanczos_lower=max(ref.dirichlet_grid_ground(L, a), 0.99 * 0.5 * self.B_FIELD),
            lanczos_upper=float(ref.kinetic_form(big, trial[:, None]))
            / float(np.sum(big.mu * trial * trial)),
            potentials=(), assembly_meshes=[interval] + grids)

    def run(self, inp, tally):
        with tally.op("klmn_coulomb_1d") as op:
            c1 = operators.klmn_optimal_c1(inp.interval, inp.v2, 4.0)
            op.expect(0.0 <= c1 <= 0.55, f"C1 {c1!r}")

        with tally.op("spectrum_coulomb_1d") as op:
            spec = operators.form_sum_spectrum(inp.interval, V=inp.values)
            op.expect(spec.method == "dense", spec.method)
            # ground energy -1/2, less an O(h^2) error at h = 1/64
            op.expect(abs(spec.lowest + 0.5) <= 1e-3, f"ground {spec.lowest!r}")

        for name, g, psi0, want, mask, tol in inp.evolve:
            with tally.op(name) as op:
                got = operators.semigroup_evolve(g, psi0, self.EVOLVE_T)[:, 0]
                err = float(np.max(np.abs(got[mask] - want[mask])))
                op.expect(err <= tol, f"max error {err:.3g} > {tol:.3g}")

        with tally.op("lanczos_peierls_3.0") as op:
            spec = operators.form_sum_spectrum(inp.big, k=8)
            lam = spec.eigenvalues
            op.expect(spec.method == "lanczos", spec.method)
            op.expect(inp.lanczos_lower <= lam[0] <= inp.lanczos_upper,
                      f"lambda_0 {lam[0]!r} outside [{inp.lanczos_lower:.6g}, "
                      f"{inp.lanczos_upper:.6g}]")
            op.expect(len(lam) == 8 and bool(np.all(np.diff(lam) >= 0.0)), "order")


# ---------------------------------------------------------------------------

class FkPaths:
    """Monte Carlo path sampling with two worker streams (ROADMAP item 5)."""

    ops = ("kato_integral_r3", "covariant_semigroup_r2", "survival_ball_r3",
           "survival_ball_h3", "kato_integral_h3", "fk_coulomb_cli")
    # Survival is killed only at grid times, an O(sqrt(step)) upward bias that
    # no bias_bound reports.  At step 0.0025 it measured 0.038 on R^3 (0.606
    # against 0.56807) and 0.033 on H^3 (0.567 against 0.53395); the envelope
    # keeps a margin over both.
    SURVIVAL_BIAS = 0.05

    def setup(self, seed, out_dir, scale=1.0):
        rng = np.random.default_rng(seed)
        seeds = [int(s) for s in rng.integers(0, 2 ** 31, size=6)]

        def paths(n):
            return max(100, round(n * scale))

        ball = KillingRegion(kind="ball", radius=1.0)
        inp = SimpleNamespace(seed=seed, out_dir=out_dir, cli_seed=seeds[5],
                              coulomb_r3=coulomb(E3), coulomb_h3=coulomb(H3))
        inp.psi = lambda X: np.exp(-0.5 * np.sum(X * X, axis=1))
        inp.A = lambda X: 0.5 * np.stack([-X[:, 1], X[:, 0]], axis=1)
        inp.ones = lambda X: np.ones(len(X))

        # covariant estimator: start at a seeded grid vertex near the origin,
        # reference value from the Peierls mesh flow
        grid = kmesh.grid_mesh_2d(3.0, 0.1, b_field=1.0)
        near = np.flatnonzero(np.linalg.norm(grid.positions, axis=1) <= 0.5)
        vertex = int(rng.choice(near))
        inp.cov = PathConfig(space=E2, start=tuple(grid.positions[vertex]), horizon=1.0,
                             step=0.005, n_paths=paths(40_000), seed=seeds[1],
                             workers=WORKERS)
        inp.cov_mesh = complex(operators.semigroup_evolve(
            grid, inp.psi(grid.positions), inp.cov.horizon)[vertex, 0])
        # the envelope of acceptance criterion 10: 1.0 per unit step of weak
        # error, 0.1 a^2 of mesh error
        inp.cov_slack = 1.0 * inp.cov.step + 0.1 * grid.metadata["spacing"] ** 2

        inp.kato_r3 = PathConfig(space=E3, start=(0.0, 0.0, 0.0), horizon=0.01, step=1e-5,
                                 n_paths=paths(40_000), seed=seeds[0], workers=WORKERS)
        inp.surv_r3 = PathConfig(space=E3, start=(0.0, 0.0, 0.0), horizon=0.25, step=0.0025,
                                 n_paths=paths(20_000), seed=seeds[2], workers=WORKERS,
                                 domain=ball)
        inp.surv_h3 = PathConfig(space=H3, start=tuple(H3.origin()), horizon=0.25,
                                 step=0.0025, n_paths=paths(20_000), seed=seeds[3],
                                 workers=WORKERS, domain=ball)
        inp.kato_h3 = PathConfig(space=H3, start=tuple(H3.origin()), horizon=0.01,
                                 step=1e-4, n_paths=paths(20_000), seed=seeds[4],
                                 workers=WORKERS)
        inp.eta_r3 = ref.eta_coulomb_r3(inp.kato_r3.horizon)
        inp.eta_h3 = ref.eta_coulomb_h3_origin(inp.kato_h3.horizon)
        inp.surv_r3_want = ref.ball_survival_r3(inp.surv_r3.horizon)
        inp.surv_h3_want = ref.ball_survival_h3(inp.surv_h3.horizon)

        inp.fk_config, cfg = _config("fk_coulomb")
        inp.fk_want = ref.eta_coulomb_r3_offcentre(cfg["path"]["horizon"],
                                                   float(np.linalg.norm(cfg["path"]["start"])))
        inp.potentials = [inp.coulomb_r3, inp.coulomb_h3]
        inp.assembly_meshes = ()
        return inp

    def run(self, inp, tally):
        with tally.op("kato_integral_r3") as op:
            est = feynman_kac.mc_kato_integral(inp.coulomb_r3, inp.kato_r3)
            _expect_mc(op, est.value, est.std_error, est.bias_bound, inp.eta_r3)

        with tally.op("covariant_semigroup_r2") as op:
            est = feynman_kac.mc_covariant_semigroup(inp.psi, inp.A, inp.cov)
            _expect_mc(op, est.value, est.std_error, inp.cov_slack, inp.cov_mesh)
            op.expect(est.extras["domination_ok"], "diamagnetic domination")

        with tally.op("survival_ball_r3") as op:
            est = feynman_kac.mc_heat_expectation(inp.ones, inp.surv_r3)
            _expect_survival(op, est, inp.surv_r3_want, self.SURVIVAL_BIAS)

        with tally.op("survival_ball_h3") as op:
            est = feynman_kac.mc_heat_expectation(inp.ones, inp.surv_h3)
            _expect_survival(op, est, inp.surv_h3_want, self.SURVIVAL_BIAS)

        with tally.op("kato_integral_h3") as op:
            est = feynman_kac.mc_kato_integral(inp.coulomb_h3, inp.kato_h3)
            _expect_mc(op, est.value, est.std_error, est.bias_bound, inp.eta_h3)

        with tally.op("fk_coulomb_cli") as op:
            est = _run_cli(tally, op, inp.fk_config,
                           os.path.join(inp.out_dir, "fk_coulomb"), inp.cli_seed)["estimate"]
            _expect_mc(op, est["value"], est["std_error"], est["bias_bound"], inp.fk_want)


# ---------------------------------------------------------------------------

class MeshPaths:
    """The mesh and Monte Carlo ops, run one after the other in each pass.

    They share a workload so that, with kato_verdicts, two workloads cover
    every layer and each run has time for two passes within the
    benchmark's time limit.  Each part keeps its own inputs; the traced
    run reads the potentials and assembly meshes of all of them.
    """

    name = "mesh_paths"
    parts = (MeshSections(), MeshLarge(), FkPaths())
    ops = tuple(op for part in parts for op in part.ops)
    pass_s = 16.5

    def setup(self, seed, out_dir, scale=1.0):
        parts = [part.setup(seed, out_dir, scale) for part in self.parts]
        return SimpleNamespace(
            seed=seed, out_dir=out_dir, parts=parts,
            potentials=[p for inp in parts for p in inp.potentials],
            assembly_meshes=[m for inp in parts for m in inp.assembly_meshes])

    def run(self, inp, tally):
        for part, part_inp in zip(self.parts, inp.parts):
            part.run(part_inp, tally)


WORKLOADS = {w.name: w for w in (KatoVerdicts(), MeshPaths())}

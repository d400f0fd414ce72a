"""Command line front end.

One executable, five analysis commands.  The command lives inside the run
configuration file rather than on the command line, so a config file is a
complete, reproducible description of a run:

    katoform --config run.json --out results/
    katoform list-bundled

Flags: --config PATH, --out DIR, --seed N, --workers N, --reference.  The
config file's "output", "seed", "workers" and "reference" keys set the last
four too.  Precedence: command line flag, then the config file, then the
built-in default.  No setting is read from the environment.

Exit status: 0 on success, 1 when a computation violates one of its named
invariants (the invariant is printed to stderr), 2 when the configuration is
invalid (schema diagnostics on stderr).  Invalid includes a non-finite
number anywhere in the file (NaN, Infinity, or a literal that overflows a
float) and potential params that the named expression does not take,
takes with the wrong type or refuses (a bump radius <= 0).  Reference mode
pins workers to 1; a repeated reference run with the same config and seed
writes a byte-identical report.json.  Reports never contain timestamps or paths.

This is the one module that reads the config format: the library takes
Python values, and the _build_* helpers below decode a config's spaces,
potentials, meshes and path runs into them.  An inline mesh reads

    {"fiber_dim": n,
     "vertices": [{"mu": 1.0, "dirichlet": false}, ...],
     "edges": [{"u": 0, "v": 1, "w": 1.0, "U": [[[re, im], ...], ...]}, ...]}

where each transport U is n x n, row-major, with complex entries as
[re, im] pairs, and maps the fibre over v into the fibre over u.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys

import numpy as np
from jsonschema import Draft202012Validator

from . import bundled, reports
from .errors import (ConfigError, ConvergenceError, DomainError,
                     InvalidPointError, KernelHandlingError, MeshError,
                     MonotonicityError, NotFormBoundedError, QuadratureError,
                     UndecidedError)
from .feynman_kac import (KillingRegion, PathConfig, mc_covariant_semigroup,
                          mc_heat_expectation, mc_kato_integral)
from .geometry import EUCLIDEAN, ModelSpace
from .kato import _resolvent_with_error, form_bound_constants, kato_verdict, sandwich_check
from .mesh import BundleMesh
from .operators import (_dense_eigh, bochner_laplacian, form_limit_check, form_sum_spectrum,
                        kato_inequality_gap, quad_form, semigroup_domination_gap)
from .potentials import bump, constant, coulomb, inverse_power, inverse_square, tabulated

COMMANDS = ("kato-test", "form-bounds", "spectrum", "check-inequalities", "fk-mc")


class ContractViolation(Exception):
    """A named computational invariant failed at run time."""

    def __init__(self, invariant: str, detail: str):
        super().__init__(f"{invariant}: {detail}")
        self.invariant = invariant
        self.detail = detail


# ---------------------------------------------------------------------------
# config schemas

def _num_array(min_items=0):
    return {"type": "array", "items": {"type": "number"}, "minItems": min_items}


_BUNDLED_REF = {
    "type": "object",
    "properties": {"bundled": {"type": "string"}},
    "required": ["bundled"],
    "additionalProperties": False,
}

_SPACE = {"oneOf": [
    _BUNDLED_REF,
    {
        "type": "object",
        "properties": {
            "kind": {"enum": ["euclidean", "hyperbolic"]},
            "dim": {"type": "integer", "minimum": 1, "maximum": 3},
        },
        "required": ["kind", "dim"],
        "additionalProperties": False,
    },
]}

_POTENTIAL = {"oneOf": [
    _BUNDLED_REF,
    {
        "type": "object",
        "properties": {
            "radial": {
                "type": "object",
                "properties": {
                    "expr": {"type": "string"},
                    "params": {"type": "object"},
                },
                "required": ["expr"],
                "additionalProperties": False,
            },
        },
        "required": ["radial"],
        "additionalProperties": False,
    },
    {
        "type": "object",
        "properties": {
            "tabulated": {
                "type": "object",
                "properties": {
                    "radii": _num_array(2),
                    "values": _num_array(2),
                    "interpolation": {"const": "linear"},
                },
                "required": ["radii", "values"],
                "additionalProperties": False,
            },
        },
        "required": ["tabulated"],
        "additionalProperties": False,
    },
]}

# a complex entry as its [re, im] pair
_COMPLEX = dict(_num_array(2), maxItems=2)

_MESH = {"oneOf": [
    _BUNDLED_REF,
    {
        "type": "object",
        "properties": {
            "fiber_dim": {"type": "integer", "minimum": 1},
            "vertices": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {"mu": {"type": "number"},
                                   "dirichlet": {"type": "boolean"}},
                    "required": ["mu"],
                    "additionalProperties": False,
                },
            },
            "edges": {
                "type": "array",
                "items": {
                    "type": "object",
                    "properties": {"u": {"type": "integer"},
                                   "v": {"type": "integer"},
                                   "w": {"type": "number"},
                                   "U": {"type": "array", "items": {
                                       "type": "array", "items": _COMPLEX}}},
                    "required": ["u", "v", "w", "U"],
                    "additionalProperties": False,
                },
            },
        },
        "required": ["fiber_dim", "vertices", "edges"],
        "additionalProperties": False,
    },
]}

_POINT = _num_array(1)

_DOMAIN = {"oneOf": [
    {
        "type": "object",
        "properties": {
            "kind": {"const": "ball"},
            "radius": {"type": "number", "exclusiveMinimum": 0},
            "center": _POINT,
        },
        "required": ["kind", "radius"],
        "additionalProperties": False,
    },
    {
        "type": "object",
        "properties": {
            "kind": {"const": "halfspace"},
            "normal": _POINT,
            "offset": {"type": "number"},
        },
        "required": ["kind", "normal"],
        "additionalProperties": False,
    },
]}

# Upper bounds of the count fields, far above any real run: a count such
# as 1e300 (which JSON Schema reads as an integer) is an invalid config,
# not hours of work or an impossible allocation.  The path count has no
# bound here: PathConfig's path-node budget is the one limit on it.
_MAX_EIGENVALUES = 10 ** 4
_MAX_SECTIONS = 10 ** 6

_COMMON = {
    "seed": {"type": "integer", "minimum": 0},
    "workers": {"type": "integer", "minimum": 1},
    "output": {"type": "string"},
    "reference": {"type": "boolean"},
}


def _schema(command: str, extra_properties: dict, required: list) -> dict:
    props = {"command": {"const": command}}
    props.update(_COMMON)
    props.update(extra_properties)
    return {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "properties": props,
        "required": ["command"] + required,
        "additionalProperties": False,
    }


SCHEMAS = {
    "kato-test": _schema("kato-test", {
        "space": _SPACE,
        "potential": _POTENTIAL,
        "t_grid": _num_array(4),
        "r_grid": _num_array(1),
        "probes": {"type": "array", "items": _POINT, "minItems": 1},
        "sandwich": {
            "type": "object",
            "properties": {"r": {"type": "number", "exclusiveMinimum": 0},
                           "t": {"type": "number", "exclusiveMinimum": 0}},
            "required": ["r", "t"],
            "additionalProperties": False,
        },
    }, ["space", "potential", "t_grid"]),

    "form-bounds": _schema("form-bounds", {
        "space": _SPACE,
        "potential": _POTENTIAL,
        "target_c1": {"type": "number", "exclusiveMinimum": 0},
        "probes": {"type": "array", "items": _POINT, "minItems": 1},
    }, ["space", "potential"]),

    "spectrum": _schema("spectrum", {
        "mesh": _MESH,
        "potential_values": _num_array(1),
        "radial_potential": _POTENTIAL,
        "k": {"type": "integer", "minimum": 1, "maximum": _MAX_EIGENVALUES},
    }, ["mesh"]),

    "check-inequalities": _schema("check-inequalities", {
        "mesh": _MESH,
        "n_sections": {"type": "integer", "minimum": 1, "maximum": _MAX_SECTIONS},
        "n_domination": {"type": "integer", "minimum": 0, "maximum": _MAX_SECTIONS},
        "domination_times": _num_array(1),
        "form_limit": {"type": "boolean"},
        "tolerances": {
            "type": "object",
            "properties": {
                "kato_gap_floor": {"type": "number"},
                "domination_floor": {"type": "number"},
                "form_limit_defect": {"type": "number", "exclusiveMinimum": 0},
            },
            "additionalProperties": False,
        },
    }, ["mesh"]),

    "fk-mc": _schema("fk-mc", {
        "estimator": {"enum": ["kato-integral", "survival", "covariant"]},
        "path": {
            "type": "object",
            "properties": {
                "space": _SPACE,
                "start": _POINT,
                "horizon": {"type": "number", "exclusiveMinimum": 0},
                "step": {"type": "number", "exclusiveMinimum": 0},
                "n_paths": {"type": "integer", "minimum": 100},
                "domain": _DOMAIN,
            },
            "required": ["space", "start", "horizon", "step", "n_paths"],
            "additionalProperties": False,
        },
        "potential": _POTENTIAL,
        "b_field": {"type": "number"},
        "psi_width": {"type": "number", "exclusiveMinimum": 0},
    }, ["estimator", "path"]),
}


# ---------------------------------------------------------------------------
# object construction from validated configs

def _build_space(obj) -> ModelSpace:
    if "bundled" in obj:
        return bundled.get_space(obj["bundled"])
    return ModelSpace(obj["kind"], int(obj["dim"]))


_RADIAL = {make.__name__: make
           for make in (coulomb, inverse_square, inverse_power, constant, bump)}


def _build_potential(obj, space: ModelSpace):
    if "bundled" in obj:
        pot = bundled.get_potential(obj["bundled"])
        if (pot.space.kind, pot.space.dim) != (space.kind, space.dim):
            raise ConfigError(
                f"bundled potential {obj['bundled']!r} lives on "
                f"{pot.space.kind} m={pot.space.dim}, config space is "
                f"{space.kind} m={space.dim}")
        return pot
    if "tabulated" in obj:
        return tabulated(space, obj["tabulated"]["radii"], obj["tabulated"]["values"])
    expr = obj["radial"]["expr"]
    if expr not in _RADIAL:
        raise ConfigError(f"unknown radial expression {expr!r}")
    try:
        return _RADIAL[expr](space, **obj["radial"].get("params", {}))
    except (TypeError, ValueError, DomainError) as exc:
        raise ConfigError(f"bad params for radial expression {expr!r}: {exc}") from exc


def _build_mesh(obj) -> BundleMesh:
    if "bundled" in obj:
        return bundled.get_mesh(obj["bundled"])
    n, verts, edges = int(obj["fiber_dim"]), obj["vertices"], obj["edges"]
    try:
        transports = np.array([[[complex(re, im) for re, im in row] for row in e["U"]]
                               for e in edges], dtype=complex)
    except ValueError as exc:
        # numpy's inhomogeneous shape, from ragged rows of a transport or from
        # transports of different shapes: the schema checks only each entry
        raise MeshError(f"malformed mesh JSON: {exc}") from exc
    return BundleMesh(fiber_dim=n, mu=[v["mu"] for v in verts],
                      dirichlet=[v.get("dirichlet", False) for v in verts],
                      edge_u=[e["u"] for e in edges], edge_v=[e["v"] for e in edges],
                      edge_w=[e["w"] for e in edges],
                      transports=transports if edges else np.zeros((0, n, n), complex))


def _build_path(obj, ctx) -> PathConfig:
    domain = obj.get("domain")
    if domain is None:
        region = None
    elif domain["kind"] == "ball":
        center = domain.get("center")
        region = KillingRegion(kind="ball", radius=float(domain["radius"]),
                               center=None if center is None else tuple(center))
    else:
        region = KillingRegion(kind="halfspace", normal=tuple(domain["normal"]),
                               offset=float(domain.get("offset", 0.0)))
    return PathConfig(space=_build_space(obj["space"]), start=tuple(obj["start"]),
                      horizon=float(obj["horizon"]), step=float(obj["step"]),
                      n_paths=int(obj["n_paths"]), seed=ctx.seed, workers=ctx.workers,
                      domain=region)


def _probes(cfg, space: ModelSpace):
    raw = cfg.get("probes")
    if raw is None:
        return [space.origin()]
    return [space.validate_point(np.asarray(p, dtype=float)) for p in raw]


# ---------------------------------------------------------------------------
# command runners; each returns (results, checks) and writes its CSVs

def _run_kato_test(cfg, ctx):
    space = _build_space(cfg["space"])
    pot = _build_potential(cfg["potential"], space)
    probes = _probes(cfg, space)
    t_grid = [float(t) for t in cfg["t_grid"]]
    # kato_verdict's r_grid default is the only one
    grid = {} if "r_grid" not in cfg else {"r_grid": [float(r) for r in cfg["r_grid"]]}

    try:
        report = kato_verdict(pot, t_grid, probes, **grid)
    except MonotonicityError as exc:
        raise ContractViolation("eta_monotonicity", str(exc)) from exc

    reports.write_table(ctx.out_dir, "eta", ("t", "eta", "err"), report.eta_grid)
    reports.write_table(ctx.out_dir, "resolvent", ("r", "C_r", "err"),
                        report.resolvent_grid)

    results = {"kato": reports.kato_report_json(report)}
    checks = [("eta_monotonicity", True,
               "eta grid is nondecreasing within quadrature error")]

    if "sandwich" in cfg:
        s = sandwich_check(pot, float(cfg["sandwich"]["r"]),
                           float(cfg["sandwich"]["t"]), probes)
        results["sandwich"] = {
            "r": s.r, "t": s.t,
            "lower": reports.pnum(s.lower, s.slack, "quadrature"),
            "eta": reports.pnum(s.eta, s.slack, "quadrature"),
            "upper": reports.pnum(s.upper, s.slack, "quadrature"),
        }
        checks.append(("sandwich_envelope", s.ok,
                       f"lower {s.lower:.6g} <= eta {s.eta:.6g} "
                       f"<= upper {s.upper:.6g} (slack {s.slack:.2g})"))
    return results, checks


def _run_form_bounds(cfg, ctx):
    space = _build_space(cfg["space"])
    pot = _build_potential(cfg["potential"], space)
    probes = _probes(cfg, space)
    target = float(cfg.get("target_c1", 0.5))

    bound = form_bound_constants(pot, probes, target)
    r_star, c1, _ = bound

    curve = []
    # r* = 0 when the Green potential C_0 already meets the target
    centre = r_star if r_star > 0.0 else 1.0
    for mult in (0.25, 0.5, 1.0, 2.0, 4.0):
        r = centre * mult
        curve.append((r, *_resolvent_with_error(pot, r, probes)))
    curve.sort()
    reports.write_table(ctx.out_dir, "resolvent", ("r", "C_r", "err"), curve)

    results = {"target_c1": target, "klmn": reports.klmn_json(bound)}
    checks = [("c1_within_target", c1 <= target * (1.0 + 1e-6),
               f"C1 {c1:.6g} vs target {target:.6g} at r {r_star:.6g}")]
    return results, checks


def _spectrum_potential(cfg, mesh):
    """The config's vertex values, unchecked: form_sum_spectrum checks them once."""
    if "potential_values" in cfg and "radial_potential" in cfg:
        raise ConfigError(
            "give either potential_values or radial_potential, not both")
    if "potential_values" in cfg:
        return np.asarray(cfg["potential_values"], dtype=float)
    if "radial_potential" not in cfg:
        return None
    if mesh.positions is None:
        raise ConfigError("radial_potential needs a mesh with vertex positions")
    pot = _build_potential(cfg["radial_potential"],
                           ModelSpace(EUCLIDEAN, min(mesh.positions.shape[1], 3)))
    return np.asarray(pot.radial(np.linalg.norm(mesh.positions, axis=1)), dtype=float)


def _run_spectrum(cfg, ctx):
    mesh = _build_mesh(cfg["mesh"])
    vals = _spectrum_potential(cfg, mesh)
    k = cfg.get("k")
    if k is not None:
        k = int(k)      # the schema's integers include 2.0

    try:
        spec = form_sum_spectrum(mesh, V=vals, k=k)
    except ConvergenceError as exc:
        raise ContractViolation("eigensolver_convergence", str(exc)) from exc

    reports.write_table(ctx.out_dir, "spectrum", ("index", "eigenvalue", "residual"),
                        [(i, float(lam), float(res)) for i, (lam, res) in
                         enumerate(zip(spec.eigenvalues, spec.residuals))])
    scale = max(1.0, float(np.max(np.abs(spec.eigenvalues), initial=0.0)))
    max_res = float(np.max(spec.residuals, initial=0.0))
    results = {
        "method": spec.method,
        "lowest": reports.pnum(spec.lowest, max_res, "eigensolve"),
        "eigenvalues": [reports.pnum(float(lam), float(res), "eigensolve")
                        for lam, res in zip(spec.eigenvalues, spec.residuals)],
    }
    checks = [("eigensolve_residual", max_res <= 1e-8 * scale,
               f"max residual {max_res:.3g} vs scale {scale:.3g}")]
    return results, checks


def _random_sections(mesh, count, rng):
    for _ in range(count):
        f = (rng.standard_normal((mesh.n_vertices, mesh.fiber_dim))
             + 1j * rng.standard_normal((mesh.n_vertices, mesh.fiber_dim)))
        norm = math.sqrt(float(np.sum(mesh.mu * np.sum(np.abs(f) ** 2, axis=1))))
        yield f / norm


def _run_check_inequalities(cfg, ctx):
    mesh = _build_mesh(cfg["mesh"])
    tol = cfg.get("tolerances", {})
    gap_floor = float(tol.get("kato_gap_floor", -1e-12))
    dom_floor = float(tol.get("domination_floor", -1e-10))
    n_sections = int(cfg.get("n_sections", 100))
    n_dom = int(cfg.get("n_domination", 20))
    dom_times = [float(t) for t in cfg.get("domination_times", (0.1, 1.0, 10.0))]
    rng = np.random.default_rng(ctx.seed)

    min_gap, min_gap_rel = math.inf, math.inf
    for f in _random_sections(mesh, n_sections, rng):
        g = kato_inequality_gap(mesh, f)
        scale = max(1.0, quad_form(mesh, f).kinetic)
        min_gap = min(min_gap, g)
        min_gap_rel = min(min_gap_rel, g / scale)

    min_dom = math.inf
    for f in _random_sections(mesh, max(n_dom, 0), rng):
        t = dom_times[int(rng.integers(len(dom_times)))]
        min_dom = min(min_dom, semigroup_domination_gap(mesh, f, t))
    results = {
        "n_sections": n_sections,
        "kato_gap_min": reports.pnum(min_gap, 1e-14, "eigensolve"),
        "kato_gap_min_relative": reports.pnum(min_gap_rel, 1e-14, "eigensolve"),
        "n_domination": n_dom,
        "domination_gap_min": reports.pnum(
            min_dom if n_dom > 0 else 0.0, 1e-12, "eigensolve"),
    }
    checks = [
        ("kato_inequality_nonnegative", min_gap_rel >= gap_floor,
         f"min relative gap {min_gap_rel:.3e}, floor {gap_floor:.1e}"),
        ("semigroup_domination", n_dom == 0 or min_dom >= dom_floor,
         f"min domination gap {min_dom:.3e}, floor {dom_floor:.1e}"),
    ]

    if cfg.get("form_limit", True):
        a_sym = bochner_laplacian(mesh, symmetrized=True)
        lam_max = float(_dense_eigh(a_sym, subset=(a_sym.shape[0] - 1,) * 2)[0][0])
        t_grid = [1e-6, 1e-5, 1e-4, 1e-3]
        defect_tol = max(float(tol.get("form_limit_defect", 1e-8)),
                         t_grid[0] * lam_max * lam_max)
        f = next(_random_sections(mesh, 1, rng))
        lim = form_limit_check(mesh, f, t_grid)
        results["form_limit"] = {
            "times": t_grid,
            "quotients": [reports.pnum(q, defect_tol, "eigensolve")
                          for q in lim.quotients],
            "form_value": reports.pnum(lim.form_value, 1e-14, "eigensolve"),
            "defect": reports.pnum(lim.defect, defect_tol, "eigensolve"),
            "defect_tolerance": defect_tol,
        }
        checks.append(("form_limit_monotone", lim.monotone,
                       "difference quotients nondecreasing as t decreases"))
        checks.append(("form_limit_defect", lim.defect <= defect_tol,
                       f"defect {lim.defect:.3e} vs tolerance {defect_tol:.3e}"))
    return results, checks


def _run_fk_mc(cfg, ctx):
    pcfg = _build_path(cfg["path"], ctx)
    estimator = cfg["estimator"]
    checks = []

    if estimator == "kato-integral":
        if "potential" not in cfg:
            raise ConfigError("estimator kato-integral needs a potential")
        pot = _build_potential(cfg["potential"], pcfg.space)
        est = mc_kato_integral(pot, pcfg)
        finite = math.isfinite(abs(est.value)) and math.isfinite(est.std_error)
        checks.append(("estimate_finite", finite,
                       f"value {est.value}, std error {est.std_error:.3g}"))
    elif estimator == "survival":
        est = mc_heat_expectation(lambda X: np.ones(len(X)), pcfg)
        v, band = float(np.real(est.value)), 3.0 * est.std_error
        checks.append(("survival_in_unit_interval",
                       -band <= v <= 1.0 + band,
                       f"survival estimate {v:.6g} with 3 sigma {band:.2g}"))
    else:
        if pcfg.space.kind != EUCLIDEAN or pcfg.space.dim != 2:
            raise ConfigError(
                "estimator covariant runs on the euclidean plane (dim 2)")
        b = float(cfg.get("b_field", 1.0))
        width = float(cfg.get("psi_width", 1.0))

        def psi(X):
            return np.exp(-np.sum(X * X, axis=1) / (2.0 * width * width))

        def A(X):
            return 0.5 * b * np.stack([-X[:, 1], X[:, 0]], axis=1)

        est = mc_covariant_semigroup(psi, A, pcfg)
        checks.append(("diamagnetic_domination", est.extras["domination_ok"],
                       f"|value| {abs(est.value):.6g} vs scalar "
                       f"{est.extras['scalar_value']:.6g}"))

    results = {"estimator": estimator, "estimate": reports.estimate_json(est),
               "n_steps": pcfg.n_steps}
    return results, checks


_RUNNERS = {
    "kato-test": _run_kato_test,
    "form-bounds": _run_form_bounds,
    "spectrum": _run_spectrum,
    "check-inequalities": _run_check_inequalities,
    "fk-mc": _run_fk_mc,
}


# ---------------------------------------------------------------------------
# option resolution and entry point

class _RunContext:
    def __init__(self, seed, workers, reference, out_dir):
        self.seed = seed
        self.workers = workers
        self.reference = reference
        self.out_dir = out_dir


def _first(*values):
    for v in values:
        if v is not None:
            return v
    return None


def _resolve_context(args, cfg) -> _RunContext:
    seed = _first(args.seed, cfg.get("seed"), 0)
    workers = _first(args.workers, cfg.get("workers"), 1)
    reference = _first(args.reference, cfg.get("reference"), False)
    out_dir = _first(args.out, cfg.get("output"), "katoform-out")
    if reference:
        workers = 1
    if seed < 0:
        raise ConfigError("seed must be nonnegative")
    if workers < 1:
        raise ConfigError("workers must be at least 1")
    return _RunContext(int(seed), int(workers), bool(reference), out_dir)


def _schema_diagnostics(command, cfg) -> list[str]:
    validator = Draft202012Validator(SCHEMAS[command])
    lines = []
    for err in sorted(validator.iter_errors(cfg), key=lambda e: str(e.path)):
        where = "/".join(str(p) for p in err.absolute_path) or "(top level)"
        lines.append(f"  at {where}: {err.message}")
    return lines


def _finite(literal: str):
    """A JSON number literal as an int or a float; NaN, Infinity and overflows are rejected."""
    value = float(literal)
    if not math.isfinite(value):
        raise ConfigError(f"{literal:.40} is not a finite number")
    return int(literal) if literal.lstrip("-").isdigit() else value


def _fail(code: int, message: str) -> int:
    print(message, file=sys.stderr)
    return code


def _run(args) -> int:
    cfg_path = args.config
    if cfg_path is None:
        return _fail(2, "invalid config: no --config file given")
    try:
        with open(cfg_path) as fh:
            cfg = json.load(fh, parse_float=_finite, parse_int=_finite,
                            parse_constant=_finite)
    except OSError as exc:
        return _fail(2, f"invalid config: cannot read {cfg_path}: {exc}")
    except json.JSONDecodeError as exc:
        return _fail(2, f"invalid config: {cfg_path} is not valid JSON: {exc}")

    if not isinstance(cfg, dict):
        return _fail(2, "invalid config: top level must be a JSON object")
    command = cfg.get("command")
    if command not in COMMANDS:
        return _fail(2, f"invalid config: command must be one of "
                        f"{list(COMMANDS)}, got {command!r}")
    diagnostics = _schema_diagnostics(command, cfg)
    if diagnostics:
        return _fail(2, "invalid config: schema violations:\n"
                     + "\n".join(diagnostics))

    try:
        ctx = _resolve_context(args, cfg)
        os.makedirs(ctx.out_dir, exist_ok=True)
        results, checks = _RUNNERS[command](cfg, ctx)
    except (ConfigError, MeshError, DomainError, InvalidPointError) as exc:
        return _fail(2, f"invalid config: {exc}")
    except ContractViolation as exc:
        return _fail(1, f"contract violation: {exc.invariant}: {exc.detail}")
    except NotFormBoundedError as exc:
        return _fail(1, f"contract violation: form_boundedness: {exc}")
    except KernelHandlingError as exc:
        return _fail(1, f"contract violation: kernel_reduction: {exc}")
    except ConvergenceError as exc:
        return _fail(1, f"contract violation: convergence: {exc}")
    except UndecidedError as exc:
        return _fail(1, f"contract violation: divergence_undecided: {exc}")
    except QuadratureError as exc:
        return _fail(1, f"contract violation: quadrature_accuracy: {exc}")

    parameters = {k: v for k, v in cfg.items() if k != "output"}
    parameters["seed"] = ctx.seed
    parameters["workers"] = ctx.workers
    parameters["reference"] = ctx.reference
    failed = [name for name, passed, _ in checks if not passed]
    report = {
        "schema_version": 1,
        "command": command,
        "parameters": parameters,
        "results": results,
        "checks": [{"name": n, "passed": bool(p), "detail": d}
                   for n, p, d in checks],
        "status": "fail" if failed else "pass",
    }
    reports.dump_json(os.path.join(ctx.out_dir, "report.json"), report)
    print(f"report written: {os.path.join(ctx.out_dir, 'report.json')} "
          f"(status {report['status']})")
    if failed:
        for name in failed:
            print(f"contract violation: {name}", file=sys.stderr)
        return 1
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="katoform",
        description="Kato class analysis, form bounds, bundle spectra, "
                    "semigroup inequalities, and Monte Carlo checks.")
    parser.add_argument("action", nargs="?", choices=("run", "list-bundled"),
                        default="run",
                        help="'run' executes the config (default); "
                             "'list-bundled' prints the catalog of bundled "
                             "spaces, potentials, meshes, and configs")
    parser.add_argument("--config", help="path to a run configuration JSON")
    parser.add_argument("--out", help="output directory for reports")
    parser.add_argument("--seed", type=int, help="seed override")
    parser.add_argument("--workers", type=int, help="worker count override")
    parser.add_argument("--reference", action="store_true", default=None,
                        help="reference mode: single worker, byte-stable output")
    args = parser.parse_args(argv)

    if args.action == "list-bundled":
        print(json.dumps(bundled.list_bundled(), indent=2, sort_keys=True))
        return 0
    try:
        return _run(args)
    except ConfigError as exc:
        return _fail(2, f"invalid config: {exc}")


if __name__ == "__main__":
    sys.exit(main())

"""Per-layer tracing from outside the program.

The traced run replaces public functions of katoform's modules, and the
numpy/scipy calls that ``katoform.operators`` makes, with wrappers that
time and count them.  It also wraps the profiles of the potentials the
benchmark hands in.  Nothing under ``src/`` is edited: the
wrappers go in when ``install`` runs and come out again in ``uninstall``.

Each time metric is inclusive and counts only the outermost call of its
group, so a wrapped function that calls another wrapped function of the
same group is timed once.  Spans (name, start, end, parent) stay in memory
and are written out with the results; the fine-grained ones (one per
spatial average, one per path batch) are kept only as totals.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict

import numpy as np
import scipy.linalg
import scipy.sparse.linalg

# Per-layer metrics: name -> unit.  The traced run reports every one; a
# metric whose wrapped function no longer exists reads 0 and is listed as
# absent in the result file.
METRICS = {
    "cli.run_s": "s",
    "reports.write_s": "s",
    "kato.verdict_s": "s",
    "kato.eta_s": "s",
    "kato.resolvent_s": "s",
    "kato.sandwich_s": "s",
    "kato.form_bound_s": "s",
    "kato.form_bound_calls": "count",
    "quadrature.spatial_calls": "count",
    "quadrature.spatial_s": "s",
    "quadrature.time_calls": "count",
    "quadrature.time_s": "s",
    "quadrature.quadpack_calls": "count",
    "quadrature.fallbacks": "count",
    "quadrature.fallback_ratio": "ratio",
    "potentials.scalar_evals": "count",
    "potentials.array_points": "count",
    "geometry.h2_quad_calls": "count",
    "mesh.build_s": "s",
    "mesh.gauge_s": "s",
    "operators.section_s": "s",
    "operators.sections": "count",
    "operators.domination_s": "s",
    "operators.form_limit_s": "s",
    "operators.assembly_s": "s",
    "operators.evolve_s": "s",
    "operators.spectrum_s": "s",
    "operators.klmn_s": "s",
    "linalg.expm_s": "s",
    "linalg.expm_calls": "count",
    "linalg.eigh_s": "s",
    "linalg.eigsh_s": "s",
    "linalg.expm_multiply_s": "s",
    "linalg.dense_dim_max": "count",
    "linalg.dense_bytes": "bytes",
    "fk.sample_s": "s",
    "fk.batches": "count",
    "fk.path_steps": "count",
    "fk.reduce_s": "s",
    "fk.positions_bytes": "bytes",
    "fk.cap_events": "count",
    "trace.overhead": "ratio",
}

_OPERATORS = "katoform.operators"


class Tracer:
    def __init__(self):
        self.counts = Counter()
        self.seconds = defaultdict(float)
        self.spans = []
        self.absent = []
        self._stack = []
        self._open = set()
        self._patches = []
        self._t0 = time.perf_counter()

    # -- wrappers -----------------------------------------------------------

    def timed(self, fn, metric, count=None, keep_span=True, after=None):
        """Wrap fn so its outermost calls add to ``metric`` (and ``count``)."""

        def wrapper(*args, **kwargs):
            if metric in self._open:
                return fn(*args, **kwargs)
            self._open.add(metric)
            if count is not None:
                self.counts[count] += 1
            parent = self._stack[-1] if self._stack else None
            if keep_span:
                self._stack.append(len(self.spans))
                self.spans.append(None)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self.seconds[metric] += end - start
                self._open.discard(metric)
                if keep_span:
                    self.spans[self._stack.pop()] = (
                        metric, start - self._t0, end - self._t0, parent)
            if after is not None:
                after(result)
            return result

        return wrapper

    def counted(self, fn, metric, measure=None):
        """Wrap fn so each call adds 1, or measure(first argument), to metric."""
        counts = self.counts
        if measure is None:
            def wrapper(*args, **kwargs):
                counts[metric] += 1
                return fn(*args, **kwargs)
        else:
            def wrapper(x, *args, **kwargs):
                counts[metric] += int(measure(x))
                return fn(x, *args, **kwargs)
        return wrapper

    def _operators_only(self, fn, metric, count=None, dense=False):
        """Wrap a numpy/scipy routine, recording only calls made by operators."""
        inner = self.timed(fn, metric, count)

        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_globals.get("__name__") != _OPERATORS:
                return fn(*args, **kwargs)
            if dense:
                a = args[0]
                self.counts["linalg.dense_dim_max"] = max(
                    self.counts["linalg.dense_dim_max"], int(a.shape[-1]))
                self.counts["linalg.dense_bytes"] += 16 * int(a.size)
            return inner(*args, **kwargs)

        return wrapper

    def _radial(self, fn):
        # radial_integral calls the dyadic routines only after its single
        # QUADPACK try failed, so a call that reached one took the fallback.
        inner = self.timed(fn, "quadrature.spatial_s", "quadrature.spatial_calls",
                           keep_span=False)

        def wrapper(*args, **kwargs):
            before = self.counts["_dyadic_from_radial"]
            result = inner(*args, **kwargs)
            if self.counts["_dyadic_from_radial"] > before:
                self.counts["quadrature.fallbacks"] += 1
            return result

        return wrapper

    def _from_radial(self, fn):
        counts = self.counts

        def wrapper(*args, **kwargs):
            if sys._getframe(1).f_code.co_name == "radial_integral":
                counts["_dyadic_from_radial"] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _sampler(self, fn):
        seconds, counts = self.seconds, self.counts

        def wrapper(config):
            batches = fn(config)
            while True:
                start = time.perf_counter()
                try:
                    batch = next(batches)
                except StopIteration:
                    seconds["fk.sample_s"] += time.perf_counter() - start
                    return
                seconds["fk.sample_s"] += time.perf_counter() - start
                n_paths, n_nodes = batch.positions.shape[:2]
                counts["fk.batches"] += 1
                counts["fk.path_steps"] += n_paths * (n_nodes - 1)
                counts["fk.positions_bytes"] += int(batch.positions.nbytes)
                yield batch

        return wrapper

    def _add_caps(self, estimate):
        self.counts["fk.cap_events"] += int(estimate.cap_events)

    # -- patching -----------------------------------------------------------

    def patch(self, module, name, make, holders=None):
        """Replace ``module.name`` by ``make(original)`` wherever it is bound.

        By default every loaded katoform module that holds the same object
        gets the wrapper; ``holders`` restricts that to the given modules.
        """
        original = getattr(module, name, None)
        if original is None:
            self.absent.append(f"{module.__name__}.{name}")
            return
        wrapper = make(original)
        if holders is None:
            holders = [m for key, m in sorted(sys.modules.items())
                       if key == "katoform" or key.startswith("katoform.")]
        for mod in holders:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._patches.append((mod, attr, original))

    def wrap_attr(self, obj, attr, make):
        """Wrap a callable attribute of one object (a handed-in input)."""
        original = getattr(obj, attr, None)
        if original is None:
            return
        setattr(obj, attr, make(original))
        self._patches.append((obj, attr, original))

    def instrument_potential(self, pot):
        self.wrap_attr(pot, "radial_scalar",
                       lambda fn: self.counted(fn, "potentials.scalar_evals"))
        self.wrap_attr(pot, "radial",
                       lambda fn: self.counted(fn, "potentials.array_points", np.size))
        return pot

    def install_mesh_wrappers(self):
        """Wrap only the mesh generators, for the traced run's set-up."""
        from katoform import mesh

        for name in ("random_bundle_mesh", "grid_mesh_2d", "interval_mesh", "cycle_mesh"):
            self.patch(mesh, name, lambda f: self.timed(f, "mesh.build_s"))

    def install(self, inputs):
        """Put every wrapper in place; ``inputs.potentials`` are the handed-in potentials."""
        from katoform import (bundled, cli, feynman_kac, geometry, kato, mesh,
                              operators, quadrature, reports)

        for pot in inputs.potentials:
            self.instrument_potential(pot)

        def get_potential(fn):
            return lambda name: self.instrument_potential(fn(name))

        self.patch(bundled, "get_potential", get_potential)

        self.install_mesh_wrappers()
        t = self.timed
        self.patch(cli, "main", lambda f: t(f, "cli.run_s"))
        for name in ("dump_json", "dump_csv"):
            self.patch(reports, name, lambda f: t(f, "reports.write_s"))

        self.patch(kato, "kato_verdict", lambda f: t(f, "kato.verdict_s"))
        self.patch(kato, "kato_eta", lambda f: t(f, "kato.eta_s"))
        self.patch(kato, "resolvent_constant", lambda f: t(f, "kato.resolvent_s"))
        self.patch(kato, "sandwich_check", lambda f: t(f, "kato.sandwich_s"))
        self.patch(kato, "form_bound_constants",
                   lambda f: t(f, "kato.form_bound_s", "kato.form_bound_calls"))

        self.patch(kato, "radial_integral", self._radial, holders=[kato])
        for name in ("sqrt_substitution_integral", "laplace_integral"):
            self.patch(kato, name,
                       lambda f: t(f, "quadrature.time_s", "quadrature.time_calls",
                                   keep_span=False), holders=[kato])
        self.patch(quadrature, "quad",
                   lambda f: self.counted(f, "quadrature.quadpack_calls"),
                   holders=[quadrature])
        for name in ("dyadic_endpoint_integral", "_dyadic_towards_right"):
            self.patch(quadrature, name, self._from_radial, holders=[quadrature])
        self.patch(geometry, "quad_piece",
                   lambda f: self.counted(f, "geometry.h2_quad_calls"), holders=[geometry])

        self.patch(mesh, "gauge_transform", lambda f: t(f, "mesh.gauge_s"))

        self.patch(operators, "kato_inequality_gap",
                   lambda f: t(f, "operators.section_s", "operators.sections"))
        self.patch(operators, "quad_form", lambda f: t(f, "operators.section_s"))
        self.patch(operators, "semigroup_domination_gap",
                   lambda f: t(f, "operators.domination_s"))
        self.patch(operators, "form_limit_check", lambda f: t(f, "operators.form_limit_s"))
        self.patch(operators, "semigroup_evolve", lambda f: t(f, "operators.evolve_s"))
        self.patch(operators, "form_sum_spectrum", lambda f: t(f, "operators.spectrum_s"))
        self.patch(operators, "klmn_optimal_c1", lambda f: t(f, "operators.klmn_s"))

        lin = self._operators_only
        self.patch(scipy.linalg, "expm",
                   lambda f: lin(f, "linalg.expm_s", "linalg.expm_calls", dense=True),
                   holders=[scipy.linalg])
        for name in ("eigh", "eigvalsh"):
            self.patch(np.linalg, name, lambda f: lin(f, "linalg.eigh_s", dense=True),
                       holders=[np.linalg])
        self.patch(scipy.sparse.linalg, "eigsh", lambda f: lin(f, "linalg.eigsh_s"),
                   holders=[scipy.sparse.linalg])
        self.patch(scipy.sparse.linalg, "expm_multiply",
                   lambda f: lin(f, "linalg.expm_multiply_s"),
                   holders=[scipy.sparse.linalg])

        self.patch(feynman_kac, "sample_paths", self._sampler)
        for name in ("mc_kato_integral", "mc_heat_expectation", "mc_covariant_semigroup"):
            self.patch(feynman_kac, name,
                       lambda f: t(f, "_fk.estimate_s", after=self._add_caps))

    def uninstall(self):
        while self._patches:
            obj, attr, original = self._patches.pop()
            setattr(obj, attr, original)

    # -- results ------------------------------------------------------------

    def metrics(self, overhead, assembly_s):
        seconds, counts = self.seconds, self.counts
        out = {name: float(seconds.get(name, 0.0)) if unit == "s" else counts.get(name, 0)
               for name, unit in METRICS.items()}
        calls = counts.get("quadrature.spatial_calls", 0)
        out["quadrature.fallback_ratio"] = out["quadrature.fallbacks"] / calls if calls else 0.0
        out["fk.reduce_s"] = seconds.get("_fk.estimate_s", 0.0) - out["fk.sample_s"]
        out["operators.assembly_s"] = assembly_s
        out["trace.overhead"] = overhead
        return out

    def span_records(self):
        return [{"name": n, "start": s, "end": e, "parent": p}
                for (n, s, e, p) in self.spans]

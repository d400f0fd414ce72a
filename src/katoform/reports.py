"""Deterministic report emission.

Reports must be byte-identical across runs with the same configuration and
seed, so everything here avoids timestamps, absolute paths, dict-order
dependence, and locale-dependent formatting.  Floats go through repr-style
shortest round-trip formatting; non-finite values are encoded as strings
because strict JSON has no spelling for them.

Every computed number is wrapped by pnum() with an error estimate and a
provenance tag saying which engine produced it.  This is the one module
that knows the output format: the report forms of the result objects and
the table-plus-plot CSV pair live here and nowhere else.
"""

from __future__ import annotations

import csv
import json
import math
import os

PROVENANCES = ("quadrature", "eigensolve", "monte_carlo", "closed_form")


def pnum(value, error, provenance: str) -> dict:
    """A number as reported: value, error estimate, producing engine."""
    if provenance not in PROVENANCES:
        raise ValueError(f"unknown provenance {provenance!r}")
    return {"value": _jsonable(value), "error": _jsonable(error),
            "provenance": provenance}


def _jsonable(x):
    if isinstance(x, complex):
        return {"re": _jsonable(x.real), "im": _jsonable(x.imag)}
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return x
    return x


def sanitize(obj):
    """Recursively make a structure strict-JSON safe (non-finite -> strings)."""
    if isinstance(obj, dict):
        return {str(k): sanitize(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [sanitize(v) for v in obj]
    if isinstance(obj, bool) or obj is None or isinstance(obj, (int, str)):
        return obj
    if isinstance(obj, complex):
        return _jsonable(obj)
    if isinstance(obj, float):
        return _jsonable(obj)
    if hasattr(obj, "item"):  # numpy scalars
        return sanitize(obj.item())
    if hasattr(obj, "tolist"):
        return sanitize(obj.tolist())
    return str(obj)


def dump_json(path: str, obj) -> None:
    text = json.dumps(sanitize(obj), sort_keys=True, indent=2,
                      allow_nan=False) + "\n"
    with open(path, "w", newline="\n") as fh:
        fh.write(text)


def dump_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def write_table(out_dir: str, stem: str, header, rows) -> None:
    """<stem>.csv with the given columns, and plot_<stem>.csv with the first two as x, y."""
    dump_csv(os.path.join(out_dir, f"{stem}.csv"), header, rows)
    dump_csv(os.path.join(out_dir, f"plot_{stem}.csv"), ("x", "y"),
             [row[:2] for row in rows])


def kato_report_json(report) -> dict:
    """KatoReport with provenance-wrapped values for report.json."""
    out = {
        "eta_grid": [{"t": t, "eta": pnum(v, e, "quadrature")}
                     for (t, v, e) in report.eta_grid],
        "resolvent_grid": [{"r": r, "C_r": pnum(v, e, "quadrature")}
                           for (r, v, e) in report.resolvent_grid],
        "verdict": report.verdict,
        "locally_integrable": report.locally_integrable,
        "argmax_probe_index": report.argmax_probe_index,
    }
    if report.fit_exponent is not None:
        out["fit_exponent"] = pnum(report.fit_exponent, report.fit_error, "quadrature")
    if report.klmn is not None:
        out["klmn"] = klmn_json(report.klmn)
    if report.reason is not None:
        out["reason"] = report.reason
    return out


def klmn_json(bound) -> dict:
    """The KLMN triple (r, C1, C2 = r*C1) of kato.form_bound_constants, each with its error."""
    return {key: pnum(value, error, "quadrature")
            for key, value, error in zip(("r", "c1", "c2"), bound, bound.errors)}


def estimate_json(est) -> dict:
    """A feynman_kac.Estimate with its run accounting and extras for report.json."""
    if isinstance(est.value, complex):
        val = {"re": est.value.real, "im": est.value.imag}
    else:
        val = float(est.value)
    out = {
        "value": val,
        "std_error": float(est.std_error),
        "n_effective": int(est.n_effective),
        "n_paths": int(est.n_paths),
        "step": float(est.step),
        "cap_events": int(est.cap_events),
        "provenance": "monte_carlo",
    }
    if est.bias_bound is not None:
        out["bias_bound"] = float(est.bias_bound)
    out.update(est.extras)
    return out

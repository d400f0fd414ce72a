"""Deterministic report emission.

Reports must be byte-identical across runs with the same configuration and
seed, so everything here avoids timestamps, absolute paths, dict-order
dependence, and locale-dependent formatting.  Floats go through repr-style
shortest round-trip formatting; non-finite values are encoded as strings
because strict JSON has no spelling for them.

Every computed number is wrapped by pnum() with an error estimate and a
provenance tag saying which engine produced it.
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


def _fmt(x) -> str:
    if isinstance(x, float):
        if math.isnan(x):
            return "nan"
        if math.isinf(x):
            return "inf" if x > 0 else "-inf"
        return repr(x)
    return str(x)


def dump_csv(path: str, header, rows) -> None:
    with open(path, "w", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt(x) for x in row])


def write_eta_csv(out_dir: str, report) -> None:
    dump_csv(os.path.join(out_dir, "eta.csv"), ("t", "eta", "err"),
             [(t, v, e) for (t, v, e) in report.eta_grid])
    dump_csv(os.path.join(out_dir, "plot_eta.csv"), ("x", "y"),
             [(t, v) for (t, v, _e) in report.eta_grid])


def write_resolvent_csv(out_dir: str, report) -> None:
    dump_csv(os.path.join(out_dir, "resolvent.csv"), ("r", "C_r", "err"),
             [(r, v, e) for (r, v, e) in report.resolvent_grid])
    dump_csv(os.path.join(out_dir, "plot_resolvent.csv"), ("x", "y"),
             [(r, v) for (r, v, _e) in report.resolvent_grid])


def write_spectrum_csv(out_dir: str, spectrum) -> None:
    rows = [(i, float(lam), float(res)) for i, (lam, res) in
            enumerate(zip(spectrum.eigenvalues, spectrum.residuals))]
    dump_csv(os.path.join(out_dir, "spectrum.csv"),
             ("index", "eigenvalue", "residual"), rows)
    dump_csv(os.path.join(out_dir, "plot_spectrum.csv"), ("x", "y"),
             [(i, lam) for (i, lam, _r) in rows])


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
        out["fit_exponent"] = pnum(report.fit_exponent, 0.05, "quadrature")
    if report.klmn is not None:
        out["klmn"] = klmn_json(*report.klmn)
    return out


def klmn_json(r, c1, c2) -> dict:
    """The KLMN triple (r, C1, C2 = r*C1) with provenance-wrapped values."""
    return {
        "r": pnum(r, 1e-7 * r, "quadrature"),
        "c1": pnum(c1, 1e-6 * max(c1, 1.0), "quadrature"),
        "c2": pnum(c2, 1e-6 * max(c2, 1.0), "quadrature"),
    }

"""End-to-end checks of the command line driver.

Everything runs in process through katoform.cli.main so exit codes and
stderr diagnostics can be asserted directly; one subprocess test covers
the installed console script.
"""

import json
import math
import shutil
import subprocess
import sys
import time

import numpy as np
import pytest

from katoform import bundled, cli, kato, reports
from katoform.errors import ConvergenceError, UndecidedError
from katoform.feynman_kac import KillingRegion, PathConfig, mc_heat_expectation
from katoform.geometry import EUCLIDEAN, ModelSpace
from katoform.mesh import random_bundle_mesh
from katoform.operators import form_sum_spectrum
from katoform.potentials import inverse_power
from katoform.reports import PROVENANCES


def write_config(tmp_path, obj, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


def run_cli(tmp_path, cfg_obj, *extra):
    out = tmp_path / "out"
    code = cli.main(["run", "--config", write_config(tmp_path, cfg_obj),
                     "--out", str(out), *extra])
    return code, out


def load_report(out):
    with open(out / "report.json") as fh:
        return json.load(fh)


def bundled_config(name):
    with open(str(bundled.config_dir() / f"{name}.json")) as fh:
        return json.load(fh)


SPECTRUM_CFG = {
    "command": "spectrum",
    "mesh": {"bundled": "flux_cycle_3"},
    "k": 3,
    "seed": 0,
}


def collect_pnums(node, found):
    if isinstance(node, dict):
        if set(node) >= {"value", "error", "provenance"}:
            found.append(node)
        else:
            for v in node.values():
                collect_pnums(v, found)
    elif isinstance(node, list):
        for v in node:
            collect_pnums(v, found)


# ---------------------------------------------------------------------------
# exit code 2: invalid configuration

def test_no_config_given(capsys):
    assert cli.main(["run"]) == 2
    assert "invalid config" in capsys.readouterr().err


def test_missing_file(tmp_path, capsys):
    assert cli.main(["run", "--config", str(tmp_path / "nope.json")]) == 2
    assert "cannot read" in capsys.readouterr().err


def test_malformed_json(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    assert cli.main(["run", "--config", str(path)]) == 2
    assert "not valid JSON" in capsys.readouterr().err


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e999", "1" + "0" * 400],
                         ids=["nan", "inf", "-inf", "float_overflow", "int_overflow"])
def test_non_finite_number_rejected_at_load(tmp_path, capsys, literal):
    # json.load reads these as nan, +-inf or an int no float holds; JSON has no such numbers
    path = tmp_path / "cfg.json"
    path.write_text('{"command": "spectrum", "mesh": {"bundled": "flux_cycle_3"}, '
                    f'"potential_values": [0.0, {literal}, 0.0]}}')
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(path), "--out", str(out)]) == 2
    assert f"invalid config: {literal[:40]} is not a finite number" in capsys.readouterr().err
    assert not out.exists()


def test_bad_potential_params_rejected(tmp_path, capsys):
    cfg = {"command": "kato-test", "space": E3_SPACE, "t_grid": [1e-3, 1e-2, 1e-1, 1.0],
           "potential": {"radial": {"expr": "coulomb", "params": {"nonsense": 1}}}}
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2
    assert "invalid config: bad params for radial expression 'coulomb'" in capsys.readouterr().err


# test_bad_potential_params_rejected takes {"nonsense": 1}
@pytest.mark.parametrize("radial", [
    {"expr": "coulomb", "params": {"strength": "x"}},
    {"expr": "coulomb", "params": {"strength": {}}},
    {"expr": "mystery"},
], ids=["string", "object", "unknown_expression"])
def test_bad_radial_potential_rejected(tmp_path, capsys, radial):
    cfg = {"command": "kato-test", "space": E3_SPACE, "t_grid": [1e-3, 1e-2, 1e-1, 1.0],
           "potential": {"radial": radial}}
    code, out = run_cli(tmp_path, cfg)
    err = capsys.readouterr().err
    want = ("unknown radial expression 'mystery'" if radial["expr"] == "mystery"
            else "bad params for radial expression 'coulomb'")
    assert code == 2 and f"invalid config: {want}" in err, err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("command,potential,message", [
    ("kato-test", {"radial": {"expr": "bump", "params": {"amplitude": 1, "radius": -1}}},
     "bad params for radial expression 'bump'"),
    ("form-bounds", {"radial": {"expr": "bump", "params": {"amplitude": 1, "radius": 0}}},
     "bad params for radial expression 'bump'"),
    ("kato-test", {"tabulated": {"radii": [0.0, 1.0], "values": [1.0, 0.0],
                                 "interpolation": "cubic"}},
     "schema violations"),
], ids=["bump_negative_radius", "bump_zero_radius", "cubic_interpolation"])
def test_potential_with_no_meaning_is_refused(tmp_path, capsys, command, potential, message):
    # a bump of radius <= 0 once ran as the zero potential, verdict member
    cfg = {"command": command, "space": E3_SPACE, "potential": potential}
    if command == "kato-test":
        cfg["t_grid"] = [1e-3, 1e-2, 1e-1, 1.0]
    code, out = run_cli(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == 2 and f"invalid config: {message}" in err, err
    assert not (out / "report.json").exists()


def test_empty_config(tmp_path, capsys):
    code, _ = run_cli(tmp_path, {})
    assert code == 2
    assert "command" in capsys.readouterr().err


def test_unknown_command(tmp_path, capsys):
    code, _ = run_cli(tmp_path, {"command": "frobnicate"})
    assert code == 2
    assert "frobnicate" in capsys.readouterr().err


def test_unknown_key_diagnosed(tmp_path, capsys):
    cfg = dict(SPECTRUM_CFG, typo_key=1)
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2
    err = capsys.readouterr().err
    assert "schema violations" in err and "typo_key" in err


def test_missing_required_field(tmp_path, capsys):
    cfg = {"command": "kato-test", "space": {"bundled": "euclidean_m3"},
           "potential": {"bundled": "coulomb_r3"}}
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2
    assert "t_grid" in capsys.readouterr().err


def test_unknown_bundled_name(tmp_path, capsys):
    cfg = dict(SPECTRUM_CFG, mesh={"bundled": "no_such_mesh"})
    code, _ = run_cli(tmp_path, cfg)
    assert code == 2
    assert "no_such_mesh" in capsys.readouterr().err


E3_SPACE = {"kind": "euclidean", "dim": 3}
H3_SPACE = {"kind": "hyperbolic", "dim": 3}


@pytest.mark.parametrize("space,domain", [
    (E3_SPACE, {"kind": "ball", "radius": "abc"}),
    (E3_SPACE, {"kind": "halfspace", "normal": [1.0]}),
    (E3_SPACE, {"kind": "ball", "radius": 1.0, "center": [0.1]}),
    (H3_SPACE, {"kind": "halfspace", "normal": [1.0, 0.0, 0.0], "offset": 1.0}),
], ids=["ball_radius_not_a_number", "halfspace_normal_too_short",
        "ball_center_too_short", "halfspace_on_h3"])
def test_fk_mc_malformed_domain(tmp_path, capsys, space, domain):
    start = [0.0] * 3 if space is E3_SPACE else [1.0, 0.0, 0.0, 0.0]
    cfg = {"command": "fk-mc", "estimator": "survival",
           "path": {"space": space, "start": start, "horizon": 0.01,
                    "step": 0.001, "n_paths": 100, "domain": domain}}
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    assert "invalid config" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("space,start,domain,message", [
    (E3_SPACE, [0.3, 0.0, 0.0],
     {"kind": "halfspace", "normal": [1e200, 1e200, 0.0], "offset": 5e199},
     "invalid config: halfspace normal must be"),
    (H3_SPACE, [1.0, 0.0, 0.0, 0.0],
     {"kind": "ball", "radius": 1.0, "center": [1.0, 0.5, 0.0, 0.0]},
     "invalid config: point is not on the hyperboloid sheet"),
], ids=["halfspace_normal_overflows", "ball_center_off_h3"])
def test_fk_mc_region_check_keeps_its_message(tmp_path, capsys, space, start, domain, message):
    # a failed check of a decoded region is not a malformed configuration
    cfg = {"command": "fk-mc", "estimator": "survival",
           "path": {"space": space, "start": start, "horizon": 0.01,
                    "step": 0.001, "n_paths": 100, "domain": domain}}
    code, out = run_cli(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == 2 and message in err and "malformed" not in err, err
    assert not (out / "report.json").exists()


INVERSE_SQUARE_MC = {
    "command": "fk-mc", "estimator": "kato-integral",
    "path": {"space": E3_SPACE, "start": [0.0, 0.0, 0.0], "horizon": 0.01,
             "step": 0.001, "n_paths": 100},
    "potential": {"radial": {"expr": "inverse_square"}}}


@pytest.mark.parametrize("declared", [[], [-1.0]], ids=["empty", "negative"])
def test_fk_mc_declared_singularities_are_refused(tmp_path, capsys, declared):
    # the singular set is the expression's: an empty list once sent the
    # inverse square to the exact route, which reported a finite integral
    cfg = json.loads(json.dumps(INVERSE_SQUARE_MC))
    cfg["potential"]["radial"]["singularities"] = declared
    code, out = run_cli(tmp_path, cfg)
    err = capsys.readouterr().err
    assert code == 2 and "schema violations" in err and "singularities" in err, err
    assert not (out / "report.json").exists()


def test_fk_mc_inverse_square_takes_the_path_route(tmp_path):
    # 2p = 4 >= 3: an infinite second moment, so the capped trapezoid along paths
    code, out = run_cli(tmp_path, INVERSE_SQUARE_MC)
    assert code == 0
    estimate = load_report(out)["results"]["estimate"]
    assert estimate["cap_events"] > 0
    assert "bias_bound" not in estimate     # nothing bounds the bias at the singularity


def test_fk_mc_huge_worker_count(tmp_path, capsys):
    # refused by PathConfig before sample_paths builds any per-worker list
    start = time.perf_counter()
    code, out = run_cli(tmp_path, bundled_config("fk_coulomb"), "--workers", str(10 ** 12))
    assert code == 2 and time.perf_counter() - start < 1.0
    assert "invalid config" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("transports", [
    [[[[1, 0], [0, 0]], [[0, 0]]]],
    [[[[1, 0], [0, 0]], [[0, 0], [1, 0]]], [[[1, 0]]]],
], ids=["ragged_rows", "shapes_differ"])
def test_spectrum_inhomogeneous_transports(tmp_path, capsys, transports):
    verts = [{"mu": 1.0} for _ in range(len(transports) + 1)]
    edges = [{"u": j, "v": j + 1, "w": 1.0, "U": U} for j, U in enumerate(transports)]
    cfg = dict(SPECTRUM_CFG, k=1, mesh={"fiber_dim": 2, "vertices": verts, "edges": edges})
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    assert "invalid config: malformed mesh JSON" in capsys.readouterr().err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("cell", [[1.0, 0.0, 99.0], [1.0], ["1", 0.0], [1.0, None]],
                         ids=["three_parts", "one_part", "string", "null"])
def test_spectrum_transport_entry_is_an_re_im_pair(tmp_path, capsys, cell):
    # an entry [1, 0, 99, ...] once read as 1 + 0j, its tail ignored
    mesh = {"fiber_dim": 1, "vertices": [{"mu": 1.0}, {"mu": 1.0}],
            "edges": [{"u": 0, "v": 1, "w": 1.0, "U": [[cell]]}]}
    code, out = run_cli(tmp_path, dict(SPECTRUM_CFG, k=1, mesh=mesh))
    err = capsys.readouterr().err
    assert code == 2 and "invalid config: schema violations" in err, err
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("potential", [
    {"potential_values": [0.0, 1.0]},
    {"radial_potential": {"radial": {"expr": "coulomb"}}},
], ids=["wrong_length", "coulomb_at_a_live_origin"])
def test_spectrum_potential_checked_by_the_operator(tmp_path, capsys, potential):
    # peierls_grid has a live vertex at the origin, where 1/r is infinite
    cfg = {"command": "spectrum", "mesh": {"bundled": "peierls_grid"}, "k": 3, **potential}
    code, out = run_cli(tmp_path, cfg)
    assert code == 2
    assert "invalid config" in capsys.readouterr().err
    assert not (out / "report.json").exists()


# ---------------------------------------------------------------------------
# exit code 0: a passing run, report and table layout

def test_spectrum_smooth_power_at_a_live_origin(tmp_path):
    # r^2 reads its limit 0 at the origin vertex, which needs no probe
    cfg = {"command": "spectrum", "mesh": {"bundled": "peierls_grid"}, "k": 3,
           "radial_potential": {"radial": {"expr": "inverse_power",
                                           "params": {"power": -2.0}}}}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    assert len(load_report(out)["results"]["eigenvalues"]) == 3
    assert len((out / "spectrum.csv").read_text().splitlines()) == 4


def test_spectrum_k_written_as_float(tmp_path):
    # JSON Schema counts 2.0 as an integer, so the run must take it as k = 2
    code, out = run_cli(tmp_path, dict(SPECTRUM_CFG, k=2.0))
    assert code == 0
    assert len(load_report(out)["results"]["eigenvalues"]) == 2


def test_spectrum_run_report(tmp_path):
    code, out = run_cli(tmp_path, SPECTRUM_CFG)
    assert code == 0
    report = load_report(out)
    assert report["status"] == "pass"
    assert report["command"] == "spectrum"
    assert set(report) == {"schema_version", "command", "parameters",
                           "results", "checks", "status"}

    eigs = [row["value"] for row in report["results"]["eigenvalues"]]
    want = sorted(1.0 - math.cos((2.0 * math.pi * j + math.pi / 3.0) / 3.0)
                  for j in range(3))
    assert np.allclose(eigs, want, atol=1e-12)

    pnums = []
    collect_pnums(report["results"], pnums)
    assert len(pnums) == 4                 # lowest + three eigenvalues
    for p in pnums:
        assert p["provenance"] in PROVENANCES
        assert p["error"] >= 0.0

    text = (out / "report.json").read_text()
    assert str(out) not in text            # no filesystem paths inside
    assert "time" not in report["parameters"]
    # keys are serialized sorted, so a re-dump must be byte identical
    assert text == json.dumps(report, indent=2, sort_keys=True) + "\n"

    spectrum_csv = (out / "spectrum.csv").read_text().splitlines()
    assert spectrum_csv[0] == "index,eigenvalue,residual"
    assert len(spectrum_csv) == 4
    plot = (out / "plot_spectrum.csv").read_text().splitlines()
    assert plot[0] == "x,y"


def test_kato_run_tables(tmp_path):
    cfg = {
        "command": "kato-test",
        "space": {"bundled": "euclidean_m3"},
        "potential": {"bundled": "coulomb_r3"},
        "t_grid": [1e-4, 1e-3, 1e-2, 1e-1],
        "r_grid": [2.0, 8.0],
        "seed": 0,
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    kato = load_report(out)["results"]["kato"]
    assert kato["verdict"] == "member"
    for row in kato["eta_grid"]:
        want = 2.0 * math.sqrt(2.0 * row["t"] / math.pi)
        assert abs(row["eta"]["value"] - want) < 1e-6 * want

    eta_csv = (out / "eta.csv").read_text().splitlines()
    assert eta_csv[0] == "t,eta,err"
    assert len(eta_csv) == 5
    res_csv = (out / "resolvent.csv").read_text().splitlines()
    assert res_csv[0] == "r,C_r,err"
    assert (out / "plot_eta.csv").read_text().splitlines()[0] == "x,y"


# ---------------------------------------------------------------------------
# decoding: an inline config builds the objects Python would, bit for bit

def encode_mesh(mesh):
    """The inline mesh form of a BundleMesh, transports as [re, im] pairs."""
    return {
        "fiber_dim": mesh.fiber_dim,
        "vertices": [{"mu": float(m), "dirichlet": bool(d)}
                     for m, d in zip(mesh.mu, mesh.dirichlet)],
        "edges": [{"u": int(a), "v": int(b), "w": float(w),
                   "U": [[[float(z.real), float(z.imag)] for z in row] for row in U]}
                  for a, b, w, U in zip(mesh.edge_u, mesh.edge_v, mesh.edge_w,
                                        mesh.transports)],
    }


def test_inline_mesh_spectrum_matches_python(tmp_path):
    mesh = random_bundle_mesh(8, fiber_dim=2, seed=9, dirichlet_count=1)
    code, out = run_cli(tmp_path, {"command": "spectrum", "mesh": encode_mesh(mesh)})
    assert code == 0
    spec = form_sum_spectrum(mesh)
    rows = load_report(out)["results"]["eigenvalues"]
    assert [row["value"] for row in rows] == spec.eigenvalues.tolist()
    assert [row["error"] for row in rows] == spec.residuals.tolist()


def test_inline_halfspace_survival_matches_python(tmp_path):
    path = {"space": E3_SPACE, "start": [0.3, 0.0, 0.0], "horizon": 0.25, "step": 0.0025,
            "n_paths": 1000, "domain": {"kind": "halfspace", "normal": [1.0, 0.0, 0.0],
                                        "offset": 0.5}}
    code, out = run_cli(tmp_path, {"command": "fk-mc", "estimator": "survival",
                                   "path": path, "seed": 7})
    assert code == 0
    pcfg = PathConfig(space=ModelSpace(EUCLIDEAN, 3), start=(0.3, 0.0, 0.0), horizon=0.25,
                      step=0.0025, n_paths=1000, seed=7,
                      domain=KillingRegion(kind="halfspace", normal=(1.0, 0.0, 0.0),
                                           offset=0.5))
    est = mc_heat_expectation(lambda X: np.ones(len(X)), pcfg)
    got = load_report(out)["results"]["estimate"]
    assert json.dumps(got, sort_keys=True) == json.dumps(
        reports.sanitize(reports.estimate_json(est)), sort_keys=True)


def test_inline_radial_kato_test_matches_python(tmp_path):
    t_grid = [1e-4, 1e-3, 1e-2, 1e-1]
    cfg = {"command": "kato-test", "space": E3_SPACE, "t_grid": t_grid, "r_grid": [1.0],
           "potential": {"radial": {"expr": "inverse_power",
                                    "params": {"power": 1.5, "strength": 2.0}}}}
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    space = ModelSpace(EUCLIDEAN, 3)
    report = kato.kato_verdict(inverse_power(space, 1.5, 2.0), t_grid, [space.origin()],
                               r_grid=[1.0])
    got = load_report(out)["results"]["kato"]
    assert json.dumps(got, sort_keys=True) == json.dumps(
        reports.sanitize(reports.kato_report_json(report)), sort_keys=True)


# ---------------------------------------------------------------------------
# exit code 1: contract violations

def test_form_bounds_rejects_inverse_square(tmp_path, capsys):
    cfg = {
        "command": "form-bounds",
        "space": {"bundled": "euclidean_m3"},
        "potential": {"bundled": "inverse_square_r3"},
        "seed": 0,
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == 1
    assert "form_boundedness" in capsys.readouterr().err


def test_form_bounds_green_potential_bump(tmp_path):
    # C_0 = 1/3 meets the target, so r* = 0 and the curve samples r = 0.25..4
    cfg = {
        "command": "form-bounds",
        "space": {"bundled": "euclidean_m3"},
        "potential": {"bundled": "bump_r3"},
        "seed": 0,
    }
    code, out = run_cli(tmp_path, cfg)
    assert code == 0
    klmn = load_report(out)["results"]["klmn"]
    assert klmn["r"]["value"] == 0.0
    assert klmn["c1"]["value"] == pytest.approx(1.0 / 3.0, rel=1e-9)
    rows = (out / "resolvent.csv").read_text().splitlines()[1:]
    assert [float(row.split(",")[0]) for row in rows] == [0.25, 0.5, 1.0, 2.0, 4.0]


KATO_CFG = {
    "command": "kato-test",
    "space": {"bundled": "euclidean_m3"},
    "potential": {"bundled": "coulomb_r3"},
    "t_grid": [1e-4, 1e-3, 1e-2, 1e-1],
    "seed": 0,
}


def test_kato_solver_failure_is_a_convergence_violation(tmp_path, capsys, monkeypatch):
    # a ConvergenceError is a RuntimeError, but not a monotonicity failure
    def fail(v, b, t):
        raise ConvergenceError("inner quadrature missed its tolerance")

    monkeypatch.setattr(kato, "_eta_b", fail)
    code, _ = run_cli(tmp_path, KATO_CFG)
    assert code == 1
    err = capsys.readouterr().err
    assert "contract violation: convergence" in err
    assert "eta_monotonicity" not in err


def undecided(*args):
    raise UndecidedError("windows at radius 0.0 (above) decide nothing after 49 windows")


def test_kato_undecided_eta_is_an_inconclusive_report(tmp_path, monkeypatch):
    real = kato._eta_b
    monkeypatch.setattr(kato, "_eta_b", lambda v, b, t: undecided() if t < 1e-2 else real(v, b, t))
    code, out = run_cli(tmp_path, KATO_CFG)
    assert code == 0
    res = load_report(out)["results"]["kato"]
    assert res["verdict"] == "inconclusive"
    assert res["reason"].startswith("divergence_undecided: eta(0.0001)")
    assert [row["eta"]["value"] for row in res["eta_grid"]][:2] == ["nan", "nan"]


def test_form_bounds_undecided_is_a_contract_violation(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(kato, "_resolvent_b", undecided)
    cfg = bundled_config("form_bounds_coulomb")
    code, _ = run_cli(tmp_path, cfg)
    assert code == 1
    err = capsys.readouterr().err
    assert "contract violation: divergence_undecided" in err
    assert "quadrature_accuracy" not in err


def test_kato_decreasing_eta_is_a_monotonicity_violation(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(kato, "_eta_b", lambda v, b, t: (1.0 / t, 0.0))
    code, _ = run_cli(tmp_path, KATO_CFG)
    assert code == 1
    assert "contract violation: eta_monotonicity" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# option precedence and reference mode

def test_seed_precedence(tmp_path):
    code, out = run_cli(tmp_path, SPECTRUM_CFG, "--seed", "9")
    assert code == 0
    assert load_report(out)["parameters"]["seed"] == 9

    shutil.rmtree(out)
    code, out = run_cli(tmp_path, dict(SPECTRUM_CFG, seed=5))
    assert code == 0
    assert load_report(out)["parameters"]["seed"] == 5   # from the config

    shutil.rmtree(out)
    code, out = run_cli(tmp_path, {k: v for k, v in SPECTRUM_CFG.items() if k != "seed"})
    assert code == 0
    assert load_report(out)["parameters"]["seed"] == 0   # the default


def test_config_output_and_out_flag(tmp_path):
    cfg = write_config(tmp_path, dict(SPECTRUM_CFG, output=str(tmp_path / "cfgout")))
    assert cli.main(["run", "--config", cfg]) == 0
    assert (tmp_path / "cfgout" / "report.json").exists()
    assert cli.main(["run", "--config", cfg, "--out", str(tmp_path / "flagout")]) == 0
    assert (tmp_path / "flagout" / "report.json").exists()


def test_reference_mode_forces_single_worker(tmp_path):
    code, out = run_cli(tmp_path, SPECTRUM_CFG, "--reference",
                        "--workers", "4")
    assert code == 0
    params = load_report(out)["parameters"]
    assert params["reference"] is True
    assert params["workers"] == 1


@pytest.mark.parametrize("name", ["spectrum_flux_cycle", "fk_coulomb"])
def test_bundled_config_byte_stable(tmp_path, name):
    cfg = bundled_config(name)
    raw = []
    for tag in ("a", "b"):
        out = tmp_path / tag
        code = cli.main(["run", "--config", write_config(tmp_path, cfg),
                         "--out", str(out), "--reference"])
        assert code == 0
        raw.append((out / "report.json").read_bytes())
    assert raw[0] == raw[1]


def test_all_bundled_configs_are_valid(tmp_path):
    for name in bundled.list_configs():
        cfg = bundled_config(name)
        assert cfg["command"] in cli.COMMANDS
        assert not cli._schema_diagnostics(cfg["command"], cfg)


# ---------------------------------------------------------------------------
# catalog listing

def test_list_bundled_in_process(capsys):
    assert cli.main(["list-bundled"]) == 0
    catalog = json.loads(capsys.readouterr().out)
    assert "coulomb_r3" in catalog["potentials"]
    assert "euclidean_m3" in catalog["spaces"]
    assert "hyperbolic_m3" in catalog["spaces"]
    assert "flux_cycle_3" in catalog["meshes"]
    assert "kato_coulomb" in catalog["configs"]


def test_console_script():
    exe = shutil.which("katoform")
    if exe is None:
        proc = subprocess.run([sys.executable, "-m", "katoform.cli",
                               "list-bundled"],
                              capture_output=True, text=True)
    else:
        proc = subprocess.run([exe, "list-bundled"],
                              capture_output=True, text=True)
    assert proc.returncode == 0
    assert "flux_cycle_3" in proc.stdout

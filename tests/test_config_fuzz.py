"""The config contract under one-field mutations.

Every leaf of every bundled config, and of a few inline-form seeds (a
radial and a tabulated potential, an inline mesh, a ball killing region
with a worker count and a half-space one), is broken in each of the ways
``MUTATIONS`` lists, each count leaf also in the ways ``COUNT_MUTATIONS``
lists, and the result goes through ``katoform run`` in process.  Each
case must exit 0, or exit 2 with an ``invalid config`` diagnostic; an
exception escaping ``cli.main`` is a traceback and fails the case.  No
mutation here leaves a valid config whose run breaks a named invariant,
so exit 1 (a contract violation) is never expected.  The enumeration is exhaustive, not
sampled: a case takes a few milliseconds.  A few whole configs in ``INVALID`` must
exit 2 as they stand.
"""

import copy
import json
import math

import pytest

from katoform import bundled, cli

E3 = {"kind": "euclidean", "dim": 3}
FAST_PATH = {"space": E3, "start": [0.0, 0.0, 0.0], "horizon": 0.01,
             "step": 0.001, "n_paths": 100}

INLINE_SEEDS = {
    "radial_potential": {
        "command": "kato-test", "space": E3,
        "potential": {"radial": {"expr": "coulomb", "params": {"strength": 1.0}}},
        "t_grid": [0.001, 0.01, 0.1, 1.0],
    },
    "tabulated_potential": {
        "command": "kato-test", "space": E3,
        "potential": {"tabulated": {"radii": [0.0, 1.0, 2.0],
                                    "values": [1.0, 0.5, 0.0],
                                    "interpolation": "linear"}},
        "t_grid": [0.001, 0.01, 0.1, 1.0],
        "r_grid": [1.0],
    },
    "inline_mesh": {
        "command": "spectrum",
        "mesh": {"fiber_dim": 1,
                 "vertices": [{"mu": 1.0}, {"mu": 1.0}, {"mu": 1.0, "dirichlet": True}],
                 "edges": [{"u": 0, "v": 1, "w": 1.0, "U": [[[0.0, 1.0]]]},
                           {"u": 1, "v": 2, "w": 2.0, "U": [[[1.0, 0.0]]]}]},
        "potential_values": [0.5, -0.5, 0.0],
        "k": 1,
    },
    "ball_domain": {
        "command": "fk-mc", "estimator": "survival", "workers": 2,
        "path": dict(FAST_PATH, domain={"kind": "ball", "radius": 1.0,
                                        "center": [0.1, 0.0, 0.0]}),
    },
    "halfspace_domain": {
        "command": "fk-mc", "estimator": "survival",
        "path": dict(FAST_PATH, domain={"kind": "halfspace",
                                        "normal": [1.0, 0.0, 0.0], "offset": 0.5}),
    },
}


def _bundled_seeds():
    seeds = {}
    for name in bundled.list_configs():
        with open(str(bundled.config_dir() / f"{name}.json")) as fh:
            seeds[name] = json.load(fh)
    return seeds


SEEDS = {**_bundled_seeds(), **INLINE_SEEDS}


def _negative(value):
    if isinstance(value, (int, float)) and not isinstance(value, bool) and value:
        return -value
    return -1.0


MUTATIONS = {
    "drop": None,
    "string": lambda v: "x",
    "object": lambda v: {},
    "negative": _negative,
    "zero": lambda v: 0,
    "nan": lambda v: math.nan,
    "inf": lambda v: math.inf,
    "-inf": lambda v: -math.inf,
    "ragged": lambda v: [v],
    "empty": lambda v: [],
}

# a count of 1e300, which JSON Schema reads as an integer, or of 10^12
# must be refused before any work or allocation sized by it
COUNT_FIELDS = {"n_sections", "n_domination", "k", "n_paths", "workers"}
COUNT_MUTATIONS = {
    "huge": lambda v: 1e300,
    "huge_int": lambda v: 10 ** 12,
}


def _leaves(node, path=()):
    if isinstance(node, dict) and node:
        for key, child in node.items():
            yield from _leaves(child, path + (key,))
    elif isinstance(node, list) and node:
        for i, child in enumerate(node):
            yield from _leaves(child, path + (i,))
    else:
        yield path


def _mutated(cfg, path, mutation):
    out = copy.deepcopy(cfg)
    parent = out
    for key in path[:-1]:
        parent = parent[key]
    if mutation == "drop":
        del parent[path[-1]]
    else:
        mutate = MUTATIONS.get(mutation) or COUNT_MUTATIONS[mutation]
        parent[path[-1]] = mutate(parent[path[-1]])
    return out


CASES = [(seed, path, mutation) for seed, cfg in SEEDS.items()
         for path in _leaves(cfg) for mutation in
         list(MUTATIONS) + (list(COUNT_MUTATIONS) if path[-1] in COUNT_FIELDS else [])]


@pytest.mark.parametrize(
    "seed,path,mutation", CASES,
    ids=[f"{seed}:{'.'.join(map(str, path))}:{mutation}" for seed, path, mutation in CASES])
def test_mutated_config_exits_cleanly(tmp_path, capsys, seed, path, mutation):
    cfg_path = tmp_path / "cfg.json"
    # json.dumps spells a non-finite float as NaN or Infinity, which JSON has not
    cfg_path.write_text(json.dumps(_mutated(SEEDS[seed], path, mutation)))
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 0 or (code == 2 and "invalid config" in err), err


# configs refused as a whole: a half-space normal whose length overflows or
# underflows (the plane x_1 + x_2 < 0.5 either way), a kato-test probe off
# the hyperboloid whose x_0^2 overflows, and a kato-test t_grid of two
# distinct times, one of them repeated
H3 = {"kind": "hyperbolic", "dim": 3}
INVALID = {
    "huge_normal": {
        "command": "fk-mc", "estimator": "survival",
        "path": dict(FAST_PATH, start=[0.3, 0.0, 0.0],
                     domain={"kind": "halfspace", "normal": [1e200, 1e200, 0.0],
                             "offset": 5e199}),
    },
    "tiny_normal": {
        "command": "fk-mc", "estimator": "survival",
        "path": dict(FAST_PATH, start=[0.3, 0.0, 0.0],
                     domain={"kind": "halfspace", "normal": [1e-200, 1e-200, 0.0],
                             "offset": 5e-201}),
    },
    "far_probe": {
        "command": "kato-test", "space": H3,
        "potential": {"radial": {"expr": "coulomb", "params": {"strength": 1.0}}},
        "t_grid": [0.001, 0.01, 0.1, 1.0], "probes": [[1e200, 0.0, 0.0, 0.0]],
    },
    "repeated_times": {
        "command": "kato-test", "space": E3, "potential": {"bundled": "coulomb_r3"},
        "t_grid": [0.01, 0.01, 0.01, 0.1],
    },
}


@pytest.mark.parametrize("name", sorted(INVALID))
def test_invalid_config_exits_2(tmp_path, capsys, name):
    cfg_path = tmp_path / "cfg.json"
    cfg_path.write_text(json.dumps(INVALID[name]))
    code = cli.main(["run", "--config", str(cfg_path), "--out", str(tmp_path / "out")])
    err = capsys.readouterr().err
    assert code == 2 and "invalid config" in err and "Traceback" not in err, err


def test_seeds_cover_every_bundled_config():
    assert len(SEEDS) == len(bundled.list_configs()) + len(INLINE_SEEDS) == 10

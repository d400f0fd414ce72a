"""Catalog of bundled spaces, potentials, meshes, and run configurations.

Everything here is constructed deterministically from fixed parameters, so
two processes asking for the same id get identical objects.  The ids are
stable strings; list_bundled() is the discovery surface used by the command
line tool.
"""

from __future__ import annotations

import math
from importlib import resources

import numpy as np

from .errors import ConfigError
from .geometry import EUCLIDEAN, HYPERBOLIC, ModelSpace
from .mesh import (BundleMesh, cycle_mesh, grid_mesh_2d, interval_mesh,
                   random_bundle_mesh)
from .potentials import Potential, bump, constant, coulomb, inverse_square

_SPACES = {
    "euclidean_m1": lambda: ModelSpace(EUCLIDEAN, 1),
    "euclidean_m2": lambda: ModelSpace(EUCLIDEAN, 2),
    "euclidean_m3": lambda: ModelSpace(EUCLIDEAN, 3),
    "hyperbolic_m2": lambda: ModelSpace(HYPERBOLIC, 2),
    "hyperbolic_m3": lambda: ModelSpace(HYPERBOLIC, 3),
}

_POTENTIALS = {
    "coulomb_r3": lambda: coulomb(ModelSpace(EUCLIDEAN, 3), strength=1.0),
    "inverse_square_r3": lambda: inverse_square(ModelSpace(EUCLIDEAN, 3),
                                                strength=1.0),
    "constant_1_r3": lambda: constant(ModelSpace(EUCLIDEAN, 3), value=1.0),
    "bump_r3": lambda: bump(ModelSpace(EUCLIDEAN, 3), amplitude=1.0, radius=1.0),
}


_MESHES = {
    "flux_cycle_3": lambda: cycle_mesh(3, theta=math.pi / 3.0),
    "random_bundle_20": lambda: random_bundle_mesh(20, fiber_dim=2, seed=2024,
                                                   extra_edge_prob=0.25, dirichlet_count=2),
    "coulomb_interval_1d": lambda: interval_mesh(-8.0, 8.0, 1.0 / 64.0,
                                                 dirichlet_at=(-8.0, 0.0, 8.0)),
    "peierls_grid": lambda: grid_mesh_2d(1.0, 0.25, b_field=1.0),
}


def _lookup(kind: str, catalog: dict, name: str):
    """A fresh object of the catalog's ``name``, or ConfigError listing the known names."""
    if name not in catalog:
        raise ConfigError(f"unknown bundled {kind} {name!r}; known: {sorted(catalog)}")
    return catalog[name]()


def get_space(name: str) -> ModelSpace:
    return _lookup("space", _SPACES, name)


def get_potential(name: str) -> Potential:
    return _lookup("potential", _POTENTIALS, name)


def get_mesh(name: str) -> BundleMesh:
    mesh = _lookup("mesh", _MESHES, name)
    mesh.name = name        # a bundled mesh carries its catalog id
    return mesh


def coulomb_interval_system():
    """The 1d regularized Coulomb system: mesh plus vertex potential values.

    The interval is [-8, 8] at spacing 1/64 with Dirichlet conditions at
    both endpoints and at the origin, which removes the vertex where
    -1/|x| is singular.  The returned values array carries 0.0 at killed
    vertices; those entries never enter any form because Dirichlet blocks
    are dropped.
    """
    mesh = get_mesh("coulomb_interval_1d")
    x = mesh.positions[:, 0]
    values = np.zeros(len(x))
    live = ~mesh.dirichlet
    values[live] = -1.0 / np.abs(x[live])
    return mesh, values


def config_dir():
    return resources.files("katoform") / "configs"


def list_configs() -> list[str]:
    names = []
    for entry in config_dir().iterdir():
        if entry.name.endswith(".json"):
            names.append(entry.name[:-len(".json")])
    return sorted(names)


def list_bundled() -> dict:
    """Stable catalog of everything shipped with the package."""
    return {
        "spaces": sorted(_SPACES),
        "potentials": sorted(_POTENTIALS),
        "meshes": sorted(_MESHES),
        "configs": list_configs(),
    }

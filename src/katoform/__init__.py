"""Numerical toolkit for Kato-class potentials and covariant form bounds.

The package has four computational layers plus a batch front end:

* ``geometry``: constant-curvature model spaces, heat kernels (Delta/2
  normalization), ball-volume profiles.
* ``kato``: the small-time functional eta(t) and the resolvent-smoothed
  constants C_r, each one integral against a closed-form radial kernel,
  membership verdicts, and the relative form-bound pair (C1, C2) they
  induce.
* ``mesh`` / ``operators``: weighted graphs carrying unitary edge
  transports, the trivial line bundle on a graph as the scalar picture (a
  mesh like any other), the covariant graph Laplacian, quadratic forms,
  pointwise kinetic comparison and semigroup domination checks, optimal
  form-bound pencils, and spectra of the perturbed operators.
* ``feynman_kac``: path-sampling estimators that reproduce the same
  quantities stochastically, as an independent cross-check.
* ``cli``: schema-validated batch runs writing provenance-tagged reports.
"""

from .geometry import (
    EUCLIDEAN,
    HYPERBOLIC,
    ModelSpace,
    VolumeProfile,
    chapman_kolmogorov_residual,
    distance,
    geodesic_point,
    h_kernel,
    heat_kernel_radial,
    heat_mass,
    model_ball_volume,
    sphere_area,
)
from .potentials import Potential, bump, constant, coulomb, inverse_square, tabulated
from .kato import (
    KatoReport,
    analytic_kato_functional,
    form_bound_constants,
    kato_eta,
    kato_verdict,
    lp_kato_classify,
    resolvent_constant,
    sandwich_check,
)
from .mesh import (
    BundleMesh,
    cycle_mesh,
    grid_mesh_2d,
    interval_mesh,
    random_bundle_mesh,
    trivial_line,
)
from .operators import (
    FormValue,
    bochner_laplacian,
    form_limit_check,
    form_sum_spectrum,
    kato_inequality_gap,
    klmn_optimal_c1,
    quad_form,
    semigroup_domination_gap,
)
from .feynman_kac import (
    Estimate,
    KillingRegion,
    PathConfig,
    mc_covariant_semigroup,
    mc_heat_expectation,
    mc_kato_integral,
    sample_paths,
)
from .bundled import list_bundled

__version__ = "0.1.0"

__all__ = [
    "EUCLIDEAN", "HYPERBOLIC",
    "ModelSpace", "VolumeProfile", "distance", "geodesic_point",
    "heat_kernel_radial", "heat_mass", "model_ball_volume",
    "sphere_area", "h_kernel", "chapman_kolmogorov_residual",
    "Potential", "coulomb", "inverse_square", "constant", "bump", "tabulated",
    "KatoReport", "kato_eta", "resolvent_constant",
    "sandwich_check", "analytic_kato_functional", "lp_kato_classify",
    "form_bound_constants", "kato_verdict",
    "BundleMesh", "interval_mesh", "grid_mesh_2d", "cycle_mesh",
    "random_bundle_mesh", "trivial_line",
    "FormValue", "bochner_laplacian",
    "quad_form", "kato_inequality_gap", "semigroup_domination_gap",
    "form_limit_check", "klmn_optimal_c1", "form_sum_spectrum",
    "PathConfig", "KillingRegion", "Estimate", "sample_paths",
    "mc_kato_integral", "mc_heat_expectation",
    "mc_covariant_semigroup",
    "list_bundled",
    "__version__",
]

"""Computable Dunkl analysis for the sign-change groups Z_2^N.

The package covers the one-dimensional (rank-one) theory and its
tensor-product extension: normalized Bessel kernels, hypergroup
convolutions of radial measures, signed product and spherical-mean
measures, the Dunkl transform on weighted grids, heat and Cauchy
transition kernels with exact path samplers, and a verification
battery that re-derives every identity by at least two routes.
"""

from types import ModuleType as _ModuleType

from .bessel_kingman import (
    cauchy_measure,
    cauchy_radial_cdf,
    convolve_measures,
    convolve_points,
    hankel_transform,
    rayleigh_density,
    rayleigh_measure,
    rayleigh_radial_cdf,
    stable_half_subordinator,
    subordinate,
)
from .core import (
    MultiplicityVector,
    alternating_sum_bessel,
    dunkl_kernel,
    dunkl_kernel_unitary,
    dunkl_laplacian,
    dunkl_operator,
    generalized_bessel_unitary,
    group_elements,
    intertwiner_atoms,
)
from .errors import (
    ConfigError,
    ConsistencyError,
    DunklKitError,
    NumericalError,
    PositivityError,
    QuadratureError,
    ResolutionError,
)
from .harmonics import (
    SphereQuadrature,
    addition_theorem_residual,
    apply_laplacian,
    eval_homogeneous,
    funk_hecke_pair,
    harmonic_basis,
    kernel_series,
    laplacian_coefficient,
    orbit_integral,
    plane_wave_residual,
    reproducing_kernel,
    sphere_moment,
)
from .markov import (
    KernelSemigroup,
    KRadialMeasure,
    MarkovKernelHandle,
    PathEnsemble,
    PathSample,
    convolve_k,
    marginal_ks,
    semigroup_from_json,
    simulate_paths,
    translate_measure,
)
from .measures import (
    LineMeasure,
    RadialProfileMeasure,
    as_weighted_atoms,
    dirac,
    measure_from_json,
    measure_to_json,
)
from .rank_one import (
    kernel_real,
    kernel_unitary,
    signed_product_measure,
    spherical_mean,
    spherical_mean_measure,
)
from .special import bessel_j, bessel_j_imag, gegenbauer
from .transform import (
    GridFunction,
    TransformPlan,
    bump,
    chapman_kolmogorov_defect,
    darboux_residual,
    dunkl_transform_grid,
    heat_kernel,
    heat_kernel_spectral,
    radial_bump,
    radial_heat_profile,
    radial_translate,
    spherical_mean_radial,
    spherical_mean_spectral,
    spherical_mean_wave,
    translated_normalization_defect,
)
from .verify import TOLERANCES, SuiteReport, run_all, run_suite, suite_names

__version__ = "0.1.0"

# every public name imported above; the submodules, bound here by those imports, are not API
__all__ = [name for name, value in globals().items()
           if not name.startswith("_") and not isinstance(value, _ModuleType)]

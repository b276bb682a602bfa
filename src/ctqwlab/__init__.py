"""ctqwlab: a numerical laboratory for continuous-time quantum-walk search.

The package builds search Hamiltonians H = gamma * L - |w><w| on finite
graphs, diagonalizes them, and measures overlap transitions, critical
couplings, and time-dependent success probabilities.
"""
from .analysis import ScalingFit, ScalingModel, exponent_prediction, fit_scaling
from .engine import (
    BoundReport,
    CriticalGamma,
    GammaMaxResult,
    OverlapRecord,
    SearchProblem,
    SuccessGrid,
    critical_gamma,
    default_time_grid,
    gamma_max_search,
    measure_overlaps,
    oscillation_period,
    overlaps,
    propagate_krylov,
    success_grid,
    success_probability,
    verify_bounds,
)
from .errors import (
    DEFAULT_DENSE_GUARD,
    ConfigError,
    CtqwError,
    DenseGuardError,
    NoTransitionError,
    NumericalError,
    dense_guard,
)
from .graphs import (
    Family,
    Graph,
    GraphSpec,
    build,
    cartesian_product,
    default_target,
)
from .oracles import (
    ExactSpectrum,
    complete_success,
    decimation_identity_residuals,
    dsg_exact_spectrum,
    dsg_zeta_closed,
    dsg_zeta_direct,
)
from .spectra import (
    SpectralSums,
    fit_alpha,
    laplacian_decomposition,
    spectral_sums,
    target_measure,
)

__version__ = "0.1.0"

__all__ = [
    "DEFAULT_DENSE_GUARD",
    "ConfigError",
    "CtqwError",
    "DenseGuardError",
    "NoTransitionError",
    "NumericalError",
    "dense_guard",
    "Family",
    "Graph",
    "GraphSpec",
    "build",
    "cartesian_product",
    "default_target",
    "ExactSpectrum",
    "complete_success",
    "decimation_identity_residuals",
    "dsg_exact_spectrum",
    "dsg_zeta_closed",
    "dsg_zeta_direct",
    "SpectralSums",
    "fit_alpha",
    "laplacian_decomposition",
    "spectral_sums",
    "target_measure",
    "BoundReport",
    "CriticalGamma",
    "GammaMaxResult",
    "OverlapRecord",
    "SearchProblem",
    "SuccessGrid",
    "critical_gamma",
    "default_time_grid",
    "gamma_max_search",
    "measure_overlaps",
    "oscillation_period",
    "overlaps",
    "propagate_krylov",
    "success_grid",
    "success_probability",
    "verify_bounds",
    "ScalingFit",
    "ScalingModel",
    "exponent_prediction",
    "fit_scaling",
    "__version__",
]

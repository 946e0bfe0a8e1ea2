"""Entropy, subentropy, and the spectral averages interpolating between them.

The library works in nats throughout.  Spectra are validated probability
vectors sorted in descending order; density matrices are diagonalized with
a self-contained Jacobi routine.  One engine evaluates every order at any
dimension; its values are cross-checkable against three independent oracles
(contour quadrature, simplex Monte Carlo, Haar averaging) and a set of
executable property suites.
"""

from .coefficients import binomial_weights, restricted_weights
from .entropy import (
    EntropyReport,
    divided_difference,
    entropy_report,
    interpolated_entropy,
    intermediate_entropies,
    intermediate_entropy,
    max_intermediate_entropy,
    pad_intermediate_entropies,
    subentropy,
    von_neumann_entropy,
)
from .errors import (
    AlphaOutOfRangeError,
    DegenerateContourError,
    EmptyMatrixError,
    InvalidIndexError,
    InvalidRError,
    NoConvergenceError,
    NotHermitianError,
    NotPSDError,
    SubentropyError,
    TooFewSamplesError,
    TraceNotOneError,
    ValidationError,
)
from .oracles import (
    ContourConfig,
    OracleEstimate,
    contour_intermediate_entropy,
    contour_interpolated_entropy,
    elementary_symmetric,
    haar_average_information,
    haar_information_samples,
    haar_random_unitaries,
    simplex_monte_carlo,
)
from .spectra import (
    DensityMatrix,
    Spectrum,
    as_spectrum,
    pad_with_zeros,
    tensor_spectrum,
    validate_density_matrix,
)
from .verify import (
    PropertyVerdict,
    check_coefficient_recursion,
    check_concavity,
    check_inequality_chain,
    check_invariance,
    check_invariance_control,
    check_oracle_agreement,
    check_pure_additivity,
    run_suites,
)

__version__ = "0.1.0"

__all__ = [
    "AlphaOutOfRangeError",
    "ContourConfig",
    "DegenerateContourError",
    "DensityMatrix",
    "EmptyMatrixError",
    "EntropyReport",
    "InvalidIndexError",
    "InvalidRError",
    "NoConvergenceError",
    "NotHermitianError",
    "NotPSDError",
    "OracleEstimate",
    "PropertyVerdict",
    "Spectrum",
    "SubentropyError",
    "TooFewSamplesError",
    "TraceNotOneError",
    "ValidationError",
    "as_spectrum",
    "binomial_weights",
    "check_coefficient_recursion",
    "check_concavity",
    "check_inequality_chain",
    "check_invariance",
    "check_invariance_control",
    "check_oracle_agreement",
    "check_pure_additivity",
    "contour_intermediate_entropy",
    "contour_interpolated_entropy",
    "divided_difference",
    "elementary_symmetric",
    "entropy_report",
    "haar_average_information",
    "haar_information_samples",
    "haar_random_unitaries",
    "intermediate_entropies",
    "intermediate_entropy",
    "interpolated_entropy",
    "max_intermediate_entropy",
    "pad_intermediate_entropies",
    "pad_with_zeros",
    "restricted_weights",
    "run_suites",
    "simplex_monte_carlo",
    "subentropy",
    "tensor_spectrum",
    "validate_density_matrix",
    "von_neumann_entropy",
]

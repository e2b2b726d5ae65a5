"""Metric operators for quasi-Hermitian Hamiltonians.

Given a diagonalizable matrix with real spectrum, this package constructs
a positive-definite metric eta = T†T from the left eigenvectors, the
Hermitian equivalent h = rho·H·rho⁻¹ with rho = sqrt(eta), and the full
family of metrics eta' = rho·S·rho parametrized by positive symmetry
generators S of h. Every claimed operator identity is checked numerically
and reported as a named residual.
"""

from .errors import (
    ComplexSpectrum,
    IllConditioned,
    InvalidModelParameters,
    NonDiagonalizable,
    NotHermitian,
    NotPositiveDefinite,
    ParseError,
    QuasiHermError,
    ResidualExceeded,
    SingularTransform,
)
from .linalg import Tolerances
from .matrixio import load_matrix, save_matrix
from .metric import full_pipeline, hermitian_equivalent, metric_from_T
from .models import ModelSpec, build_model, random_diagonalizable, swanson, two_level
from .report import VerificationReport, run_analyze, run_family, run_spectrum
from .spectral import cluster_degeneracies, eig_decompose
from .symmetry import (
    commutant_basis,
    intertwiner_from_metrics,
    metric_from_symmetry,
    sample_positive_symmetry,
)

__version__ = "0.1.0"

# The entry points; kernels and result types are imported from their
# modules (quasiherm.linalg, quasiherm.metric, quasiherm.symmetry, ...).
__all__ = [
    "QuasiHermError",
    "NotHermitian",
    "NotPositiveDefinite",
    "SingularTransform",
    "IllConditioned",
    "ComplexSpectrum",
    "NonDiagonalizable",
    "ResidualExceeded",
    "InvalidModelParameters",
    "ParseError",
    "Tolerances",
    "eig_decompose",
    "cluster_degeneracies",
    "metric_from_T",
    "hermitian_equivalent",
    "full_pipeline",
    "commutant_basis",
    "sample_positive_symmetry",
    "metric_from_symmetry",
    "intertwiner_from_metrics",
    "ModelSpec",
    "two_level",
    "swanson",
    "random_diagonalizable",
    "build_model",
    "load_matrix",
    "save_matrix",
    "VerificationReport",
    "run_analyze",
    "run_family",
    "run_spectrum",
    "__version__",
]

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
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    as_matrix,
    frobenius_norm,
    haar_unitary,
    hermitian_eig,
    hermitian_part,
    hermiticity_defect,
    hermitize,
    polar_decompose,
)
from .matrixio import load_matrix, matrix_from_payload, matrix_to_payload, save_matrix
from .metric import (
    EquivalencePair,
    MetricOperator,
    full_pipeline,
    hermitian_equivalent,
    metric_from_T,
    verify_pseudo_hermitian,
)
from .models import (
    ModelSpec,
    build_model,
    random_diagonalizable,
    swanson,
    two_level,
)
from .report import (
    FamilyMemberSummary,
    VerificationReport,
    run_analyze,
    run_family,
    run_spectrum,
)
from .spectral import SpectralData, cluster_degeneracies, eig_decompose
from .symmetry import (
    FAMILY_IDENTITIES,
    CommutantBasis,
    MetricFamilyMember,
    SymmetryGenerator,
    commutant_basis,
    intertwiner_from_metrics,
    metric_from_symmetry,
    sample_positive_symmetry,
    symmetry_from_coefficients,
)

__version__ = "0.1.0"

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
    "DEFAULT_TOLERANCES",
    "as_matrix",
    "frobenius_norm",
    "hermitian_part",
    "hermiticity_defect",
    "hermitize",
    "hermitian_eig",
    "polar_decompose",
    "haar_unitary",
    "SpectralData",
    "cluster_degeneracies",
    "eig_decompose",
    "MetricOperator",
    "EquivalencePair",
    "verify_pseudo_hermitian",
    "metric_from_T",
    "hermitian_equivalent",
    "full_pipeline",
    "CommutantBasis",
    "SymmetryGenerator",
    "MetricFamilyMember",
    "FAMILY_IDENTITIES",
    "commutant_basis",
    "symmetry_from_coefficients",
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
    "matrix_to_payload",
    "matrix_from_payload",
    "VerificationReport",
    "FamilyMemberSummary",
    "run_analyze",
    "run_family",
    "run_spectrum",
    "__version__",
]

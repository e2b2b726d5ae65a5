"""Dense complex matrix kernels.

Arithmetic, norms, Hermitian eigendecomposition, positive-definite square
root, polar decomposition and linear solves, all on square complex128
arrays. These are the primitives everything else in the package composes;
matrix square roots and the polar factorization go through the Hermitian
eigendecomposition (deterministic, adequate at desk scale) rather than
iterative schemes.

All residual checks are relative to operand norms; a matrix whose Frobenius
norm is below ``ZERO_NORM_FLOOR`` is treated as zero and checked absolutely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, NotHermitian, NotPositiveDefinite, SingularTransform

# Frobenius norms below this are indistinguishable from zero in double precision.
ZERO_NORM_FLOOR = 1e-300


@dataclass(frozen=True)
class Tolerances:
    """Numerical gates shared across the pipeline.

    spectral_reality_tol
        Relative bound on |Im lambda| for an eigenvalue to count as real.
    residual_tol
        Relative bound on every certified operator-identity residual.
    degeneracy_cluster_tol
        Relative eigenvalue gap below which two eigenvalues share a cluster.
    positivity_floor
        Relative eigenvalue / singular-value floor for "positive definite"
        and "invertible".
    condition_cap
        Largest acceptable condition-number estimate.
    """

    spectral_reality_tol: float = 1e-9
    residual_tol: float = 1e-8
    degeneracy_cluster_tol: float = 1e-7
    positivity_floor: float = 1e-10
    condition_cap: float = 1e8

    def __post_init__(self):
        for name in (
            "spectral_reality_tol",
            "residual_tol",
            "degeneracy_cluster_tol",
            "positivity_floor",
            "condition_cap",
        ):
            value = getattr(self, name)
            if not (np.isfinite(value) and value > 0):
                raise ValueError(f"{name} must be finite and strictly positive")
        if self.condition_cap <= 1:
            raise ValueError("condition_cap must exceed 1")


DEFAULT_TOLERANCES = Tolerances()


def as_matrix(M) -> np.ndarray:
    """Coerce to a square complex128 matrix, validating shape and finiteness."""
    A = np.asarray(M, dtype=np.complex128)
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        raise ValueError("matrix must have positive dimension")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise ValueError("matrix entries must be finite")
    return A


def frobenius_norm(M) -> float:
    """Frobenius norm sqrt(sum |entries|^2)."""
    return float(np.linalg.norm(np.asarray(M)))


def hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M†)/2, no tolerance gate."""
    return (M + M.conj().T) / 2


def hermiticity_defect(M: np.ndarray) -> float:
    """Relative asymmetry ||M - M†|| / ||M|| (absolute for ~zero M)."""
    nrm = frobenius_norm(M)
    defect = frobenius_norm(M - M.conj().T)
    return defect if nrm <= ZERO_NORM_FLOOR else defect / nrm


def hermitize(M, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Return (M + M†)/2 provided M is Hermitian within ``residual_tol``.

    Suppresses roundoff drift without masking genuine asymmetry: beyond
    the gate this is a hard :class:`NotHermitian` error.
    """
    A = as_matrix(M)
    defect = hermiticity_defect(A)
    if defect > tol.residual_tol:
        raise NotHermitian(f"relative asymmetry {defect:.3e} exceeds {tol.residual_tol:.3e}")
    return hermitian_part(A)


def hermitian_eig(M, tol: Tolerances = DEFAULT_TOLERANCES):
    """Eigendecomposition of a (tolerantly) Hermitian matrix.

    Returns ``(eigenvalues, V)`` with real eigenvalues ascending and
    unitary ``V`` whose columns are the eigenvectors.
    """
    A = hermitize(M, tol)
    eigenvalues, V = np.linalg.eigh(A)
    return eigenvalues, V


def sqrt_pd(M, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Unique positive square root of a Hermitian positive-definite matrix."""
    return sqrt_pd_eig(M, tol)[0]


def sqrt_pd_eig(M, tol: Tolerances = DEFAULT_TOLERANCES) -> tuple[np.ndarray, np.ndarray]:
    """:func:`sqrt_pd` together with the ascending eigenvalues of M it was built from."""
    eigenvalues, V = hermitian_eig(M, tol)
    floor = tol.positivity_floor * max(frobenius_norm(M), ZERO_NORM_FLOOR)
    if eigenvalues[0] <= floor:
        raise NotPositiveDefinite(
            f"smallest eigenvalue {eigenvalues[0]:.3e} at or below floor {floor:.3e}"
        )
    root = (V * np.sqrt(eigenvalues)) @ V.conj().T
    return hermitian_part(root), eigenvalues


def gate_condition(smax: float, smin: float, tol: Tolerances = DEFAULT_TOLERANCES) -> None:
    """Gate the condition number smax/smin of a matrix about to be inverted.

    Raises :class:`SingularTransform` when the smallest singular value is at
    roundoff relative to the largest and :class:`IllConditioned` beyond
    ``condition_cap``.
    """
    eps = np.finfo(np.float64).eps
    if smin <= ZERO_NORM_FLOOR or smin <= eps * smax:
        raise SingularTransform(
            f"smallest singular value {smin:.3e} is at roundoff relative to {smax:.3e}"
        )
    cond = smax / smin
    if cond > tol.condition_cap:
        raise IllConditioned(f"condition estimate {cond:.3e} exceeds cap {tol.condition_cap:.3e}")


def solve(M, rhs, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Solve M X = rhs with singularity and conditioning gates.

    Realizes every inverse application in the pipeline without forming an
    explicit inverse. ``rhs`` may be a vector or a matrix.
    """
    A = as_matrix(M)
    b = np.asarray(rhs, dtype=np.complex128)
    if b.shape[0] != A.shape[0]:
        raise ValueError(f"rhs leading dimension {b.shape[0]} != matrix dim {A.shape[0]}")
    singular_values = np.linalg.svd(A, compute_uv=False)
    gate_condition(singular_values[0], singular_values[-1], tol)
    return np.linalg.solve(A, b)


def solve_right(M, lhs, tol: Tolerances = DEFAULT_TOLERANCES) -> np.ndarray:
    """Return lhs · M⁻¹ by solving X M = lhs (no explicit inverse)."""
    A = as_matrix(M)
    return solve(A.conj().T, np.asarray(lhs, dtype=np.complex128).conj().T, tol).conj().T


def polar_decompose(T, tol: Tolerances = DEFAULT_TOLERANCES):
    """Polar decomposition T = U·rho of an invertible matrix.

    ``rho = sqrt(T†T)`` is Hermitian positive-definite and ``U`` is unitary.
    Raises :class:`SingularTransform` when T is numerically singular.
    """
    A = as_matrix(T)
    singular_values = np.linalg.svd(A, compute_uv=False)
    if singular_values[-1] <= tol.positivity_floor * max(frobenius_norm(A), ZERO_NORM_FLOOR):
        raise SingularTransform(
            f"smallest singular value {singular_values[-1]:.3e} below invertibility floor"
        )
    rho = sqrt_pd(hermitian_part(A.conj().T @ A), tol)
    # U = T rho^{-1} = (rho^{-1} T†)† since rho is Hermitian
    U = np.linalg.solve(rho, A.conj().T).conj().T
    return U, rho


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random n×n unitary (QR of a complex Ginibre draw)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    # fix the QR phase ambiguity so the distribution is exactly Haar
    return q * (diag / np.abs(diag))

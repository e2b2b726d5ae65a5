"""Dense complex matrix kernels.

Arithmetic, norms and the gated SVD, all on square complex128 arrays.
These are the primitives everything else in the package composes. Every
metric comes from one SVD of its factor M = W·Σ·V† (:func:`gated_svd`):
the metric V·Σ²·V†, its root V·Σ·V†, the root's inverse V·Σ⁻¹·V† and the
polar unitary W·V† (:func:`~quasiherm.metric.metric_from_T`), so no
inverse is applied through a linear solve. Each Hermitian factor is made
Hermitian bit for bit (:func:`hermitian_from_basis`), which lets a
commutator with it be read off one product P as P − P†.

All residual checks are relative to operand norms; a matrix whose Frobenius
norm is below ``ZERO_NORM_FLOOR`` is treated as zero and checked absolutely.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import IllConditioned, ParseError, SingularTransform

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
        Floor on the smallest singular value, relative to the Frobenius
        norm, below which a matrix counts as singular.
    condition_cap
        Largest acceptable condition number σ_max/σ_min.

    ``positivity_floor`` and ``condition_cap`` act on the singular values
    of the factor being rooted or inverted (``T``, ``sigma·rho``, ``rho``,
    ``sigma``), never on its square ``eta``: a factor within both gates
    yields a metric, its root and the root's inverse, although the
    condition number of ``eta`` itself may reach the cap squared.
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
    """Frobenius norm sqrt(sum |entries|^2); ParseError if it overflows, as x/inf reads 0."""
    with np.errstate(over="ignore"):  # an overflow is refused, not warned about
        norm = float(np.linalg.norm(M))
        if norm == np.inf:
            raise ParseError(f"a Frobenius norm overflows (max |entry| {np.abs(M).max():.3e})")
    return norm


def hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M†)/2, no tolerance gate."""
    return (M + M.conj().T) / 2


def relative_residual(numerator: float, denominator: float) -> float:
    """numerator / denominator, or the numerator itself for a ~zero denominator."""
    return numerator if denominator <= ZERO_NORM_FLOOR else numerator / denominator


def adjoint_defect(P: np.ndarray) -> float:
    """||P - P†||_F.

    For X equal to its adjoint bit for bit, Y†·X = (X·Y)†, so a residual
    ||Y†·X − X·Y|| is this defect of the one product P = X·Y.
    """
    return frobenius_norm(P - P.conj().T)


def hermiticity_defect(M: np.ndarray) -> float:
    """Relative asymmetry ||M - M†|| / ||M|| (absolute for ~zero M)."""
    return relative_residual(adjoint_defect(M), frobenius_norm(M))


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


def gated_svd(M, tol: Tolerances = DEFAULT_TOLERANCES):
    """SVD ``M = W·Σ·V†`` of an invertible M, as ``(W, singular_values, V†)``.

    The singular values, descending, are gated once:
    :class:`SingularTransform` at or below ``positivity_floor·‖M‖_F`` or at
    roundoff relative to σ_max, and :class:`IllConditioned` beyond
    ``condition_cap``.
    """
    A = as_matrix(M)
    W, s, Vh = np.linalg.svd(A)
    floor = tol.positivity_floor * max(float(np.linalg.norm(s)), ZERO_NORM_FLOOR)
    if s[-1] <= floor:
        raise SingularTransform(
            f"smallest singular value {s[-1]:.3e} at or below floor {floor:.3e}"
        )
    gate_condition(s[0], s[-1], tol)
    return W, s, Vh


def hermitian_from_basis(Vh: np.ndarray, d: np.ndarray) -> np.ndarray:
    """V·diag(d)·V† for V = Vh† and real d, Hermitian bit for bit."""
    VD = Vh.conj().T
    VD *= d
    P = VD @ Vh
    # hermitian_part in place: two n×n temporaries fewer per product
    P += P.conj().T
    P /= 2
    return P


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random n×n unitary (QR of a complex Ginibre draw)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    # fix the QR phase ambiguity so the distribution is exactly Haar
    return q * (diag / np.abs(diag))

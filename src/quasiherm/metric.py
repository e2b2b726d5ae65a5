"""Metric operators and the equivalent Hermitian Hamiltonian.

The existence construction: diagonalize H with row transform T, set
``eta = T†T`` (Hermitian positive-definite), ``rho = sqrt(eta)``, and
``h = rho · H · rho⁻¹`` is Hermitian and isospectral with H. One SVD of T
gives eta, rho, rho⁻¹ and the polar unitary U of ``T = U·rho``, with
``h = U†·H_d·U`` (see :func:`~quasiherm.linalg.polar_decompose`); h is
then formed by products.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitianEquivalent, ResidualExceeded
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    as_matrix,
    frobenius_norm,
    hermitian_part,
    hermiticity_defect,
    polar_decompose,
    relative_residual,
)
from .spectral import SpectralData, eig_decompose


@dataclass
class MetricOperator:
    """Positive-definite metric ``eta`` with its positive square root ``rho``.

    ``rho_inv`` is rho⁻¹ and ``unitary`` the polar unitary X of the factor
    M = X·rho the metric was built from (``eta = M†M``).
    ``pseudo_hermiticity_residual`` is the certified ``H†eta - eta H``
    residual against the generating Hamiltonian (None when the metric was
    built without one).
    """

    eta: np.ndarray
    rho: np.ndarray
    rho_inv: np.ndarray
    unitary: np.ndarray
    min_eigenvalue: float
    pseudo_hermiticity_residual: float | None = None

    @property
    def dim(self) -> int:
        return self.eta.shape[0]


@dataclass
class EquivalencePair:
    """A Hamiltonian H together with its Hermitian equivalent h = rho·H·rho⁻¹."""

    H: np.ndarray
    h: np.ndarray
    metric: MetricOperator
    U: np.ndarray
    similarity_residual: float
    spectral: SpectralData | None = None


def verify_pseudo_hermitian(H, eta) -> float:
    """Relative residual ||H†·eta - eta·H|| / (||eta||·||H||).

    Zero (to roundoff) exactly when eta renders H pseudo-Hermitian. Purely
    diagnostic: never raises.
    """
    A = as_matrix(H)
    E = as_matrix(eta)
    return relative_residual(
        frobenius_norm(A.conj().T @ E - E @ A), frobenius_norm(E) * frobenius_norm(A)
    )


def metric_from_T(T, tol: Tolerances = DEFAULT_TOLERANCES, H=None) -> MetricOperator:
    """Metric ``eta = T†T`` for the row transform T, with ``rho = sqrt(eta)``.

    eta, rho, rho⁻¹ and the polar unitary come from one SVD of T, whose
    singular values are gated (:func:`~quasiherm.linalg.polar_decompose`),
    not those of the squared eta. When the
    generating Hamiltonian is supplied, its pseudo-Hermiticity residual is
    certified against ``residual_tol``.
    """
    X, rho, rho_inv, eta, singular_values = polar_decompose(T, tol)

    pseudo = None
    if H is not None:
        pseudo = verify_pseudo_hermitian(H, eta)
        if pseudo > tol.residual_tol:
            raise ResidualExceeded("ph", pseudo, tol.residual_tol)

    return MetricOperator(
        eta=eta,
        rho=rho,
        rho_inv=rho_inv,
        unitary=X,
        min_eigenvalue=float(singular_values[-1] ** 2),
        pseudo_hermiticity_residual=pseudo,
    )


def hermitian_equivalent(
    H,
    metric: MetricOperator,
    tol: Tolerances = DEFAULT_TOLERANCES,
    certified_spectrum=None,
) -> EquivalencePair:
    """Hermitian equivalent ``h = rho·H·rho⁻¹`` of H under a certified metric.

    h is symmetrized only after passing the Hermiticity gate; a failure
    signals an invalid metric upstream (:class:`NotHermitianEquivalent`).
    U is the metric's polar unitary, and when the certified spectrum is
    supplied the isospectrality of h is checked.
    """
    A = as_matrix(H)
    rho = metric.rho
    rho_H = rho @ A
    h_raw = rho_H @ metric.rho_inv

    defect = hermiticity_defect(h_raw)
    if defect > tol.residual_tol:
        raise NotHermitianEquivalent(
            f"rho·H·rho⁻¹ has relative asymmetry {defect:.3e}; the metric does not "
            "render H quasi-Hermitian at this tolerance"
        )
    h = hermitian_part(h_raw)

    norm_H = frobenius_norm(A)
    similarity_residual = relative_residual(
        frobenius_norm(rho_H - h @ rho), frobenius_norm(rho) * norm_H
    )
    if similarity_residual > tol.residual_tol:
        raise ResidualExceeded("H=H", similarity_residual, tol.residual_tol)

    if certified_spectrum is not None:
        expected = np.sort(np.asarray(certified_spectrum, dtype=np.float64))
        got = np.linalg.eigvalsh(h)
        drift = float(np.max(np.abs(got - expected)))
        if drift > tol.residual_tol * max(norm_H, 1.0):
            raise ResidualExceeded("isospectrality", drift, tol.residual_tol * max(norm_H, 1.0))

    return EquivalencePair(
        H=A,
        h=h,
        metric=metric,
        U=metric.unitary,
        similarity_residual=similarity_residual,
    )


def full_pipeline(H, tol: Tolerances = DEFAULT_TOLERANCES) -> EquivalencePair:
    """Existence construction end to end: H -> (T, H_d) -> eta, rho -> h.

    Composes :func:`eig_decompose`, :func:`metric_from_T` and
    :func:`hermitian_equivalent`, retaining every intermediate certificate
    on the returned pair. Propagates ComplexSpectrum / NonDiagonalizable
    from the spectral stage.
    """
    A = as_matrix(H)
    spectral = eig_decompose(A, tol)
    metric = metric_from_T(spectral.T, tol, H=A)
    pair = hermitian_equivalent(
        A, metric, tol, certified_spectrum=spectral.real_eigenvalues
    )
    pair.spectral = spectral
    return pair

"""Metric operators and the equivalent Hermitian Hamiltonian.

The existence construction: diagonalize H with row transform T, set
``eta = T†T`` (Hermitian positive-definite), ``rho = sqrt(eta)``, and
``h = rho · H · rho⁻¹`` is Hermitian and isospectral with H. One SVD of T
gives eta, rho, rho⁻¹ and the polar unitary U of ``T = U·rho``
(see :func:`~quasiherm.linalg.polar_decompose`). Since ``T·H = H_d·T``,
``rho·H·rho⁻¹ = U†·H_d·U``, and h is built that way: Hermitian and
isospectral with ``H_d`` by construction, certified by the similarity
residual ``rho·H = h·rho``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ResidualExceeded
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    as_matrix,
    frobenius_norm,
    hermitian_part,
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
    K,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> EquivalencePair:
    """Hermitian equivalent ``h = rho·H·rho⁻¹``, built as ``h = X†·K·X``.

    K is the Hermitian matrix that the metric's factor M = X·rho
    intertwines H with, M·H = K·M: ``H_d`` for M = T, the generator's h for
    M = sigma·rho. Then rho·H·rho⁻¹ = X†·K·X, Hermitian and isospectral
    with K by construction. The similarity ``rho·H = h·rho`` is certified
    (``H=H``); it fails when X is not unitary or K is not intertwined.
    U is the metric's polar unitary X.
    """
    A = as_matrix(H)
    X = metric.unitary
    h = hermitian_part(X.conj().T @ as_matrix(K) @ X)

    rho = metric.rho
    similarity_residual = relative_residual(
        frobenius_norm(rho @ A - h @ rho), frobenius_norm(rho) * frobenius_norm(A)
    )
    if similarity_residual > tol.residual_tol:
        raise ResidualExceeded("H=H", similarity_residual, tol.residual_tol)

    return EquivalencePair(
        H=A,
        h=h,
        metric=metric,
        U=X,
        similarity_residual=similarity_residual,
    )


def full_pipeline(H, tol: Tolerances = DEFAULT_TOLERANCES) -> EquivalencePair:
    """Existence construction end to end: H -> (T, H_d) -> eta, rho -> h.

    Composes :func:`eig_decompose`, :func:`metric_from_T` and
    :func:`hermitian_equivalent`, retaining every intermediate certificate
    on the returned pair. Propagates ComplexSpectrum, NonDiagonalizable and
    ResidualExceeded (``eig``) from the spectral stage.
    """
    A = as_matrix(H)
    spectral = eig_decompose(A, tol)
    metric = metric_from_T(spectral.T, tol, H=A)
    pair = hermitian_equivalent(A, metric, spectral.H_d, tol)
    pair.spectral = spectral
    return pair

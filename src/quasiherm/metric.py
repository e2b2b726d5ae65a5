"""Metric operators and the equivalent Hermitian Hamiltonian.

The existence construction: diagonalize H with row transform T, set
``eta = T†T`` (Hermitian positive-definite), ``rho = sqrt(eta)``, and
``h = rho · H · rho⁻¹`` is Hermitian and isospectral with H. The metric
is T's one SVD, from which eta, rho, rho⁻¹ and the polar unitary U of
``T = U·rho`` come (:func:`~quasiherm.spectral.metric_from_T`, importable here
too); in the pipeline it is the spectral stage's call, which gates ``cond(T)`` once.
Since ``T·H = H_d·T``, ``rho·H·rho⁻¹ = U†·H_d·U``, and h is built that
way, as X†·K·X with K = ``H_d`` as a matrix (:func:`hermitian_equivalent`,
each family member's h' too): Hermitian and isospectral with ``H_d`` by
construction, certified by the similarity residual ``rho·H = h·rho``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    adjoint_defect,
    as_matrix,
    frobenius_norm,
    gate_residual,
    hermitian_part,
    relative_residual,
)
from .spectral import MetricOperator, SpectralData, eig_decompose, metric_from_T  # noqa: F401


@dataclass
class EquivalencePair:
    """The Hermitian equivalent h = rho·H·rho⁻¹ of a Hamiltonian H."""

    h: np.ndarray
    metric: MetricOperator
    similarity_residual: float
    spectral: SpectralData | None = None


def verify_pseudo_hermitian(H, eta) -> float:
    """Relative residual ||H†·eta - eta·H|| / (||eta||·||H||).

    Zero (to roundoff) exactly when eta renders H pseudo-Hermitian; for a
    Hermitian h and an S, exactly when S commutes with h, so it is each
    ``sym`` check too. Purely diagnostic: gates nothing. For an eta that
    equals its adjoint exactly, as every metric and generator built here
    does, H†·eta = (eta·H)†, so the residual is read off the one product
    P = eta·H as ||P† − P||; any other eta takes both products.
    """
    A = as_matrix(H)
    E = as_matrix(eta)
    if np.array_equal(E, E.conj().T):
        defect = adjoint_defect(E @ A)
    else:
        defect = frobenius_norm(A.conj().T @ E - E @ A)
    return relative_residual(defect, frobenius_norm(E) * frobenius_norm(A))


def hermitian_equivalent(
    H,
    metric: MetricOperator,
    K,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> EquivalencePair:
    """Hermitian equivalent ``h = rho·H·rho⁻¹``, built as ``h = X†·K·X``.

    K is the Hermitian matrix that the metric's factor M = X·rho
    intertwines H with, M·H = K·M, taking :func:`~quasiherm.linalg.as_matrix`'s
    rule: ``H_d`` for M = T, the generator's h for M = sigma·rho. Then
    rho·H·rho⁻¹ = X†·K·X, Hermitian and isospectral with K by construction.
    The similarity ``rho·H = h·rho`` is certified (``H=H``); it fails when
    X is not unitary or K is not intertwined.
    """
    A = as_matrix(H)
    X = metric.unitary
    h = hermitian_part(X.conj().T @ as_matrix(K) @ X)

    rho = metric.rho
    similarity_residual = relative_residual(
        frobenius_norm(rho @ A - h @ rho), frobenius_norm(rho) * frobenius_norm(A)
    )
    return EquivalencePair(h, metric, gate_residual("H=H", similarity_residual, tol))


def full_pipeline(H, tol: Tolerances = DEFAULT_TOLERANCES) -> EquivalencePair:
    """Existence construction end to end: H -> (T, H_d) -> eta, rho -> h.

    Composes :func:`~quasiherm.spectral.eig_decompose`, whose SVD of T is
    the pair's metric (``spectral.metric``), and :func:`hermitian_equivalent`,
    retaining every intermediate certificate on the returned pair. It holds H, so it
    certifies the metric's pseudo-Hermiticity (``ph``) before ``H=H``. T's
    condition gate runs once, in the spectral stage, as NonDiagonalizable;
    it propagates with ComplexSpectrum and ResidualExceeded (``eig``).
    """
    A = as_matrix(H)
    spectral = eig_decompose(A, tol)
    metric = spectral.metric
    metric.pseudo_hermiticity_residual = verify_pseudo_hermitian(A, metric.eta)
    gate_residual("ph", metric.pseudo_hermiticity_residual, tol)
    pair = hermitian_equivalent(A, metric, np.diag(spectral.eigenvalues.real), tol)
    pair.spectral = spectral
    return pair

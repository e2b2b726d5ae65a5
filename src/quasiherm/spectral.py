"""Diagonalization of general matrices with real-spectrum certification.

Produces the row transform ``T`` with ``H = T⁻¹ · H_d · T``, ``H_d`` the
diagonal of the real eigenvalues: rows of T are left eigenvectors of H,
computed as right eigenvectors of H† and conjugated.
Every input, a Hermitian one included, takes this one ``eig`` route.
The downstream construction only needs *some* invertible diagonalizer, so a
fixed normalization convention picks one deterministically:

* eigenvalues sorted ascending by real part, then imaginary part;
* every row of T has unit Euclidean norm;
* rows belonging to one degeneracy cluster are orthonormalized among
  themselves.

Rescaling rows of T changes the metric T†T downstream, so this convention
fixes *which* metric the pipeline produces out of the whole family. Row
phases need none: for a diagonal unitary D, (D·T)†(D·T) = T†T, so the
metric, its root and the Hermitian equivalent do not depend on them.

One SVD of the normalized T gives its condition number, gated here, once,
as :class:`NonDiagonalizable`, and T's metric (``SpectralData.metric``, a
:class:`MetricOperator` held as that SVD): no later stage factorizes T again.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import (
    ComplexSpectrum,
    IllConditioned,
    NonDiagonalizable,
    ParseError,
    ResidualExceeded,
    SingularTransform,
)
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    as_matrix,
    frobenius_norm,
    gate_singular_values,
    hermitian_from_basis,
    relative_residual,
)

@dataclass
class MetricOperator:
    """The metric ``eta = M†M`` of a factor M = X·rho, held as M's one SVD.

    With M = W·Σ·V†, ``unitary`` is the polar unitary X = W·V†,
    ``singular_values`` Σ, descending, and ``right_vectors`` V†. ``eta`` =
    V·Σ²·V†, its root ``rho`` = V·Σ·V† and ``rho_inv`` = V·Σ⁻¹·V† are each
    formed on first read, so a metric whose inverse root nothing reads,
    such as a family member's, never forms it. ``pseudo_hermiticity_residual``,
    the ``H†eta - eta H`` residual against the generating Hamiltonian, is
    set by the stage that holds H, else None.
    """

    unitary: np.ndarray
    singular_values: np.ndarray
    right_vectors: np.ndarray = field(repr=False)
    pseudo_hermiticity_residual: float | None = None

    @cached_property
    def eta(self) -> np.ndarray:
        return hermitian_from_basis(self.right_vectors, self.singular_values**2)

    @cached_property
    def rho(self) -> np.ndarray:
        return hermitian_from_basis(self.right_vectors, self.singular_values)

    @cached_property
    def rho_inv(self) -> np.ndarray:
        return hermitian_from_basis(self.right_vectors, 1 / self.singular_values)


@dataclass
class SpectralData:
    """Certified eigendata of a diagonalizable matrix with real spectrum.

    ``eigenvalues`` are the raw (complex) eigenvalues after sorting, and
    ``T H = diag(eigenvalues.real) T`` holds within the residual tolerance
    (their imaginary parts have passed the reality gate). ``cond_T`` is the
    condition number of the normalized T. ``metric`` is T's metric, built
    from T's one SVD (None on eigendata that :func:`eig_decompose` did not
    produce).
    """

    eigenvalues: np.ndarray
    T: np.ndarray
    cond_T: float
    clusters: list[list[int]] = field(default_factory=list)
    metric: MetricOperator | None = field(default=None, repr=False)


def cluster_degeneracies(eigenvalues, tol: Tolerances = DEFAULT_TOLERANCES) -> list[list[int]]:
    """Partition ascending real eigenvalues into degeneracy clusters.

    Two eigenvalues share a cluster iff their gap is at most
    ``degeneracy_cluster_tol * max(spread, min(rho, 1))`` with
    ``rho = max|lambda|``, so below unit scale the bound follows the
    spectrum; the partition is the transitive closure of that relation,
    so on sorted input it reduces to walking adjacent gaps. A non-finite
    value is a ``ValueError``, and a spread of finite values that overflows
    float64 a :class:`ParseError`; below it no gap overflows.
    """
    values = np.real(np.asarray(eigenvalues)).astype(np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("expected a non-empty 1-d array of real eigenvalues")
    if not np.isfinite(values).all() or np.any(values[1:] < values[:-1]):
        raise ValueError("eigenvalues must be finite and ascending")
    # Python floats: an overflowing difference reads inf without a warning
    spread = float(values[-1]) - float(values[0])
    if spread == np.inf:
        raise ParseError(
            f"the eigenvalue spread overflows float64 ({values[0]:.3e} to {values[-1]:.3e})"
        )
    radius = float(np.abs(values).max())
    gap_tol = tol.degeneracy_cluster_tol * max(spread, min(radius, 1.0))
    clusters: list[list[int]] = [[0]]
    for i in range(1, values.size):
        if values[i] - values[i - 1] <= gap_tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def _gated_condition(s: np.ndarray, tol: Tolerances, rows: str) -> float:
    """s[0]/s[-1] of ``rows``; their factor gate's trip is :class:`NonDiagonalizable`."""
    with np.errstate(over="ignore", divide="ignore"):
        cond = float(s[0] / s[-1])
    try:
        gate_singular_values(s, tol)
    except (SingularTransform, IllConditioned) as exc:
        raise NonDiagonalizable(f"{rows} are numerically defective: {exc}", cond=cond) from exc
    return cond


def eig_decompose(H, tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralData:
    """Diagonalize H, certifying real spectrum and numerical diagonalizability.

    One ``eig`` of H† serves every input, Hermitian or not; a Hermitian
    H's rows come out orthonormal to roundoff, its metric the identity.
    Raises :class:`ComplexSpectrum` when any eigenvalue fails the reality
    gate ``|Im lambda| <= spectral_reality_tol * max(|lambda|, min(rho, 1))``
    with ``rho = max|lambda|``, and :class:`NonDiagonalizable` when the
    singular values of the normalized T (from the SVD that gives ``metric``)
    or, before a cluster's rows are orthonormalized, of the raw rows fail
    the factor gate. The certificate ``‖T·H − H_d·T‖_F / (‖H‖_F·‖T‖_F)``
    beyond ``residual_tol`` is a residual failure,
    :class:`ResidualExceeded` naming ``"eig"``.
    """
    A = as_matrix(H)
    # rows of T = left eigenvectors = conjugated right eigenvectors of H†
    w, V = np.linalg.eig(A.conj().T)
    eigenvalues = np.conj(w)
    T = V.conj().T

    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues = eigenvalues[order]
    T = T[order]

    magnitudes = np.abs(eigenvalues)
    scale = np.maximum(magnitudes, min(magnitudes.max(), 1.0))
    offenders = np.flatnonzero(np.abs(eigenvalues.imag) > tol.spectral_reality_tol * scale)
    if offenders.size:
        bad = [complex(eigenvalues[i]) for i in offenders]
        raise ComplexSpectrum(
            f"eigenvalue(s) fail the reality gate: {', '.join(f'{z:.6g}' for z in bad)}",
            eigenvalues=bad,
        )

    T = T / np.linalg.norm(T, axis=1, keepdims=True)
    clusters = cluster_degeneracies(eigenvalues.real, tol)
    merged = [np.asarray(cluster) for cluster in clusters if len(cluster) > 1]
    if merged:
        # Gate the raw rows *before* orthonormalization: a defective matrix
        # (Jordan block) produces nearly parallel rows that orthonormalization
        # would silently repair. With singleton clusters only, the normalized
        # T is the raw rows: same singular values.
        _gated_condition(np.linalg.svd(T, compute_uv=False), tol, "raw eigenvector rows")
    for idx in merged:
        q, _ = np.linalg.qr(T[idx].conj().T)
        T[idx] = q.conj().T

    W, s, Vh = np.linalg.svd(T)
    cond_T = _gated_condition(s, tol, "normalized transform rows")

    commutation = frobenius_norm(T @ A - eigenvalues.real[:, None] * T)
    relative = relative_residual(commutation, frobenius_norm(A) * frobenius_norm(T))
    if relative > tol.residual_tol:
        raise ResidualExceeded("eig", relative, tol.residual_tol)

    return SpectralData(
        eigenvalues=eigenvalues,
        T=T,
        cond_T=cond_T,
        clusters=clusters,
        metric=MetricOperator(W @ Vh, s, Vh),
    )

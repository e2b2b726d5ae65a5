"""Diagonalization of general matrices with real-spectrum certification.

Produces the row transform ``T`` with ``H = T⁻¹ · H_d · T``: rows of T are
left eigenvectors of H, computed as right eigenvectors of H† and conjugated.
The downstream construction only needs *some* invertible diagonalizer, so a
fixed normalization convention picks one deterministically:

* eigenvalues sorted ascending by real part, then imaginary part;
* every row of T has unit Euclidean norm;
* rows belonging to one degeneracy cluster are orthonormalized among
  themselves;
* the first non-negligible entry of each row is made real positive.

Rescaling rows of T changes the metric T†T downstream, so this convention
fixes *which* metric the pipeline produces out of the whole family.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import ComplexSpectrum, NonDiagonalizable, ResidualExceeded
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    as_matrix,
    frobenius_norm,
    hermitian_part,
    hermiticity_defect,
)

# Entries below this magnitude (in a unit-norm row) never anchor the phase
# convention; they may be pure roundoff with arbitrary sign.
PHASE_ANCHOR_FLOOR = 1e-10

# Inputs this close to Hermitian are routed through the Hermitian eigensolver,
# which returns exactly orthonormal eigenvectors (so T†T = I to roundoff).
HERMITIAN_ROUTE_TOL = 1e-13


@dataclass
class SpectralData:
    """Certified eigendata of a diagonalizable matrix with real spectrum.

    ``eigenvalues`` are the raw (complex) eigenvalues after sorting;
    ``H_d`` carries their certified real parts on the diagonal, and
    ``T H = H_d T`` holds within the residual tolerance. ``cond_T`` is the
    condition number of the normalized T (None only between
    :func:`diagonalize` and the SVD that supplies it).
    """

    eigenvalues: np.ndarray
    T: np.ndarray
    H_d: np.ndarray
    cond_T: float | None
    clusters: list[list[int]] = field(default_factory=list)

    @property
    def real_eigenvalues(self) -> np.ndarray:
        return np.real(np.diagonal(self.H_d)).copy()


def cluster_degeneracies(eigenvalues, tol: Tolerances = DEFAULT_TOLERANCES) -> list[list[int]]:
    """Partition ascending real eigenvalues into degeneracy clusters.

    Two eigenvalues share a cluster iff their gap is at most
    ``degeneracy_cluster_tol * max(spread, 1)``; the partition is the
    transitive closure of that relation, so on sorted input it reduces to
    walking adjacent gaps.
    """
    values = np.real(np.asarray(eigenvalues)).astype(np.float64)
    if values.ndim != 1 or values.size == 0:
        raise ValueError("expected a non-empty 1-d array of real eigenvalues")
    if np.any(np.diff(values) < 0):
        raise ValueError("eigenvalues must be ascending")
    spread = float(values[-1] - values[0])
    gap_tol = tol.degeneracy_cluster_tol * max(spread, 1.0)
    clusters: list[list[int]] = [[0]]
    for i in range(1, values.size):
        if values[i] - values[i - 1] <= gap_tol:
            clusters[-1].append(i)
        else:
            clusters.append([i])
    return clusters


def _fix_row_phases(T: np.ndarray) -> np.ndarray:
    """Rotate each (unit-norm) row so its first non-negligible entry is real positive."""
    out = T.copy()
    for i in range(out.shape[0]):
        above = np.flatnonzero(np.abs(out[i]) > PHASE_ANCHOR_FLOOR)
        anchor = out[i, above[0]] if above.size else out[i, np.argmax(np.abs(out[i]))]
        out[i] *= np.abs(anchor) / anchor
    return out


def _condition(M: np.ndarray) -> float:
    s = np.linalg.svd(M, compute_uv=False)
    if s[-1] <= 0 or not np.isfinite(s[-1]):
        return np.inf
    return float(s[0] / s[-1])


def eig_decompose(H, tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralData:
    """Diagonalize H, certifying real spectrum and numerical diagonalizability.

    Raises :class:`ComplexSpectrum` when any eigenvalue fails the reality
    gate ``|Im lambda| <= spectral_reality_tol * max(|lambda|, 1)`` and
    :class:`NonDiagonalizable` when the eigenvector matrix is defective
    (condition estimate beyond ``condition_cap``, before and after the
    normalization). The certificate ``‖T·H − H_d·T‖_F / (‖H‖_F·‖T‖_F)``
    beyond ``residual_tol`` is a residual failure,
    :class:`ResidualExceeded` naming ``"eig"``.
    """
    spectral = diagonalize(H, tol)
    if spectral.cond_T is None:
        cond_T = _condition(spectral.T)
        if cond_T > tol.condition_cap:
            raise NonDiagonalizable(
                f"normalized transform condition {cond_T:.3e} exceeds cap", cond=cond_T
            )
        spectral.cond_T = cond_T
    return spectral


def diagonalize(H, tol: Tolerances = DEFAULT_TOLERANCES) -> SpectralData:
    """:func:`eig_decompose` short of one condition number.

    With singleton clusters only, the normalized T is the raw eigenvector
    rows times a diagonal unitary, so ``cond_T`` is the raw rows' condition
    number, already computed for the defectiveness gate. When a cluster's
    rows were orthonormalized, ``cond_T`` is left None for the caller to
    take from an SVD of T that it makes anyway.
    """
    A = as_matrix(H)
    norm_H = frobenius_norm(A)

    if hermiticity_defect(A) <= HERMITIAN_ROUTE_TOL:
        # Hermitian input: eigh gives exactly orthonormal rows, making the
        # downstream metric the identity by convention.
        w, V = np.linalg.eigh(hermitian_part(A))
        eigenvalues = w.astype(np.complex128)
        T = V.conj().T
    else:
        # rows of T = left eigenvectors = conjugated right eigenvectors of H†
        w, V = np.linalg.eig(A.conj().T)
        eigenvalues = np.conj(w)
        T = V.conj().T

    order = np.lexsort((eigenvalues.imag, eigenvalues.real))
    eigenvalues = eigenvalues[order]
    T = T[order]

    scale = np.maximum(np.abs(eigenvalues), 1.0)
    offenders = np.flatnonzero(np.abs(eigenvalues.imag) > tol.spectral_reality_tol * scale)
    if offenders.size:
        bad = [complex(eigenvalues[i]) for i in offenders]
        raise ComplexSpectrum(
            f"eigenvalue(s) fail the reality gate: {', '.join(f'{z:.6g}' for z in bad)}",
            eigenvalues=bad,
        )

    T = T / np.linalg.norm(T, axis=1, keepdims=True)

    # Gate on the raw eigenvector matrix *before* any within-cluster
    # orthonormalization: a defective matrix (Jordan block) produces nearly
    # parallel rows that orthonormalization would silently repair.
    cond_raw = _condition(T)
    if cond_raw > tol.condition_cap:
        raise NonDiagonalizable(
            f"eigenvector condition estimate {cond_raw:.3e} exceeds cap "
            f"{tol.condition_cap:.3e}; matrix is numerically defective",
            cond=cond_raw,
        )

    clusters = cluster_degeneracies(eigenvalues.real, tol)
    cond_T = cond_raw
    for cluster in clusters:
        if len(cluster) > 1:
            idx = np.asarray(cluster)
            q, _ = np.linalg.qr(T[idx].conj().T)
            T[idx] = q.conj().T
            cond_T = None
    T = _fix_row_phases(T)

    H_d = np.diag(eigenvalues.real).astype(np.complex128)
    commutation = frobenius_norm(T @ A - eigenvalues.real[:, None] * T)
    relative = commutation / (max(norm_H, 1e-300) * frobenius_norm(T))
    if relative > tol.residual_tol:
        raise ResidualExceeded("eig", relative, tol.residual_tol)

    return SpectralData(
        eigenvalues=eigenvalues,
        T=T,
        H_d=H_d,
        cond_T=cond_T,
        clusters=clusters,
    )

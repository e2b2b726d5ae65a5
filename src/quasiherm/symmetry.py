"""Symmetry generators of h and the full metric-operator family.

Positive-definite operators S commuting with the Hermitian equivalent h
parametrize *all* metrics of H: every eta' = rho·S·rho is again a metric,
and conversely any second metric arises this way. The commutant of h is
spanned, block-wise in its eigenbasis, by Hermitian matrices supported on
the degeneracy clusters, so the positive commutant is exhausted by positive
coefficients per cluster plus intra-cluster unitary mixers: S = Q·diag(s)·Q†,
Q = W·blockdiag(V_k) for an eigenbasis W of h, with s in eigenvalue-index
order and V_k keyed by cluster index k (:func:`symmetry_from_coefficients`).

The commutant is therefore kept as an eigenbasis W of h, its eigenvalues
and the clusters, in O(n²) memory. The pipeline builds h = X†·H_d·X from
the polar unitary X of its metric, so W = X† and Λ = diag(H_d) are already
h's eigendata and are certified as they stand; :func:`commutant_basis` on a
bare h takes them from ``eigh``. Either way one certificate applies: one
product R = h·W − W·Λ and one unitarity check ‖W†W − I‖_F ≤ residual_tol,
which for square W equals the projector completeness ‖Σ_k P_k − I‖_F.
Cluster k, with eigenvectors W_k, eigenvalue spread δ_k and residual block
R_k, passes

    (δ_k + 2‖R_k‖_F) / ‖h‖_F ≤ residual_tol.      (sym[cluster k])

For every E = W_k·X·W_k† in that cluster's block of the commutant,

    [E, h] = W_k·[X, Λ_k]·W_k† + W_k·X·R_k† − R_k·X·W_k†,

and each entry of [X, Λ_k] is X_ij·(λ_j − λ_i) with |λ_j − λ_i| ≤ δ_k, so
‖[E, h]‖_F / (‖E‖_F·‖h‖_F) is at most the certificate, up to factors
1 + O(residual_tol) from the unitarity of W. The per-cluster bound thus
implies the commutator check on every element of the commutant.

For each family member the whole identity chain is verified numerically:

    eta'   = rho·S·rho                  (eta-form)
    h'     = A·h·A⁻¹,  A = rho'·rho⁻¹  (sim)
    [A†A, h] = 0                        (sym)
    eta'   = (A·rho)†(A·rho)            (eta-prime)
    A†     = rho⁻¹·A·rho               (A-ph)
    A      = U·sigma, U unitary         (A=US)
    B†     = sigma·B·sigma⁻¹, B = rho·U (B-ph)
    eta    = B·B†                       (eta=BB)
    eta'   = (sigma·rho)†(sigma·rho)    (eta-prime-3)

Each check is reported individually by name so a failure localizes.

Both directions of the theorem share one table of ``sim``, ``sym``,
``eta-prime`` and ``A-ph``: :func:`metric_from_symmetry` records it for
each member, and :func:`intertwiner_from_metrics` raises on it for the
A = rho'·rho⁻¹ of two certified metrics.

Four identities compare a product with its own adjoint, and are checked
from that one product P as ‖P − P†‖: the member's ``ph``
(H†·eta' = eta'·H, P = eta'·H), ``sym`` (P = A†A·h), ``A-ph``
(rho·A† = A·rho, P = A·rho) and the generator's ``sym`` (P = S·h). The
operands eta', rho, S, h and A†A are made Hermitian on construction, as
V·D·V† or (M + M†)/2, so each equals its adjoint bit for bit. For such
an X, H†·X = (X·H)† and X·Y = (Y·X)† hold exactly, so the one-product
residual is the two-product one. ``eta-prime`` reuses ``A-ph``'s A·rho:
(A·rho)†(A·rho) = rho·A†A·rho, compared with the eta' of the SVD, which
is a separate path.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from numbers import Real
from sys import float_info

import numpy as np

from .errors import NotHermitian, NotPositiveDefinite, ResidualExceeded
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    adjoint_defect,
    as_matrix,
    frobenius_norm,
    gate_singular_values,
    haar_unitary,
    hermitian_from_basis,
    hermitian_part,
    hermiticity_defect,
    relative_residual,
)
from .metric import MetricOperator, hermitian_equivalent, metric_from_T, verify_pseudo_hermitian

# Residuals attached to every family member, keyed by identity name.
FAMILY_IDENTITIES = (
    "ph",
    "H=H",
    "sim",
    "sym",
    "eta-prime",
    "A-ph",
    "A=US",
    "B-ph",
    "eta=BB",
    "eta-form",
    "eta-prime-3",
)


@dataclass
class CommutantBasis:
    """Hermitian commutant {X = X† : [X, h] = 0} of a Hermitian h.

    ``h`` equals its adjoint bit for bit. Stored in an eigenbasis of h
    (``eigenvectors``, with ``eigenvalues``): the commutant is every sum over
    clusters k of W_k·X_k·W_k†, X_k a Hermitian block of the cluster's size
    and W_k the cluster's columns of ``eigenvectors``. Each cluster has passed
    (spread_k + 2‖h·W_k − W_k·Λ_k‖_F) / ‖h‖_F ≤ residual_tol, which bounds
    ‖[E, h]‖ / (‖E‖·‖h‖) for every E in the cluster's block (see the module
    docstring), so every commutant element commutes with h within the
    tolerance. ``real_dimension``, the sum of squared cluster sizes, is the
    dimension of this certified approximate commutant: eigenvalues the
    cluster rule merges form one block, so ``two_level(5e-10, 5e-10, 1.0)``
    (gap 1e-9, one cluster of 2) counts 4, and ``two_level(1, 4, 0)`` 2.
    """

    h: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray
    clusters: list[list[int]]

    @property
    def real_dimension(self) -> int:
        return sum(len(c) ** 2 for c in self.clusters)


@dataclass
class SymmetryGenerator:
    """Positive-definite S with [S, h] = 0 and its positive square root.

    ``eigenvalues`` s and ``eigenvectors`` Q = W·blockdiag(V_k) hold the
    positive spectral values and intra-cluster unitary mixers V_k that
    assembled S, laid out over the whole space: cluster k's values are
    ``eigenvalues[cluster]`` and its columns W_k·V_k are
    ``eigenvectors[:, cluster]``. Together these parametrize the whole
    positive commutant. S = Q·diag(s)·Q†, sigma = ``sqrt`` =
    Q·diag(√s)·Q†, and ``h`` is the Hermitian equivalent the generator
    commutes with. ``symmetry_from_coefficients(cb, eigenvalues, mixers)``,
    ``mixers`` mapping each mixed cluster's index k to V_k, rebuilds it.
    """

    matrix: np.ndarray
    sqrt: np.ndarray
    h: np.ndarray
    eigenvalues: np.ndarray
    eigenvectors: np.ndarray


@dataclass
class MetricFamilyMember:
    """One metric eta' = rho·S·rho with the full verified operator chain.

    rho' is ``eta_prime.rho`` and the unitary factor U of A = U·sigma is
    ``eta_prime.unitary``†.
    """

    eta_prime: MetricOperator
    intertwiner: np.ndarray
    h_prime: np.ndarray
    residuals: dict[str, float]

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())


def _gated_hermitian(h, tol: Tolerances) -> np.ndarray:
    """Hermitian part of h; :class:`NotHermitian` beyond ``residual_tol`` asymmetry."""
    h = as_matrix(h)
    defect = hermiticity_defect(h)
    if defect > tol.residual_tol:
        raise NotHermitian(f"relative asymmetry {defect:.3e} exceeds {tol.residual_tol:.3e}")
    return hermitian_part(h)


def commutant_basis(h, clusters, tol: Tolerances = DEFAULT_TOLERANCES) -> CommutantBasis:
    """Hermitian commutant of h, organized by the given degeneracy clusters.

    Certifies the eigenbasis ``eigh`` gives for h (:func:`_certified_commutant`).
    Raises :class:`NotHermitian` when h's relative asymmetry exceeds
    ``residual_tol``; within it, h is replaced by its Hermitian part.
    """
    h_mat = _gated_hermitian(h, tol)
    eigenvalues, W = np.linalg.eigh(h_mat)
    return _certified_commutant(h_mat, eigenvalues, W, clusters, tol)


def _certified_commutant(h, eigenvalues, W, clusters, tol: Tolerances) -> CommutantBasis:
    """The commutant of a Hermitian h from an eigenbasis W with ascending
    ``eigenvalues``, certified: ‖W†W − I‖_F within ``residual_tol``
    (``projector completeness``) and, per cluster k, the bound on the
    commutator of every element of the cluster's block (``sym[cluster k]``).
    h must equal its adjoint bit for bit; it is kept, not copied.
    """
    n = h.shape[0]
    clusters = [list(c) for c in clusters]
    flat = sorted(i for cluster in clusters for i in cluster)
    if flat != list(range(n)) or not all(clusters):
        raise ValueError("clusters must partition the index range of h")

    completeness = frobenius_norm(W.conj().T @ W - np.eye(n))
    if completeness > tol.residual_tol:
        raise ResidualExceeded("projector completeness", completeness, tol.residual_tol)

    norm_h = frobenius_norm(h)
    R = h @ W - W * eigenvalues
    for k, cluster in enumerate(clusters):
        values = eigenvalues[cluster]
        spread = float(values.max() - values.min())
        certificate = relative_residual(spread + 2.0 * frobenius_norm(R[:, cluster]), norm_h)
        if certificate > tol.residual_tol:
            raise ResidualExceeded(f"sym[cluster {k}]", certificate, tol.residual_tol)

    return CommutantBasis(
        h=h,
        eigenvalues=eigenvalues,
        eigenvectors=W,
        clusters=clusters,
    )


def symmetry_from_coefficients(
    cb: CommutantBasis,
    values,
    mixers=None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SymmetryGenerator:
    """Assemble S = Q·diag(s)·Q† in h's eigenbasis W, Q = W·blockdiag(V_k).

    ``values`` holds the n positive coefficients s in eigenvalue-index
    order, the layout of :attr:`SymmetryGenerator.eigenvalues`: cluster k's
    are ``values[cluster]``. ``mixers`` maps a cluster index k to its
    intra-cluster unitary V_k, checked by ‖V†V − I‖_F (||v|² − 1| at d = 1);
    a mixed cluster's columns of Q are W_k·V_k, and a cluster left out
    keeps W's. S and sigma = Q·diag(√s)·Q† take one product each, so the
    root is exact up to roundoff, and ``symmetry_from_coefficients(cb,
    gen.eigenvalues, mixers)`` rebuilds a generator from its own fields.
    """
    n, clusters = cb.h.shape[0], cb.clusters
    spectrum = np.array(values, dtype=np.float64)
    if spectrum.shape != (n,):
        raise ValueError(f"values must have shape ({n},), got {spectrum.shape}")
    Q = np.array(cb.eigenvectors, dtype=np.complex128)
    if not (mixers is None or isinstance(mixers, Mapping)):
        raise ValueError(f"mixers must map cluster indices to unitaries, not {type(mixers)}")
    for k, V in ({} if mixers is None else mixers).items():
        is_index = isinstance(k, (int, np.integer)) and not isinstance(k, bool)
        if not (is_index and 0 <= k < len(clusters)):
            raise ValueError(f"mixer key {k!r} is not a cluster index in [0, {len(clusters)})")
        d = len(clusters[k])
        V = np.asarray(V, dtype=np.complex128)
        # `not <=` refuses NaN entries too
        if V.shape != (d, d) or not np.linalg.norm(V.conj().T @ V - np.eye(d)) <= tol.residual_tol:
            raise ValueError("cluster mixer must be a unitary of the cluster size")
        Q[:, clusters[k]] = cb.eigenvectors[:, clusters[k]] @ V
    if not np.all((spectrum > 0) & (spectrum < np.inf)):  # NaN fails both
        raise NotPositiveDefinite("symmetry coefficients must be finite and strictly positive")

    Qh = Q.conj().T
    S = hermitian_from_basis(Qh, spectrum)
    sigma = hermitian_from_basis(Qh, np.sqrt(spectrum))
    # S and h are Hermitian bit for bit, so h·S = (S·h)†
    commutation = relative_residual(
        adjoint_defect(S @ cb.h), frobenius_norm(S) * frobenius_norm(cb.h)
    )
    if commutation > tol.residual_tol:
        raise ResidualExceeded("sym", commutation, tol.residual_tol)

    return SymmetryGenerator(matrix=S, sqrt=sigma, h=cb.h, eigenvalues=spectrum, eigenvectors=Q)


def sample_positive_symmetry(
    cb: CommutantBasis,
    seed: int,
    spread: float = 10.0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SymmetryGenerator:
    """Draw a random positive-definite symmetry generator of h.

    Spectral coefficients are log-uniform on [1/spread, spread], for an
    integer seed >= 0 and a real spread in [1, float64 max] (a bool is
    neither), and the intra-cluster mixers Haar unitaries (the identity for
    a singleton). One seeded generator draws all n coefficients in one
    uniform(size=n), in eigenvalue-index order, then one mixer per cluster
    of size > 1, in cluster order. Identical (seed, spread) reproduce S bit
    for bit.
    """
    if not isinstance(seed, (int, np.integer)) or isinstance(seed, bool) or seed < 0:
        raise ValueError(f"seed must be an integer >= 0, got {seed!r}")
    top = float_info.max
    if isinstance(spread, bool) or not isinstance(spread, Real) or not 1.0 <= spread <= top:
        raise ValueError(f"spread must be a real number in [1, {top:.6g}], got {spread!r}")
    rng = np.random.default_rng(seed)
    logs = rng.uniform(np.log(1.0 / spread), np.log(float(spread)), size=cb.h.shape[0])
    mixers = {k: haar_unitary(len(c), rng) for k, c in enumerate(cb.clusters) if len(c) > 1}
    return symmetry_from_coefficients(cb, np.exp(logs), mixers, tol)


def _intertwiner_residuals(A, rho, h, h_prime, eta_prime):
    """S = A†A and the ``sim``, ``sym``, ``eta-prime`` and ``A-ph`` residuals
    of A = rho'·rho⁻¹; rho, h, h' and eta' must equal their adjoints bit for
    bit, as the one-product forms assume (see the module docstring)."""
    nrm = frobenius_norm
    S = A.conj().T @ A
    S += S.conj().T  # Hermitian bit for bit, so h·S = (S·h)†
    S /= 2
    A_rho = A @ rho  # rho is Hermitian, so rho·A† = (A·rho)†
    return S, {
        "sim": relative_residual(nrm(h_prime @ A - A @ h), nrm(A) * nrm(h)),
        "sym": relative_residual(adjoint_defect(S @ h), nrm(S) * nrm(h)),
        "eta-prime": relative_residual(nrm(eta_prime - A_rho.conj().T @ A_rho), nrm(eta_prime)),
        "A-ph": relative_residual(adjoint_defect(A_rho), nrm(rho) * nrm(A)),
    }


def metric_from_symmetry(
    metric: MetricOperator,
    generator: SymmetryGenerator,
    H,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> MetricFamilyMember:
    """Build the family member eta' = rho·S·rho and verify the identity chain.

    eta' = (sigma·rho)†(sigma·rho) is the metric of the factor sigma·rho, so
    one SVD of that factor gives eta', rho' and the polar unitary X of
    sigma·rho = X·rho' (:func:`~quasiherm.metric.metric_from_T`); rho'⁻¹
    is never read, so never formed.
    Then A = rho'·rho⁻¹ = X†·sigma, so U = X† is unitary by construction
    and B = rho·U; every identity residual is recorded by name. h is the
    generator's own, the Hermitian equivalent its commutant was built
    from. Since sigma·rho·H = sigma·h·rho = h·sigma·rho, h' = X†·h·X =
    U·h·U† (:func:`~quasiherm.metric.hermitian_equivalent` with K = h), so
    a generator of another h trips its ``H=H`` gate. sigma⁻¹ =
    Q·diag(1/√s)·Q† comes from the generator's spectral data, gated on
    cond(sigma) = √(s_max/s_min). The other residuals are reported, not
    gated: the verdict belongs to the caller.
    """
    A_H = as_matrix(H)
    rho = metric.rho
    eta = metric.eta
    S = generator.matrix
    sigma = generator.sqrt
    h = generator.h

    root = np.sqrt(generator.eigenvalues)
    gate_singular_values(root, tol)
    Q = generator.eigenvectors
    sigma_inv = (Q / root) @ Q.conj().T

    sigma_rho = sigma @ rho
    member_metric = metric_from_T(sigma_rho, tol)
    eta_prime = member_metric.eta
    member_metric.pseudo_hermiticity_residual = verify_pseudo_hermitian(A_H, eta_prime)
    prime_pair = hermitian_equivalent(A_H, member_metric, h, tol)
    h_prime = prime_pair.h

    A = member_metric.rho @ metric.rho_inv
    U = member_metric.unitary.conj().T
    B = rho @ U

    nrm = frobenius_norm
    n = A_H.shape[0]
    _, intertwined = _intertwiner_residuals(A, rho, h, h_prime, eta_prime)
    residuals = {
        "ph": member_metric.pseudo_hermiticity_residual,
        "H=H": prime_pair.similarity_residual,
        **intertwined,
        # U is the polar factor X†, not A·sigma⁻¹, so both halves are checked
        "A=US": max(
            nrm(U.conj().T @ U - np.eye(n)), relative_residual(nrm(A - U @ sigma), nrm(A))
        ),
        "B-ph": relative_residual(nrm(B.conj().T - sigma @ B @ sigma_inv), nrm(B)),
        "eta=BB": relative_residual(nrm(B @ B.conj().T - eta), nrm(eta)),
        "eta-form": relative_residual(nrm(eta_prime - rho @ S @ rho), nrm(eta_prime)),
        "eta-prime-3": relative_residual(
            nrm(eta_prime - sigma_rho.conj().T @ sigma_rho), nrm(eta_prime)
        ),
    }

    return MetricFamilyMember(
        eta_prime=member_metric, intertwiner=A, h_prime=h_prime, residuals=residuals
    )


def intertwiner_from_metrics(
    metric: MetricOperator,
    metric_prime: MetricOperator,
    h,
    h_prime,
    tol: Tolerances = DEFAULT_TOLERANCES,
):
    """Recover (A, S) from two certified metrics of the same Hamiltonian.

    A = rho'·rho⁻¹, rho⁻¹ from ``metric``'s own SVD, and S = A†A, certified
    by a member's ``sim``, ``sym``, ``A-ph`` and ``eta-prime``: the first
    to fail raises :class:`ResidualExceeded`. Nothing is factorized. h and
    h' pass the commutant's asymmetry gate (:class:`NotHermitian`).
    """
    A = metric_prime.rho @ metric.rho_inv
    S, residuals = _intertwiner_residuals(
        A, metric.rho, _gated_hermitian(h, tol), _gated_hermitian(h_prime, tol), metric_prime.eta
    )
    for name in ("sim", "sym", "A-ph", "eta-prime"):
        if residuals[name] > tol.residual_tol:
            raise ResidualExceeded(name, residuals[name], tol.residual_tol)
    return A, S

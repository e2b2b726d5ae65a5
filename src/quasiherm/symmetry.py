"""Symmetry generators of h and the full metric-operator family.

Positive-definite operators S commuting with the Hermitian equivalent h
parametrize *all* metrics of H: every eta' = rho·S·rho is again a metric,
and conversely any second metric arises this way. The commutant of h is
spanned, block-wise in its eigenbasis, by Hermitian matrices supported on
the degeneracy clusters, so the positive commutant is exhausted by positive
coefficients per cluster plus intra-cluster unitary mixers: S = Q·diag(s)·Q†,
Q = W·blockdiag(V_k) for an eigenbasis W of h. The pair (s, Q), s in Q's
column order, is the whole generator (:func:`symmetry_from_coefficients`).

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
1 + O(residual_tol) from the unitarity of W. That holds in one cluster's
block only. For E = Σ_k W_k·X_k·W_k† over K clusters the same algebra,
with the whole residual R, gives

    ‖[E, h]‖_F / (‖E‖_F·‖h‖_F) ≤ (max_k δ_k + 2‖R‖_F) / ‖h‖_F,

up to √K times the largest ``sym[cluster k]``, since ‖R‖_F² = Σ_k ‖R_k‖_F².
So :func:`symmetry_from_coefficients` keeps its own ``sym`` gate.

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

Since h is Hermitian, S is a symmetry of h exactly when h†·S = S·h, so
every ``sym``, the generator's and each member's, is
:func:`~quasiherm.metric.verify_pseudo_hermitian` (h, S), the check
behind each ``ph``. ``A-ph`` (rho·A† = A·rho) is read off its one product
P = A·rho as ‖P − P†‖, exact because rho = V·Σ·V† equals its adjoint bit
for bit, as S, sigma and sigma⁻¹ do (``hermitian_from_basis``). ``eta-prime``
reuses that A·rho: (A·rho)†(A·rho) = rho·A†A·rho, compared with the eta'
of the SVD, which is a separate path.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NotHermitian, NotPositiveDefinite
from .linalg import (
    DEFAULT_TOLERANCES,
    Tolerances,
    adjoint_defect,
    as_matrix,
    frobenius_norm,
    gate_residual,
    gate_singular_values,
    haar_unitary,
    hermitian_from_basis,
    hermitian_part,
    hermiticity_defect,
    relative_residual,
    require_integer,
    require_real,
    require_tolerances,
    unitarity_defect,
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
    ‖[E, h]‖ / (‖E‖·‖h‖) for every E in the cluster's block. An E over
    several clusters is bounded by (max_k spread_k + 2‖h·W − W·Λ‖_F) / ‖h‖_F,
    up to √K times the largest cluster's for K clusters (see the module
    docstring), so each generator is gated by its own ``sym``.
    ``real_dimension``, the sum of squared cluster sizes, is the
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

    ``eigenvalues`` s and ``eigenvectors`` Q, an eigenbasis of h, are the
    whole generator: S = Q·diag(s)·Q†, sigma = ``sqrt`` = Q·diag(√s)·Q†,
    and ``h`` is the Hermitian equivalent the generator commutes with.
    ``symmetry_from_coefficients(cb, eigenvalues, eigenvectors)`` rebuilds it.
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
    defect, bound = hermiticity_defect(h), require_tolerances(tol).residual_tol
    if defect > bound:
        raise NotHermitian(f"relative asymmetry {defect:.3e} exceeds {bound:.3e}")
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

    gate_residual("projector completeness", unitarity_defect(W), tol)

    norm_h = frobenius_norm(h)
    R = h @ W - W * eigenvalues
    for k, cluster in enumerate(clusters):
        values = eigenvalues[cluster]
        spread = float(values.max() - values.min())
        certificate = relative_residual(spread + 2.0 * frobenius_norm(R[:, cluster]), norm_h)
        gate_residual(f"sym[cluster {k}]", certificate, tol)

    return CommutantBasis(
        h=h,
        eigenvalues=eigenvalues,
        eigenvectors=W,
        clusters=clusters,
    )


def symmetry_from_coefficients(
    cb: CommutantBasis,
    values,
    eigenvectors=None,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SymmetryGenerator:
    """Assemble S = Q·diag(s)·Q† from n positive coefficients s and an eigenbasis Q of h.

    ``values`` holds s in the column order of Q, n real numbers (else a
    ValueError naming ``values``). ``eigenvectors`` Q defaults to the
    commutant's certified W; a Q that is given takes
    :func:`~quasiherm.linalg.as_matrix`'s rule, is copied, and must be n×n
    with ‖Q†Q − I‖_F within ``residual_tol``, each a ValueError. Whether its
    columns are eigenvectors of h is left to S's ``sym``,
    verify_pseudo_hermitian(h, S). S and sigma = Q·diag(√s)·Q† take one
    product each, so the root is exact up to roundoff.
    ``symmetry_from_coefficients(cb, gen.eigenvalues, gen.eigenvectors)``
    rebuilds a generator from its own fields.
    """
    n = cb.h.shape[0]
    try:
        spectrum = np.array(values, dtype=np.float64)
    except (TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"values must be an array of real numbers ({exc})") from None
    if spectrum.shape != (n,):
        raise ValueError(f"values must have shape ({n},), got {spectrum.shape}")
    if eigenvectors is None:  # W, certified by ``projector completeness``
        Q = np.asarray(cb.eigenvectors, dtype=np.complex128)
    else:
        Q = as_matrix(eigenvectors).copy()
        if Q.shape != (n, n) or not unitarity_defect(Q) <= require_tolerances(tol).residual_tol:
            raise ValueError(f"eigenvectors must be a {n}×{n} unitary")
    if not np.all((spectrum > 0) & (spectrum < np.inf)):  # NaN fails both
        raise NotPositiveDefinite("symmetry coefficients must be finite and strictly positive")

    Qh = Q.conj().T
    S = hermitian_from_basis(Qh, spectrum)
    sigma = hermitian_from_basis(Qh, np.sqrt(spectrum))
    gate_residual("sym", verify_pseudo_hermitian(cb.h, S), tol)

    return SymmetryGenerator(matrix=S, sqrt=sigma, h=cb.h, eigenvalues=spectrum, eigenvectors=Q)


def sample_positive_symmetry(
    cb: CommutantBasis,
    seed: int,
    spread: float = 10.0,
    tol: Tolerances = DEFAULT_TOLERANCES,
) -> SymmetryGenerator:
    """Draw a random positive-definite symmetry generator of h.

    Spectral coefficients are log-uniform on [1/spread, spread], and the
    intra-cluster mixers Haar unitaries. The seed and spread take the report
    runners' rules, as a ValueError: an integer seed >= 0 that ``str`` can
    write and an int or float spread in [1, float64 max], a bool neither. One
    seeded generator draws all n coefficients in one uniform(size=n), in
    eigenvalue-index order, then, in cluster order, one mixer V_k per
    cluster of size > 1, whose columns of Q = W·blockdiag(V_k) are W_k·V_k;
    a singleton keeps W's. Identical (seed, spread) reproduce S bit for bit.
    """
    require_integer(seed, "seed", 0)
    require_real(spread, "spread", 1.0)
    rng = np.random.default_rng(seed)
    logs = rng.uniform(np.log(1.0 / spread), np.log(float(spread)), size=cb.h.shape[0])
    mixed = [c for c in cb.clusters if len(c) > 1]
    Q = np.array(cb.eigenvectors, dtype=np.complex128) if mixed else None
    for c in mixed:
        Q[:, c] = cb.eigenvectors[:, c] @ haar_unitary(len(c), rng)
    return symmetry_from_coefficients(cb, np.exp(logs), Q, tol)


def _intertwiner_residuals(A, rho, h, h_prime, eta_prime):
    """S = A†A and the ``sim``, ``sym``, ``eta-prime`` and ``A-ph`` residuals
    of A = rho'·rho⁻¹; rho must equal its adjoint bit for bit, as ``A-ph``'s
    one-product form assumes (see the module docstring)."""
    nrm = frobenius_norm
    S = hermitian_part(A.conj().T @ A)
    A_rho = A @ rho
    return S, {
        "sim": relative_residual(nrm(h_prime @ A - A @ h), nrm(A) * nrm(h)),
        "sym": verify_pseudo_hermitian(h, S),
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
    sigma·rho = X·rho' (:func:`~quasiherm.spectral.metric_from_T`); rho'⁻¹
    is never read, so never formed.
    Then A = rho'·rho⁻¹ = X†·sigma, so U = X† is unitary by construction
    and B = rho·U; every identity residual is recorded by name. h is the
    generator's own, the Hermitian equivalent its commutant was built
    from. Since sigma·rho·H = sigma·h·rho = h·sigma·rho, h' = X†·h·X =
    U·h·U† (:func:`~quasiherm.metric.hermitian_equivalent` with K = h), so
    a generator of another h trips its ``H=H`` gate. sigma⁻¹ =
    Q·diag(1/√s)·Q† is :func:`~quasiherm.linalg.hermitian_from_basis` of the
    generator's spectral data, gated on cond(sigma) = √(s_max/s_min). The
    other residuals are reported, not gated: the verdict belongs to the caller.
    """
    A_H = as_matrix(H)
    rho = metric.rho
    eta = metric.eta
    S = generator.matrix
    sigma = generator.sqrt
    h = generator.h

    root = np.sqrt(generator.eigenvalues)
    gate_singular_values(root, tol)
    sigma_inv = hermitian_from_basis(generator.eigenvectors.conj().T, 1 / root)

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
    _, intertwined = _intertwiner_residuals(A, rho, h, h_prime, eta_prime)
    residuals = {
        "ph": member_metric.pseudo_hermiticity_residual,
        "H=H": prime_pair.similarity_residual,
        **intertwined,
        # U is the polar factor X†, not A·sigma⁻¹, so both halves are checked
        "A=US": max(unitarity_defect(U), relative_residual(nrm(A - U @ sigma), nrm(A))),
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
        gate_residual(name, residuals[name], tol)
    return A, S

import copy
import dataclasses
import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from quasiherm import (
    IllConditioned,
    NotHermitian,
    NotPositiveDefinite,
    ParseError,
    ResidualExceeded,
    cluster_degeneracies,
    commutant_basis,
    eig_decompose,
    full_pipeline,
    hermitian_equivalent,
    intertwiner_from_metrics,
    metric_from_symmetry,
    metric_from_T,
    random_diagonalizable,
    run_analyze,
    sample_positive_symmetry,
    symmetry,
    two_level,
)
from quasiherm.linalg import DEFAULT_TOLERANCES, haar_unitary, hermitian_part
from quasiherm.metric import verify_pseudo_hermitian
from quasiherm.symmetry import FAMILY_IDENTITIES, symmetry_from_coefficients


def hermitian_basis(n):
    """Standard real basis of the n x n Hermitian matrices (n^2 elements)."""
    out = []
    for i in range(n):
        E = np.zeros((n, n), dtype=complex)
        E[i, i] = 1.0
        out.append(E)
    for i in range(n):
        for j in range(i + 1, n):
            E = np.zeros((n, n), dtype=complex)
            E[i, j] = E[j, i] = 1.0
            out.append(E)
            F = np.zeros((n, n), dtype=complex)
            F[i, j] = 1.0j
            F[j, i] = -1.0j
            out.append(F)
    return out


def brute_commutant_dimension(h, cutoff=1e-7):
    """Real dimension of {X Hermitian : [X, h] = 0} via an SVD null space.

    The commutator map is real-linear from the n^2-dimensional real space
    of Hermitian matrices; stacking real and imaginary parts of the output
    makes it a real matrix whose null space is counted directly.
    """
    basis = hermitian_basis(h.shape[0])
    columns = []
    for X in basis:
        C = (X @ h - h @ X).ravel()
        columns.append(np.concatenate([C.real, C.imag]))
    M = np.column_stack(columns)
    s = np.linalg.svd(M, compute_uv=False)
    scale = max(s[0], 1.0)
    return int(np.sum(s <= cutoff * scale))


def conjugated_diagonal(values, seed=0):
    values = np.asarray(values, dtype=float)
    W = haar_unitary(values.size, np.random.default_rng(seed))
    return W @ np.diag(values).astype(complex) @ W.conj().T


def commutant_real_basis(cb):
    """An explicit real basis of the commutant: sum of d² dense n×n matrices."""
    basis = []
    for cluster in cb.clusters:
        block = cb.eigenvectors[:, cluster]
        for a in range(len(cluster)):
            va = block[:, a : a + 1]
            basis.append(hermitian_part(va @ va.conj().T))
            for b in range(a + 1, len(cluster)):
                vb = block[:, b : b + 1]
                cross = va @ vb.conj().T
                basis.append(hermitian_part(cross + cross.conj().T))
                basis.append(hermitian_part(1j * (cross - cross.conj().T)))
    return basis


def spectral_projectors(cb):
    """The spectral projectors of h, one per cluster."""
    blocks = (cb.eigenvectors[:, cluster] for cluster in cb.clusters)
    return [hermitian_part(block @ block.conj().T) for block in blocks]


@pytest.mark.parametrize(
    "spectrum, expected",
    [
        ([0.0, 2.0], 2),       # pattern (1,1)
        ([1.0, 1.0, 4.0], 5),  # pattern (2,1)
        ([2.0, 2.0, 2.0], 9),  # pattern (3)
        ([1.0, 1.0, 3.0, 3.0], 8),  # pattern (2,2)
    ],
)
def test_commutant_dimension_law_vs_brute_force(spectrum, expected):
    h = conjugated_diagonal(spectrum, seed=7)
    clusters = cluster_degeneracies(np.asarray(spectrum))
    cb = commutant_basis(h, clusters)
    assert cb.real_dimension == expected
    assert len(commutant_real_basis(cb)) == expected
    assert brute_commutant_dimension(h) == expected


def test_commutant_basis_elements_are_independent_symmetries():
    h = conjugated_diagonal([1.0, 1.0, 3.0, 3.0], seed=3)
    cb = commutant_basis(h, cluster_degeneracies(np.array([1.0, 1.0, 3.0, 3.0])))
    basis = commutant_real_basis(cb)
    stacked = np.column_stack(
        [np.concatenate([B.ravel().real, B.ravel().imag]) for B in basis]
    )
    assert np.linalg.matrix_rank(stacked) == cb.real_dimension
    for B in basis:
        npt.assert_allclose(B, B.conj().T, atol=1e-13)
        assert np.linalg.norm(B @ h - h @ B) <= 1e-10 * np.linalg.norm(h)


def test_commutant_projectors_resolve_identity():
    h = conjugated_diagonal([1.0, 2.0, 2.0], seed=5)
    cb = commutant_basis(h, cluster_degeneracies(np.array([1.0, 2.0, 2.0])))
    projectors = spectral_projectors(cb)
    total = sum(projectors)
    npt.assert_allclose(total, np.eye(3), atol=1e-12)
    for P in projectors:
        npt.assert_allclose(P @ P, P, atol=1e-12)


def test_commutant_memory_is_quadratic_in_size():
    # the eigenbasis form holds O(n²) memory; the dense basis alone is n³
    n = 128
    h = conjugated_diagonal(np.arange(1.0, n + 1.0), seed=1)
    tracemalloc.start()
    try:
        cb = commutant_basis(h, [[i] for i in range(n)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cb.real_dimension == n
    assert peak < 10 * n * n * 16


@pytest.mark.parametrize(
    "spectrum, clusters, name",
    [
        ([1.0, 1.0 + 1e-6, 3.0], [[0, 1], [2]], "sym[cluster 0]"),
        ([0.0, 2.0, 2.0 + 1e-6], [[0], [1, 2]], "sym[cluster 1]"),
    ],
)
def test_commutant_rejects_cluster_wider_than_residual_tol(spectrum, clusters, name):
    # a spread of 1e-6 against |h|_F ~ 3 exceeds residual_tol = 1e-8
    h = conjugated_diagonal(spectrum, seed=6)
    with pytest.raises(ResidualExceeded) as exc_info:
        commutant_basis(h, clusters)
    assert exc_info.value.identity == name
    assert exc_info.value.value > DEFAULT_TOLERANCES.residual_tol


def test_commutant_basis_rejects_non_hermitian_h():
    # the gate is relative: asymmetry just above residual_tol is refused,
    # just below it h is replaced by its Hermitian part, bit for bit
    h = conjugated_diagonal([1.0, 2.0, 4.0], seed=8)
    skew = np.zeros((3, 3), dtype=complex)
    skew[0, 2] = 1.0
    scale = np.linalg.norm(h) / np.linalg.norm(skew - skew.conj().T)
    for factor, raises in ((2.0, True), (0.5, False)):
        tilted = h + factor * DEFAULT_TOLERANCES.residual_tol * scale * skew
        if raises:
            with pytest.raises(NotHermitian):
                commutant_basis(tilted, [[0], [1], [2]])
        else:
            cb = commutant_basis(tilted, [[0], [1], [2]])
            npt.assert_array_equal(cb.h, (tilted + tilted.conj().T) / 2)
            npt.assert_array_equal(cb.h, cb.h.conj().T)
    # the pipeline's non-Hermitian H in place of its Hermitian equivalent h
    H, _ = random_diagonalizable(5, seed=2)
    with pytest.raises(NotHermitian):
        commutant_basis(H, full_pipeline(H).spectral.clusters)


def test_commutant_basis_rejects_bad_partition():
    h = conjugated_diagonal([1.0, 2.0], seed=1)
    with pytest.raises(ValueError):
        commutant_basis(h, [[0]])
    # an empty cluster adds no index, so only its own check refuses it
    with pytest.raises(ValueError, match="partition"):
        commutant_basis(h, [[0], [1], []])


def clustered_hamiltonian():
    """H = T0⁻¹·D·T0 with clusters of sizes 3, 1 and 2."""
    rng = np.random.default_rng(3)
    D = np.repeat([-1.0, 0.5, 2.0], [3, 1, 2])
    T0 = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    return np.linalg.solve(T0, D[:, None] * T0)


@pytest.mark.parametrize(
    "H",
    # seed 3's smallest gap is 0.025: eigenvectors move by roundoff/gap
    # (Davis-Kahan), whichever factorization found them
    [random_diagonalizable(24, seed=3)[0], clustered_hamiltonian()],
    ids=["random-24", "clustered"],
)
def test_pipeline_commutant_is_the_metric_eigenbasis_and_agrees_with_eigh(monkeypatch, H):
    seen = []

    def spy(*args):
        seen.append(symmetry._certified_commutant(*args))
        return seen[-1]

    monkeypatch.setattr("quasiherm.report._certified_commutant", spy)
    assert run_analyze(H, samples=1).verdict == "pass"
    (cb,) = seen
    pair = full_pipeline(H)
    # certified as built: h, X† and diag(H_d)
    npt.assert_array_equal(cb.h, pair.h)
    npt.assert_array_equal(cb.eigenvectors, pair.metric.unitary.conj().T)
    npt.assert_array_equal(cb.eigenvalues, pair.spectral.eigenvalues.real)

    ref = commutant_basis(pair.h, pair.spectral.clusters)
    assert np.max(np.abs(cb.eigenvalues - ref.eigenvalues)) <= 1e-13 * np.linalg.norm(pair.h)
    assert cb.clusters == ref.clusters
    assert cb.real_dimension == ref.real_dimension
    for P, P_ref in zip(spectral_projectors(cb), spectral_projectors(ref)):
        assert np.linalg.norm(P - P_ref) <= 1e-12


def test_certificate_refuses_a_basis_that_is_not_an_eigenbasis_of_h():
    H, _ = random_diagonalizable(8, seed=2)
    pair = full_pipeline(H)
    clusters = pair.spectral.clusters
    assert clusters == [[i] for i in range(8)]
    W = pair.metric.unitary.conj().T
    swapped = W[:, [0, 1, 5, 3, 4, 2, 6, 7]]  # still unitary, so complete
    certify = symmetry._certified_commutant
    certify(pair.h, pair.spectral.eigenvalues.real, W, clusters, DEFAULT_TOLERANCES)
    with pytest.raises(ResidualExceeded) as exc_info:
        certify(pair.h, pair.spectral.eigenvalues.real, swapped, clusters, DEFAULT_TOLERANCES)
    assert exc_info.value.identity == "sym[cluster 2]"


def test_commutant_of_diagonal_nondegenerate_is_diagonal():
    h = np.diag([1.0, 2.0]).astype(complex)
    cb = commutant_basis(h, [[0], [1]])
    assert cb.real_dimension == 2
    totals = sum(np.abs(B) for B in commutant_real_basis(cb))
    npt.assert_allclose(totals, np.eye(2), atol=1e-13)


def test_commutant_of_identity_is_all_hermitian_matrices():
    cb = commutant_basis(np.eye(2, dtype=complex), [[0, 1]])
    assert cb.real_dimension == 4
    assert brute_commutant_dimension(np.eye(2, dtype=complex)) == 4


def test_commutant_nondegenerate_dimension_equals_size():
    for n in range(2, 6):
        spectrum = np.arange(1.0, n + 1.0)
        h = conjugated_diagonal(spectrum, seed=n)
        cb = commutant_basis(h, [[i] for i in range(n)])
        assert cb.real_dimension == n
        assert brute_commutant_dimension(h) == n


def test_symmetry_from_coefficients_identity_case():
    h = conjugated_diagonal([1.0, 1.0, 2.0], seed=2)
    cb = commutant_basis(h, cluster_degeneracies(np.array([1.0, 1.0, 2.0])))
    gen = symmetry_from_coefficients(cb, np.ones(3))
    npt.assert_allclose(gen.matrix, np.eye(3), atol=1e-12)
    npt.assert_allclose(gen.sqrt, np.eye(3), atol=1e-12)


def test_symmetry_from_coefficients_validation():
    h = conjugated_diagonal([1.0, 2.0], seed=2)
    cb = commutant_basis(h, cluster_degeneracies(np.array([1.0, 2.0])))
    for bad in (-1.0, np.nan, np.inf):  # a NaN or infinite value would give a NaN S
        with pytest.raises(NotPositiveDefinite):
            symmetry_from_coefficients(cb, [bad, 1.0])
    # the n coefficients of the whole space: not fewer, not more, not per cluster
    for values in ([1.0], np.ones(3), [[1.0], [1.0]], 1.0):
        with pytest.raises(ValueError, match=r"values must have shape \(2,\)"):
            symmetry_from_coefficients(cb, values)
    # a key is a cluster index: -1 would otherwise mix the last cluster
    for key in (-1, 2, True, np.bool_(False), 0.0, "0", None):
        with pytest.raises(ValueError, match=r"is not a cluster index in \[0, 2\)"):
            symmetry_from_coefficients(cb, np.ones(2), {key: np.eye(1)})
    # mixers map a cluster index to its unitary: not the per-cluster list of old
    with pytest.raises(ValueError, match="mixers must map cluster indices to unitaries"):
        symmetry_from_coefficients(cb, np.ones(2), [np.eye(1), np.eye(1)])
    gen = symmetry_from_coefficients(cb, np.ones(2), {np.int64(1): -np.eye(1)})
    npt.assert_array_equal(gen.eigenvectors[:, 1], -cb.eigenvectors[:, 1])
    for V in (2 * np.eye(1), np.eye(2)):  # not unitary, or not of the cluster's size
        with pytest.raises(ValueError, match="unitary of the cluster size"):
            symmetry_from_coefficients(cb, np.ones(2), {0: V})
    with pytest.raises(ValueError):
        # a NaN mixer has no finite unitarity defect
        symmetry_from_coefficients(cb, np.ones(2), {0: np.full((1, 1), np.nan)})


def test_a_generator_whose_norms_overflow_is_a_parse_error():
    # S = diag(1.7e308, 1) is finite, halved before it is made Hermitian;
    # only the product of its norm with h's overflows
    h = np.diag([1.0, 2.0]).astype(complex)
    cb = commutant_basis(h, [[0], [1]])
    with pytest.raises(ParseError, match="a product of Frobenius norms overflows"):
        symmetry_from_coefficients(cb, [1.7e308, 1.0])


def test_one_product_generator_matches_per_cluster_sum():
    spectrum = np.array([1.0, 1.0, 1.0, 2.5, 4.0, 4.0])
    h = conjugated_diagonal(spectrum, seed=9)
    cb = commutant_basis(h, cluster_degeneracies(spectrum))
    gen = sample_positive_symmetry(cb, seed=4)
    S = np.zeros((6, 6), dtype=complex)
    sigma = np.zeros((6, 6), dtype=complex)
    spectrum, mixers = _per_cluster_sample(cb, 4)
    for k, cluster in enumerate(cb.clusters):
        block = cb.eigenvectors[:, cluster] @ mixers.get(k, np.eye(len(cluster)))
        s = spectrum[cluster]
        S += (block * s) @ block.conj().T
        sigma += (block * np.sqrt(s)) @ block.conj().T
    npt.assert_allclose(gen.matrix, S, rtol=0, atol=1e-13)
    npt.assert_allclose(gen.sqrt, sigma, rtol=0, atol=1e-13)


def test_member_gates_generator_condition():
    # cond(sigma) = sqrt(1000) ~ 31.6 exceeds a cap of 10, while rho and
    # rho' = sqrt(rho·S·rho) both have condition 1000^(1/4) ~ 5.6: only the
    # gate on sigma can refuse this member
    H = np.diag([1.0, 2.0]).astype(complex)
    metric = metric_from_T(np.diag([1.0, 1000.0**-0.25]))
    assert verify_pseudo_hermitian(H, metric.eta) <= 1e-12
    cb = commutant_basis(H, [[0], [1]])
    gen = symmetry_from_coefficients(cb, [1.0, 1000.0])
    assert metric_from_symmetry(metric, gen, H).max_residual <= 1e-12
    tol = dataclasses.replace(DEFAULT_TOLERANCES, condition_cap=10.0)
    with pytest.raises(IllConditioned):
        metric_from_symmetry(metric, gen, H, tol)


def test_symmetry_diagonal_coefficients_give_diagonal_generator():
    h = np.diag([1.0, 2.0]).astype(complex)
    cb = commutant_basis(h, [[0], [1]])
    gen = symmetry_from_coefficients(cb, [2.0, 3.0])
    npt.assert_allclose(gen.matrix, np.diag([2.0, 3.0]), atol=1e-14)
    npt.assert_allclose(gen.sqrt, np.diag(np.sqrt([2.0, 3.0])), atol=1e-14)


def test_sampled_symmetry_seed_sweep():
    # 100 seeds: commutation and the spectral window both hold
    h = conjugated_diagonal([1.0, 1.0, 4.0], seed=2)
    cb = commutant_basis(h, cluster_degeneracies(np.array([1.0, 1.0, 4.0])))
    for seed in range(100):
        gen = sample_positive_symmetry(cb, seed=seed, spread=10.0)
        S = gen.matrix
        assert (
            np.linalg.norm(S @ h - h @ S)
            <= 1e-10 * np.linalg.norm(S) * np.linalg.norm(h)
        )
        eigs = np.linalg.eigvalsh(S)
        assert eigs[0] >= 0.1 - 1e-9
        assert eigs[-1] <= 10.0 + 1e-9


def test_sampled_symmetry_commutes_and_is_positive():
    H, _ = random_diagonalizable(6, seed=31)
    pair = full_pipeline(H)
    cb = commutant_basis(pair.h, pair.spectral.clusters)
    gen = sample_positive_symmetry(cb, seed=5, spread=8.0)
    eigs = np.linalg.eigvalsh(gen.matrix)
    assert eigs[0] > 1.0 / 8.0 - 1e-9
    assert eigs[-1] < 8.0 + 1e-9
    S, h = gen.matrix, gen.h
    assert _relative(np.linalg.norm(S @ h - h @ S), S, h) <= 1e-12
    npt.assert_allclose(gen.sqrt @ gen.sqrt, gen.matrix, atol=1e-12)


def test_sampled_symmetry_is_seed_deterministic():
    H, _ = random_diagonalizable(4, seed=12)
    pair = full_pipeline(H)
    cb = commutant_basis(pair.h, pair.spectral.clusters)
    g1 = sample_positive_symmetry(cb, seed=7)
    g2 = sample_positive_symmetry(cb, seed=np.uint64(7))  # a numpy integer is a seed
    npt.assert_array_equal(g1.matrix, g2.matrix)
    g3 = sample_positive_symmetry(cb, seed=8)
    assert not np.allclose(g1.matrix, g3.matrix)


@pytest.mark.parametrize(
    "spread",
    # a bool or a string is not a spread, and a spread must fit float64
    [0.5, float("nan"), float("inf"),
     pytest.param(True, id="bool"), pytest.param(10**400, id="beyond-float64"),
     pytest.param("10", id="str")],
)
def test_sampler_rejects_a_spread_outside_one_to_infinity(spread):
    cb = commutant_basis(np.diag([1.0, 2.0]).astype(complex), [[0], [1]])
    with pytest.raises(ValueError, match="spread"):
        sample_positive_symmetry(cb, seed=0, spread=spread)


@pytest.mark.parametrize(
    "seed",
    # the rule a run's seed follows: an integer >= 0, a bool not included
    [pytest.param(True, id="bool"), 1.5, -1, pytest.param("3", id="str"), None],
)
def test_sampler_rejects_a_seed_that_is_not_a_nonnegative_integer(seed):
    cb = commutant_basis(np.diag([1.0, 2.0]).astype(complex), [[0], [1]])
    with pytest.raises(ValueError, match="seed"):
        sample_positive_symmetry(cb, seed=seed)


def test_sampler_takes_an_integer_spread_as_its_float():
    # np.log takes no int beyond int64: the draw reads the spread's float
    cb = commutant_basis(np.diag([1.0, 1.0, 2.0]).astype(complex), [[0, 1], [2]])
    for spread in (10, 10**30):
        npt.assert_array_equal(
            sample_positive_symmetry(cb, seed=3, spread=spread).matrix,
            sample_positive_symmetry(cb, seed=3, spread=float(spread)).matrix,
        )


def test_trivial_symmetry_reproduces_base_metric():
    H = two_level(1, 4, 0)
    pair = full_pipeline(H)
    cb = commutant_basis(pair.h, pair.spectral.clusters)
    gen = symmetry_from_coefficients(cb, np.ones(2))
    member = metric_from_symmetry(pair.metric, gen, H)
    npt.assert_allclose(member.eta_prime.eta, pair.metric.eta, atol=1e-12)
    npt.assert_allclose(member.intertwiner, np.eye(2), atol=1e-12)
    npt.assert_allclose(member.eta_prime.unitary.conj().T, np.eye(2), atol=1e-12)
    assert member.max_residual <= 1e-12


def test_hermitian_base_metric_family_reduces_to_generators():
    # rho = I: eta' = S, A = sqrt(S), U = I
    rng = np.random.default_rng(19)
    A0 = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    H = (A0 + A0.conj().T) / 2
    pair = full_pipeline(H)
    cb = commutant_basis(pair.h, pair.spectral.clusters)
    gen = sample_positive_symmetry(cb, seed=3)
    member = metric_from_symmetry(pair.metric, gen, H)
    npt.assert_allclose(member.eta_prime.eta, gen.matrix, atol=1e-10)
    npt.assert_allclose(member.intertwiner, gen.sqrt, atol=1e-9)
    npt.assert_allclose(member.eta_prime.unitary.conj().T, np.eye(4), atol=1e-9)


def test_triangular_reference_family_seed_42():
    H = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    pair = full_pipeline(H)
    cb = commutant_basis(pair.h, pair.spectral.clusters)
    gen = sample_positive_symmetry(cb, seed=42)
    member = metric_from_symmetry(pair.metric, gen, H)
    assert member.max_residual <= 1e-9
    assert member.eta_prime.pseudo_hermiticity_residual <= 1e-9


def test_member_construction_is_bit_deterministic():
    H, _ = random_diagonalizable(5, seed=6)
    pair = full_pipeline(H)
    cb = commutant_basis(pair.h, pair.spectral.clusters)
    m1 = metric_from_symmetry(pair.metric, sample_positive_symmetry(cb, seed=2), H)
    m2 = metric_from_symmetry(pair.metric, sample_positive_symmetry(cb, seed=2), H)
    npt.assert_array_equal(m1.eta_prime.eta, m2.eta_prime.eta)
    npt.assert_array_equal(m1.intertwiner, m2.intertwiner)
    assert m1.residuals == m2.residuals


def test_family_member_residual_table_is_complete():
    H, _ = random_diagonalizable(5, seed=3)
    pair = full_pipeline(H)
    cb = commutant_basis(pair.h, pair.spectral.clusters)
    member = metric_from_symmetry(
        pair.metric, sample_positive_symmetry(cb, seed=1), H
    )
    assert set(member.residuals) == set(FAMILY_IDENTITIES)
    assert member.max_residual <= 1e-8


def test_family_identities_hold_with_degenerate_clusters():
    W = haar_unitary(4, np.random.default_rng(0))
    base = W @ np.diag([1.0, 1.0, 3.0, 3.0]).astype(complex) @ W.conj().T
    rng = np.random.default_rng(5)
    M = np.eye(4) + 0.3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    H = np.linalg.solve(M, base @ M)
    pair = full_pipeline(H)
    cb = commutant_basis(pair.h, pair.spectral.clusters)
    assert cb.real_dimension == 8
    for seed in range(3):
        member = metric_from_symmetry(
            pair.metric, sample_positive_symmetry(cb, seed=seed), H
        )
        assert member.max_residual <= 1e-8


def test_new_member_is_itself_a_valid_metric():
    H, _ = random_diagonalizable(5, seed=8)
    pair = full_pipeline(H)
    cb = commutant_basis(pair.h, pair.spectral.clusters)
    member = metric_from_symmetry(
        pair.metric, sample_positive_symmetry(cb, seed=2), H
    )
    eta_p = member.eta_prime
    assert eta_p.singular_values[-1] ** 2 > 0
    assert eta_p.pseudo_hermiticity_residual <= 1e-10
    npt.assert_allclose(
        eta_p.rho @ eta_p.rho, eta_p.eta,
        atol=1e-11 * np.linalg.norm(eta_p.eta),
    )


def test_intertwiner_recovery_round_trip(monkeypatch):
    H, _ = random_diagonalizable(6, seed=21)
    pair = full_pipeline(H)
    cb = commutant_basis(pair.h, pair.spectral.clusters)
    gen = sample_positive_symmetry(cb, seed=4)
    member = metric_from_symmetry(pair.metric, gen, H)
    tables = []
    shared = symmetry._intertwiner_residuals

    def record(*args):
        S, residuals = shared(*args)
        tables.append(residuals)
        return S, residuals

    monkeypatch.setattr(symmetry, "_intertwiner_residuals", record)
    A, S = intertwiner_from_metrics(pair.metric, member.eta_prime, pair.h, member.h_prime)
    npt.assert_allclose(S, gen.matrix, atol=1e-10 * np.linalg.norm(gen.matrix))
    # both directions read one table: the member's A and residuals, bit for bit
    npt.assert_array_equal(A, member.intertwiner)
    assert tables == [{k: member.residuals[k] for k in ("sim", "sym", "eta-prime", "A-ph")}]


def test_intertwiner_trivial_and_sqrt_cases():
    H, _ = random_diagonalizable(4, seed=30)
    pair = full_pipeline(H)
    A, S = intertwiner_from_metrics(pair.metric, pair.metric, pair.h, pair.h)
    npt.assert_allclose(A, np.eye(4), atol=1e-12)
    npt.assert_allclose(S, np.eye(4), atol=1e-12)

    # rho = I with rho' = sqrt(S0) for S0 commuting with h recovers S0
    h = conjugated_diagonal([1.0, 2.0, 3.0], seed=4)
    cb = commutant_basis(h, [[0], [1], [2]])
    gen = sample_positive_symmetry(cb, seed=11)
    A, S = intertwiner_from_metrics(metric_from_T(np.eye(3)), metric_from_T(gen.sqrt), h, h)
    npt.assert_allclose(A, gen.sqrt, atol=1e-12)
    npt.assert_allclose(S, gen.matrix, atol=1e-11)


def test_intertwiner_between_two_sampled_members():
    H, _ = random_diagonalizable(5, seed=44)
    pair = full_pipeline(H)
    cb = commutant_basis(pair.h, pair.spectral.clusters)
    m1 = metric_from_symmetry(pair.metric, sample_positive_symmetry(cb, seed=5), H)
    m2 = metric_from_symmetry(pair.metric, sample_positive_symmetry(cb, seed=6), H)
    A, S = intertwiner_from_metrics(m1.eta_prime, m2.eta_prime, m1.h_prime, m2.h_prime)
    # the recovered generator maps one metric onto the other
    npt.assert_allclose(
        m1.eta_prime.rho @ S @ m1.eta_prime.rho, m2.eta_prime.eta,
        atol=1e-9 * np.linalg.norm(m2.eta_prime.eta),
    )


def test_converse_direction_with_row_rescaled_eigenbasis():
    # a second metric built independently, by rescaling rows of T, still
    # arises as rho S rho for a positive symmetry generator
    H, _ = random_diagonalizable(5, seed=40)
    data = eig_decompose(H)
    scale = np.random.default_rng(1).uniform(0.5, 2.0, 5)
    m1 = metric_from_T(data.T)
    m2 = metric_from_T(scale[:, None] * data.T)
    assert max(verify_pseudo_hermitian(H, m.eta) for m in (m1, m2)) <= 1e-12
    # rescaled rows still intertwine H with H_d: (D·T)·H = H_d·(D·T)
    h1 = hermitian_equivalent(H, m1, np.diag(data.eigenvalues.real)).h
    h2 = hermitian_equivalent(H, m2, np.diag(data.eigenvalues.real)).h
    A, S = intertwiner_from_metrics(m1, m2, h1, h2)
    assert np.linalg.eigvalsh(S)[0] > 0


def test_intertwiner_rejects_mismatched_data():
    H, _ = random_diagonalizable(4, seed=2)
    other, _ = random_diagonalizable(4, seed=55)
    pair = full_pipeline(H)
    foreign = full_pipeline(other)
    with pytest.raises(ResidualExceeded) as exc_info:
        intertwiner_from_metrics(pair.metric, foreign.metric, pair.h, foreign.h)
    assert exc_info.value.identity in {"sim", "sym", "A-ph", "eta-prime"}


def test_intertwiner_rejects_non_hermitian_h():
    # the commutant's gate: relative asymmetry at 2x residual_tol in h or h'
    H, _ = random_diagonalizable(4, seed=2)
    pair = full_pipeline(H)
    skew = np.zeros((4, 4), dtype=complex)
    skew[0, 3] = 1.0
    scale = np.linalg.norm(pair.h) / np.linalg.norm(skew - skew.conj().T)
    tilted = pair.h + 2.0 * DEFAULT_TOLERANCES.residual_tol * scale * skew
    for h, h_prime in ((tilted, pair.h), (pair.h, tilted)):
        with pytest.raises(NotHermitian):
            intertwiner_from_metrics(pair.metric, pair.metric, h, h_prime)


def test_member_rejects_a_generator_of_another_h():
    H, _ = random_diagonalizable(5, seed=1)
    other, _ = random_diagonalizable(5, seed=2)
    pair = full_pipeline(H)
    foreign = full_pipeline(other)
    gen = sample_positive_symmetry(commutant_basis(foreign.h, foreign.spectral.clusters), seed=0)
    with pytest.raises(ResidualExceeded) as exc_info:
        metric_from_symmetry(pair.metric, gen, H)
    assert exc_info.value.identity == "H=H"


def test_member_residuals_flag_a_metric_that_is_not_rho_squared():
    # the residual table is the one place B-ph and eta=BB are computed
    H, _ = random_diagonalizable(4, seed=13)
    pair = full_pipeline(H)
    cb = commutant_basis(pair.h, pair.spectral.clusters)
    gen = sample_positive_symmetry(cb, seed=0)
    member = metric_from_symmetry(pair.metric, gen, H)
    assert member.residuals["B-ph"] <= 1e-10
    assert member.residuals["eta=BB"] <= 1e-10
    skewed = copy.copy(pair.metric)
    skewed.eta = pair.metric.eta + 0.5
    bad = metric_from_symmetry(skewed, gen, H)
    assert bad.residuals["eta=BB"] > 1e-3
    assert bad.residuals["B-ph"] <= 1e-10


def _per_cluster_sample(cb, seed, spread=10.0):
    """The reference draw: all n coefficients in one uniform draw, in
    eigenvalue-index order, then the mixer of each cluster of size > 1, in
    cluster order; as (spectrum, {k: V_k})."""
    rng = np.random.default_rng(seed)
    n = cb.h.shape[0]
    spectrum = np.exp(rng.uniform(np.log(1.0 / spread), np.log(spread), size=n))
    mixers = {k: haar_unitary(len(c), rng) for k, c in enumerate(cb.clusters) if len(c) > 1}
    return spectrum, mixers


def _cluster_order_sample(cb, seed, spread=10.0):
    """The earlier reference draw: per cluster, one uniform draw, then its
    mixer if its size is > 1; as (spectrum, {k: V_k})."""
    rng = np.random.default_rng(seed)
    spectrum, mixers = np.zeros(cb.h.shape[0]), {}
    for k, cluster in enumerate(cb.clusters):
        d = len(cluster)
        spectrum[cluster] = np.exp(rng.uniform(np.log(1.0 / spread), np.log(spread), size=d))
        if d > 1:
            mixers[k] = haar_unitary(d, rng)
    return spectrum, mixers


def _per_cluster_layout(cb, mixers):
    """Q = W·blockdiag(V_k), assembled one cluster at a time; a cluster
    with no mixer keeps W's columns."""
    Q = np.zeros(cb.eigenvectors.shape, dtype=complex)
    for k, cluster in enumerate(cb.clusters):
        Q[:, cluster] = cb.eigenvectors[:, cluster] @ mixers.get(k, np.eye(len(cluster)))
    return Q


def _layout_basis(sizes):
    """The commutant of an h whose clusters, in order, have the given sizes."""
    spectrum = np.repeat(np.arange(len(sizes), dtype=float), sizes)
    h = conjugated_diagonal(spectrum, seed=len(sizes))
    cb = commutant_basis(h, cluster_degeneracies(spectrum))
    assert [len(c) for c in cb.clusters] == sizes
    return cb


@pytest.mark.parametrize(
    "sizes",
    [[1, 1, 3, 1, 2, 1, 1, 2], [2, 1, 1, 1, 4], [1] * 7, [3, 3], [1], [2, 1, 2, 3, 1, 3]],
)
def test_singleton_runs_match_the_per_cluster_loop(sizes):
    cb = _layout_basis(sizes)
    for seed in range(3):
        gen = sample_positive_symmetry(cb, seed)
        spectrum_ref, mixers = _per_cluster_sample(cb, seed)
        # the sampler reads the reference's stream bit for bit, and each
        # mixed cluster's columns are its eigenvector block times its mixer
        for k, V_ref in mixers.items():
            block = cb.eigenvectors[:, cb.clusters[k]] @ V_ref
            npt.assert_array_equal(gen.eigenvectors[:, cb.clusters[k]], block)
        Q = _per_cluster_layout(cb, mixers)
        npt.assert_array_equal(gen.eigenvectors, Q)
        npt.assert_array_equal(gen.eigenvalues, spectrum_ref)
        S = (Q * spectrum_ref) @ Q.conj().T
        npt.assert_allclose(gen.matrix, (S + S.conj().T) / 2, rtol=0, atol=1e-14)


@settings(max_examples=40, deadline=None)
@given(
    sizes=st.lists(st.integers(1, 4), min_size=1, max_size=12),
    seed=st.integers(0, 2**32 - 1),
    spread=st.floats(1.0, 1e3),
)
@example(sizes=[1] * 12, seed=0, spread=10.0)
@example(sizes=[2, 3, 4, 2], seed=1, spread=10.0)
@example(sizes=[1, 1, 3, 1, 2, 1, 1, 1, 4, 1], seed=2, spread=1.0)
def test_sampler_draws_the_per_cluster_stream(sizes, seed, spread):
    # the sampler's generator is the one its coefficients and mixers give,
    # all coefficients drawn first, then the mixers
    cb = _layout_basis(sizes)
    gen = sample_positive_symmetry(cb, seed, spread)
    ref = symmetry_from_coefficients(cb, *_per_cluster_sample(cb, seed, spread))
    for name in ("matrix", "sqrt", "eigenvalues", "eigenvectors"):
        npt.assert_array_equal(getattr(gen, name), getattr(ref, name), err_msg=name)


class _CountingRng:
    """A numpy Generator that counts its ``uniform`` calls."""

    def __init__(self, rng):
        self._rng = rng
        self.uniform_calls = 0

    def uniform(self, *args, **kwargs):
        self.uniform_calls += 1
        return self._rng.uniform(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._rng, name)


@pytest.mark.parametrize(
    "sizes",
    [[1] * 256, [1, 1, 3, 1, 2, 1, 1, 2], [3, 3], [2, 1, 1, 1, 4]],
    ids=["256-singletons", "mixed", "no-singleton", "one-run"],
)
def test_a_singleton_run_takes_one_uniform_call(monkeypatch, sizes):
    # one uniform call per draw, whatever the cluster layout
    cb = _layout_basis(sizes)
    made = []
    default_rng = np.random.default_rng

    def counting_rng(*args, **kwargs):
        made.append(_CountingRng(default_rng(*args, **kwargs)))
        return made[-1]

    monkeypatch.setattr(np.random, "default_rng", counting_rng)
    sample_positive_symmetry(cb, seed=3)
    assert [rng.uniform_calls for rng in made] == [1]


@pytest.mark.parametrize(
    "sizes, kept",
    [([1] * 256, True), ([1, 1, 3], True), ([2], True), ([1, 4], True),
     ([2, 1], False), ([1, 3, 1, 1], False), ([2, 2], False)],
)
def test_layouts_with_no_cluster_after_a_mixer_keep_the_cluster_order_draws(sizes, kept):
    # Drawn cluster by cluster, a layout whose only multi-member cluster
    # comes last (or that has none) reads the uniform draws in index order
    # and then that one mixer: the stream of the single uniform(size=n).
    # So spectra of singletons, as on random-256, give the generators, and
    # reports, of the cluster-order draw; a cluster after a mixer does not.
    cb = _layout_basis(sizes)
    for seed in range(3):
        gen = sample_positive_symmetry(cb, seed)
        ref = symmetry_from_coefficients(cb, *_cluster_order_sample(cb, seed))
        same = [
            np.array_equal(getattr(gen, name), getattr(ref, name))
            for name in ("matrix", "sqrt", "eigenvalues", "eigenvectors")
        ]
        assert same == [kept] * 4


def test_singleton_phase_mixers_match_the_per_cluster_loop():
    sizes = [1, 2, 1, 1]
    spectrum = np.repeat(np.arange(len(sizes), dtype=float), sizes)
    cb = commutant_basis(conjugated_diagonal(spectrum, seed=3), cluster_degeneracies(spectrum))
    rng = np.random.default_rng(5)
    # the clusters are contiguous, so their values concatenate in index order
    spectrum = np.concatenate([rng.uniform(0.5, 2.0, size=d) for d in sizes])
    mixers = {k: haar_unitary(d, rng) for k, d in enumerate(sizes)}  # 1×1: a unit phase
    gen = symmetry_from_coefficients(cb, spectrum, mixers)
    npt.assert_array_equal(gen.eigenvectors, _per_cluster_layout(cb, mixers))
    npt.assert_array_equal(gen.eigenvalues, spectrum)
    with pytest.raises(ValueError, match=r"shape \(5,\)"):  # six coefficients for five
        symmetry_from_coefficients(cb, np.ones(6))
    with pytest.raises(ValueError):  # |v|² − 1 = 0.21 for a 1×1 mixer
        symmetry_from_coefficients(cb, spectrum, {**mixers, 0: 1.1 * np.eye(1)})
    with pytest.raises(NotPositiveDefinite):
        symmetry_from_coefficients(cb, [1.0, 1.0, 1.0, -1.0, 1.0])


def test_a_generator_is_rebuilt_from_its_own_fields():
    # the sampled spectrum and the sampler's mixers, replayed, give the
    # sampled generator bit for bit; an explicit identity mixer rewrites its
    # cluster's columns as W_k·I, equal to W_k but in the sign of a zero
    cb = _layout_basis([2, 1, 3])
    gen = sample_positive_symmetry(cb, seed=6)
    _, mixers = _per_cluster_sample(cb, 6)
    for replay in (mixers, {**mixers, 1: np.eye(1)}):
        ref = symmetry_from_coefficients(cb, gen.eigenvalues, replay)
        for name in ("matrix", "sqrt", "eigenvalues", "eigenvectors"):
            npt.assert_array_equal(getattr(ref, name), getattr(gen, name), err_msg=name)
    assert ref.eigenvalues is not gen.eigenvalues  # a copy, not a view


def _relative(defect, *norms):
    return defect / np.prod([np.linalg.norm(M) for M in norms])


def test_one_product_residuals_equal_the_two_product_forms():
    # each one-product residual and its two-product form differ only by
    # the rounding of the second product: a few eps in relative terms
    eps = np.finfo(float).eps
    for seed in range(4):
        H, _ = random_diagonalizable(12, seed=seed)
        pair = full_pipeline(H)
        cb = commutant_basis(pair.h, pair.spectral.clusters)
        gen = sample_positive_symmetry(cb, seed=seed)
        member = metric_from_symmetry(pair.metric, gen, H)
        rho, h, A = pair.metric.rho, gen.h, member.intertwiner
        eta_prime = member.eta_prime.eta
        AdgA = A.conj().T @ A
        AdgA = (AdgA + AdgA.conj().T) / 2
        A_rho = A @ rho
        S = gen.matrix
        two_product = {
            "ph": _relative(np.linalg.norm(H.conj().T @ eta_prime - eta_prime @ H), eta_prime, H),
            "sym": _relative(np.linalg.norm(AdgA @ h - h @ AdgA), AdgA, h),
            "A-ph": _relative(np.linalg.norm(rho @ A.conj().T - A @ rho), rho, A),
            "eta-prime": np.linalg.norm(eta_prime - rho @ AdgA @ rho) / np.linalg.norm(eta_prime),
        }
        for name, value in two_product.items():
            assert abs(member.residuals[name] - value) <= 16 * eps, name
            assert member.residuals[name] <= 1e-13, name
        # the generator's sym gate reads [S, h] off the one product S·h,
        # since S and h are Hermitian bit for bit
        assert np.array_equal(S, S.conj().T) and np.array_equal(h, h.conj().T)
        generator_one_product = _relative(np.linalg.norm(S @ h - (S @ h).conj().T), S, h)
        generator_two_product = _relative(np.linalg.norm(S @ h - h @ S), S, h)
        assert abs(generator_one_product - generator_two_product) <= 16 * eps
        # the one product is formed on A·rho, not on the SVD's eta'
        scale = np.linalg.norm(eta_prime)
        npt.assert_allclose(A_rho.conj().T @ A_rho, eta_prime, atol=1e-12 * scale)


def test_one_product_residual_of_a_broken_identity_is_the_two_product_one():
    # Hermitian operands that do not commute: both forms give an O(1)
    # residual, equal to a few ulps of its value
    h = conjugated_diagonal([1.0, 2.0, 3.0, 5.0], seed=1)
    cb = commutant_basis(h, [[0], [1], [2], [3]])
    other = conjugated_diagonal([1.0, 4.0, 9.0, 16.0], seed=2)
    broken = dataclasses.replace(cb, h=other)
    with pytest.raises(ResidualExceeded) as exc_info:
        symmetry_from_coefficients(broken, [1.0, 2.0, 3.0, 4.0])
    S = (cb.eigenvectors * [1.0, 2.0, 3.0, 4.0]) @ cb.eigenvectors.conj().T
    S = (S + S.conj().T) / 2
    expected = _relative(np.linalg.norm(S @ other - other @ S), S, other)
    assert exc_info.value.identity == "sym"
    assert exc_info.value.value == pytest.approx(expected, rel=1e-13)

import numpy as np
import numpy.testing as npt
import pytest

from quasiherm import (
    ComplexSpectrum,
    NonDiagonalizable,
    ParseError,
    cluster_degeneracies,
    eig_decompose,
    full_pipeline,
    random_diagonalizable,
    run_family,
    two_level,
)
from quasiherm.linalg import haar_unitary


def test_cluster_singletons_for_distinct_values():
    assert cluster_degeneracies(np.array([0.0, 1.0, 2.5])) == [[0], [1], [2]]


def test_cluster_groups_repeats_and_near_repeats():
    assert cluster_degeneracies(np.array([1.0, 1.0, 3.0, 3.0])) == [[0, 1], [2, 3]]
    assert cluster_degeneracies(np.array([1.0, 1.0 + 1e-12, 2.0])) == [[0, 1], [2]]
    # gap 5e-8 is below the 1e-7 * max(spread, 1) threshold, 5e-7 above it
    assert cluster_degeneracies(np.array([0.0, 5e-8, 1.0])) == [[0, 1], [2]]
    assert cluster_degeneracies(np.array([0.0, 5e-7, 1.0])) == [[0], [1], [2]]


def test_cluster_gap_below_unit_scale_follows_the_spectrum():
    # below |lambda| = 1 the gap bound scales with the spectrum itself
    assert cluster_degeneracies(np.array([1e-8, 2e-8])) == [[0], [1]]
    assert cluster_degeneracies(np.array([1e-8, 1e-8 + 1e-16, 2e-8])) == [[0, 1], [2]]
    assert cluster_degeneracies(np.zeros(3)) == [[0, 1, 2]]
    # at or above unit scale the bound is degeneracy_cluster_tol * spread
    assert cluster_degeneracies(np.array([-1.0, -1.0 + 5e-8, 1e-8, 2e-8])) == [[0, 1], [2, 3]]


def test_small_eigenvalue_gap_is_certified_not_merged():
    # gap 6.2e-8, eigenvector condition 7.2e4: two clusters, and the eig
    # certificate holds (merging the pair read 7.1e-3 against 1e-8)
    H = two_level(0.0022266290707282366, 4.2857408727550583e-13, -0.155816221421043)
    data = eig_decompose(H)
    assert data.clusters == [[0], [1]]
    report = run_family(H, samples=2)
    assert report.verdict == "pass", report.failure


def test_cluster_rejects_unsorted_and_empty():
    with pytest.raises(ValueError):
        cluster_degeneracies(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        cluster_degeneracies(np.array([]))
    # every comparison with NaN is false, so a NaN passes the ascending check;
    # an infinity would make a cluster of its own, or of a NaN spread
    inf = float("inf")
    for values in ([1.0, float("nan"), 3.0], [float("nan")], [inf], [-inf, -inf], [1.0, inf]):
        with pytest.raises(ValueError, match="finite and ascending"):
            cluster_degeneracies(values)


def test_eig_decompose_hermitian_gives_unitary_rows(rng):
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    H = (A + A.conj().T) / 2
    data = eig_decompose(H)
    npt.assert_allclose(data.T @ data.T.conj().T, np.eye(5), atol=1e-12)
    npt.assert_allclose(data.eigenvalues.real, np.linalg.eigvalsh(H), atol=1e-12)
    assert data.cond_T < 1.0 + 1e-10


def test_eig_decompose_diagonal_input_gives_identity_rows():
    data = eig_decompose(np.diag([1.0, 2.0]).astype(complex))
    npt.assert_allclose(data.eigenvalues.real, [1.0, 2.0])
    npt.assert_allclose(data.T, np.eye(2), atol=1e-14)


def test_eig_decompose_triangular_left_eigenvectors():
    # left eigenvectors of [[1,1],[0,2]] are (1,-1)/sqrt(2) and (0,1)
    data = eig_decompose(np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex))
    expected = np.array([[1.0, -1.0], [0.0, np.sqrt(2.0)]]) / np.sqrt(2.0)
    npt.assert_allclose(data.T, expected, atol=1e-14)
    npt.assert_allclose(data.eigenvalues.real, [1.0, 2.0], atol=1e-14)


def test_eig_decompose_certifies_row_eigenvector_equation():
    H, _ = random_diagonalizable(6, seed=2)
    data = eig_decompose(H)
    # rows of T are left eigenvectors: T H = H_d T
    residual = np.linalg.norm(data.T @ H - data.eigenvalues.real[:, None] * data.T)
    assert residual <= 1e-10 * np.linalg.norm(H)
    assert np.all(np.diff(data.eigenvalues.real) >= 0)
    npt.assert_allclose(np.linalg.norm(data.T, axis=1), np.ones(6), atol=1e-13)


def test_eig_decompose_matches_generating_spectrum():
    for seed in range(10):
        H, ground_truth = random_diagonalizable(7, seed=seed)
        data = eig_decompose(H)
        npt.assert_allclose(
            data.eigenvalues.real, ground_truth.eigenvalues.real, atol=1e-8
        )


def test_ensemble_round_trip_and_isospectrality(ensemble_pipelines):
    # reconstruction T^-1 H_d T = H and agreement with the generating
    # diagonal over the full 300-sample ensemble
    for H, ground_truth, pair in ensemble_pipelines:
        data = pair.spectral
        recon = np.linalg.solve(data.T, data.eigenvalues.real[:, None] * data.T)
        assert np.linalg.norm(recon - H) <= 1e-8 * np.linalg.norm(H)
        D = ground_truth.eigenvalues.real
        assert np.max(np.abs(data.eigenvalues.real - D)) <= 1e-8 * np.linalg.norm(D)


def test_complex_spectrum_raised_with_offenders():
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]], dtype=complex)
    with pytest.raises(ComplexSpectrum) as exc_info:
        eig_decompose(rotation)
    offenders = np.asarray(exc_info.value.eigenvalues)
    assert offenders.size == 2
    npt.assert_allclose(np.sort(np.abs(offenders.imag)), [1.0, 1.0], atol=1e-12)


def test_jordan_block_rejected():
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    with pytest.raises(NonDiagonalizable) as exc_info:
        eig_decompose(jordan)
    assert exc_info.value.cond is None or exc_info.value.cond > 1e8


def test_larger_defective_matrix_rejected():
    # 3x3 with a 2-block: eigenvalue 1 defective
    J = np.array([[1, 1, 0], [0, 1, 0], [0, 0, 2]], dtype=complex)
    with pytest.raises(NonDiagonalizable):
        eig_decompose(J)


def test_degenerate_similarity_clusters_and_certifies():
    W = haar_unitary(4, np.random.default_rng(0))
    base = W @ np.diag([1.0, 1.0, 3.0, 3.0]).astype(complex) @ W.conj().T
    rng = np.random.default_rng(5)
    M = np.eye(4) + 0.3 * (rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    H = np.linalg.solve(M, base @ M)
    data = eig_decompose(H)
    assert [len(c) for c in data.clusters] == [2, 2]
    npt.assert_allclose(data.eigenvalues.real, [1, 1, 3, 3], atol=1e-9)
    # within-cluster rows are orthonormalized
    for cluster in data.clusters:
        block = data.T[cluster]
        npt.assert_allclose(block @ block.conj().T, np.eye(len(cluster)), atol=1e-10)


def test_scaled_rotation_lists_both_complex_eigenvalues():
    theta = np.array([[2.0, 5.0], [-5.0, 2.0]], dtype=complex)
    with pytest.raises(ComplexSpectrum):
        eig_decompose(theta)


@pytest.mark.parametrize("stage", [cluster_degeneracies, eig_decompose, full_pipeline])
def test_overflowing_spread_is_an_input_error_without_a_warning(stage):
    # ‖H‖_F = 1.4e308 is finite, the eigenvalue spread 2e308 is not; the
    # suite turns warnings into errors, so an overflow warning fails here
    H = np.diag([-1e308, 1e308])
    with pytest.raises(ParseError, match="overflow"):
        stage(np.diagonal(H) if stage is cluster_degeneracies else H)

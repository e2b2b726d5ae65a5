import dataclasses

import numpy as np
import numpy.testing as npt
import pytest

from quasiherm import (
    ResidualExceeded,
    commutant_basis,
    eig_decompose,
    full_pipeline,
    hermitian_equivalent,
    metric_from_symmetry,
    metric_from_T,
    random_diagonalizable,
    sample_positive_symmetry,
    swanson,
    two_level,
)
from quasiherm.linalg import haar_unitary, hermitian_from_basis
from quasiherm.metric import MetricOperator, verify_pseudo_hermitian
from test_factorization_count import clustered_hamiltonian


def test_metric_from_identity_rows():
    metric = metric_from_T(np.eye(3, dtype=complex))
    npt.assert_allclose(metric.eta, np.eye(3), atol=1e-15)
    npt.assert_allclose(metric.rho, np.eye(3), atol=1e-15)
    assert metric.singular_values[-1] ** 2 == pytest.approx(1.0)


def test_metric_from_unitary_rows_is_identity():
    U = haar_unitary(4, np.random.default_rng(2))
    npt.assert_allclose(metric_from_T(U).eta, np.eye(4), atol=1e-13)


def test_full_pipeline_identity_input():
    pair = full_pipeline(np.eye(3))
    npt.assert_allclose(pair.metric.eta, np.eye(3), atol=1e-13)
    npt.assert_allclose(pair.h, np.eye(3), atol=1e-13)


def test_two_level_metric_closed_form():
    pair = full_pipeline(two_level(1, 4, 0))
    npt.assert_allclose(pair.metric.eta, np.diag([1.6, 0.4]), atol=1e-12)
    npt.assert_allclose(np.linalg.eigvalsh(pair.h), [-2.0, 2.0], atol=1e-12)
    npt.assert_allclose(pair.h, pair.h.conj().T, atol=1e-13)


def test_upper_triangular_metric_closed_form():
    H = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    pair = full_pipeline(H)
    npt.assert_allclose(
        pair.metric.eta, np.array([[0.5, -0.5], [-0.5, 1.5]]), atol=1e-12
    )
    assert pair.metric.pseudo_hermiticity_residual <= 1e-14
    npt.assert_allclose(np.linalg.eigvalsh(pair.h), [1.0, 2.0], atol=1e-12)


def test_verify_pseudo_hermitian_values():
    H = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    eta = np.array([[0.5, -0.5], [-0.5, 1.5]], dtype=complex)
    assert verify_pseudo_hermitian(H, eta) < 1e-15
    # identity is not a metric for this H: residual = |H+ - H| / (|I| |H|)
    assert verify_pseudo_hermitian(H, np.eye(2)) == pytest.approx(1 / np.sqrt(6))


def test_metric_certifies_against_hamiltonian(monkeypatch):
    H = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    # a unitary row basis is not the left eigenbasis of H
    W, s, Vh = np.linalg.svd(haar_unitary(2, np.random.default_rng(1)))
    spectral = dataclasses.replace(eig_decompose(H), metric=MetricOperator(W @ Vh, s, Vh))
    monkeypatch.setattr("quasiherm.metric.eig_decompose", lambda A, tol: spectral)
    with pytest.raises(ResidualExceeded) as exc_info:
        full_pipeline(H)
    assert exc_info.value.identity == "ph"


def test_hermitian_equivalent_rejects_wrong_metric():
    H = np.array([[1.0, 1.0], [0.0, 2.0]], dtype=complex)
    identity_metric = MetricOperator(
        unitary=np.eye(2, dtype=complex),
        singular_values=np.ones(2),
        right_vectors=np.eye(2, dtype=complex),
    )
    with pytest.raises(ResidualExceeded) as exc_info:
        hermitian_equivalent(H, identity_metric, np.diag([1.0, 2.0]))
    assert exc_info.value.identity == "H=H"


def test_hermitian_equivalent_rejects_a_non_unitary_polar_factor():
    H, _ = random_diagonalizable(5, seed=9)
    spectral = eig_decompose(H)
    metric = metric_from_T(spectral.T)
    assert verify_pseudo_hermitian(H, metric.eta) <= 1e-12
    K = np.diag(spectral.eigenvalues.real)
    assert hermitian_equivalent(H, metric, K).similarity_residual <= 1e-12
    scaled = dataclasses.replace(metric, unitary=2 * metric.unitary)
    with pytest.raises(ResidualExceeded) as exc_info:
        hermitian_equivalent(H, scaled, K)
    assert exc_info.value.identity == "H=H"


@pytest.mark.parametrize(
    "H",
    [random_diagonalizable(64, 0)[0], swanson(40, 2, 0.3, 0.5), two_level(1, 4, 0)],
    ids=["random-64", "swanson-40", "two_level"],
)
def test_hermitian_equivalent_takes_K_only_as_a_matrix(H):
    # H_d is passed as diag(λ), the pipeline's own form, to the same bits;
    # its diagonal alone is not a square matrix
    spectral = eig_decompose(H)
    eigenvalues = spectral.eigenvalues.real
    pair = hermitian_equivalent(H, spectral.metric, np.diag(eigenvalues))
    npt.assert_array_equal(pair.h, full_pipeline(H).h)
    n = len(eigenvalues)
    with pytest.raises(ValueError, match=rf"expected a square matrix, got shape \({n},\)"):
        hermitian_equivalent(H, spectral.metric, eigenvalues)


def test_full_pipeline_random_ensemble_properties():
    for seed in range(8):
        H, ground_truth = random_diagonalizable(6, seed=seed)
        pair = full_pipeline(H)
        eta, rho, h = pair.metric.eta, pair.metric.rho, pair.h
        npt.assert_allclose(rho @ rho, eta, atol=1e-11 * np.linalg.norm(eta))
        assert pair.metric.singular_values[-1] ** 2 > 0
        assert pair.metric.pseudo_hermiticity_residual <= 1e-10
        assert pair.similarity_residual <= 1e-10
        npt.assert_allclose(h, h.conj().T, atol=1e-11 * np.linalg.norm(h))
        npt.assert_allclose(
            np.linalg.eigvalsh(h), ground_truth.eigenvalues.real, atol=1e-9
        )
        # unitary factor diagonalizes: h = U+ H_d U
        spectral = pair.spectral
        U = pair.metric.unitary
        recon = (U.conj().T * spectral.eigenvalues.real) @ U
        npt.assert_allclose(recon, h, atol=1e-9 * np.linalg.norm(h))


def test_ensemble_unitary_equivalence(ensemble_pipelines):
    # the two constructions of h agree and h is isospectral with H,
    # across the full 300-sample ensemble
    for H, ground_truth, pair in ensemble_pipelines:
        norm_H = np.linalg.norm(H)
        U = pair.metric.unitary
        recon = (U.conj().T * pair.spectral.eigenvalues.real) @ U
        assert np.linalg.norm(recon - pair.h) <= 1e-8 * norm_H
        spectrum_h = np.linalg.eigvalsh(pair.h)
        assert np.max(np.abs(spectrum_h - ground_truth.eigenvalues.real)) <= 1e-8 * norm_H


def test_hermitian_input_gives_identity_metric():
    rng = np.random.default_rng(17)
    A = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    H = (A + A.conj().T) / 2
    pair = full_pipeline(H)
    npt.assert_allclose(pair.metric.eta, np.eye(5), atol=1e-10)
    npt.assert_allclose(pair.h, H, atol=1e-10 * np.linalg.norm(H))


def test_pipeline_metric_is_left_eigenbasis_gram_matrix():
    H, _ = random_diagonalizable(5, seed=23)
    spectral = eig_decompose(H)
    metric = metric_from_T(spectral.T)
    assert verify_pseudo_hermitian(H, metric.eta) <= 1e-12
    npt.assert_allclose(
        metric.eta, spectral.T.conj().T @ spectral.T, atol=1e-13
    )


def test_pseudo_hermitian_residual_of_a_non_hermitian_eta_takes_both_products():
    rng = np.random.default_rng(8)
    H = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    eta = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    norms = np.linalg.norm(eta) * np.linalg.norm(H)
    expected = np.linalg.norm(H.conj().T @ eta - eta @ H) / norms
    assert verify_pseudo_hermitian(H, eta) == expected
    # a Hermitian eta that is no metric of H: the one-product form, the
    # same O(1) value to a few ulps
    eta = (eta + eta.conj().T) / 2
    norms = np.linalg.norm(eta) * np.linalg.norm(H)
    expected = np.linalg.norm(H.conj().T @ eta - eta @ H) / norms
    assert verify_pseudo_hermitian(H, eta) == pytest.approx(expected, rel=1e-14)


def test_rho_inv_is_formed_from_the_svd_when_first_read():
    H, _ = random_diagonalizable(6, seed=4)
    spectral = eig_decompose(H)
    # the spectral stage's metric is T's SVD alone: nothing is formed yet
    assert not {"eta", "rho", "rho_inv"} & set(vars(spectral.metric))
    metric = metric_from_T(spectral.T)
    assert verify_pseudo_hermitian(H, metric.eta) <= 1e-12
    assert "rho_inv" not in vars(metric)
    _, s, Vh = np.linalg.svd(spectral.T)
    npt.assert_array_equal(metric.rho_inv, hermitian_from_basis(Vh, 1 / s))
    assert vars(metric)["rho_inv"] is metric.rho_inv  # kept after the first read
    # a family member's inverse root is never read, so never formed
    pair = full_pipeline(H)
    assert pair.metric is pair.spectral.metric
    gen = sample_positive_symmetry(commutant_basis(pair.h, pair.spectral.clusters), seed=1)
    member = metric_from_symmetry(pair.metric, gen, H)
    assert "rho_inv" not in vars(member.eta_prime)
    npt.assert_allclose(member.eta_prime.rho_inv @ member.eta_prime.rho, np.eye(6), atol=1e-12)


def test_cond_T_of_clustered_spectra_comes_from_the_metric_svd():
    rng = np.random.default_rng(3)
    D = np.repeat([-1.0, 0.5, 2.0], [3, 1, 2])
    T0 = haar_unitary(6, rng) @ np.diag(np.exp(rng.uniform(0, 2, 6))) @ haar_unitary(6, rng)
    H = np.linalg.solve(T0, D[:, None] * T0)
    spectral = eig_decompose(H)
    assert [len(c) for c in spectral.clusters] == [3, 1, 2]
    pair = full_pipeline(H)
    s = pair.metric.singular_values
    assert pair.spectral.cond_T == s[0] / s[-1]
    assert pair.spectral.cond_T == pytest.approx(spectral.cond_T, rel=1e-12)


def _relative_gap(A, B):
    return np.linalg.norm(A - B) / np.linalg.norm(B)


@pytest.mark.parametrize("case", [*range(2, 9), "clustered"])
def test_row_phases_of_T_pick_no_metric(case):
    # (D·T)†(D·T) = T†T for a diagonal unitary D, and D commutes with
    # H_d, so eigendata need no row-phase convention
    if case == "clustered":
        H = clustered_hamiltonian()  # clusters of sizes 3, 1 and 2
    else:
        H, _ = random_diagonalizable(case, seed=case)
    spectral = eig_decompose(H)
    n = H.shape[0]
    H_d = np.diag(spectral.eigenvalues.real)
    phases = np.exp(2j * np.pi * np.random.default_rng(n).uniform(size=n))
    base = metric_from_T(spectral.T)
    rotated = metric_from_T(phases[:, None] * spectral.T)
    for name in ("eta", "rho", "rho_inv", "singular_values"):
        assert _relative_gap(getattr(rotated, name), getattr(base, name)) <= 1e-12, name
    h = hermitian_equivalent(H, base, H_d).h
    assert _relative_gap(hermitian_equivalent(H, rotated, H_d).h, h) <= 1e-12

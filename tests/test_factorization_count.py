"""Exact numpy.linalg factorization counts of the metric constructions."""

from collections import Counter

import numpy as np
import pytest

from quasiherm import (
    ModelSpec,
    Tolerances,
    commutant_basis,
    eig_decompose,
    full_pipeline,
    intertwiner_from_metrics,
    metric_from_symmetry,
    random_diagonalizable,
    run_analyze,
    run_spectrum,
    sample_positive_symmetry,
)

# numpy.linalg entry points that factorize their argument
FACTORIZING = (
    "svd", "cond", "matrix_rank", "pinv", "eig", "eigvals", "eigh", "eigvalsh",
    "solve", "qr", "inv", "cholesky", "lstsq", "det", "slogdet",
)


@pytest.fixture
def linalg_calls(monkeypatch):
    """Count calls to each factorizing numpy.linalg entry point by name."""
    counts = Counter()
    for name in FACTORIZING:
        original = getattr(np.linalg, name)

        def counted(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counted)
    return counts


def clustered_hamiltonian():
    """H = T0⁻¹·D·T0 with clusters of sizes 3, 1 and 2."""
    rng = np.random.default_rng(3)
    D = np.repeat([-1.0, 0.5, 2.0], [3, 1, 2])
    T0 = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    return np.linalg.solve(T0, D[:, None] * T0)


def test_full_pipeline_factorizations(linalg_calls):
    H, _ = random_diagonalizable(6, seed=3)
    linalg_calls.clear()
    full_pipeline(H)
    # eig_decompose: eig and one SVD of T, which gives cond_T and the
    # metric's factors; hermitian_equivalent factorizes nothing
    assert linalg_calls == Counter(eig=1, svd=1)


def test_cond_T_is_the_metric_svd_on_singleton_clusters():
    H, _ = random_diagonalizable(6, seed=3)
    pair = full_pipeline(H)
    assert all(len(cluster) == 1 for cluster in pair.spectral.clusters)
    s = pair.metric.singular_values
    assert pair.spectral.cond_T == s[0] / s[-1]


def test_run_spectrum_factorizations(linalg_calls):
    H, _ = random_diagonalizable(6, seed=3)
    linalg_calls.clear()
    assert run_spectrum(H).verdict == "pass"
    # eig and the one SVD of T that gives cond_T
    assert linalg_calls == Counter(eig=1, svd=1)


def test_run_spectrum_factorizations_on_a_clustered_spectrum(linalg_calls):
    H = clustered_hamiltonian()
    linalg_calls.clear()
    assert run_spectrum(H).verdict == "pass"
    # eig, the raw rows' singular values, one QR per cluster of two or more
    # and the SVD of the normalized T
    assert linalg_calls == Counter(eig=1, svd=2, qr=2)


def test_hermitian_input_takes_the_same_eig(linalg_calls):
    U = np.linalg.qr(np.random.default_rng(4).standard_normal((6, 6)))[0]
    H = (U * np.arange(1.0, 7.0)) @ U.T
    linalg_calls.clear()
    pair = full_pipeline(H)
    # no Hermitian eigensolver: eig and the one SVD of T
    assert linalg_calls == Counter(eig=1, svd=1)
    np.testing.assert_allclose(pair.metric.eta, np.eye(6), atol=1e-12)


def test_family_member_is_one_svd(linalg_calls):
    H, _ = random_diagonalizable(6, seed=3)
    pair = full_pipeline(H)
    generator = sample_positive_symmetry(commutant_basis(pair.h, pair.spectral.clusters), seed=1)
    linalg_calls.clear()
    member = metric_from_symmetry(pair.metric, generator, H)
    assert linalg_calls == Counter(svd=1)
    assert member.max_residual <= 1e-12


def test_converse_makes_no_factorization(linalg_calls):
    H, _ = random_diagonalizable(6, seed=3)
    pair = full_pipeline(H)
    generator = sample_positive_symmetry(commutant_basis(pair.h, pair.spectral.clusters), seed=1)
    member = metric_from_symmetry(pair.metric, generator, H)
    linalg_calls.clear()
    # rho⁻¹ comes from the metric's own SVD
    intertwiner_from_metrics(pair.metric, member.eta_prime, pair.h, member.h_prime)
    intertwiner_from_metrics(member.eta_prime, pair.metric, member.h_prime, pair.h)
    assert linalg_calls == Counter()


def test_run_analyze_factorizations(linalg_calls):
    spec = ModelSpec("random_diagonalizable", {"seed": 3}, dim=6)
    report = run_analyze(spec, samples=2)
    assert report.verdict == "pass"
    # build_model: two Haar QRs and one solve, no ground truth; full_pipeline:
    # eig + one SVD of T; the commutant certifies the metric's eigenbasis of
    # h without a factorization; each member: one SVD
    assert linalg_calls == Counter(qr=2, solve=1, eig=1, svd=3)


def test_run_analyze_factorizations_on_a_clustered_spectrum(linalg_calls):
    H = clustered_hamiltonian()
    linalg_calls.clear()
    report = run_analyze(H, samples=2)
    assert report.verdict == "pass"
    # full_pipeline: eig, the raw rows' singular values, one QR per cluster
    # of two or more and the SVD of T; each member: one Haar QR per such
    # cluster and one SVD; no eigh
    assert linalg_calls == Counter(eig=1, svd=4, qr=6)


def test_clustered_spectrum_condition_comes_from_the_metric_svd(linalg_calls):
    H = clustered_hamiltonian()
    linalg_calls.clear()
    eig_decompose(H)
    # eig, the raw rows' singular values, one QR per cluster of two or more,
    # and the SVD of the normalized T
    assert linalg_calls == Counter(eig=1, svd=2, qr=2)
    linalg_calls.clear()
    full_pipeline(H)
    # the metric is built from the spectral stage's SVD of T
    assert linalg_calls == Counter(eig=1, svd=2, qr=2)


@pytest.mark.parametrize("clustered", [False, True], ids=["singletons", "clusters"])
def test_spectrum_and_analyze_refuse_the_same_T_alike(clustered):
    # T's gate runs once, in the spectral stage: a cap just under cond_T
    # refuses the normalized T as NonDiagonalizable under every command
    H = clustered_hamiltonian() if clustered else random_diagonalizable(6, seed=3)[0]
    tol = Tolerances(condition_cap=eig_decompose(H).cond_T * (1 - 1e-6))
    for run in (run_spectrum, run_analyze):
        report = run(H, tol)
        assert report.verdict == "error"
        assert report.error["type"] == "NonDiagonalizable"
        assert report.error["cond"] > tol.condition_cap

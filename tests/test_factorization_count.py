"""Exact numpy.linalg factorization counts of the metric constructions."""

from collections import Counter

import numpy as np
import pytest

from quasiherm import (
    ModelSpec,
    commutant_basis,
    eig_decompose,
    full_pipeline,
    intertwiner_from_metrics,
    metric_from_symmetry,
    random_diagonalizable,
    run_analyze,
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
    # eig_decompose: eig and the raw condition SVD (singleton clusters: the
    # normalized T's condition is the raw one); metric_from_T: one SVD;
    # hermitian_equivalent factorizes nothing
    assert linalg_calls == Counter(eig=1, svd=2)


def test_hermitian_input_takes_the_same_eig(linalg_calls):
    U = np.linalg.qr(np.random.default_rng(4).standard_normal((6, 6)))[0]
    H = (U * np.arange(1.0, 7.0)) @ U.T
    linalg_calls.clear()
    pair = full_pipeline(H)
    # no Hermitian eigensolver: eig, the raw condition SVD and the metric's SVD
    assert linalg_calls == Counter(eig=1, svd=2)
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
    # eig + 2 SVDs; the commutant certifies the metric's eigenbasis of h
    # without a factorization; each member: one SVD
    assert linalg_calls == Counter(qr=2, solve=1, eig=1, svd=4)


def test_run_analyze_factorizations_on_a_clustered_spectrum(linalg_calls):
    H = clustered_hamiltonian()
    linalg_calls.clear()
    report = run_analyze(H, samples=2)
    assert report.verdict == "pass"
    # full_pipeline: eig, 2 SVDs and one QR per cluster of two or more; each
    # member: one Haar QR per such cluster and one SVD; no eigh
    assert linalg_calls == Counter(eig=1, svd=4, qr=6)


def test_clustered_spectrum_condition_comes_from_the_metric_svd(linalg_calls):
    H = clustered_hamiltonian()
    linalg_calls.clear()
    eig_decompose(H)
    # eig, the raw condition SVD, one QR per cluster of two or more, and
    # the SVD of the normalized T
    assert linalg_calls == Counter(eig=1, svd=2, qr=2)
    linalg_calls.clear()
    full_pipeline(H)
    # the normalized T's condition number is metric_from_T's SVD
    assert linalg_calls == Counter(eig=1, svd=2, qr=2)

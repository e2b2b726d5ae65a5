import numpy as np
import numpy.testing as npt
import pytest

from quasiherm import (
    InvalidModelParameters,
    ModelSpec,
    build_model,
    full_pipeline,
    random_diagonalizable,
    swanson,
    two_level,
)
from quasiherm.models import describe_model


def test_two_level_layout():
    H = two_level(1, 4, 0.5)
    npt.assert_allclose(H, np.array([[0.5, 1.0], [4.0, 0.5]]))


def test_two_level_spectrum_closed_form():
    # eigenvalues d +- sqrt(bc) over random valid draws
    rng = np.random.default_rng(0)
    for _ in range(100):
        d = rng.uniform(-3, 3)
        root = rng.uniform(0.1, 4.0)
        phase = np.exp(2j * np.pi * rng.uniform())
        b = root * phase
        c = root / phase  # bc = root^2 real positive
        H = two_level(b, c, d)
        expected = np.sort([d - root, d + root])
        npt.assert_allclose(np.sort(np.linalg.eigvals(H).real), expected, atol=1e-12)
        assert np.max(np.abs(np.linalg.eigvals(H).imag)) <= 1e-12


def test_two_level_hermitian_subcase():
    H = two_level(0, 0, 1.5)
    npt.assert_allclose(H, 1.5 * np.eye(2))
    H2 = two_level(1 + 2j, 1 - 2j, 0.0)
    npt.assert_allclose(H2, H2.conj().T)


def test_two_level_rejects_complex_spectrum_parameters():
    with pytest.raises(InvalidModelParameters):
        two_level(1, -1, 0)
    with pytest.raises(InvalidModelParameters):
        two_level(1, 1j, 0)
    with pytest.raises(InvalidModelParameters):
        two_level(1, 1, 1j)


def test_swanson_free_case_is_diagonal():
    H = swanson(6, omega=2.0, alpha=0.0, beta=0.0)
    npt.assert_allclose(H, np.diag(2.0 * (np.arange(6) + 0.5)))


def test_swanson_matrix_elements():
    H = swanson(8, omega=1.0, alpha=0.25, beta=0.75)
    n = np.arange(6)
    ladder = np.sqrt((n + 1) * (n + 2))
    npt.assert_allclose(H[np.arange(6), np.arange(2, 8)], 0.25 * ladder)
    npt.assert_allclose(H[np.arange(2, 8), np.arange(6)], 0.75 * ladder)
    assert np.max(np.abs(H.imag)) == 0.0
    # equal couplings give a real symmetric (Hermitian) matrix
    sym = swanson(8, omega=1.0, alpha=0.5, beta=0.5)
    npt.assert_allclose(sym, sym.conj().T)


def test_swanson_parameter_gates():
    with pytest.raises(InvalidModelParameters):
        swanson(3, omega=1.0, alpha=0.0, beta=0.0)
    with pytest.raises(InvalidModelParameters):
        swanson(10, omega=0.0, alpha=0.0, beta=0.0)
    with pytest.raises(InvalidModelParameters):
        swanson(10, omega=-2.0, alpha=0.0, beta=0.0)


def test_swanson_reality_window():
    # interior (lowest-quarter) eigenvalues stay real across the coupling grid
    dim = 60
    for alpha in np.linspace(-0.6, 0.6, 5):
        for beta in np.linspace(-0.6, 0.6, 5):
            H = swanson(dim, omega=2.0, alpha=alpha, beta=beta)
            eigs = np.linalg.eigvals(H)
            order = np.argsort(eigs.real)
            interior = eigs[order][: dim // 4]
            assert np.max(np.abs(interior.imag)) <= 1e-8 * np.linalg.norm(H)


def test_random_diagonalizable_round_trip():
    for seed in range(20):
        H, ground_truth = random_diagonalizable(6, seed=seed)
        # rows of the ground-truth transform are left eigenvectors
        residual = np.linalg.norm(
            ground_truth.T @ H - ground_truth.eigenvalues.real[:, None] * ground_truth.T
        )
        assert residual <= 1e-10 * np.linalg.norm(H)
        pair = full_pipeline(H)
        npt.assert_allclose(
            pair.spectral.eigenvalues.real,
            ground_truth.eigenvalues.real,
            atol=1e-8,
        )


def test_random_diagonalizable_is_seed_deterministic():
    H1, _ = random_diagonalizable(5, seed=9)
    H2, _ = random_diagonalizable(5, seed=9)
    npt.assert_array_equal(H1, H2)
    H3, _ = random_diagonalizable(5, seed=10)
    assert not np.allclose(H1, H3)


def test_random_diagonalizable_condition_bound_respected():
    for seed in range(10):
        _, ground_truth = random_diagonalizable(7, seed=seed, cond_bound=50.0)
        assert ground_truth.cond_T <= 50.0 + 1e-6


def test_unitary_case_gives_identity_metric():
    # cond_bound 1 forces a unitary transform, hence a normal H and eta = I
    H, _ = random_diagonalizable(5, seed=3, cond_bound=1.0)
    pair = full_pipeline(H)
    npt.assert_allclose(pair.metric.eta, np.eye(5), atol=1e-10)


def test_random_diagonalizable_validation():
    with pytest.raises(InvalidModelParameters):
        random_diagonalizable(0, seed=1)
    with pytest.raises(InvalidModelParameters):
        random_diagonalizable(4, seed=1, cond_bound=0.5)


def test_build_model_dispatch():
    H = build_model(ModelSpec("two_level", {"b": 1, "c": 4}, dim=2))
    npt.assert_allclose(H, two_level(1, 4))
    H = build_model(ModelSpec("swanson", {"omega": 2.0, "alpha": 0.1, "beta": 0.2}, dim=10))
    npt.assert_allclose(H, swanson(10, 2.0, 0.1, 0.2))
    H = build_model(ModelSpec("random_diagonalizable", {"seed": 3}, dim=5))
    npt.assert_allclose(H, random_diagonalizable(5, seed=3)[0])


def test_build_model_gates():
    # a ModelSpec is a plain record: build_model is what refuses it
    with pytest.raises(InvalidModelParameters):
        build_model(ModelSpec("unknown_kind"))
    with pytest.raises(InvalidModelParameters):
        build_model(ModelSpec("two_level", {}, dim=3))
    with pytest.raises(InvalidModelParameters):
        build_model(ModelSpec("random_diagonalizable", {"seed": 1, "cond_bound": 500.0}, dim=4))
    with pytest.raises(InvalidModelParameters):
        build_model(ModelSpec("random_diagonalizable", {}, dim=4))
    with pytest.raises(InvalidModelParameters):
        build_model(ModelSpec("swanson", {}, dim=0))


def test_cond_bound_is_checked_once_with_one_message():
    def spec(cond_bound, dim=4):
        return ModelSpec("random_diagonalizable", {"seed": 1, "cond_bound": cond_bound}, dim=dim)

    # a ModelSpec's cond_bound is capped at SPEC_COND_CAP, a direct call's is not
    for value in (0.5, 500.0):
        message = rf"^cond_bound must be in \[1, 100\.0\], got {value}$"
        with pytest.raises(InvalidModelParameters, match=message):
            build_model(spec(value))
    message = r"^cond_bound must be in \[1, inf\], got 0\.5$"
    with pytest.raises(InvalidModelParameters, match=message):
        random_diagonalizable(4, seed=1, cond_bound=0.5)
    npt.assert_array_equal(build_model(spec(100.0)), random_diagonalizable(4, 1, 100.0)[0])
    random_diagonalizable(4, seed=1, cond_bound=500.0)
    # the dim is read before the cond_bound
    with pytest.raises(InvalidModelParameters, match="^dim must be an integer >= 1, got 0$"):
        build_model(spec(500.0, dim=0))


def test_describe_model_serializes_complex_parameters():
    spec = ModelSpec("two_level", {"b": 1 + 2j, "c": 1 - 2j, "d": 0.5}, dim=2)
    desc = describe_model(spec)
    assert desc["kind"] == "two_level"
    assert desc["parameters"]["b"] == [1.0, 2.0]
    assert desc["parameters"]["d"] == 0.5

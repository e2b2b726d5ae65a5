import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quasiherm import (
    IllConditioned,
    NotHermitian,
    ParseError,
    SingularTransform,
    Tolerances,
    commutant_basis,
    metric_from_T,
)
from quasiherm.linalg import (
    ZERO_NORM_FLOOR,
    as_matrix,
    frobenius_norm,
    gate_singular_values,
    haar_unitary,
    hermitian_part,
    hermiticity_defect,
    relative_residual,
)


def test_as_matrix_rejects_bad_shapes():
    with pytest.raises(ValueError):
        as_matrix(np.ones((2, 3)))
    with pytest.raises(ValueError):
        as_matrix(np.ones(4))
    with pytest.raises(ValueError):
        as_matrix(np.array([[np.nan, 0], [0, 1]]))
    with pytest.raises(ValueError):
        as_matrix(np.zeros((0, 0)))


@pytest.mark.parametrize(
    "M", [{}, object(), [[1, {}], [0, 1]], [[10**5000, 0], [0, 1]]],
    ids=["dict", "object", "list-holding-a-dict", "list-holding-10**5000"],
)
def test_as_matrix_refuses_what_is_not_an_array_of_numbers(M):
    with pytest.raises(ValueError, match="expected an array of numbers"):
        as_matrix(M)


def test_frobenius_norm_matches_numpy(rng):
    M = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    assert np.isclose(frobenius_norm(M), np.linalg.norm(M, "fro"))


def test_frobenius_norm_known_values():
    assert frobenius_norm(np.zeros((2, 2))) == 0.0
    assert frobenius_norm(np.eye(3)) == pytest.approx(np.sqrt(3))
    assert frobenius_norm(np.array([[3.0, 4.0], [0.0, 0.0]])) == pytest.approx(5.0)


@pytest.mark.parametrize("c", [5e-324, 1e-310, 1e-300, 1e-160, 1e-154, 1.0, 1e154, 1e300])
def test_frobenius_norm_is_accurate_across_the_float64_range(c):
    # the plain sum of squares reads 0 below 1.5e-154 and inf above 1.34e154
    M = c * np.array([[1.0, 1.0j], [0.0, 2.0]])
    # within two units of the last place, subnormal ones included
    assert frobenius_norm(M) == pytest.approx(np.sqrt(6.0) * c, rel=4e-16, abs=1e-323)


def test_frobenius_norm_and_relative_residual_refuse_overflow():
    # an entry whose modulus overflows still has a finite norm
    assert frobenius_norm(np.array([[1e308 + 1e308j]])) == pytest.approx(np.sqrt(2.0) * 1e308)
    with pytest.raises(ParseError, match="Frobenius norm overflows"):
        frobenius_norm(1.5e308 * np.eye(2))
    with pytest.raises(ParseError, match="product of Frobenius norms overflows"):
        relative_residual(1.0, 1e300 * 1e300)


def test_hermitian_part_and_defect(rng):
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    Hp = hermitian_part(M)
    npt.assert_allclose(Hp, Hp.conj().T)
    assert hermiticity_defect(Hp) < 1e-15
    assert hermiticity_defect(np.array([[0, 1], [0, 0]], dtype=complex)) > 0.5


# The Hermitian eigendecomposition is commutant_basis's: it gates the
# asymmetry of h, replaces h by its Hermitian part and keeps eigh's pairs.


def singletons(M):
    return [[i] for i in range(len(M))]


def test_hermitize_accepts_small_defect_rejects_large():
    M = np.array([[1.0, 0.5 + 1e-12j], [0.5 - 1.0e-12j, 2.0]])
    out = commutant_basis(M, singletons(M)).h
    npt.assert_array_equal(out, out.conj().T)
    npt.assert_allclose(out, M, atol=1e-12)
    with pytest.raises(NotHermitian):
        commutant_basis(np.array([[0, 1], [0, 0]], dtype=complex), [[0], [1]])


def test_hermitian_eig_ascending_and_reconstructs(rng):
    A = rng.standard_normal((6, 6)) + 1j * rng.standard_normal((6, 6))
    M = hermitian_part(A @ A.conj().T)
    cb = commutant_basis(M, singletons(M))
    values, V = cb.eigenvalues, cb.eigenvectors
    assert np.all(np.diff(values) >= 0)
    npt.assert_allclose(V.conj().T @ V, np.eye(6), atol=1e-13)
    npt.assert_allclose((V * values) @ V.conj().T, M, atol=1e-12)


def test_hermitian_eig_rejects_non_hermitian():
    with pytest.raises(NotHermitian):
        commutant_basis(np.array([[0, 1], [0, 0]], dtype=complex), [[0], [1]])


def test_hermitian_eig_known_spectra():
    cb = commutant_basis(np.diag([2.0, 1.0]).astype(complex), [[0], [1]])
    npt.assert_allclose(cb.eigenvalues, [1.0, 2.0])
    npt.assert_allclose(np.abs(cb.eigenvectors), [[0, 1], [1, 0]], atol=1e-15)
    cb = commutant_basis(np.array([[0, 1], [1, 0]], dtype=complex), [[0], [1]])
    npt.assert_allclose(cb.eigenvalues, [-1.0, 1.0], atol=1e-15)
    cb = commutant_basis(np.array([[2, 1], [1, 2]], dtype=complex), [[0], [1]])
    npt.assert_allclose(cb.eigenvalues, [1.0, 3.0], atol=1e-14)


# The positive root of eta = M†M, its inverse and the polar unitary come from
# one SVD of M (metric_from_T); they replace a positive-definite square root
# and a solve.


def test_sqrt_pd_closed_form():
    # R†R = [[2, 1], [1, 2]], eigenpairs (1, 3) with +-45 degree eigenvectors
    R = np.array([[np.sqrt(2.0), 1 / np.sqrt(2.0)], [0.0, np.sqrt(1.5)]], dtype=complex)
    m = metric_from_T(R)
    r3 = np.sqrt(3.0)
    expected = 0.5 * np.array([[r3 + 1, r3 - 1], [r3 - 1, r3 + 1]])
    npt.assert_allclose(m.eta, [[2.0, 1.0], [1.0, 2.0]], atol=1e-14)
    npt.assert_allclose(m.rho, expected, atol=1e-14)
    npt.assert_allclose(m.rho_inv, np.linalg.inv(expected), atol=1e-14)


def test_sqrt_pd_squares_back(rng):
    F = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5))
    m = metric_from_T(F)
    R, eta = m.rho, m.eta
    npt.assert_allclose(R, R.conj().T, atol=1e-13)
    npt.assert_allclose(eta, F.conj().T @ F, atol=1e-12)
    npt.assert_allclose(R @ R, eta, atol=1e-11)


def test_sqrt_pd_diagonal_cases():
    m = metric_from_T(np.eye(3, dtype=complex))
    npt.assert_allclose(m.rho, np.eye(3), atol=1e-15)
    npt.assert_allclose(m.eta, np.eye(3), atol=1e-15)
    m = metric_from_T(np.diag([2.0, 3.0]).astype(complex))
    npt.assert_allclose(m.rho, np.diag([2.0, 3.0]), atol=1e-14)
    npt.assert_allclose(m.eta, np.diag([4.0, 9.0]), atol=1e-14)


def random_invertible(n, rng, smin=0.5, smax=2.0):
    s = rng.uniform(smin, smax, n)
    return haar_unitary(n, rng) @ (s[:, None] * haar_unitary(n, rng))


def test_sqrt_and_eig_property_ensemble():
    # 200 random invertible factors and Hermitian positive-definite
    # matrices with sizes up to 10
    rng = np.random.default_rng(6)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        F = random_invertible(n, rng)
        m = metric_from_T(F)
        R, R_inv, eta = m.rho, m.rho_inv, m.eta
        assert frobenius_norm(R @ R - eta) <= 1e-10 * frobenius_norm(eta)
        assert frobenius_norm(eta - F.conj().T @ F) <= 1e-10 * frobenius_norm(eta)
        assert frobenius_norm(R @ R_inv - np.eye(n)) <= 1e-10
        V = haar_unitary(n, rng)
        M = hermitian_part((V * rng.uniform(0.1, 3.0, n)) @ V.conj().T)
        cb = commutant_basis(M, singletons(M))
        values, W = cb.eigenvalues, cb.eigenvectors
        assert frobenius_norm((W * values) @ W.conj().T - M) <= 1e-10 * frobenius_norm(M)


def test_polar_property_ensemble():
    # 200 random invertible transforms with sizes up to 10
    rng = np.random.default_rng(7)
    for _ in range(200):
        n = int(rng.integers(1, 11))
        T = random_invertible(n, rng)
        m = metric_from_T(T)
        U, P, P_inv, s = m.unitary, m.rho, m.rho_inv, m.singular_values
        assert frobenius_norm(T - U @ P) <= 1e-10 * frobenius_norm(T)
        assert frobenius_norm(U.conj().T @ U - np.eye(n)) <= 1e-10
        assert frobenius_norm(P @ P_inv - np.eye(n)) <= 1e-10
        npt.assert_allclose(P, P.conj().T, atol=1e-12)
        assert np.linalg.eigvalsh(P)[0] > 0
        npt.assert_allclose(s, np.linalg.svd(T, compute_uv=False), rtol=1e-12)


def test_polar_identity_and_scalar():
    m = metric_from_T(np.eye(3, dtype=complex))
    npt.assert_allclose(m.unitary, np.eye(3), atol=1e-14)
    npt.assert_allclose(m.rho, np.eye(3), atol=1e-14)
    m = metric_from_T(2 * np.eye(2, dtype=complex))
    npt.assert_allclose(m.unitary, np.eye(2), atol=1e-14)
    npt.assert_allclose(m.rho, 2 * np.eye(2), atol=1e-14)
    # a factor's Gram matrix is never indefinite: a sign goes to the unitary
    m = metric_from_T(np.diag([1.0, -1.0]).astype(complex))
    npt.assert_allclose(m.unitary, np.diag([1.0, -1.0]), atol=1e-15)
    npt.assert_allclose(m.rho, np.eye(2), atol=1e-15)


def test_solve_matches_direct(rng):
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 3 * np.eye(4)
    b = rng.standard_normal((4, 4)) + 0j
    m = metric_from_T(A)
    # A = U·P, so A⁻¹ = P⁻¹·U†
    x = m.rho_inv @ (m.unitary.conj().T @ b)
    npt.assert_allclose(A @ x, b, atol=1e-12)


def test_solve_diagonal_and_self_inverse(rng):
    m = metric_from_T(np.diag([2.0, 4.0]).astype(complex))
    npt.assert_allclose(m.rho_inv, np.diag([0.5, 0.25]), atol=1e-15)
    m = metric_from_T(random_invertible(5, rng))
    npt.assert_allclose(m.rho @ m.rho_inv, np.eye(5), atol=1e-12)
    npt.assert_allclose(m.rho_inv @ m.rho, np.eye(5), atol=1e-12)


def test_solve_gates_singular_and_ill_conditioned():
    with pytest.raises(SingularTransform):
        metric_from_T(np.diag([1.0, 0.0]).astype(complex))
    with pytest.raises(SingularTransform):
        # below machine-relative rank floor
        metric_from_T(np.diag([1.0, 1e-17]).astype(complex))
    for small in (1e-9, 1e-11):
        with pytest.raises(IllConditioned):
            # above roundoff, but the condition exceeds the default cap 1e8
            metric_from_T(np.diag([1.0, small]).astype(complex))


def test_the_condition_cap_alone_bounds_a_factor_above_roundoff():
    # cond 2e10 is within a cap of 1e12, however small σ_min is against ‖T‖
    m = metric_from_T(np.diag([1.0, 5e-11]).astype(complex), Tolerances(condition_cap=1e12))
    npt.assert_allclose(m.singular_values, [1.0, 5e-11])


@example(s=np.array([1.0, 5e-11]), cap=1e12)
@given(
    s=hnp.arrays(
        np.float64, st.integers(1, 64), elements=st.floats(0.0, np.finfo(np.float64).max)
    ),
    cap=st.floats(10.0, 1e15),
)
@settings(max_examples=300, deadline=None)
def test_gate_singular_values_is_roundoff_then_the_cap(s, cap):
    smax, smin = s.max(), s.min()
    tol = Tolerances(condition_cap=cap)
    if smin <= max(ZERO_NORM_FLOOR, np.finfo(np.float64).eps * smax):
        with pytest.raises(SingularTransform):
            gate_singular_values(s, tol)
    elif smax / smin > cap:
        with pytest.raises(IllConditioned):
            gate_singular_values(s, tol)
    else:
        gate_singular_values(s, tol)


def test_solve_right_inverts_from_the_right(rng):
    A = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)) + 3 * np.eye(4)
    B = rng.standard_normal((4, 4)) + 0j
    m = metric_from_T(A)
    X = B @ m.rho_inv @ m.unitary.conj().T
    npt.assert_allclose(X @ A, B, atol=1e-12)


def test_polar_decompose_closed_form():
    T = np.array([[0.0, 2.0], [1.0, 0.0]], dtype=complex)
    m = metric_from_T(T)
    npt.assert_allclose(m.unitary, np.array([[0, 1], [1, 0]]), atol=1e-14)
    npt.assert_allclose(m.rho, np.diag([1.0, 2.0]), atol=1e-14)
    npt.assert_allclose(m.rho_inv, np.diag([1.0, 0.5]), atol=1e-14)
    npt.assert_allclose(m.eta, np.diag([1.0, 4.0]), atol=1e-14)
    npt.assert_allclose(m.singular_values, [2.0, 1.0], atol=1e-14)
    assert m.singular_values[-1] ** 2 == pytest.approx(1.0)


def test_polar_decompose_properties(rng):
    T = rng.standard_normal((5, 5)) + 1j * rng.standard_normal((5, 5)) + 2 * np.eye(5)
    m = metric_from_T(T)
    U, P, P_inv, eta = m.unitary, m.rho, m.rho_inv, m.eta
    npt.assert_allclose(U.conj().T @ U, np.eye(5), atol=1e-12)
    npt.assert_allclose(P, P.conj().T, atol=1e-13)
    assert np.linalg.eigvalsh(P)[0] > 0
    npt.assert_allclose(U @ P, T, atol=1e-11)
    npt.assert_allclose(P @ P_inv, np.eye(5), atol=1e-12)
    npt.assert_allclose(eta, T.conj().T @ T, atol=1e-11)


def test_polar_decompose_rejects_singular():
    with pytest.raises(SingularTransform):
        metric_from_T(np.array([[1, 0], [1, 0]], dtype=complex))
    with pytest.raises(SingularTransform):
        metric_from_T(np.zeros((2, 2), dtype=complex))


def test_haar_unitary_unitary_and_seeded():
    U1 = haar_unitary(6, np.random.default_rng(3))
    U2 = haar_unitary(6, np.random.default_rng(3))
    npt.assert_allclose(U1.conj().T @ U1, np.eye(6), atol=1e-13)
    npt.assert_array_equal(U1, U2)
    U3 = haar_unitary(6, np.random.default_rng(4))
    assert not np.allclose(U1, U3)


def test_tolerances_validation():
    with pytest.raises(ValueError):
        Tolerances(residual_tol=0.0)
    with pytest.raises(ValueError):
        Tolerances(condition_cap=0.5)
    t = Tolerances(residual_tol=1e-6)
    assert t.residual_tol == 1e-6

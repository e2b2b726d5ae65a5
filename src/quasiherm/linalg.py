"""Dense complex matrix kernels.

Arithmetic, norms and the singular-value gate, all on square complex128
arrays, and one rule per kind of scalar argument, :func:`require_integer`
or :func:`require_real`. These are the primitives everything else composes.
Every metric is built by one function, :func:`~quasiherm.spectral.metric_from_T`:
one SVD of its factor M = W·Σ·V†, its Σ gated (:func:`gate_singular_values`),
held with the polar unitary W·V† (:class:`~quasiherm.spectral.MetricOperator`):
the metric V·Σ²·V†, its root V·Σ·V† and the root's inverse V·Σ⁻¹·V† are
formed from Σ and V†, so no inverse is applied through a linear solve.
Each Hermitian factor, sigma⁻¹ included, is V·diag(d)·V† made Hermitian
bit for bit (:func:`hermitian_from_basis`), which lets a commutator with
it be read off one product P as P − P†.

All residual checks are relative to operand norms; a matrix whose Frobenius
norm is below ``ZERO_NORM_FLOOR`` is treated as zero and checked absolutely.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .errors import IllConditioned, ParseError, ResidualExceeded, SingularTransform

# Frobenius norms below this are indistinguishable from zero in double precision.
ZERO_NORM_FLOOR = 1e-300

# Below this plain Frobenius norm its squares may have lost digits to underflow.
RESCALED_NORM_BELOW = 1e-140


@dataclass(frozen=True)
class Tolerances:
    """Numerical gates shared across the pipeline, each an int or a float (not
    a bool), finite and strictly positive, else a ValueError naming it.

    spectral_reality_tol
        Bound on |Im lambda| / max(|lambda|, min(rho, 1)) for an eigenvalue
        to count as real, rho = max|lambda|: relative with a floor of 1 at
        rho >= 1, and never absolute for a small H.
    residual_tol
        Relative bound on every certified residual; equality passes (:func:`gate_residual`).
    degeneracy_cluster_tol
        Bound on an eigenvalue gap / max(spread, min(rho, 1)) below which
        two eigenvalues share a cluster.
    condition_cap
        Largest acceptable condition number σ_max/σ_min.

    ``condition_cap`` is the one bound on the singular values of the
    factor being rooted or inverted (``T``, ``sigma·rho``, ``rho``,
    ``sigma``), never on its square ``eta``: a factor within the cap
    yields a metric, its root and the root's inverse, although the
    condition number of ``eta`` itself may reach the cap squared. A factor
    singular at roundoff is a ``SingularTransform`` whatever the cap. T's
    gate runs once, in the spectral stage, as ``NonDiagonalizable``.
    """

    spectral_reality_tol: float = 1e-9
    residual_tol: float = 1e-8
    degeneracy_cluster_tol: float = 1e-7
    condition_cap: float = 1e8

    def __post_init__(self):
        for f in fields(self):  # strictly positive: 5e-324 is the least positive float64
            require_real(getattr(self, f.name), f.name, 5e-324)
        if self.condition_cap <= 1:
            raise ValueError("condition_cap must exceed 1")


def require_integer(value, name: str, low: int, error=ValueError):
    """``value``, an int or np.integer (not a bool) >= ``low`` that str can write, or ``error``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        try:
            str(value)  # past sys.get_int_max_str_digits(), no report could record it
        except ValueError:
            raise error(f"{name} has more digits than Python writes") from None
        if value >= low:
            return value
    raise error(f"{name} must be an integer >= {low}, got {value!r}")


def require_real(value, name: str, low: float, error=ValueError):
    """``value``, an int or a float (not a bool), what a report's JSON writes, in
    [``low``, float64 max], or ``error``, which writes no digits of an int past float64."""
    top = float(np.finfo(np.float64).max)
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise error(f"{name} must be an int or a float, got {type(value).__name__}")
    if not low <= value <= top:  # a NaN fails too
        huge = isinstance(value, int) and abs(value) > top
        raise error(f"{name} must be in [{low:.6g}, {top:.6g}], got "
                    + ("an int beyond float64" if huge else repr(value)))
    return value


DEFAULT_TOLERANCES = Tolerances()


def require_tolerances(tol, error=ValueError) -> Tolerances:
    """``tol`` if it is a Tolerances, else ``error`` naming its type. Every
    tolerance read goes through here, so a building block refuses a bad
    ``tol`` at its first read, ``eig_decompose`` after its ``eig``: for a
    caller's programming error, less code than a check in every function."""
    if not isinstance(tol, Tolerances):
        raise error(f"tol must be a Tolerances, got {type(tol).__name__}")
    return tol


def as_matrix(M) -> np.ndarray:
    """Coerce to a square complex128 matrix of finite numbers, or raise a ValueError."""
    try:
        A = np.asarray(M, dtype=np.complex128)
    except (TypeError, ValueError, OverflowError) as exc:  # a ValueError: a string, say
        raise ValueError(f"expected an array of numbers ({exc})") from None
    if A.ndim != 2 or A.shape[0] != A.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {A.shape}")
    if A.shape[0] == 0:
        raise ValueError("matrix must have positive dimension")
    if not np.all(np.isfinite(A.real)) or not np.all(np.isfinite(A.imag)):
        raise ValueError("matrix entries must be finite")
    return A


def frobenius_norm(M) -> float:
    """Frobenius norm sqrt(sum |entries|^2), accurate over the whole float64 range.

    The plain sum of squares overflows above ‖M‖_F ≈ 1.34e154 and loses
    digits to underflow below ``RESCALED_NORM_BELOW``; only then is the
    norm taken again of M divided by its largest real or imaginary part,
    which no division can overflow. A norm above the largest float64 is a
    :class:`ParseError`, as every x/inf would read 0.
    """
    with np.errstate(over="ignore", under="ignore"):
        norm = float(np.linalg.norm(M))
        if not RESCALED_NORM_BELOW <= norm < np.inf:
            parts = (np.real(M), np.imag(M))  # a complex division could read 0/0
            scale = max(float(np.abs(part).max()) for part in parts)
            if 0 < scale < np.inf:  # an inf entry: inf/inf would read NaN
                norm = scale * float(np.hypot(*(np.linalg.norm(part / scale) for part in parts)))
    if norm == np.inf:
        raise ParseError(f"a Frobenius norm overflows (‖M‖_F above {np.finfo(float).max:.3e})")
    return norm


def hermitian_part(M: np.ndarray) -> np.ndarray:
    """(M + M†)/2, no tolerance gate; halved first, so no finite M overflows."""
    P = M / 2
    P += P.conj().T
    return P


def relative_residual(numerator: float, denominator: float) -> float:
    """numerator / denominator, or the numerator itself for a ~zero denominator.

    An infinite denominator (a product of finite norms that overflows) is a
    :class:`ParseError`: the quotient would read 0 whatever the numerator.
    """
    if denominator == np.inf:
        raise ParseError(f"a product of Frobenius norms overflows (numerator {numerator:.3e})")
    return numerator if denominator <= ZERO_NORM_FLOOR else numerator / denominator


def gate_residual(identity: str, value: float, tol: Tolerances) -> float:
    """``value`` if at most ``residual_tol``, else ResidualExceeded naming ``identity``."""
    bound = require_tolerances(tol).residual_tol
    if not value <= bound:  # a NaN trips too
        raise ResidualExceeded(identity, value, bound)
    return value


def adjoint_defect(P: np.ndarray) -> float:
    """||P - P†||_F.

    For X equal to its adjoint bit for bit, Y†·X = (X·Y)†, so a residual
    ||Y†·X − X·Y|| is this defect of the one product P = X·Y.
    """
    return frobenius_norm(P - P.conj().T)


def unitarity_defect(U: np.ndarray) -> float:
    """||U†U - I||_F of a square U."""
    return frobenius_norm(U.conj().T @ U - np.eye(len(U)))


def hermiticity_defect(M: np.ndarray) -> float:
    """Relative asymmetry ||M - M†|| / ||M|| (absolute for ~zero M)."""
    return relative_residual(adjoint_defect(M), frobenius_norm(M))


def gate_singular_values(s: np.ndarray, tol: Tolerances = DEFAULT_TOLERANCES) -> None:
    """Gate the singular values s of a matrix M about to be rooted or inverted.

    :class:`SingularTransform` when M is singular at roundoff, σ_min at or
    below max(``ZERO_NORM_FLOOR``, ε·σ_max); otherwise
    :class:`IllConditioned` when σ_max/σ_min exceeds ``condition_cap``.
    Either carries σ_max/σ_min as ``cond``, inf when σ_min is 0.
    """
    smax, smin = float(s.max()), float(s.min())
    cond = smax / smin if smin > 0 else np.inf  # Python floats: an overflow reads inf
    floor = max(ZERO_NORM_FLOOR, np.finfo(np.float64).eps * smax)
    if smin <= floor:
        message = f"smallest singular value {smin:.3e} at roundoff, ≤ {floor:.3e}"
        raise SingularTransform(message, cond)
    cap = require_tolerances(tol).condition_cap
    if cond > cap:
        raise IllConditioned(f"condition estimate {cond:.3e} exceeds cap {cap:.3e}", cond)


def hermitian_from_basis(Vh: np.ndarray, d: np.ndarray) -> np.ndarray:
    """V·diag(d)·V† for V = Vh† and real d, made Hermitian bit for bit by hermitian_part."""
    return hermitian_part((Vh.conj().T * d) @ Vh)


def haar_unitary(n: int, rng: np.random.Generator) -> np.ndarray:
    """Haar-distributed random n×n unitary (QR of a complex Ginibre draw)."""
    z = (rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))) / np.sqrt(2.0)
    q, r = np.linalg.qr(z)
    diag = np.diagonal(r)
    # fix the QR phase ambiguity so the distribution is exactly Haar
    return q * (diag / np.abs(diag))

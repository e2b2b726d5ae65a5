"""Concrete Hamiltonian families: closed-form, truncated, and randomized.

Three input generators exercise the pipeline from different angles. The
two-level family has hand-checkable metrics, the Swanson-type oscillator
probes truncation of an unbounded problem, and the random ensemble
produces diagonalizable-with-real-spectrum matrices by construction
together with their generating data.
"""

from __future__ import annotations

import cmath
from collections.abc import Mapping
from dataclasses import dataclass, field
from numbers import Integral, Number, Real
from sys import float_info

import numpy as np

from .errors import InvalidModelParameters
from .linalg import haar_unitary
from .spectral import SpectralData, cluster_degeneracies

# Each model kind with the parameters it takes and their defaults (None: required).
MODEL_KINDS = {
    "two_level": {"b": 1.0, "c": 1.0, "d": 0.0},
    "swanson": {"omega": 2.0, "alpha": 0.0, "beta": 0.0},
    "random_diagonalizable": {"seed": None, "cond_bound": 100.0},
}

# Relative slack for parameter reality/positivity gates.
PARAM_TOL = 1e-12

# Largest condition bound a ModelSpec may request for the random ensemble.
SPEC_COND_CAP = 100.0


@dataclass
class ModelSpec:
    """Named model plus parameters, as accepted from the command line: a plain
    record, checked when it is run, by :func:`build_model` inside ``run_*``."""

    kind: str
    parameters: dict = field(default_factory=dict)
    dim: int = 2


def _require_integer(value, name: str, low: int, error=InvalidModelParameters):
    """``value``, an int or np.integer (not a bool) >= ``low`` that str can write, or ``error``."""
    if isinstance(value, (int, np.integer)) and not isinstance(value, bool):
        try:
            str(value)  # past sys.get_int_max_str_digits(), no report could record it
        except ValueError:
            raise error(f"{name} has more digits than Python writes") from None
        if value >= low:
            return value
    raise error(f"{name} must be an integer >= {low}, got {value!r}")


def _require_spread(value, name: str, error) -> None:
    """``error`` unless ``value`` is a real number (not a bool) in [1, float64 max]."""
    top = float_info.max
    if isinstance(value, bool) or not isinstance(value, Real) or not 1.0 <= value <= top:
        huge = isinstance(value, int) and abs(value) > top  # its repr may be too long to write
        shown = "an int beyond float64" if huge else repr(value)
        raise error(f"{name} must be a real number in [1, {top:.6g}], got {shown}")


def _require_finite(value, name: str) -> complex:
    """``value``, a finite number (not a bool), as a complex, or InvalidModelParameters."""
    if isinstance(value, bool) or not isinstance(value, Number):
        raise InvalidModelParameters(f"{name} must be a number, got {value!r}")
    try:
        z = complex(value)
    except OverflowError:  # an integer beyond float64's range, maybe too long to write
        raise InvalidModelParameters(f"{name} must be finite, got an int beyond float64") from None
    if not cmath.isfinite(z):
        raise InvalidModelParameters(f"{name} must be finite, got {value!r}")
    return z


def _require_real(value, name: str) -> float:
    z = _require_finite(value, name)
    if abs(z.imag) > PARAM_TOL * max(abs(z), 1.0):
        raise InvalidModelParameters(f"{name} must be real, got {value!r}")
    return z.real


def two_level(b, c, d=0.0) -> np.ndarray:
    """Two-level Hamiltonian d·I + [[0, b], [c, 0]] with spectrum d ± √(bc).

    The spectrum is real iff bc is real and positive, or in the Hermitian
    subcase b = conj(c) (then bc = |b|² ≥ 0). Anything else is rejected.
    """
    b = _require_finite(b, "b")
    c = _require_finite(c, "c")
    d = _require_real(d, "d")

    product = b * c
    hermitian_case = abs(b - np.conj(c)) <= PARAM_TOL * max(abs(b) + abs(c), 1.0)
    real_positive = (
        product.real > 0.0 and abs(product.imag) <= PARAM_TOL * max(abs(product), 1.0)
    )
    if not (real_positive or hermitian_case):
        raise InvalidModelParameters(
            f"off-diagonal product b*c = {product!r} is not real positive "
            "and b != conj(c); the spectrum would be complex"
        )

    H = np.array([[d, b], [c, d]], dtype=np.complex128)
    return H


def swanson(dim: int, omega: float, alpha: float, beta: float) -> np.ndarray:
    """Number-basis truncation of ω(a†a + 1/2) + α·a² + β·a†².

    Real-valued and non-symmetric for α ≠ β. Matrix elements
    (a²)_{n,n+2} = √((n+1)(n+2)) and its transpose for a†². Hard
    truncation distorts the top of the spectrum, so only interior
    eigenvalues of the result are physically meaningful. ``dim`` is an
    integer >= 4: a float or a bool is refused, not coerced.
    """
    _require_integer(dim, "dim", 4)
    omega = _require_real(omega, "omega")
    if omega <= 0:
        raise InvalidModelParameters("omega must be positive")
    alpha = _require_real(alpha, "alpha")
    beta = _require_real(beta, "beta")

    n = np.arange(dim, dtype=np.float64)
    H = np.diag(omega * (n + 0.5)).astype(np.complex128)
    ladder = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
    a_sq = np.zeros((dim, dim), dtype=np.complex128)
    a_sq[np.arange(dim - 2), np.arange(2, dim)] = ladder
    H += alpha * a_sq + beta * a_sq.T
    return H


def _random_transform(n: int, seed: int, cond_bound: float):
    """Sorted spectrum D, transform T₀ and H = T₀⁻¹·D·T₀ of the random ensemble."""
    _require_integer(n, "dim", 1)
    cond_bound = _require_real(cond_bound, "cond_bound")
    if cond_bound < 1.0:
        raise InvalidModelParameters(f"cond_bound must be >= 1, got {cond_bound!r}")
    _require_integer(seed, "seed", 0)

    rng = np.random.default_rng(seed)
    D = np.sort(rng.uniform(-5.0, 5.0, size=n))
    s = np.exp(rng.uniform(0.0, np.log(cond_bound), size=n))
    T0 = haar_unitary(n, rng) @ (s[:, None] * haar_unitary(n, rng))
    H = np.linalg.solve(T0, D[:, None] * T0)
    return D, T0, H


def random_diagonalizable(
    n: int, seed: int, cond_bound: float = 100.0
) -> tuple[np.ndarray, SpectralData]:
    """Random H = T₀⁻¹·D·T₀ with real spectrum, plus its generating data.

    D is a sorted uniform draw on [-5, 5] and T₀ = W₁·diag(s)·W₂ with Haar
    unitaries W and singular values s log-uniform on [1, cond_bound], so
    cond(T₀) ≤ cond_bound by construction. Deterministic per seed. The
    returned ground truth carries T₀ in row-normalized form.
    ``n`` is an integer >= 1 and ``seed`` one >= 0 that ``str`` can write,
    so a report can record it; a float or a bool is refused, not coerced.
    """
    D, T0, H = _random_transform(n, seed, cond_bound)
    T = T0 / np.linalg.norm(T0, axis=1)[:, None]
    singular = np.linalg.svd(T, compute_uv=False)
    ground_truth = SpectralData(
        eigenvalues=D.astype(np.complex128),
        T=T,
        cond_T=float(singular[0] / singular[-1]),
        clusters=cluster_degeneracies(D.astype(np.complex128)),
    )
    return H, ground_truth


def build_model(spec: ModelSpec) -> np.ndarray:
    """Realize a ModelSpec as a matrix: the one place a spec is checked.

    An :class:`InvalidModelParameters` names the field or parameter refused: a ``kind``
    not in ``MODEL_KINDS``, ``parameters`` not a mapping, a ``dim`` that is not an integer
    (a bool is not) or not in the kind's range, a name the kind does not take, a
    ``cond_bound`` above ``SPEC_COND_CAP``, or a value the kind's builder refuses. The
    builders refuse a value that is not a number (a bool is not), so a builder called
    directly takes the rules a spec takes.
    """
    if not isinstance(spec.kind, str) or spec.kind not in MODEL_KINDS:
        raise InvalidModelParameters(
            f"kind {spec.kind!r} is not a model; expected one of {', '.join(MODEL_KINDS)}"
        )
    if not isinstance(spec.parameters, Mapping):
        raise InvalidModelParameters(f"parameters must be a mapping, not {type(spec.parameters)}")
    defaults = MODEL_KINDS[spec.kind]
    for name in spec.parameters:
        if name not in defaults:
            raise InvalidModelParameters(
                f"{name} is not a {spec.kind} parameter; it takes {', '.join(defaults)}"
            )
    p = {**defaults, **spec.parameters}
    if spec.kind == "two_level":
        if _require_integer(spec.dim, "dim", 2) != 2:
            raise InvalidModelParameters(f"dim must be 2 for two_level, got {spec.dim!r}")
        return two_level(p["b"], p["c"], p["d"])
    if spec.kind == "swanson":
        return swanson(spec.dim, p["omega"], p["alpha"], p["beta"])
    cond_bound = _require_real(p["cond_bound"], "cond_bound")
    if cond_bound > SPEC_COND_CAP:
        raise InvalidModelParameters(
            f"requested condition bound {cond_bound} exceeds the cap {SPEC_COND_CAP}"
        )
    return _random_transform(spec.dim, p["seed"], cond_bound)[2]


def describe_model(spec: ModelSpec) -> dict:
    """JSON-friendly descriptor of a spec :func:`build_model` accepted.

    An integer parameter is recorded as that integer, any other as a float,
    or as an [re, im] pair when complex.
    """
    params = {}
    for key in sorted(spec.parameters):
        value = spec.parameters[key]
        if isinstance(value, Integral):
            params[key] = int(value)
            continue
        value = complex(value)
        params[key] = value.real if value.imag == 0.0 else [value.real, value.imag]
    return {"kind": spec.kind, "dim": int(spec.dim), "parameters": params}

"""Concrete Hamiltonian families: closed-form, truncated, and randomized.

Three input generators exercise the pipeline from different angles. The
two-level family has hand-checkable metrics, the Swanson-type oscillator
probes truncation of an unbounded problem, and the random ensemble
produces diagonalizable-with-real-spectrum matrices by construction
together with their generating data.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidModelParameters
from .linalg import haar_unitary
from .spectral import SpectralData, _fix_row_phases, cluster_degeneracies

MODEL_KINDS = ("two_level", "swanson", "random_diagonalizable")

# Relative slack for parameter reality/positivity gates.
PARAM_TOL = 1e-12

# Largest condition bound a ModelSpec may request for the random ensemble.
SPEC_COND_CAP = 100.0


@dataclass
class ModelSpec:
    """Named model plus parameters, as accepted from the command line."""

    kind: str
    parameters: dict = field(default_factory=dict)
    dim: int = 2

    def __post_init__(self) -> None:
        if self.kind not in MODEL_KINDS:
            raise InvalidModelParameters(
                f"unknown model kind {self.kind!r}, expected one of {MODEL_KINDS}"
            )
        self.dim = int(self.dim)
        if self.dim < 1:
            raise InvalidModelParameters("model dimension must be positive")


def _require_real(value, name: str) -> float:
    z = complex(value)
    if abs(z.imag) > PARAM_TOL * max(abs(z), 1.0):
        raise InvalidModelParameters(f"{name} must be real, got {value!r}")
    return z.real


def two_level(b, c, d=0.0) -> np.ndarray:
    """Two-level Hamiltonian d·I + [[0, b], [c, 0]] with spectrum d ± √(bc).

    The spectrum is real iff bc is real and positive, or in the Hermitian
    subcase b = conj(c) (then bc = |b|² ≥ 0). Anything else is rejected.
    """
    b = complex(b)
    c = complex(c)
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
    eigenvalues of the result are physically meaningful.
    """
    dim = int(dim)
    if dim < 4:
        raise InvalidModelParameters("swanson truncation needs dim >= 4")
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
    n = int(n)
    if n < 1:
        raise InvalidModelParameters("matrix size must be positive")
    if cond_bound < 1.0:
        raise InvalidModelParameters("cond_bound must be >= 1")

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
    returned ground truth carries T₀ in row-normalized, phase-fixed form.
    """
    D, T0, H = _random_transform(n, seed, cond_bound)
    T = T0 / np.linalg.norm(T0, axis=1)[:, None]
    T = _fix_row_phases(T)
    singular = np.linalg.svd(T, compute_uv=False)
    ground_truth = SpectralData(
        eigenvalues=D.astype(np.complex128),
        T=T,
        cond_T=float(singular[0] / singular[-1]),
        clusters=cluster_degeneracies(D.astype(np.complex128)),
    )
    return H, ground_truth


def build_model(spec: ModelSpec) -> np.ndarray:
    """Realize a ModelSpec as a matrix, enforcing the per-kind invariants."""
    p = spec.parameters
    if spec.kind == "two_level":
        if spec.dim != 2:
            raise InvalidModelParameters("two_level is a 2x2 model")
        return two_level(p.get("b", 1.0), p.get("c", 1.0), p.get("d", 0.0))
    if spec.kind == "swanson":
        return swanson(
            spec.dim, p.get("omega", 2.0), p.get("alpha", 0.0), p.get("beta", 0.0)
        )
    cond_bound = float(p.get("cond_bound", 100.0))
    if cond_bound > SPEC_COND_CAP:
        raise InvalidModelParameters(
            f"requested condition bound {cond_bound} exceeds the cap {SPEC_COND_CAP}"
        )
    if "seed" not in p:
        raise InvalidModelParameters("random_diagonalizable requires a seed")
    return _random_transform(spec.dim, int(p["seed"]), cond_bound)[2]


def describe_model(spec: ModelSpec) -> dict:
    """JSON-friendly descriptor; complex parameters become [re, im] pairs."""
    params = {}
    for key in sorted(spec.parameters):
        value = complex(spec.parameters[key])
        params[key] = value.real if value.imag == 0.0 else [value.real, value.imag]
    return {"kind": spec.kind, "dim": spec.dim, "parameters": params}

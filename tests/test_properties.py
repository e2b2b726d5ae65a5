"""Every input the models can produce ends as pass, a named fail or a typed error.

``run_family`` is drawn over the parameter space of each model, over
clustered ``H = T0⁻¹·D·T0`` and over scales on both sides of the Frobenius
norm's overflow; no exception may leave it, an error must be a
:class:`QuasiHermError`, and a fail must name the identity that tripped.
"""

import re

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiherm import ModelSpec, QuasiHermError, random_diagonalizable, run_family
from quasiherm.linalg import DEFAULT_TOLERANCES, haar_unitary
from quasiherm.symmetry import FAMILY_IDENTITIES

TOL = DEFAULT_TOLERANCES.residual_tol
_FAIL_NAMES = re.compile(
    r"(eig|projector completeness|sym\[cluster \d+\]|sym|"
    + "|".join(re.escape(name) for name in FAMILY_IDENTITIES)
    + ")"
)
_SETTINGS = settings(max_examples=100, deadline=None)
# the largest ‖H‖_F whose sum of squares is a finite float64
_NORM_LIMIT = float(np.sqrt(np.finfo(np.float64).max))
_finite = st.floats(-3.0, 3.0, allow_nan=False)


def _error_types(cls=QuasiHermError):
    names = {cls.__name__}
    for sub in cls.__subclasses__():
        names |= _error_types(sub)
    return names


ERROR_TYPES = _error_types()


def assert_ends_typed(report):
    """pass with every residual within tol, a named fail, or a typed error."""
    assert report.verdict in ("pass", "fail", "error")
    if report.verdict == "pass":
        assert max(report.residuals.values()) <= TOL
        assert all(member.max_residual <= TOL for member in report.family)
        assert len(report.family) == 2
    elif report.verdict == "fail":
        failure = report.failure
        assert _FAIL_NAMES.fullmatch(failure["identity"]), failure
        assert failure["value"] > failure["bound"] == TOL
    else:
        assert report.error["type"] in ERROR_TYPES, report.error


@_SETTINGS
@given(
    dim=st.integers(1, 32),
    seed=st.integers(0, 2**32 - 1),
    cond_bound=st.floats(1.0, 100.0),
)
def test_random_diagonalizable_ends_typed(dim, seed, cond_bound):
    spec = ModelSpec("random_diagonalizable", {"seed": seed, "cond_bound": cond_bound}, dim=dim)
    assert_ends_typed(run_family(spec, samples=2, seed=seed % 1000))


@_SETTINGS
@given(b=_finite, c=_finite, d=_finite)
def test_two_level_ends_typed(b, c, d):
    spec = ModelSpec("two_level", {"b": b, "c": c, "d": d}, dim=2)
    assert_ends_typed(run_family(spec, samples=2))


@_SETTINGS
@given(
    dim=st.integers(4, 32),
    omega=st.floats(0.05, 5.0),
    alpha=_finite,
    beta=_finite,
)
def test_swanson_ends_typed(dim, omega, alpha, beta):
    spec = ModelSpec("swanson", {"omega": omega, "alpha": alpha, "beta": beta}, dim=dim)
    assert_ends_typed(run_family(spec, samples=2))


@_SETTINGS
@given(
    levels=st.lists(st.integers(-8, 8), min_size=1, max_size=6, unique=True),
    multiplicities=st.lists(st.integers(1, 4), min_size=6, max_size=6),
    seed=st.integers(0, 2**32 - 1),
    cond_bound=st.floats(1.0, 100.0),
)
def test_clustered_spectra_pass(levels, multiplicities, seed, cond_bound):
    # repeated levels half a unit apart or more, cond(T0) <= cond_bound
    D = np.repeat(np.sort(levels) / 2.0, multiplicities[: len(levels)])
    n = D.size
    rng = np.random.default_rng(seed)
    s = np.exp(rng.uniform(0.0, np.log(cond_bound), size=n))
    T0 = haar_unitary(n, rng) @ (s[:, None] * haar_unitary(n, rng))
    report = run_family(np.linalg.solve(T0, D[:, None] * T0), samples=2, seed=seed % 1000)
    assert_ends_typed(report)
    assert report.verdict == "pass", report.failure or report.error
    assert report.commutant["cluster_sizes"] == multiplicities[: len(levels)]


@_SETTINGS
@given(
    dim=st.integers(1, 16),
    seed=st.integers(0, 2**32 - 1),
    log_scale=st.floats(-3.0, 3.0),
)
def test_scales_across_the_norm_overflow(dim, seed, log_scale):
    # ‖H‖_F = 10**log_scale times the limit: refused above it, not refused far
    # below it, and in between refused only where a product's norm overflows
    H, _ = random_diagonalizable(dim, seed)
    H = H * (10.0**log_scale * _NORM_LIMIT / np.linalg.norm(H))
    report = run_family(H, samples=2, seed=seed % 1000)
    assert_ends_typed(report)
    refused = report.error is not None and report.error["type"] == "ParseError"
    if log_scale > 1e-3 or log_scale < -2.0:
        assert refused == (log_scale > 0), report.error

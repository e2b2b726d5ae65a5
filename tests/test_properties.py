"""Every input the models can produce ends as pass, a named fail or a typed error.

``run_family`` is drawn over the parameter space of each model, over
clustered ``H = T0⁻¹·D·T0`` and over scales on both sides of the Frobenius
norm's overflow; no exception may leave it, an error must be a
:class:`QuasiHermError`, and a fail must name the identity that tripped.
A table of scales from 1e-280 to 1e280 pins each verdict to its input.
One strategy per ``MODEL_KINDS`` entry draws each parameter over many
decades of either sign; each ``run_analyze`` report must also render, be
restored byte for byte by ``from_payload`` and exit with its verdict's code.
The run arguments ``source``, ``tol``, ``samples``, ``seed``, ``spread``,
``max_dim`` and ``out`` are drawn over every kind of value, with the same
demands on the report.
"""

import dataclasses
import json
import os
import pathlib
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, event, given, settings
from hypothesis import strategies as st

from quasiherm import (
    ModelSpec,
    QuasiHermError,
    VerificationReport,
    random_diagonalizable,
    run_analyze,
    run_family,
    swanson,
    two_level,
)
from quasiherm.linalg import DEFAULT_TOLERANCES, Tolerances, haar_unitary
from quasiherm.matrixio import save_matrix
from quasiherm.metric import verify_pseudo_hermitian
from quasiherm.models import MODEL_KINDS
from quasiherm.report import _PATHS, MAX_SAMPLES
from quasiherm.symmetry import FAMILY_IDENTITIES
from test_io_report import PATH_TYPES, REFUSED_PATHS

TOL = DEFAULT_TOLERANCES.residual_tol
_FAIL_NAMES = re.compile(
    r"(eig|projector completeness|sym\[cluster \d+\]|sym|"
    + "|".join(re.escape(name) for name in FAMILY_IDENTITIES)
    + ")"
)
_SETTINGS = settings(max_examples=100, deadline=None)
# the largest finite ‖H‖_F
_NORM_LIMIT = float(np.finfo(np.float64).max)
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
    with np.errstate(over="ignore"):  # an entry beyond float64 is an input error too
        H = H / np.linalg.norm(H) * 10.0**log_scale * _NORM_LIMIT
    report = run_family(H, samples=2, seed=seed % 1000)
    assert_ends_typed(report)
    refused = report.error is not None and report.error["type"] == "ParseError"
    if log_scale > 1e-3 or log_scale < -2.0:
        assert refused == (log_scale > 0), report.error


def _signed_log(low, high):
    """A sign times a magnitude log-uniform on [10**low, 10**high]."""
    return st.builds(
        lambda sign, exponent: sign * 10.0**exponent, st.sampled_from([-1.0, 1.0]), st.floats(low, high)
    )


_VALUE = _signed_log(-12.0, 12.0) | st.just(0.0)
# an integer parameter: a sign times an integer magnitude up to 1e19, or 0
_INTEGER = st.builds(
    lambda sign, exponent: sign * int(10.0**exponent), st.sampled_from([-1, 1]), st.floats(0.0, 19.0)
)


def _model_specs(kind, dim, **strategies):
    """Specs of ``kind`` with ``dim``, each MODEL_KINDS parameter drawn from
    ``strategies`` (``_VALUE`` by default), set to its table default or left
    out, which runs the default."""
    optional = {
        name: strategies.get(name, _VALUE) | st.just(default)
        for name, default in MODEL_KINDS[kind].items()
    }
    return st.builds(ModelSpec, st.just(kind), st.fixed_dictionaries({}, optional=optional), dim)


@st.composite
def _two_level_specs(draw):
    """Two-level specs whose gap 2√(bc) is also drawn tiny beside d, where
    the two eigenvalues come close to merging."""
    spec = draw(_model_specs("two_level", st.just(2)))
    p = spec.parameters
    if draw(st.booleans()) and p.get("b", 0.0) != 0.0 and p.get("d", 0.0) != 0.0:
        p["c"] = p["d"] ** 2 / p["b"] * draw(_signed_log(-24.0, -4.0))
    return spec


@st.composite
def _swanson_specs(draw):
    """Swanson specs whose α·β is also drawn near 0 and near the untruncated
    model's reality boundary 4αβ = ω²."""
    spec = draw(_model_specs("swanson", st.integers(1, 16)))
    p = spec.parameters
    near = draw(st.sampled_from(["free", "zero product", "boundary"]))
    if near == "zero product":
        p["beta"] = draw(_signed_log(-16.0, -6.0))
    elif near == "boundary" and p.get("alpha", 0.0) != 0.0:
        omega = p.get("omega", MODEL_KINDS["swanson"]["omega"])
        p["beta"] = omega**2 / (4.0 * p["alpha"]) * (1.0 + draw(_signed_log(-16.0, -1.0)))
    return spec


_MODEL_SPECS = {
    "two_level": _two_level_specs(),
    "swanson": _swanson_specs(),
    "random_diagonalizable": _model_specs(
        "random_diagonalizable",
        st.integers(1, 16),
        seed=_INTEGER,
        # near 1 and near the cap of 100, besides the whole range
        cond_bound=_VALUE
        | _signed_log(-16.0, 0.0).map(lambda x: 1.0 + x)
        | _signed_log(-14.0, 1.0).map(lambda x: 100.0 - x),
    ),
}
_EXIT_CODES = {"pass": 0, "error": 1, "fail": 2}


@pytest.mark.parametrize("kind", MODEL_KINDS)
@_SETTINGS
@given(data=st.data())
def test_model_specs_end_typed_and_restore(kind, data):
    # a named fail is still a typed end: nearly merged eigenvalues (the eig
    # certificate) and ill-conditioned members (A=US) can end in one
    report = run_analyze(data.draw(_MODEL_SPECS[kind]), samples=2)
    event(report.verdict)
    assert_ends_typed(report)
    text = report.to_json()
    assert VerificationReport.from_payload(json.loads(text)).to_json() == text
    assert report.exit_code == _EXIT_CODES[report.verdict]


def _hermitian_5x5():
    rng = np.random.default_rng(5)
    U = haar_unitary(5, rng)
    H = (U * np.array([-2.0, -1.0, 0.5, 1.0, 3.0])) @ U.conj().T
    return (H + H.conj().T) / 2


_CERTIFIABLE = {
    "upper-triangular": np.array([[1.0, 1.0], [0.0, 2.0]]),
    "random_diagonalizable": random_diagonalizable(6, 3)[0],
    "swanson": swanson(12, 2, 0.3, 0.5),
    "two_level": two_level(1, 4, 0),
    "hermitian": _hermitian_5x5(),
}
_REFUSED = {
    "ComplexSpectrum": np.array([[0.0, -1.0], [1.0, 0.0]]),
    "NonDiagonalizable": np.array([[1.0, 1.0], [0.0, 1.0]]),
}


@pytest.mark.parametrize("k", [-280, -200, -150, -100, -20, -8, -3, 0, 3, 20, 100, 150, 200, 280])
def test_verdicts_do_not_depend_on_the_scale(k):
    # H and c·H share eigenvectors, verdicts and relative residuals; any
    # warning is an error under this suite's pytest settings
    c = 10.0**k
    for name, H in _CERTIFIABLE.items():
        report = run_family(c * H, samples=2)
        assert report.verdict == "pass", (name, report.failure or report.error)
        expected = verify_pseudo_hermitian(H, np.eye(H.shape[0]))
        scaled = verify_pseudo_hermitian(c * H, np.eye(H.shape[0]))
        assert scaled == pytest.approx(expected, rel=1e-12, abs=0)
    for error_type, H in _REFUSED.items():
        report = run_family(c * H, samples=2)
        assert report.verdict == "error"
        assert report.error["type"] == error_type


# a run argument of any kind: an int of either sign up to 10**5000, one off
# a power of ten too, a float (NaN and ±inf included), a bool, None or a
# short string
_RUN_INTEGER = st.builds(
    lambda sign, exponent, offset: sign * (10**exponent + offset),
    st.sampled_from([-1, 1]), st.integers(0, 5000), st.sampled_from([-1, 0, 1]),
)
_RUN_OTHER = (
    st.floats() | st.booleans() | st.none() | st.text(max_size=3)
    | st.integers(-(2**63), 2**63 - 1).map(np.int64) | st.floats(width=32).map(np.float32)
    | st.fractions()
)
_RUN_ARGUMENT = _RUN_INTEGER | _RUN_OTHER


def _powers_of_ten(low):
    """±10**e for e in [low, 5000]."""
    sign = st.sampled_from([-1, 1])
    return st.builds(lambda sign, exponent: sign * 10**exponent, sign, st.integers(low, 5000))


_NOT_A_NUMBER = st.none() | st.text(max_size=3) | st.builds(dict) | st.builds(object)


def _refused_paths(folder):
    return st.sampled_from([make(folder) for make in REFUSED_PATHS.values()])


def _no_file_can_have(path) -> bool:
    """Whether ``path`` is a path-like whose ``__fspath__`` raises or returns
    neither str nor bytes, or a str, bytes or path-like path holding a NUL byte."""
    try:
        return isinstance(path, _PATHS) and "\0" in os.fsdecode(path)
    except Exception:  # os.fsdecode's TypeError, or what __fspath__ raised
        return True


def _sources(matrix_file):
    """The ``two_level(1, 4, 0)`` file as every path type, a missing file and
    paths no file can have; any run argument, or a 2×2 list holding a
    non-number, in memory; and ModelSpecs whose kind, parameters or dim has
    the wrong type."""
    folder = os.path.dirname(matrix_file)
    missing = os.path.join(folder, "missing", "h.json")
    return (
        st.sampled_from([make(matrix_file) for make in PATH_TYPES.values()] + [missing])
        | _refused_paths(folder)
        | _RUN_ARGUMENT | st.builds(dict) | st.builds(object)
        | _NOT_A_NUMBER.map(lambda x: [[1, x], [0, 1]])
        | st.builds(ModelSpec, _RUN_ARGUMENT | st.lists(st.text(max_size=3), max_size=2))
        | st.builds(
            ModelSpec, st.just("two_level"),
            _RUN_ARGUMENT | st.lists(st.text(max_size=2), max_size=2)
            | st.dictionaries(st.sampled_from("bcdx"), _NOT_A_NUMBER | _powers_of_ten(309)),
        )
        | st.builds(ModelSpec, st.just("two_level"), st.just({}), _RUN_ARGUMENT)
    )


def _run_arguments(tmp_path, write_end):
    """A strategy per run argument. A run draws ``samples`` members, so its
    ints are small, above ``MAX_SAMPLES`` or too long to write. ``open``
    takes an int or a bool as a file descriptor, so ``out``'s ints are the
    test's own pipe end and ones no process has, and its strings name files
    under ``tmp_path`` or no file at all. A ``tol`` is anything but a Tolerances."""
    matrix_file = os.path.join(tmp_path, "h.json")
    save_matrix(matrix_file, two_level(1, 4, 0))
    # no "/": os.path.join takes a name from "/" on as an absolute path
    name = st.text(st.characters(exclude_characters="/"), max_size=3) | st.just("missing/r.json")
    path = name.map(lambda name: os.path.join(tmp_path, name))
    return {
        "source": _sources(matrix_file),
        "tol": _RUN_OTHER | st.dictionaries(st.text(max_size=3), _RUN_OTHER, max_size=2)
        | st.just(dataclasses.asdict(DEFAULT_TOLERANCES)) | st.just(Tolerances),
        "samples": st.integers(-2, 3) | st.integers(MAX_SAMPLES + 1, 10**4300)
        | _powers_of_ten(4300) | _RUN_OTHER,
        "seed": _RUN_ARGUMENT,
        "spread": _RUN_ARGUMENT,
        "max_dim": _RUN_ARGUMENT,
        "out": st.none() | st.floats() | st.just(write_end) | _powers_of_ten(12)
        | path | path.map(os.fsencode) | path.map(pathlib.Path) | _refused_paths(tmp_path),
    }


# tmp_path is shared by the examples: each writes or refuses its own out
@settings(
    max_examples=60, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture]
)
@given(data=st.data())
def test_run_arguments_end_typed_and_restore(tmp_path, data):
    # each argument named in a drawn set is drawn, the others keep a default
    read_end, write_end = os.pipe()
    try:
        strategies = _run_arguments(tmp_path, write_end)
        drawn = data.draw(st.sets(st.sampled_from(sorted(strategies)), max_size=2), label="drawn")
        arguments = {name: data.draw(strategies[name], label=name) for name in sorted(drawn)}
        report = run_family(**{"source": two_level(1, 4, 0), "samples": 2, **arguments})
        os.write(write_end, b"open")  # the run neither wrote into the pipe nor closed it
        assert os.read(read_end, 64) == b"open"
    finally:
        os.close(read_end)
        os.close(write_end)
    event(report.verdict)
    assert report.verdict in ("pass", "error")
    samples = arguments.get("samples")
    if type(samples) is int and samples > MAX_SAMPLES:
        # refused before the input is read, so no member is drawn; an out
        # that cannot be opened leaves that ParseError in place
        assert report.error["type"] == "ParseError", report.error
        assert (report.input, report.family) == ({}, [])
    if any(_no_file_can_have(arguments.get(name)) for name in ("source", "out")):
        # refused before anything is read or opened
        assert report.error["type"] == "ParseError", report.error
    if report.verdict == "error":
        # an out that cannot be opened is the error open() raised
        assert report.error["type"] in ERROR_TYPES | _error_types(OSError), report.error
    text = report.to_json()
    assert VerificationReport.from_payload(json.loads(text)).to_json() == text
    if report.verdict == "pass" and isinstance(arguments.get("source"), _PATHS):
        # the one file that passes is recorded by its decoded path, whatever its type
        assert report.input == {"path": os.path.join(tmp_path, "h.json")}
    out = arguments.get("out")
    if isinstance(out, _PATHS) and not _no_file_can_have(out) and os.path.isfile(out):
        with open(out, encoding="utf-8") as f:
            assert f.read() == text + "\n"

import dataclasses
import errno
import functools
import io
import json
import math
import os
import pathlib
import tracemalloc
from fractions import Fraction

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from quasiherm import (
    ModelSpec,
    ParseError,
    ResidualExceeded,
    build_model,
    commutant_basis,
    full_pipeline,
    load_matrix,
    metric_from_symmetry,
    random_diagonalizable,
    run_analyze,
    run_family,
    run_spectrum,
    sample_positive_symmetry,
    save_matrix,
    swanson,
    two_level,
)
from quasiherm import matrixio, symmetry
from quasiherm.linalg import DEFAULT_TOLERANCES, Tolerances
from quasiherm.matrixio import dumps, matrix_from_payload, matrix_to_payload
from quasiherm.models import MODEL_KINDS
from quasiherm.report import (
    DEFAULT_MAX_DIM,
    MAX_SAMPLES,
    FamilyMemberSummary,
    VerificationReport,
)
from quasiherm.symmetry import FAMILY_IDENTITIES


def test_matrix_round_trip(tmp_path, rng):
    M = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    path = tmp_path / "m.json"
    save_matrix(path, M)
    npt.assert_array_equal(load_matrix(path), M)


def test_save_matrix_writes_indented_json(tmp_path):
    M = np.array([[1.5, -0.0 - 2j], [1e-320, 1e308j]])
    path = tmp_path / "m.json"
    save_matrix(path, M)
    assert path.read_text(encoding="utf-8") == json.dumps(matrix_to_payload(M), indent=2) + "\n"
    save_matrix(path, np.asfortranarray(M))
    assert path.read_text(encoding="utf-8") == json.dumps(matrix_to_payload(M), indent=2) + "\n"


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0.0, np.nan)])
def test_save_matrix_refuses_a_non_finite_matrix(tmp_path, bad):
    # load_matrix refuses NaN and Infinity tokens, so they are never written
    path = tmp_path / "m.json"
    with pytest.raises(ParseError, match="finite"):
        save_matrix(path, np.array([[1.0, bad], [0.0, 2.0]]))
    assert not path.exists()


def test_save_matrix_refuses_a_matrix_that_is_not_square(tmp_path):
    path = tmp_path / "m.json"
    with pytest.raises(ParseError, match="expected a square matrix"):
        save_matrix(path, np.ones((2, 3)))
    assert not path.exists()


@pytest.mark.parametrize(
    "M, match",
    [(np.zeros((0, 0)), "^matrix must have positive dimension$"),
     ([[1, {}], [0, 1]], "^expected an array of numbers")],
    ids=["empty", "non-number"],
)
def test_save_matrix_refuses_what_load_matrix_would_not_read(tmp_path, M, match):
    # an empty matrix would be written as dim 0, which load_matrix refuses
    path = tmp_path / "m.json"
    with pytest.raises(ParseError, match=match):
        save_matrix(path, M)
    assert not path.exists()


def test_matrix_payload_of_a_noncontiguous_matrix():
    M = np.arange(9.0).reshape(3, 3) - 1j * np.arange(9.0).reshape(3, 3) ** 2
    expected = [[float(z.real), float(z.imag)] for z in M.T.ravel()]
    assert matrix_to_payload(M.T)["entries"] == expected


def test_matrix_payload_shape():
    payload = matrix_to_payload(np.array([[1, 2j], [3, 4]], dtype=complex))
    assert payload["dim"] == 2
    assert payload["entries"] == [[1.0, 0.0], [0.0, 2.0], [3.0, 0.0], [4.0, 0.0]]


@pytest.mark.parametrize(
    "payload",
    [
        {"entries": []},
        {"dim": 2},
        {"dim": 0, "entries": []},
        {"dim": "2", "entries": [[0, 0]] * 4},
        {"dim": 2, "entries": [[0, 0]] * 3},
        {"dim": 2, "entries": [[0, 0], [0, 0], [0, 0], [0]]},
        {"dim": 2, "entries": [[0, 0], [0, 0], [0, 0], ["x", 0]]},
        {"dim": 1, "entries": [[float("inf"), 0.0]]},
        {"dim": 1, "entries": [[10**400, 0]]},
        [1, 2, 3],
    ],
)
def test_matrix_from_payload_rejects_malformed(payload):
    with pytest.raises(ParseError):
        matrix_from_payload(payload)


def _entry_by_entry(dim, entries):
    """Reference loader: the matrix, or the message naming the first bad entry."""
    flat = np.empty(dim * dim, dtype=np.complex128)
    for i, pair in enumerate(entries):
        if (
            not isinstance(pair, list)
            or len(pair) != 2
            or not all(isinstance(x, (int, float)) and not isinstance(x, bool) for x in pair)
        ):
            return f"entry {i} must be a [re, im] pair of numbers, got {pair!r}"
        try:
            re, im = float(pair[0]), float(pair[1])
        except OverflowError:
            return f"entry {i} is not finite: {pair!r}"
        if not (math.isfinite(re) and math.isfinite(im)):
            return f"entry {i} is not finite: {pair!r}"
        flat[i] = complex(re, im)
    return flat.reshape(dim, dim)


# the largest integer that rounds to a finite float64, and the smallest that does not
_INT_EDGES = st.sampled_from([2**1024 - 2**970 - 1, 2**1024 - 2**970, -(10**400), 2**64 + 1])
_NUMBERS = st.floats() | st.integers() | _INT_EDGES
_ITEMS = (
    st.lists(_NUMBERS, min_size=2, max_size=2)
    | st.lists(_NUMBERS | st.booleans() | st.none() | st.text(max_size=2), max_size=3)
    | st.none()
    | _NUMBERS
)


@settings(max_examples=300, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.tuples(st.just(d), st.lists(_ITEMS, min_size=d * d, max_size=d * d))
    )
)
def test_matrix_from_payload_matches_entry_by_entry_reference(case):
    dim, entries = case
    expected = _entry_by_entry(dim, entries)
    if isinstance(expected, str):
        with pytest.raises(ParseError) as exc_info:
            matrix_from_payload({"dim": dim, "entries": entries})
        assert str(exc_info.value) == expected
    else:
        got = matrix_from_payload({"dim": dim, "entries": entries})
        assert got.dtype == np.complex128 and got.shape == (dim, dim)
        assert np.array_equal(got.view(np.uint64), expected.view(np.uint64))


@pytest.mark.parametrize("digits", [401, 5001])
def test_load_matrix_rejects_a_huge_integer(tmp_path, digits):
    # 401 digits overflow a float64; 5001 exceed int_max_str_digits in json
    path = tmp_path / "huge.json"
    path.write_text('{"dim": 1, "entries": [[1' + "0" * (digits - 1) + ", 0]]}")
    with pytest.raises(ParseError):
        load_matrix(path)


def test_load_matrix_rejects_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_matrix(path)


@pytest.mark.parametrize(
    "content",
    [b'\xff\xfe{"dim": 1}', b"[" * 100_000],
    ids=["not-utf-8", "nested-past-the-recursion-limit"],
)
def test_a_malformed_file_is_a_parse_error_naming_it(tmp_path, content):
    path = tmp_path / "m.json"
    path.write_bytes(content)
    with pytest.raises(ParseError) as exc_info:
        load_matrix(path)
    assert str(exc_info.value).startswith(f"{path}: ")
    report = run_analyze(path)
    assert report.verdict == "error"
    assert report.exit_code == 1
    assert report.error["type"] == "ParseError"


def test_analyze_in_memory_passes():
    report = run_analyze(two_level(1, 4, 0), samples=3, seed=0)
    assert report.verdict == "pass"
    assert report.exit_code == 0
    assert set(report.residuals) == {"ph", "H=H"}
    assert report.commutant == {"real_dimension": 2, "cluster_sizes": [1, 1]}
    assert [m.seed for m in report.family] == [0, 1, 2]
    for member in report.family:
        assert set(member.residuals) == set(FAMILY_IDENTITIES)
    assert max(report.residuals.values()) <= 1e-8
    assert max(member.max_residual for member in report.family) <= 1e-8
    eta = report.matrices["eta"]
    npt.assert_allclose(eta, np.diag([1.6, 0.4]), atol=1e-12)


def test_identity_input_report():
    report = run_analyze(np.eye(2), samples=1)
    assert report.verdict == "pass"
    eta = report.matrices["eta"]
    npt.assert_allclose(eta, np.eye(2), atol=1e-12)
    h = report.matrices["h"]
    npt.assert_allclose(h, np.eye(2), atol=1e-12)


def test_two_level_report_seed_7():
    spec = ModelSpec("two_level", {"b": 1, "c": 4}, dim=2)
    report = run_analyze(spec, samples=5, seed=7)
    assert report.verdict == "pass"
    eta = report.matrices["eta"]
    npt.assert_allclose(eta, np.diag([1.6, 0.4]), atol=1e-12)
    assert [m.seed for m in report.family] == [7, 8, 9, 10, 11]


def test_analyze_model_spec_input():
    spec = ModelSpec("two_level", {"b": 1, "c": 4, "d": 0.0}, dim=2)
    report = run_analyze(spec, samples=1)
    assert report.verdict == "pass"
    assert report.input["kind"] == "two_level"


@pytest.mark.parametrize(
    "spec, name",
    [
        (ModelSpec("swanson", {"omega": math.nan}, dim=20), "omega"),
        (ModelSpec("swanson", {"alpha": math.inf}, dim=6), "alpha"),
        (ModelSpec("two_level", {"d": math.nan}), "d"),
        (ModelSpec("two_level", {"b": math.inf}), "b"),
        (ModelSpec("two_level", {"c": math.inf}), "c"),
        (ModelSpec("random_diagonalizable", {"seed": 0, "cond_bound": math.nan}, dim=4),
         "cond_bound"),
        (ModelSpec("random_diagonalizable", {"seed": -1}, dim=4), "seed"),
        (ModelSpec("random_diagonalizable", {"seed": 1.5}, dim=4), "seed"),
        (ModelSpec("two_level", {"b": 10**5000}), "b"),
        *((ModelSpec("two_level", p), "parameters") for p in (5, None, ["b"], "bc")),
    ],
    ids=["omega-nan", "alpha-inf", "d-nan", "b-inf", "c-inf", "cond-bound-nan",
         "seed-negative", "seed-fractional", "b-10**5000", "parameters-int", "parameters-None",
         "parameters-list", "parameters-str"],
)
def test_a_non_finite_or_bad_model_parameter_is_an_error_report(spec, name):
    report = run_analyze(spec, samples=1)
    assert (report.verdict, report.exit_code) == ("error", 1)
    assert report.error["type"] == "InvalidModelParameters"
    assert report.error["message"].startswith(f"{name} must be")


@pytest.mark.parametrize(
    "spec, name",
    [
        (ModelSpec("swanson", {"omgea": 3.0}, dim=6), "omgea"),
        (ModelSpec("random_diagonalizable", {"seed": 0, "cond_bound": "x"}, dim=4), "cond_bound"),
        (ModelSpec("swanson", {"alpha": "x"}, dim=6), "alpha"),
        (ModelSpec("two_level", {"b": None}), "b"),
        (ModelSpec("swanson", {"omega": True}, dim=6), "omega"),
        (ModelSpec("swanson", {"omega": 10**400}, dim=6), "omega"),
        (ModelSpec("random_diagonalizable", {"seed": 9007199254740993}, dim=4), None),
        (ModelSpec("random_diagonalizable", {"seed": 10**400}, dim=4), None),
        (ModelSpec("random_diagonalizable", {"seed": 10**5000}, dim=4), "seed"),
        (ModelSpec("swanson", {}, dim=6.9), "dim"),
        (ModelSpec("swanson", {}, dim=True), "dim"),
        (ModelSpec("swanson", {}, dim="x"), "dim"),
        (ModelSpec("nope", {}, dim=4), "kind"),
        (ModelSpec(-(10**4300), {}, dim=4), "kind"),
        (ModelSpec("swanson", {}, dim=10**9), "dimension"),
    ],
    ids=["unknown-name", "cond-bound-str", "alpha-str", "b-none", "omega-bool",
         "omega-huge-int", "seed-2**53+1", "seed-10**400", "seed-10**5000",
         "dim-fractional", "dim-bool", "dim-str", "unknown-kind", "kind-huge-int",
         "dim-past-max-dim"],
)
def test_a_model_parameter_is_refused_by_name_or_recorded_exactly(monkeypatch, spec, name):
    # name None: the spec is valid, and its integer seed must be recorded as is;
    # "dimension": the max_dim gate refuses it before build_model runs. A seed
    # str() cannot write is refused, so every report renders.
    def build(spec):
        assert name != "dimension", "build_model ran before the max_dim gate"
        return build_model(spec)

    monkeypatch.setattr("quasiherm.report.build_model", build)
    report = run_spectrum(spec)
    report.to_json()
    if name is None:
        assert report.verdict == "pass"
        seed = spec.parameters["seed"]
        assert f'"seed": {seed}\n' in report.to_json()
        assert json.loads(report.to_json())["input"]["parameters"] == {"seed": seed}
    else:
        assert (report.verdict, report.exit_code) == ("error", 1)
        refusal = "ParseError" if name == "dimension" else "InvalidModelParameters"
        assert report.error["type"] == refusal
        assert report.error["message"].startswith(f"{name} ")


def test_analyze_file_input(tmp_path):
    path = tmp_path / "h.json"
    save_matrix(path, two_level(1, 4, 0))
    report = run_analyze(path, samples=1)
    assert report.verdict == "pass"
    assert report.input == {"path": str(path)}


class PathLike:
    """An os.PathLike that is neither a str, bytes nor a pathlib path."""

    def __init__(self, path):
        self.path = path

    def __fspath__(self):
        return self.path


# each type a path may have, made from a str
PATH_TYPES = {
    "str": str,
    "bytes": os.fsencode,
    "Path": pathlib.Path,
    "PurePosixPath": pathlib.PurePosixPath,
    "PathLike": PathLike,
}


@pytest.mark.parametrize("path_type", PATH_TYPES.values(), ids=PATH_TYPES)
def test_every_path_type_is_a_source_an_out_and_a_matrix_file(tmp_path, path_type):
    H = two_level(1, 4, 0)
    matrix, out = str(tmp_path / "h.json"), str(tmp_path / "r.json")
    save_matrix(path_type(matrix), H)
    npt.assert_array_equal(load_matrix(path_type(matrix)), H)
    report = run_family(path_type(matrix), samples=1, out=path_type(out))
    assert report.verdict == "pass", report.error
    assert report.input == {"path": matrix}  # the descriptor a str source records
    with open(out, encoding="utf-8") as f:
        assert f.read() == report.to_json() + "\n"


class RaisingPathLike:
    """An os.PathLike whose __fspath__ raises."""

    def __fspath__(self):
        raise RuntimeError("boom")


# paths no file can have, made from a folder: a path-like whose __fspath__
# returns an int or raises, and a str or bytes path holding a NUL byte
REFUSED_PATHS = {
    "fspath-int": lambda folder: PathLike(3),
    "fspath-raises": lambda folder: RaisingPathLike(),
    "str-NUL": lambda folder: os.path.join(folder, "a\0b.json"),
    "bytes-NUL": lambda folder: os.fsencode(os.path.join(folder, "a\0b.json")),
}


@pytest.mark.parametrize("make", REFUSED_PATHS.values(), ids=REFUSED_PATHS)
@pytest.mark.parametrize("run", [run_analyze, run_family, run_spectrum])
def test_a_path_no_file_can_have_is_a_parse_error_naming_the_argument(tmp_path, run, make):
    matrix = str(tmp_path / "h.json")
    save_matrix(matrix, two_level(1, 4, 0))
    for name, source, out in [("source", make(tmp_path), None), ("out", matrix, make(tmp_path))]:
        report = run(source, out=out)
        assert report.error["type"] == "ParseError", report.error
        assert report.error["message"].startswith(name), report.error
        assert report.input == {}  # refused before the source is read
    for call in (load_matrix, lambda path: save_matrix(path, np.eye(2))):
        with pytest.raises(ParseError, match="^path"):
            call(make(tmp_path))
    assert os.listdir(tmp_path) == ["h.json"]


def test_a_raising_fspath_is_a_parse_error_naming_what_it_raised():
    message = r"^path: __fspath__ raised RuntimeError\('boom'\)$"
    with pytest.raises(ParseError, match=message) as info:
        load_matrix(RaisingPathLike())
    assert isinstance(info.value.__cause__, RuntimeError)


@pytest.mark.parametrize(
    "tol", [None, 1e-8, "x", {"residual_tol": 1e-8}, Tolerances, 10**5000],
    ids=["None", "float", "str", "dict", "the-class", "10**5000"],
)
@pytest.mark.parametrize("run", [run_analyze, run_family, run_spectrum])
def test_a_tol_that_is_not_tolerances_is_refused_first(run, tol):
    # refused before the input is read: the report keeps the default
    # tolerances, which from_payload restores
    report = run(ModelSpec("two_level", "bc"), tol)
    assert report.error == {
        "type": "ParseError", "message": f"tol must be a Tolerances, got {type(tol).__name__}"
    }
    assert report.tolerances == dataclasses.asdict(DEFAULT_TOLERANCES)
    assert report.input == {}
    text = report.to_json()
    assert VerificationReport.from_payload(json.loads(text)).to_json() == text


@pytest.mark.parametrize(
    "source", [{}, object(), [[1, {}], [0, 1]], [[10**5000, 0], [0, 1]]],
    ids=["dict", "object", "list-holding-a-dict", "list-holding-10**5000"],
)
def test_an_in_memory_source_that_is_not_numbers_is_a_parse_error(source):
    for run in (run_analyze, run_family, run_spectrum):
        report = run(source)
        assert report.error["type"] == "ParseError", report.error
        assert report.error["message"].startswith("expected an array of numbers")


def test_report_round_trip_preserves_residuals():
    report = run_analyze(two_level(1, 4, 0), samples=2)
    payload = json.loads(report.to_json())
    restored = VerificationReport.from_payload(payload)
    assert restored.residuals == report.residuals
    assert [m.residuals for m in restored.family] == [
        m.residuals for m in report.family
    ]
    assert restored.verdict == report.verdict
    assert json.loads(restored.to_json()) == payload


def test_reports_are_deterministic_modulo_timestamp():
    a = run_analyze(two_level(1, 4, 0), samples=3, seed=5).to_payload()
    b = run_analyze(two_level(1, 4, 0), samples=3, seed=5).to_payload()
    a.pop("generated_at")
    b.pop("generated_at")
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)


def test_different_seed_changes_family():
    a = run_analyze(two_level(1, 4, 0), samples=1, seed=0)
    b = run_analyze(two_level(1, 4, 0), samples=1, seed=99)
    assert a.family[0].residuals != b.family[0].residuals


def test_complex_spectrum_error_report():
    rotation = np.array([[0.0, 1.0], [-1.0, 0.0]])
    report = run_analyze(rotation)
    assert report.verdict == "error"
    assert report.exit_code == 1
    assert report.error["type"] == "ComplexSpectrum"
    assert len(report.error["eigenvalues"]) == 2
    imags = sorted(abs(pair[1]) for pair in report.error["eigenvalues"])
    npt.assert_allclose(imags, [1.0, 1.0], atol=1e-12)


def test_non_diagonalizable_error_report():
    jordan = np.array([[0.0, 1.0], [0.0, 0.0]])
    report = run_analyze(jordan)
    assert report.verdict == "error"
    assert report.exit_code == 1
    assert report.error["type"] == "NonDiagonalizable"
    assert report.error.get("cond", 1e30) > 1e8


def _strict_json(text):
    def refuse(token):
        raise ValueError(f"{token} is not JSON")

    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize(
    "rows, cond",
    [
        ([[0, 1, 0], [0, 0, 1], [0, 0, 0]], None),  # the raw rows' σ_min is exactly 0
        ([[0, 1], [0, 0]], 9.979201547673601e291),
        ([[1, 1, 0], [0, 1, 0], [0, 0, 2]], 9007199254740992.0),
    ],
)
def test_a_refused_eigenbasis_writes_strict_json(rows, cond):
    report = run_spectrum(np.array(rows, dtype=complex))
    assert report.exit_code == 1
    document = _strict_json(report.to_json())
    assert document["error"]["type"] == "NonDiagonalizable"
    assert document["error"]["cond"] == cond
    assert VerificationReport.from_payload(document).error == report.error


def test_dimension_cap_enforced():
    report = run_analyze(np.eye(5), max_dim=4)
    assert report.verdict == "error"
    assert report.error["type"] == "ParseError"


def test_dimension_cap_precedes_model_construction(monkeypatch):
    def refuse(spec):
        raise AssertionError("build_model ran before the dimension gate")

    monkeypatch.setattr("quasiherm.report.build_model", refuse)
    spec = ModelSpec("swanson", {"alpha": 0.3, "beta": 0.5}, dim=DEFAULT_MAX_DIM + 1)
    report = run_analyze(spec)
    assert report.verdict == "error"
    assert report.error["type"] == "ParseError"


@pytest.mark.parametrize(
    "samples, seed, spread",
    [(1, 0, 0.5), (1, 0, float("nan")), (1, 0, float("inf")), (-1, 0, 10.0), (1, -1, 10.0),
     (2.5, 0, 10.0), (1, 1.5, 10.0), (True, 0, 10.0), (1, False, 10.0), (1, 0, "10"),
     (1, 0, 2 + 0j), (1, 0, True),
     # a seed str cannot write, and one whose last member's seed it cannot
     pytest.param(1, 10**5000, 10.0, id="1-10**5000-10.0"),
     pytest.param(2, 10**4300 - 1, 10.0, id="2-10**4300-1-10.0"),
     # more members than MAX_SAMPLES: 10**18 would draw without end
     (MAX_SAMPLES + 1, 0, 10.0), pytest.param(10**18, 0, 10.0, id="10**18-0-10.0")],
)
def test_bad_sampling_arguments_are_an_input_error(monkeypatch, samples, seed, spread):
    def refuse(spec):
        raise AssertionError("build_model ran before the sampling arguments were checked")

    monkeypatch.setattr("quasiherm.report.build_model", refuse)
    spec = ModelSpec("two_level", {"b": 1.0, "c": 4.0, "d": 0.0}, dim=2)
    report = run_analyze(spec, samples=samples, seed=seed, spread=spread)
    assert report.verdict == "error"
    assert report.exit_code == 1
    assert report.error["type"] == "ParseError"
    assert report.family == []
    json.loads(report.to_json())  # it renders: it holds no int str cannot write


def test_a_numpy_sample_count_beside_a_large_seed_is_summed_as_python_ints():
    report = run_family(two_level(1, 4, 0), samples=np.int64(2), seed=10**30)
    assert report.verdict == "pass"
    assert [member.seed for member in report.family] == [10**30, 10**30 + 1]


def _error_of(call, *args, **kwargs) -> str | None:
    """The name of the error ``call`` raises, or None when it returns."""
    try:
        call(*args, **kwargs)
    except Exception as exc:
        return type(exc).__name__
    return None


def _run_error(**arguments) -> str | None:
    error = run_family(two_level(1, 4, 0), samples=1, **arguments).error
    return error and error["type"]


def _member_spread_error(spread) -> str | None:
    document = json.loads(run_family(two_level(1, 4, 0), samples=1).to_json())
    document["family"][0]["spread"] = spread
    return _error_of(VerificationReport.from_payload, document)


def _sampler_error(**arguments) -> str | None:
    cb = commutant_basis(np.diag([1.0, 2.0]).astype(complex), [[0], [1]])
    return _error_of(sample_positive_symmetry, cb, **{"seed": 0, **arguments})


def _model_layers(kind, name, builder, dim):
    """build_model and the kind's builder, each taking ``name`` = value."""
    fixed = {"seed": 0} if kind == "random_diagonalizable" else {}
    return {
        "build_model": (
            lambda v: _error_of(build_model, ModelSpec(kind, {**fixed, name: v}, dim=dim)),
            "InvalidModelParameters",
        ),
        kind: (
            lambda v: _error_of(builder, **{**MODEL_KINDS[kind], **fixed, name: v}),
            "InvalidModelParameters",
        ),
    }


# each argument: every layer that takes it, with the error class it refuses with
_ARGUMENT_LAYERS = {
    "seed": {
        "run_family": (lambda v: _run_error(seed=v), "ParseError"),
        "sample_positive_symmetry": (lambda v: _sampler_error(seed=v), "ValueError"),
    },
    "spread": {
        "run_family": (lambda v: _run_error(spread=v), "ParseError"),
        "from_payload": (_member_spread_error, "ParseError"),
        "sample_positive_symmetry": (lambda v: _sampler_error(spread=v), "ValueError"),
    },
    **{
        f"{kind} {name}": _model_layers(kind, name, builder, dim)
        for kind, builder, dim in [
            ("two_level", two_level, 2),
            ("swanson", functools.partial(swanson, 6), 6),
            ("random_diagonalizable", functools.partial(random_diagonalizable, 4), 4),
        ]
        for name in MODEL_KINDS[kind]
        if name != "seed"
    },
}
_REFUSED_VALUES = {
    "seed": [10**5000, True, -1, 1.5, "3", None],
    "spread": [10**400, 10**5000, -(10**5000), True, 0.5, float("nan"), float("inf"), "10", 2 + 0j,
               # numbers a report's JSON cannot write
               np.int64(3), Fraction(3), np.float32(3.0)],
    **{argument: ["1", True, None] for argument in _ARGUMENT_LAYERS if " " in argument},
    # cond_bound is also a real number >= 1 that fits float64
    "random_diagonalizable cond_bound": ["5", True, None, 10**400, 0.5, float("inf")],
}


@pytest.mark.parametrize(
    "argument, value",
    [(argument, value) for argument, values in _REFUSED_VALUES.items() for value in values],
    ids=lambda v: f"{'-' * (v < 0)}10**{math.floor(math.log10(abs(v)))}"
    if type(v) is int and abs(v) > 10**9 else None,
)
def test_every_layer_that_takes_an_argument_refuses_the_same_values(argument, value):
    # one rule per argument: a value one layer refuses is refused by every
    # layer that takes it, each with its own error class
    layers = _ARGUMENT_LAYERS[argument]
    refusals = {layer: take(value) for layer, (take, _) in layers.items()}
    assert refusals == {layer: error for layer, (_, error) in layers.items()}


def test_an_out_that_is_not_a_path_is_refused_before_any_input_is_read(monkeypatch, tmp_path):
    # open() takes an int as a file descriptor, which it writes and then
    # closes: a pipe's write end stands in for a caller's own descriptor
    def refuse(spec):
        raise AssertionError("build_model ran before out was checked")

    spec = ModelSpec("two_level", {"b": 1.0, "c": 4.0, "d": 0.0}, dim=2)
    with monkeypatch.context() as patch:
        patch.setattr("quasiherm.report.build_model", refuse)
        read_end, write_end = os.pipe()
        with os.fdopen(read_end, "rb") as reader:
            try:
                for out in (write_end, 2.5):
                    report = run_analyze(spec, samples=1, out=out)
                    assert (report.verdict, report.exit_code) == ("error", 1)
                    assert report.error["type"] == "ParseError"
                    assert report.error["message"].startswith("out must be a str, bytes or")
                    json.loads(report.to_json())
                os.write(write_end, b"still open")  # EBADF had the report closed it
            finally:
                os.close(write_end)
            assert reader.read() == b"still open"
    # a path given as bytes is still a path
    path = tmp_path / "report.json"
    report = run_family(spec, samples=1, out=os.fsencode(path))
    assert report.verdict == "pass"
    assert path.read_text(encoding="utf-8") == report.to_json() + "\n"
    # a path holding a NUL byte, which open() would refuse with a ValueError, is an error report
    report = run_family(spec, samples=1, out=os.path.join(tmp_path, "a\0"))
    assert report.error == {"type": "ParseError", "message": "out: embedded null byte"}


def test_a_commutant_basis_that_is_not_unitary_fails_projector_completeness(monkeypatch):
    def scaled(H, tol):
        # the pair's eigenbasis X† of h, 1e-6 off unitary
        pair = full_pipeline(H, tol)
        pair.metric.unitary = pair.metric.unitary * (1 + 1e-6)
        return pair

    monkeypatch.setattr("quasiherm.report.full_pipeline", scaled)
    report = run_analyze(two_level(1, 4, 0), samples=1)
    assert report.verdict == "fail"
    assert report.exit_code == 2
    assert report.failure["identity"] == "projector completeness"
    assert report.failure["value"] == pytest.approx(2 * math.sqrt(2) * 1e-6, rel=1e-3)
    assert report.family == []


@pytest.mark.parametrize("max_dim", ["3", None, 2.5])
def test_a_bad_max_dim_is_an_input_error(monkeypatch, max_dim):
    def refuse(spec):
        raise AssertionError("build_model ran before max_dim was checked")

    monkeypatch.setattr("quasiherm.report.build_model", refuse)
    spec = ModelSpec("two_level", {"b": 1.0, "c": 4.0, "d": 0.0}, dim=2)
    report = run_analyze(spec, max_dim=max_dim)
    assert report.verdict == "error"
    assert report.exit_code == 1
    assert report.error["type"] == "ParseError"
    assert "max_dim" in report.error["message"]


@pytest.mark.parametrize(
    "H",
    [
        np.array([[1e200, 1e200], [0.0, 2e200]]),
        two_level(1e300, 1e300, 0),
        ModelSpec("two_level", {"b": 1e300, "c": 1e300, "d": 0.0}, dim=2),
        6e153 * np.array([[1.0, 1.0], [0.0, 2.0]]),
    ],
    ids=["1e200", "two_level-1e300", "two_level-model-1e300", "6e153"],
)
@pytest.mark.parametrize("run", [run_analyze, run_family, run_spectrum])
def test_norm_past_the_square_root_of_max_float_certifies(H, run):
    # ‖H‖_F above 1.34e154 squares past max float, but the norm is finite
    report = run(H)
    assert report.verdict == "pass", report.error
    assert report.exit_code == 0
    assert all(value > 0.0 for value in report.residuals.values())


@pytest.mark.parametrize(
    "H",
    [
        1.5e308 * np.eye(2),
        two_level(1.5e308, 1.5e308, 0),
        ModelSpec("two_level", {"b": 1.5e308, "c": 1.5e308, "d": 0.0}, dim=2),
    ],
    ids=["1.5e308", "two_level-1.5e308", "two_level-model-1.5e308"],
)
@pytest.mark.parametrize("run", [run_analyze, run_family, run_spectrum])
def test_overflowing_norm_is_an_input_error(H, run):
    # ‖H‖_F overflows a float64: every residual divided by it would read 0
    report = run(H)
    assert report.verdict == "error"
    assert report.exit_code == 1
    assert report.error["type"] == "ParseError"
    assert "Frobenius norm overflows" in report.error["message"]
    assert report.residuals == {} and report.family == []


@pytest.mark.parametrize("run", [run_analyze, run_family])
def test_overflowing_product_of_norms_is_an_input_error(run):
    # ‖H‖_F = 1.9e307 is finite, a member residual's ‖rho'‖·‖H‖ is not
    H = 1e306 * random_diagonalizable(6, 3)[0]
    report = run(H, samples=2)
    assert report.verdict == "error"
    assert report.exit_code == 1
    assert report.error["type"] == "ParseError"
    assert "product of Frobenius norms overflows" in report.error["message"]
    assert run_spectrum(H).verdict == "pass"


@pytest.mark.parametrize("run", [run_analyze, run_family, run_spectrum])
def test_overflowing_intermediate_is_an_input_error(run):
    # ‖H‖_F = 1.4e308 is finite, the eigenvalue spread 2e308 is not
    report = run(np.diag([-1e308, 1e308]))
    assert report.verdict == "error"
    assert report.exit_code == 1
    assert report.error["type"] == "ParseError"
    assert "overflow" in report.error["message"]


def test_largest_norm_below_the_overflow_passes():
    # ‖H‖_F = 1.2e307: every norm and every product of norms is finite
    report = run_analyze(5e306 * np.array([[1.0, 1.0], [0.0, 2.0]]), samples=2)
    assert report.verdict == "pass"
    assert 0.0 < report.residuals["H=H"] <= DEFAULT_TOLERANCES.residual_tol
    assert all(member.residuals["sim"] > 0.0 for member in report.family)


def test_missing_file_is_an_input_error(tmp_path):
    report = run_analyze(tmp_path / "nope.json")
    assert report.verdict == "error"
    assert report.exit_code == 1
    assert report.error["type"] == "FileNotFoundError"  # an OSError, not a ParseError


def test_tight_tolerance_fails_verdict():
    # the eigen-certificate is a residual: below its roundoff it is a fail
    # naming "eig", not an input error (random_diagonalizable(8, 0) at
    # 5e-16: 2.461e-13 > 1.742e-13 before dividing by |H| |T|)
    for H, residual_tol in [(two_level(1, 4, 0), 1e-16), (random_diagonalizable(8, 0)[0], 5e-16)]:
        tol = dataclasses.replace(DEFAULT_TOLERANCES, residual_tol=residual_tol)
        report = run_analyze(H, tol, samples=2)
        assert report.verdict == "fail"
        assert report.exit_code == 2
        assert report.error is None
        assert report.failure["identity"] == "eig"
        assert report.residuals == {"eig": report.failure["value"]}
        assert report.failure["value"] > report.failure["bound"] == residual_tol


def test_family_report_omits_matrices():
    report = run_family(two_level(1, 4, 0), samples=2)
    assert report.verdict == "pass"
    assert report.matrices is None
    assert len(report.family) == 2


def test_spectrum_report_is_diagnostics_only():
    report = run_spectrum(two_level(1, 4, 0))
    assert report.verdict == "pass"
    assert report.residuals == {}
    assert report.family == []
    assert report.matrices is None
    npt.assert_allclose(
        [pair[0] for pair in report.eigenvalues], [-2.0, 2.0], atol=1e-12
    )
    assert report.clusters == [[0], [1]]


def test_out_path_writes_report(tmp_path):
    out = tmp_path / "report.json"
    report = run_analyze(two_level(1, 4, 0), samples=1, out=out)
    on_disk = json.loads(out.read_text())
    assert on_disk == report.to_payload()


_EDGE_FLOATS = st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e308, -1e308,
     float("nan"), float("inf"), float("-inf")]
)
_FLOATS = st.floats() | _EDGE_FLOATS
_FINITE = st.floats(allow_nan=False, allow_infinity=False) | st.sampled_from(
    [0.0, -0.0, 5e-324, -5e-324, 1e308, -1e308]
)
_SCALARS = st.none() | st.booleans() | st.integers() | _FLOATS | st.text()
_ENTRIES = (
    st.lists(st.lists(_FINITE, min_size=2, max_size=2), max_size=20)
    | st.lists(st.lists(_FLOATS, min_size=2, max_size=2), max_size=20)
    | st.lists(st.lists(_FLOATS | st.integers() | st.booleans(), max_size=3), max_size=8)
)
_PAYLOADS = st.recursive(
    _SCALARS | _ENTRIES,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=6), children, max_size=4),
    max_leaves=12,
)
# float64 arrays as matrix_document gives them (k, 2), F-ordered, and
# shapes that must take json.dumps's path: (0, 2), (k, 3) and 1-d
_PAIR_ROWS = st.tuples(st.integers(0, 20), st.just(2))
_ARRAYS = (
    hnp.arrays(np.float64, _PAIR_ROWS, elements=_FINITE)
    | hnp.arrays(np.float64, _PAIR_ROWS, elements=_FLOATS)
    | hnp.arrays(np.float64, _PAIR_ROWS, elements=_FINITE).map(np.asfortranarray)
    | hnp.arrays(np.float64, st.tuples(st.integers(0, 6), st.just(3)), elements=_FLOATS)
    | hnp.arrays(np.float64, st.integers(0, 8), elements=_FLOATS)
)
_MATRIX = st.fixed_dictionaries({"dim": st.integers(0, 9), "entries": _ENTRIES | _ARRAYS})
_DOCUMENTS = st.fixed_dictionaries(
    {"matrices": st.dictionaries(st.text(max_size=6), _MATRIX, max_size=3), "é\n": _PAYLOADS}
)


def _as_lists(value):
    if isinstance(value, dict):
        return {key: _as_lists(item) for key, item in value.items()}
    return value.tolist() if isinstance(value, np.ndarray) else value


@settings(max_examples=300, deadline=None)
@given(_PAYLOADS | _MATRIX | _DOCUMENTS | _ARRAYS)
def test_dumps_is_indented_sorted_json(payload):
    assert dumps(payload) == json.dumps(_as_lists(payload), indent=2, sort_keys=True)


@st.composite
def _mirrored_arrays(draw):
    """Entries of an n×n matrix whose lower real parts copy the upper ones
    and, but for a real symmetric one (+0.0 on both sides), whose lower
    imaginary parts are the upper ones with the sign bit flipped."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["hermitian", "real symmetric", "one bit off", "not square"]))
    M = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i, n):
            re = draw(_FINITE)
            im = draw(_FINITE) if j > i and kind != "real symmetric" else 0.0
            M[i, j] = complex(re, im)
            M[j, i] = complex(re, -im if kind != "real symmetric" else 0.0)
    entries = matrixio.matrix_document(M)["entries"]
    if kind == "one bit off" and n > 1:
        i = draw(st.integers(1, n - 1))
        j = draw(st.integers(0, i - 1))
        bits = entries.view(np.uint64)
        bit = np.uint64(1) << np.uint64(draw(st.integers(0, 63)))
        bits[i * n + j, draw(st.integers(0, 1))] ^= bit
    if kind == "not square":
        entries = entries[: draw(st.integers(0, max(n * n - 1, 0)))]
    return entries


@settings(max_examples=300, deadline=None)
@given(_mirrored_arrays())
def test_dumps_renders_mirrored_matrices_byte_for_byte(entries):
    document = {"dim": 0, "entries": entries}
    assert dumps(document) == json.dumps(_as_lists(document), indent=2, sort_keys=True)


@settings(max_examples=100, deadline=None)
@given(_mirrored_arrays() | hnp.arrays(np.float64, _PAIR_ROWS, elements=_FINITE))
def test_pair_lists_and_arrays_render_alike(entries):
    # a list of [float, float] pairs takes json.dumps, the equal array the one-pass render
    pairs = entries.tolist()
    expected = json.dumps({"entries": pairs}, indent=2, sort_keys=True)
    assert dumps({"entries": pairs}) == dumps({"entries": entries}) == expected


def test_mirrored_render_of_edge_floats():
    # ±0.0 and subnormal imaginary parts flip their sign like any other
    edges = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, -1e308, 1.5, -2.0]
    n = len(edges)
    M = np.zeros((n, n), dtype=complex)
    for i in range(n):
        for j in range(i + 1, n):
            M[i, j] = complex(edges[j], edges[i])
            M[j, i] = complex(edges[j], -edges[i])
    entries = matrixio.matrix_document(M)["entries"]
    assert matrixio.mirrored_items(entries)[np.tri(n, k=-1, dtype=bool)].all()
    expected = json.dumps(matrix_to_payload(M), indent=2, sort_keys=True)
    assert dumps(matrixio.matrix_document(M)) == expected


def test_report_matrices_take_the_mirrored_render(monkeypatch):
    # eta, rho and h are Hermitian bit for bit, so every strictly-lower
    # float of each reuses its twin's string
    H, _ = random_diagonalizable(6, seed=5)
    report = run_analyze(H, samples=1)
    masks = []
    original = matrixio.mirrored_items

    def recorded(entries):
        masks.append(original(entries))
        return masks[-1]

    monkeypatch.setattr(matrixio, "mirrored_items", recorded)
    report.to_json()
    assert len(masks) == 3
    for mask in masks:
        assert mask is not None and mask[np.tri(6, k=-1, dtype=bool)].all()


def _fail_report():
    # cluster [0, 1] has spread 1e-9, wider than 1e-13 relative to |h|
    tol = dataclasses.replace(DEFAULT_TOLERANCES, residual_tol=1e-13)
    report = run_analyze(np.diag([1.0, 1.0 + 1e-9, 3.0]), tol)
    assert report.verdict == "fail"
    return report


REPORTS = pytest.mark.parametrize(
    "make",
    [
        lambda tmp_path: run_analyze(two_level(1, 4, 0), samples=2),
        lambda tmp_path: run_family(two_level(1, 4, 0), samples=2),
        lambda tmp_path: run_spectrum(two_level(1, 4, 0)),
        lambda tmp_path: run_analyze(tmp_path / "nope.json"),
        lambda tmp_path: _fail_report(),
        lambda tmp_path: VerificationReport.from_payload(
            json.loads(run_analyze(np.diag([1.0, -0.0, 3.0]), samples=1).to_json())
        ),
    ],
    ids=["analyze", "family", "spectrum", "error", "fail", "restored"],
)


@REPORTS
def test_to_json_is_indented_sorted_json(make, tmp_path):
    report = make(tmp_path)
    assert report.to_json() == json.dumps(report.to_payload(), indent=2, sort_keys=True)


@REPORTS
def test_report_document_is_its_fields_and_restores_byte_for_byte(make, tmp_path):
    report = make(tmp_path)
    fields = {f.name for f in dataclasses.fields(VerificationReport)}
    assert set(report.to_payload()) == fields | {"failure", "verdict"}
    text = report.to_json()
    assert VerificationReport.from_payload(json.loads(text)).to_json() == text


def _family_document():
    return json.loads(run_family(two_level(1, 4, 0), samples=1).to_json())


def _without_member_spread():
    document = _family_document()
    del document["family"][0]["spread"]
    return document


def _edited(**changes):
    """The family document with ``changes`` made, each a function of the document."""

    def make():
        document = _family_document()
        for key, change in changes.items():
            document[key] = change(document)
        return document

    return make


def _member_with(**fields):
    """The family document with its first member's ``fields`` replaced."""
    return _edited(family=lambda d: [{**d["family"][0], **fields}])


_PH_FAILS = {"identity": "ph", "value": 1e-3, "bound": 1e-8}


@pytest.mark.parametrize(
    "make, match",
    [
        (dict, "lacks the key 'command'"),
        (list, "must be a JSON object, got list"),
        (_without_member_spread, "family member 0 lacks the key 'spread'"),
        (_edited(verdict=lambda d: "maybe"), "'verdict'"),
        (_edited(matrices=lambda d: []), "'matrices'"),
        (_edited(family=lambda d: {}), "'family'"),
        (_edited(failure=lambda d: _PH_FAILS), "key 'failure' must be None"),
        (_edited(verdict=lambda d: "fail"), "key 'verdict' must be 'pass'"),
        (
            _edited(
                residuals=lambda d: {**d["residuals"], "ph": 1e-3, "H=H": 1e-2},
                failure=lambda d: _PH_FAILS,
                verdict=lambda d: "fail",
            ),
            "key 'failure' must be .*'H=H'",
        ),
        (_edited(tolerances=lambda d: 5), "key 'tolerances'"),
        (_edited(tolerances=lambda d: {"residual_tol": 1e-8}), "key 'tolerances'"),
        (_edited(tolerances=lambda d: {**d["tolerances"], "residual_tol": -1.0}), "'tolerances'"),
        (_edited(tolerances=lambda d: {**d["tolerances"], "residual_tol": True}), "'tolerances'"),
        (
            _edited(tolerances=lambda d: {**d["tolerances"], "positivity_floor": 1e-10}),
            "'tolerances'",
        ),
        (
            _edited(family=lambda d: [{**d["family"][0], "residuals": {}}]),
            "family member 0 key 'residuals' is empty",
        ),
        (
            _edited(family=lambda d: [{**d["family"][0], "max_residual": 0.5}]),
            "family member 0 key 'max_residual'",
        ),
        (_edited(residuals=lambda d: {**d["residuals"], "ph": math.nan}), "key 'residuals'"),
        (_edited(residuals=lambda d: {**d["residuals"], "ph": "0"}), "key 'residuals'"),
        (_member_with(seed=-3.5), "family member 0 key 'seed'"),
        (_member_with(seed=True), "family member 0 key 'seed'"),
        (_member_with(spread="x"), "family member 0 key 'spread'"),
        (_member_with(spread=math.nan), "family member 0 key 'spread'"),
        (_member_with(spread=0.5), "family member 0 key 'spread'"),
        (_edited(matrices=lambda d: {"eta": {"dim": 10**5000, "entries": []}}), "'dim' has more"),
        (_edited(matrices=lambda d: {"eta": {"dim": 10**2200, "entries": []}}), r"dim\^2 pairs"),
    ],
    ids=[
        "empty", "not-an-object", "member-without-spread", "verdict", "matrices", "family",
        "pass-with-a-failure", "fail-over-a-clean-table", "failure-not-the-worst",
        "tolerances-not-an-object", "tolerances-partial", "tolerances-out-of-range",
        "tolerances-bool", "tolerances-with-a-removed-field",
        "member-without-residuals", "member-max-residual", "nan-residual", "string-residual",
        "fractional-seed", "bool-seed", "string-spread", "nan-spread", "spread-below-one",
        "eta-dim-10**5000", "eta-dim-10**2200",
    ],
)
def test_from_payload_refuses_a_malformed_document(make, match):
    with pytest.raises(ParseError, match=match):
        VerificationReport.from_payload(make())


@pytest.mark.parametrize("ph, a_us, worst", [(3e-8, 2e-8, "ph"), (2e-8, 3e-8, "A=US")])
def test_the_largest_residual_above_the_bound_names_the_failure(ph, a_us, worst):
    report = run_family(two_level(1, 4, 0), samples=2)
    first, second = report.family
    second = FamilyMemberSummary(second.seed, second.spread, {**second.residuals, "A=US": a_us})
    report = dataclasses.replace(
        report, residuals={**report.residuals, "ph": ph}, family=[first, second]
    )
    assert report.failure == {"identity": worst, "value": max(ph, a_us), "bound": 1e-8}
    assert (report.verdict, report.exit_code) == ("fail", 2)
    text = report.to_json()
    assert VerificationReport.from_payload(json.loads(text)).to_json() == text


def test_a_member_gate_trips_in_its_own_row(monkeypatch):
    base = run_family(two_level(1, 4, 0), samples=4)
    original = symmetry.hermitian_equivalent
    members = []

    def trips_on_member_seed_2(*args, **kwargs):
        members.append(None)
        if len(members) == 3:
            raise ResidualExceeded("H=H", 5e-8, 1e-8)
        return original(*args, **kwargs)

    monkeypatch.setattr(symmetry, "hermitian_equivalent", trips_on_member_seed_2)
    report = run_family(two_level(1, 4, 0), samples=4)
    assert report.residuals == base.residuals  # the base H=H is kept
    assert [m.seed for m in report.family] == [0, 1, 2]  # no member after the trip
    assert report.family[:2] == base.family[:2]
    assert report.family[2].residuals == {"H=H": 5e-8}
    assert report.failure == {"identity": "H=H", "value": 5e-8, "bound": 1e-8}
    assert report.exit_code == 2
    text = report.to_json()
    assert VerificationReport.from_payload(json.loads(text)).to_json() == text


def test_to_json_peak_memory_is_linear_in_output():
    spec = ModelSpec("random_diagonalizable", {"seed": 0, "cond_bound": 100.0}, dim=128)
    report = run_analyze(spec, samples=2)
    tracemalloc.start()
    try:
        text = report.to_json()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * len(text)


def test_a_family_member_peaks_below_sixteen_matrices():
    # members 2 to 5 of a run find rho_inv formed by the first: measured
    # here, a member peaks at 15.5 complex n×n matrices (the first at 16.5)
    n = 128
    H = random_diagonalizable(n, 0)[0]
    pair = full_pipeline(H)
    cb = commutant_basis(pair.h, pair.spectral.clusters)
    metric_from_symmetry(pair.metric, sample_positive_symmetry(cb, 0), H)
    generator = sample_positive_symmetry(cb, 1)
    tracemalloc.start()
    try:
        metric_from_symmetry(pair.metric, generator, H)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 16 * n * n * np.dtype(np.complex128).itemsize


def test_a_whole_analyze_peaks_below_thirty_six_matrices(tmp_path):
    # the render, not a member, sets the op's peak: the report text (about
    # 15.7 complex n×n matrices) beside its pieces or its encoded copy;
    # measured here at 34.6 matrices, and 34.5 at n=256. A first run's lazy
    # imports add about 3 at n=128, so a small run takes them first.
    n = 128
    spec = ModelSpec("random_diagonalizable", {"seed": 0}, dim=n)
    run_analyze(two_level(1, 4, 0), samples=1, out=tmp_path / "first.json")
    tracemalloc.start()
    try:
        run_analyze(spec, samples=5, seed=7, out=tmp_path / "r.json")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 36 * n * n * np.dtype(np.complex128).itemsize


def test_unwritable_out_is_an_error_report(tmp_path):
    report = run_analyze(two_level(1, 4, 0), samples=1, out=tmp_path / "missing" / "r.json")
    assert report.verdict == "error"
    assert report.exit_code == 1
    assert report.error["type"] == "FileNotFoundError"
    # the error report renders its own text, never the pre-write pass
    payload = json.loads(report.to_json())
    assert payload["verdict"] == "error"
    assert payload["error"] == report.error


@pytest.mark.parametrize(
    "name", [os.path.join("missing", "r.json"), "r\0.json"], ids=["missing", "nul"]
)
def test_unwritable_out_keeps_the_error_that_ended_the_run(tmp_path, name):
    # the count is what its caller must mend, whether or not the path opens
    report = run_family(two_level(1, 4, 0), samples=MAX_SAMPLES + 1, out=str(tmp_path / name))
    assert report.error["type"] == "ParseError"
    assert report.error["message"].startswith("samples must be at most")


class _FullDisk(io.StringIO):
    def write(self, text):
        raise OSError(errno.ENOSPC, "No space left on device")


def test_failed_write_after_rendering_is_an_error_report(tmp_path, monkeypatch):
    # the text is rendered before the write fails; the report that comes
    # back must render its own verdict, and an error names no failure
    monkeypatch.setattr("quasiherm.report.open", lambda *args, **kw: _FullDisk(), raising=False)
    for H, residual_tol in [(two_level(1, 4, 0), 1e-8), (np.diag([1.0, 1.0 + 1e-9, 3.0]), 1e-13)]:
        tol = dataclasses.replace(DEFAULT_TOLERANCES, residual_tol=residual_tol)
        report = run_analyze(H, tol, samples=1, out=tmp_path / "r.json")
        assert report.verdict == "error"
        assert report.failure is None
        assert report.error["type"] == "OSError"
        payload = json.loads(report.to_json())
        assert payload["verdict"] == "error"
        assert payload["failure"] is None
        assert payload["error"] == report.error


@pytest.fixture
def renders(monkeypatch):
    """Calls of report.dumps, the one renderer of a report's text."""
    calls = []

    def counting(payload):
        calls.append(payload)
        return dumps(payload)

    monkeypatch.setattr("quasiherm.report.dumps", counting)
    return calls


def test_report_renders_on_first_to_json_only(renders):
    report = run_analyze(two_level(1, 4, 0), samples=1)
    assert renders == []
    text = report.to_json()
    assert report.to_json() is text
    assert report.to_json() is text
    assert len(renders) == 1


def test_out_and_to_json_are_one_rendering(tmp_path, renders):
    out = tmp_path / "report.json"
    report = run_analyze(two_level(1, 4, 0), samples=1, out=out)
    assert out.read_text(encoding="utf-8") == report.to_json() + "\n"
    assert len(renders) == 1


def test_report_is_frozen():
    report = run_analyze(two_level(1, 4, 0), samples=1)
    with pytest.raises(dataclasses.FrozenInstanceError):
        report.verdict = "fail"


def test_report_matrices_are_arrays_and_payload_lists():
    report = run_analyze(two_level(1, 4, 0), samples=1)
    assert all(type(M) is np.ndarray for M in report.matrices.values())
    payload = report.to_payload()["matrices"]
    for name, M in report.matrices.items():
        assert payload[name] == matrix_to_payload(M)
        npt.assert_array_equal(matrix_from_payload(payload[name]), M)


def test_swanson_200_passes_with_cond_T_far_below_the_cap():
    # cond(T) = 7.1e5: the gates act on T's singular values, not on the
    # squared eta, whose smallest eigenvalue is 1.6e-11 relative
    spec = ModelSpec("swanson", {"omega": 2.0, "alpha": 0.3, "beta": 0.5}, dim=200)
    report = run_analyze(spec)
    assert report.verdict == "pass"
    assert report.cond_T < 1e6
    assert len(report.family) == 5
    for member in report.family:
        assert set(member.residuals) == set(FAMILY_IDENTITIES)
        assert max(member.residuals.values()) <= 1e-8


@pytest.mark.parametrize("dim", [258, 260])
def test_swanson_members_stay_within_the_condition_cap(dim):
    # cond_T is 4.2e7 at 258 and 4.9e7 at 260: a member drawn at spread 10
    # would give sigma·rho a condition of up to 4.9e8, past the 1e8 cap, so
    # each member is drawn at spread condition_cap / cond_T instead
    spec = ModelSpec("swanson", {"omega": 2.0, "alpha": 0.3, "beta": 0.5}, dim=dim)
    report = run_family(spec, samples=3)
    assert report.verdict == "pass"
    assert len(report.family) == 3
    for member in report.family:
        assert member.spread == DEFAULT_TOLERANCES.condition_cap / report.cond_T
        assert 1.0 < member.spread < 10.0
        assert set(member.residuals) == set(FAMILY_IDENTITIES)


@pytest.mark.parametrize(
    "dim, outcome",
    [(320, "NonDiagonalizable"), (400, "ComplexSpectrum"), (512, "ComplexSpectrum")],
)
def test_swanson_sweep_verdicts(dim, outcome):
    # 200 to 260 pass (above); from 320 the spectral stage refuses H
    spec = ModelSpec("swanson", {"omega": 2.0, "alpha": 0.3, "beta": 0.5}, dim=dim)
    report = run_family(spec, samples=1)
    assert report.verdict == "error"
    assert report.error["type"] == outcome


def test_cluster_merge_beyond_the_certificate_fails():
    # cluster_degeneracies merges gaps up to 1e-7·spread, but the commutant
    # certifies a cluster only while spread_k/‖h‖_F ≤ residual_tol (1e-8);
    # move this pin only when a cluster rule moves it
    spec = ModelSpec("random_diagonalizable", {"seed": 810396990, "cond_bound": 100.0}, dim=256)
    report = run_family(spec, samples=1)
    assert report.verdict == "fail"
    assert report.failure["identity"] == "sym[cluster 39]"
    assert report.failure["value"] == pytest.approx(1.137e-8, rel=1e-3)
    assert report.failure["bound"] == 1e-8

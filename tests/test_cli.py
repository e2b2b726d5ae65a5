import contextlib
import dataclasses
import io
import json

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from quasiherm import save_matrix
from quasiherm.cli import COMMANDS, main
from quasiherm.linalg import DEFAULT_TOLERANCES, Tolerances
from quasiherm.matrixio import dumps
from quasiherm.models import MODEL_KINDS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    payload = json.loads(captured.out) if captured.out.strip() else None
    return code, payload, captured.err


def test_analyze_two_level_model(capsys):
    code, payload, _ = run_cli(
        capsys, "analyze", "--model", "two_level", "--b", "1", "--c", "4",
        "--samples", "3", "--seed", "2",
    )
    assert code == 0
    assert payload["verdict"] == "pass"
    assert payload["input"]["kind"] == "two_level"
    assert [m["seed"] for m in payload["family"]] == [2, 3, 4]
    eta = payload["matrices"]["eta"]
    npt.assert_allclose(
        np.array(eta["entries"])[:, 0].reshape(2, 2), np.diag([1.6, 0.4]), atol=1e-12
    )


def test_analyze_matrix_file(tmp_path, capsys):
    path = tmp_path / "h.json"
    save_matrix(path, np.array([[1.0, 1.0], [0.0, 2.0]]))
    code, payload, _ = run_cli(capsys, "analyze", str(path), "--samples", "1")
    assert code == 0
    assert payload["input"] == {"path": str(path)}
    assert payload["residuals"]["ph"] <= 1e-14


def test_jordan_block_exits_one(tmp_path, capsys):
    path = tmp_path / "jordan.json"
    save_matrix(path, np.array([[0.0, 1.0], [0.0, 0.0]]))
    code, payload, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert payload["error"]["type"] == "NonDiagonalizable"
    assert "error:" in err


def test_rotation_exits_one(tmp_path, capsys):
    path = tmp_path / "rot.json"
    save_matrix(path, np.array([[0.0, 1.0], [-1.0, 0.0]]))
    code, payload, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert payload["error"]["type"] == "ComplexSpectrum"
    assert len(payload["error"]["eigenvalues"]) == 2


def near_degenerate_file(tmp_path):
    # one cluster [0, 1] of spread 1e-9: certified at the default residual
    # tolerance, refused (sym[cluster 0]) at 1e-13
    path = tmp_path / "near_degenerate.json"
    save_matrix(path, np.diag([1.0, 1.0 + 1e-9, 3.0]))
    return str(path)


def test_tight_tolerance_exits_two(tmp_path, capsys):
    code, payload, err = run_cli(
        capsys, "analyze", near_degenerate_file(tmp_path), "--tol", "1e-13"
    )
    assert code == 2
    assert payload["verdict"] == "fail"
    assert payload["failure"]["identity"] == "sym[cluster 0]"
    assert payload["failure"]["bound"] == 1e-13
    assert "residual failure" in err


def test_tight_tolerance_on_random_model_exits_zero(capsys):
    # h = U†·H_d·U is Hermitian by construction: no asymmetry gate trips
    # before the residuals (1.0e-14 here, an error exit before)
    code, payload, err = run_cli(
        capsys, "analyze", "--model", "random", "--dim", "8", "--model-seed", "4",
        "--tol", "1e-14",
    )
    assert code == 0
    assert payload["verdict"] == "pass"
    assert err == ""


def test_env_var_tolerance_is_used(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QUASIHERM_RESIDUAL_TOL", "1e-13")
    code, payload, _ = run_cli(capsys, "analyze", near_degenerate_file(tmp_path))
    assert code == 2
    assert payload["tolerances"]["residual_tol"] == 1e-13


def test_flag_overrides_env_var(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("QUASIHERM_RESIDUAL_TOL", "1e-13")
    code, payload, _ = run_cli(
        capsys, "analyze", near_degenerate_file(tmp_path), "--tol", "1e-8"
    )
    assert code == 0
    assert payload["tolerances"]["residual_tol"] == 1e-8


# the variable names README documents; each field of Tolerances has one
DOCUMENTED_ENV_VARS = {
    "QUASIHERM_SPECTRAL_REALITY_TOL",
    "QUASIHERM_RESIDUAL_TOL",
    "QUASIHERM_DEGENERACY_CLUSTER_TOL",
    "QUASIHERM_CONDITION_CAP",
}


@pytest.mark.parametrize("name", [f.name for f in dataclasses.fields(Tolerances)])
def test_each_env_var_reaches_its_tolerance(capsys, monkeypatch, name):
    var = f"QUASIHERM_{name.upper()}"
    assert var in DOCUMENTED_ENV_VARS
    value = getattr(DEFAULT_TOLERANCES, name) / 2
    monkeypatch.setenv(var, repr(value))
    code, payload, _ = run_cli(capsys, "spectrum", "--model", "two_level")
    assert code == 0
    assert payload["tolerances"] == {**dataclasses.asdict(DEFAULT_TOLERANCES), name: value}

    monkeypatch.setenv(var, "not-a-number")
    code, payload, err = run_cli(capsys, "analyze", "--model", "two_level")
    assert (code, payload) == (1, None)
    assert var in err


@pytest.mark.parametrize("var", ["QUASIHERM_RESIDUAL_TOLL", "QUASIHERM_POSITIVITY_FLOOR"])
def test_a_variable_naming_no_tolerance_exits_one_with_no_report(capsys, monkeypatch, var):
    monkeypatch.setenv(var, "1e-3")
    code = main(["spectrum", "--model", "two_level"])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err.startswith(f"error: {var} names no tolerance")


@pytest.mark.parametrize(
    "env, flags, message",
    [({"QUASIHERM_CONDITION_CAP": "1"}, (), "error: condition_cap must exceed 1"),
     ({}, ("--tol", "-1"), "error: residual_tol must be in [4.94066e-324, 1.79769e+308], got -1.0")],
    ids=["condition-cap-1", "tol-negative"],
)
def test_invalid_tolerances_exit_one_with_no_report(capsys, monkeypatch, env, flags, message):
    for var, value in env.items():
        monkeypatch.setenv(var, value)
    code = main(["analyze", "--model", "two_level", *flags])
    captured = capsys.readouterr()
    assert code == 1
    assert captured.out == ""
    assert captured.err.strip() == message


def test_input_and_model_are_mutually_exclusive(tmp_path, capsys):
    path = tmp_path / "h.json"
    save_matrix(path, np.eye(2))
    code, payload, err = run_cli(capsys, "analyze", str(path), "--model", "two_level")
    assert code == 1
    assert "not both" in err


def test_missing_input_is_an_error(capsys):
    code, payload, err = run_cli(capsys, "analyze")
    assert code == 1
    assert "matrix file" in err


def test_invalid_model_parameters_exit_one(capsys):
    code, payload, err = run_cli(
        capsys, "analyze", "--model", "two_level", "--c", "-1"
    )
    assert code == 1
    assert payload["error"]["type"] == "InvalidModelParameters"


@pytest.mark.parametrize("kind", list(MODEL_KINDS))
def test_unset_model_flags_record_the_table_defaults(capsys, kind):
    # a table parameter with no flag, or a flag default that drifts from the
    # table, fails here; the random seed's flag defaults to 0
    model = "random" if kind == "random_diagonalizable" else kind
    code, payload, _ = run_cli(capsys, "spectrum", "--model", model)
    assert code == 0
    assert payload["input"]["kind"] == kind
    assert payload["input"]["parameters"] == {
        name: 0 if default is None else default for name, default in MODEL_KINDS[kind].items()
    }


@pytest.mark.parametrize(
    "flags, name",
    [(("--model", "swanson", "--omega", "nan"), "omega"),
     (("--model", "swanson", "--dim", "6", "--alpha", "inf"), "alpha"),
     (("--model", "two_level", "--d", "nan"), "d"),
     (("--model", "two_level", "--b", "inf"), "b"),
     (("--model", "random", "--dim", "4", "--cond-bound", "nan"), "cond_bound"),
     (("--model", "random", "--dim", "4", "--model-seed", "-1"), "seed"),
     (("--model", "two_level", "--dim", "7"), "dim")],
    ids=["omega-nan", "alpha-inf", "d-nan", "b-inf", "cond-bound-nan", "model-seed-negative",
         "two-level-dim-7"],
)
def test_bad_model_parameters_exit_one_without_traceback(capsys, flags, name):
    code, payload, err = run_cli(capsys, "analyze", *flags)
    assert code == 1
    assert payload["error"]["type"] == "InvalidModelParameters"
    assert err.splitlines() == [f"error: {payload['error']['message']}"]
    assert payload["error"]["message"].startswith(f"{name} must be")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "flags, name, kind",
    [(("--model", "two_level", "--omega", "3"), "omega", "two_level"),
     (("--model", "swanson", "--model-seed", "5"), "seed", "swanson"),
     (("--model", "random", "--dim", "4", "--alpha", "0.3"), "alpha", "random_diagonalizable"),
     (("--model", "swanson", "--b", "2"), "b", "swanson")],
    ids=["two-level-omega", "swanson-model-seed", "random-alpha", "swanson-b"],
)
def test_a_model_flag_the_kind_does_not_take_exits_one(capsys, flags, name, kind):
    # a set flag goes into the spec, so one the kind does not take is refused, not ignored
    code, payload, err = run_cli(capsys, "analyze", *flags)
    assert code == 1
    assert payload["error"]["type"] == "InvalidModelParameters"
    assert err.splitlines() == [f"error: {payload['error']['message']}"]
    assert payload["error"]["message"].startswith(f"{name} is not a {kind} parameter")
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv, named",
    [(("analyze", "--model", "swanson", "--omega", "abc"), "--omega"),
     (("analyze", "--model", "two_level", "--samples", "x"), "--samples"),
     (("bogus",), "bogus"),
     (("analyze", "--model", "nope"), "--model"),
     (("analyze", "--model", "two_level", "--frobnicate", "1"), "--frobnicate")],
    ids=["omega-abc", "samples-x", "bogus-command", "model-nope", "unknown-flag"],
)
def test_a_malformed_command_line_exits_one_with_no_report(capsys, argv, named):
    # argparse's own refusal exits 2, the code of a residual failure
    code = main(list(argv))
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    (line,) = captured.err.splitlines()
    assert line.startswith("error: ") and named in line


def test_help_exits_zero(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["analyze", "--help"])
    assert exc.value.code == 0
    assert "--samples" in capsys.readouterr().out


@pytest.mark.parametrize(
    "flags",
    [("--omega", "3", "--model-seed", "4"), ("--dim", "7"), ("--b", "2"), ("--cond-bound", "5")],
    ids=["omega-model-seed", "dim", "b", "cond-bound"],
)
@pytest.mark.parametrize("command", list(COMMANDS))
def test_a_model_flag_given_with_a_matrix_file_exits_one(tmp_path, capsys, command, flags):
    path = tmp_path / "h.json"
    save_matrix(path, np.eye(2))
    code = main([command, str(path), *flags])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    named = ", ".join(f for f in flags if f.startswith("--"))
    assert captured.err.splitlines() == [f"error: a matrix file takes no model flag; got {named}"]


def test_unset_run_flags_take_the_runners_defaults(capsys):
    # samples 5, seed 0 and spread 10 from run_analyze's signature
    code, payload, _ = run_cli(capsys, "analyze", "--model", "two_level", "--c", "4")
    assert code == 0
    assert [(m["seed"], m["spread"]) for m in payload["family"]] == [(k, 10.0) for k in range(5)]
    # max_dim 512
    code, payload, _ = run_cli(capsys, "spectrum", "--model", "swanson", "--dim", "513")
    assert code == 1
    assert payload["error"]["message"] == "dimension 513 exceeds the configured maximum 512"


@pytest.mark.parametrize(
    "flags",
    [("--spread", "0.5"), ("--spread", "nan"), ("--spread", "inf"), ("--samples", "-1"),
     ("--seed", "-1")],
    ids=["spread-0.5", "spread-nan", "spread-inf", "samples-negative", "seed-negative"],
)
def test_bad_sampling_arguments_exit_one_with_a_report(capsys, flags):
    code, payload, err = run_cli(capsys, "analyze", "--model", "two_level", *flags)
    assert code == 1
    assert payload["verdict"] == "error"
    assert payload["error"]["type"] == "ParseError"
    assert payload["family"] == []
    assert "error:" in err


def test_out_flag_writes_matching_report(tmp_path, capsys):
    out = tmp_path / "report.json"
    code, payload, _ = run_cli(
        capsys, "analyze", "--model", "two_level", "--c", "4",
        "--samples", "1", "--out", str(out),
    )
    assert code == 0
    assert json.loads(out.read_text()) == payload


def test_out_file_and_stdout_are_one_rendering(tmp_path, capsys, monkeypatch):
    calls = []

    def counting(payload):
        calls.append(payload)
        return dumps(payload)

    monkeypatch.setattr("quasiherm.report.dumps", counting)
    out = tmp_path / "report.json"
    code = main(["analyze", "--model", "random", "--dim", "6", "--samples", "2", "--out", str(out)])
    assert code == 0
    assert capsys.readouterr().out.encode("utf-8") == out.read_bytes()
    assert len(calls) == 1


def test_eig_certificate_below_roundoff_exits_two(capsys):
    # random_diagonalizable(8, 0): 2.461e-13 > 1.742e-13 at 5e-16
    code, payload, err = run_cli(
        capsys, "analyze", "--model", "random", "--dim", "8", "--model-seed", "0",
        "--tol", "5e-16",
    )
    assert code == 2
    assert payload["verdict"] == "fail"
    assert payload["failure"]["identity"] == "eig"
    assert payload["error"] is None
    assert "residual failure: eig" in err


def test_unwritable_out_exits_one_without_traceback(tmp_path, capsys):
    out = tmp_path / "missing" / "r.json"
    code, payload, err = run_cli(capsys, "analyze", "--model", "two_level", "--out", str(out))
    assert code == 1
    assert payload["verdict"] == "error"
    assert payload["error"]["type"] == "FileNotFoundError"
    assert "error:" in err
    assert "Traceback" not in err


def test_huge_integer_entry_exits_one_without_traceback(tmp_path, capsys):
    path = tmp_path / "huge.json"
    path.write_text('{"dim": 1, "entries": [[1' + "0" * 400 + ", 0]]}")
    code, payload, err = run_cli(capsys, "analyze", str(path))
    assert code == 1
    assert payload["verdict"] == "error"
    assert payload["error"]["type"] == "ParseError"
    assert "entry 0 is not finite" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("kind", ["file", "model"])
def test_overflowing_norm_exits_one_without_traceback(tmp_path, capsys, kind):
    path = tmp_path / "big.json"
    save_matrix(path, 1.5e308 * np.eye(2))
    model = ["--model", "two_level", "--b", "1.5e308", "--c", "1.5e308"]
    source = [str(path)] if kind == "file" else model
    code, payload, err = run_cli(capsys, "analyze", *source)
    assert code == 1
    assert payload["verdict"] == "error"
    assert payload["error"]["type"] == "ParseError"
    assert "Frobenius norm overflows" in err
    assert "Traceback" not in err


def test_family_subcommand(capsys):
    code, payload, _ = run_cli(
        capsys, "family", "--model", "two_level", "--c", "4", "--samples", "2"
    )
    assert code == 0
    assert payload["command"] == "family"
    assert payload["matrices"] is None
    assert len(payload["family"]) == 2


def test_spectrum_subcommand(capsys):
    code, payload, _ = run_cli(
        capsys, "spectrum", "--model", "swanson", "--dim", "12",
        "--alpha", "0.3", "--beta", "0.5",
    )
    assert code == 0
    assert payload["command"] == "spectrum"
    assert len(payload["eigenvalues"]) == 12
    assert payload["residuals"] == {}


def test_max_dim_gate(capsys):
    code, payload, _ = run_cli(
        capsys, "analyze", "--model", "swanson", "--dim", "16", "--max-dim", "8"
    )
    assert code == 1
    assert payload["error"]["type"] == "ParseError"


def test_repeat_runs_identical_modulo_timestamp(tmp_path, capsys):
    # two clusters of two (real_dimension 8) draw a Haar mixer per member
    path = tmp_path / "c4.json"
    save_matrix(path, np.array([[1.0, 0, 1, 0], [0, 1, 0, 1], [0, 0, 2, 0], [0, 0, 0, 2]]))
    for source in (["--model", "two_level", "--c", "4"], [str(path), "--samples", "2"]):
        argv = ["family", *source, "--seed", "3"]
        code1, p1, _ = run_cli(capsys, *argv)
        code2, p2, _ = run_cli(capsys, *argv)
        assert code1 == code2 == 0
        p1.pop("generated_at")
        p2.pop("generated_at")
        assert p1 == p2
    assert p1["commutant"] == {"real_dimension": 8, "cluster_sizes": [2, 2]}


def test_analyze_swanson_200_exits_zero(capsys):
    code, payload, _ = run_cli(
        capsys, "analyze", "--model", "swanson", "--dim", "200",
        "--alpha", "0.3", "--beta", "0.5",
    )
    assert code == 0
    assert payload["verdict"] == "pass"


# A value of each sort a model flag may get: finite, 0, negative, huge, nan,
# inf, or text that is not a number.
_FLAG_VALUES = st.one_of(
    st.sampled_from(["0", "-1", "1e308", "-1e308", "1e400", str(10**30), "nan", "inf", "-inf",
                     "1+2j", "abc", ""]),
    st.floats(-10.0, 10.0).map(repr),
    st.integers(-3, 5).map(str),
)
_MODEL_FLAG_NAMES = [
    "--model-seed" if name == "seed" else "--" + name.replace("_", "-")
    for table in MODEL_KINDS.values()
    for name in table
]


@pytest.fixture(scope="module")
def small_matrix_file(tmp_path_factory):
    path = tmp_path_factory.mktemp("cli") / "h.json"
    save_matrix(path, np.array([[1.0, 1.0], [0.0, 2.0]]))
    return str(path)


@settings(max_examples=100, deadline=None)
@given(
    command=st.sampled_from(list(COMMANDS)),
    model=st.sampled_from([None, "two_level", "swanson", "random"]),
    flags=st.dictionaries(st.sampled_from(_MODEL_FLAG_NAMES), _FLAG_VALUES, max_size=3),
    dim=st.none() | st.integers(-1, 16).map(str) | st.sampled_from(["nan", "2.5", "abc"]),
    samples=st.none() | st.integers(-1, 2).map(str) | st.sampled_from(["inf", "abc"]),
)
def test_every_command_line_ends_in_a_report_or_one_error_line(
    small_matrix_file, command, model, flags, dim, samples
):
    # a model of any kind or a matrix file, with model flags of every kind,
    # so that flags the kind does not take and flags beside a file both occur
    argv = [command, *([small_matrix_file] if model is None else ["--model", model])]
    for flag, value in [*flags.items(), ("--dim", dim), ("--samples", samples)]:
        if value is not None:
            argv.append(f"{flag}={value}")  # "=": a value may start with "-"
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    out, err = out.getvalue(), err.getvalue()
    assert code in (0, 1, 2)
    if not out:
        assert code == 1
        assert len(err.splitlines()) == 1 and err.startswith("error: "), err
    else:
        # fail is a typed end until a residual failure means a program defect
        assert {"pass": 0, "error": 1, "fail": 2}[json.loads(out)["verdict"]] == code
        assert (err == "") == (code == 0), err

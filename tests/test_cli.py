import dataclasses
import json

import numpy as np
import numpy.testing as npt
import pytest

from quasiherm import save_matrix
from quasiherm.cli import main
from quasiherm.linalg import DEFAULT_TOLERANCES, Tolerances
from quasiherm.matrixio import dumps


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
    "QUASIHERM_POSITIVITY_FLOOR",
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


@pytest.mark.parametrize(
    "env, flags, message",
    [({"QUASIHERM_CONDITION_CAP": "1"}, (), "error: condition_cap must exceed 1"),
     ({}, ("--tol", "-1"), "error: residual_tol must be finite and strictly positive")],
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


def test_repeat_runs_identical_modulo_timestamp(capsys):
    argv = ["family", "--model", "two_level", "--c", "4", "--seed", "3"]
    code1, p1, _ = run_cli(capsys, *argv)
    code2, p2, _ = run_cli(capsys, *argv)
    assert code1 == code2 == 0
    p1.pop("generated_at")
    p2.pop("generated_at")
    assert p1 == p2


def test_analyze_swanson_200_exits_zero(capsys):
    code, payload, _ = run_cli(
        capsys, "analyze", "--model", "swanson", "--dim", "200",
        "--alpha", "0.3", "--beta", "0.5",
    )
    assert code == 0
    assert payload["verdict"] == "pass"

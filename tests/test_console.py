"""The command line as a separate process: ``python -m quasiherm.cli``.

The in-process tests call ``cli.main``; these check only what a process
shows: its exit status, its stdout against the ``--out`` file byte for
byte, a refusal's single ``error:`` line and no ``Traceback`` on stderr.
The child inherits the environment without any ``QUASIHERM_*`` variable,
imports the package from this checkout's ``src``, and runs under ``-X dev``
when the tests do.
"""

import json
import os
import pathlib
import subprocess
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def run_console(cwd, *argv, env=None):
    environ = {k: v for k, v in os.environ.items() if not k.startswith("QUASIHERM_")}
    environ["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    dev = ["-X", "dev"] if sys.flags.dev_mode else []
    result = subprocess.run(
        [sys.executable, *dev, "-m", "quasiherm.cli", *argv],
        cwd=cwd, env={**environ, **(env or {})}, capture_output=True, timeout=60,
    )
    stderr = result.stderr.decode("utf-8")
    assert "Traceback" not in stderr, stderr
    return result.returncode, result.stdout, stderr


def test_the_printed_report_is_the_out_file(tmp_path):
    code, stdout, stderr = run_console(
        tmp_path, "analyze", "--model", "two_level", "--b", "1", "--c", "4", "--out", "r.json"
    )
    assert (code, stderr) == (0, "")
    assert stdout == (tmp_path / "r.json").read_bytes()


def test_a_residual_failure_exits_two_with_one_line(tmp_path):
    code, stdout, stderr = run_console(
        tmp_path, "analyze", "--model", "two_level", "--tol", "1e-30"
    )
    assert code == 2
    failure = json.loads(stdout)["failure"]
    assert stderr == "residual failure: {identity} = {value:.3e} > {bound:.3e}\n".format(**failure)


@pytest.mark.parametrize(
    "content, argv",
    [(None, ("spectrum", "--model", "two_level", "--b", "1", "--c", "-4")),
     (b'\xff\xfe{"dim": 1}', ("spectrum", "m.json")),
     (b"[" * 100_000, ("spectrum", "m.json"))],
    ids=["complex-spectrum", "not-utf-8", "nested-past-the-recursion-limit"],
)
def test_an_error_report_exits_one_with_its_message(tmp_path, content, argv):
    if content is not None:
        (tmp_path / "m.json").write_bytes(content)
    code, stdout, stderr = run_console(tmp_path, *argv)
    assert code == 1
    assert stderr == f"error: {json.loads(stdout)['error']['message']}\n"


def test_a_complex_value_for_a_real_parameter_is_an_error_report(tmp_path):
    # a model flag reads any number, and build_model refuses a complex d
    code, stdout, stderr = run_console(tmp_path, "spectrum", "--model", "two_level", "--d", "1j")
    error = json.loads(stdout)["error"]
    assert (code, error["type"]) == (1, "InvalidModelParameters")
    assert stderr == f"error: {error['message']}\n"


@pytest.mark.parametrize(
    "argv, env",
    [(("bogus",), None),
     (("spectrum", "m.json", "--omega", "3"), None),
     (("spectrum", "--model", "two_level"), {"QUASIHERM_POSITIVITY_FLOOR": "1e-10"})],
    ids=["bogus-command", "model-flag-with-a-file", "variable-naming-no-tolerance"],
)
def test_a_refusal_exits_one_with_one_line_and_no_report(tmp_path, argv, env):
    (tmp_path / "m.json").write_text('{"dim": 1, "entries": [[1, 0]]}')
    code, stdout, stderr = run_console(tmp_path, *argv, env=env)
    assert (code, stdout) == (1, b"")
    (line,) = stderr.splitlines()
    assert line.startswith("error: ")

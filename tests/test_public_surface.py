"""The package's public surface: ``quasiherm.__all__``, the kernels' home
and the one function behind each shared rule."""

import ast
import importlib
import inspect
import re
from pathlib import Path

import numpy as np
import pytest

import quasiherm
from quasiherm import (
    commutant_basis,
    full_pipeline,
    metric_from_symmetry,
    sample_positive_symmetry,
    two_level,
)
from quasiherm.symmetry import symmetry_from_coefficients

KERNELS = (
    "DEFAULT_TOLERANCES",
    "as_matrix",
    "frobenius_norm",
    "gate_residual",
    "gate_singular_values",
    "haar_unitary",
    "hermitian_from_basis",
    "hermitian_part",
    "hermiticity_defect",
    "require_integer",
    "require_real",
    "require_tolerances",
    "unitarity_defect",
)


def test_every_public_name_resolves_once():
    assert len(quasiherm.__all__) == len(set(quasiherm.__all__))
    for name in quasiherm.__all__:
        assert hasattr(quasiherm, name), name


def _imported_from_quasiherm(source: str) -> set[str]:
    return {
        alias.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ImportFrom) and node.module == "quasiherm"
        for alias in node.names
    }


def test_acceptance_imports_are_public():
    source = Path(__file__).with_name("test_acceptance.py").read_text(encoding="utf-8")
    imported = _imported_from_quasiherm(source)
    assert imported
    assert imported <= set(quasiherm.__all__)


def _readme_blocks() -> list[str]:
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    return re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)


def test_readme_imports_are_public():
    imported = set().union(*map(_imported_from_quasiherm, _readme_blocks()))
    assert imported
    assert imported <= set(quasiherm.__all__), imported - set(quasiherm.__all__)


def test_readme_examples_run(tmp_path, monkeypatch):
    # in order, in one namespace: the second block reads the first's H and
    # writes report.json into the working directory
    monkeypatch.chdir(tmp_path)
    namespace = {}
    for block in _readme_blocks():
        exec(compile(block, "README.md", "exec"), namespace)
    report = namespace["report"]
    assert report.verdict == "pass"
    assert (tmp_path / "report.json").read_text(encoding="utf-8") == report.to_json() + "\n"


def test_kernels_import_from_linalg_only():
    linalg = importlib.import_module("quasiherm.linalg")
    for name in KERNELS:
        assert hasattr(linalg, name), name
    assert not set(KERNELS) & set(quasiherm.__all__)


def _callers(callee: str, argument: str | None = None) -> set[tuple[str, str]]:
    """(module, top-level function or class) of each call to a name or an
    attribute ``callee`` in ``src/quasiherm``, with a name ``argument`` among
    its arguments' names when one is given."""
    found = set()
    for path in sorted((Path(__file__).parents[1] / "src" / "quasiherm").glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for node in ast.walk(top):
                func = node.func if isinstance(node, ast.Call) else None
                if callee not in (getattr(func, "attr", None), getattr(func, "id", None)):
                    continue
                names = {
                    n.id for arg in node.args for n in ast.walk(arg) if isinstance(n, ast.Name)
                }
                if argument is None or argument in names:
                    found.add((path.stem, getattr(top, "name", "<module>")))
    return found


def test_one_function_trips_every_certificate_and_one_decodes_every_path():
    assert _callers("ResidualExceeded") == {("linalg", "gate_residual")}
    assert _callers("fsdecode") == {("matrixio", "decode_path")}


def test_one_function_builds_every_metric():
    assert _callers("MetricOperator") == {("spectral", "metric_from_T")}


def test_one_function_builds_every_generator_and_two_draw_every_mixer():
    assert _callers("SymmetryGenerator") == {("symmetry", "symmetry_from_coefficients")}
    # a given eigenbasis takes the shared matrix rule, not a conversion of its own
    assert _callers("as_matrix", "eigenvectors") == {("symmetry", "symmetry_from_coefficients")}
    samplers = {("symmetry", "sample_positive_symmetry"), ("models", "_random_transform")}
    assert _callers("haar_unitary") == samplers


def test_one_translation_refuses_every_defective_T_with_the_gates_cond():
    # _gated_rows wraps the gate and passes on its exception's cond
    assert _callers("NonDiagonalizable") == {("spectral", "_gated_rows")}


def test_one_function_checks_every_tol_and_one_measures_every_unitarity():
    assert _callers("isinstance", "Tolerances") == {("linalg", "require_tolerances")}
    assert _callers("eye") == {("linalg", "unitarity_defect")}


def test_one_rule_takes_each_kind_of_scalar():
    # an integer and a real bound each have one rule, in linalg; a model
    # parameter, passed as a complex, keeps its own
    rules = {("linalg", "require_integer"), ("linalg", "require_real")}
    assert _callers("isinstance", "bool") == rules | {("models", "_require_finite")}
    source = (Path(__file__).parents[1] / "src" / "quasiherm" / "symmetry.py").read_text("utf-8")
    assert not any(
        isinstance(node, ast.ImportFrom) and node.module == "models"
        for node in ast.walk(ast.parse(source))
    )


def _tol_entry_points() -> dict:
    """Every public function with a ``tol`` parameter, read off the
    signatures, and the generator's assembly, which sampling reaches."""
    public = {name: getattr(quasiherm, name) for name in quasiherm.__all__}
    found = {
        name: obj
        for name, obj in public.items()
        if inspect.isfunction(obj) and "tol" in inspect.signature(obj).parameters
    }
    return {**found, "symmetry_from_coefficients": symmetry_from_coefficients}


def _arguments_by_name() -> dict:
    """A valid value for each required parameter of an entry point, by name."""
    H = two_level(1, 4, 0)
    pair = full_pipeline(H)
    cb = commutant_basis(pair.h, pair.spectral.clusters)
    generator = sample_positive_symmetry(cb, 0)
    member = metric_from_symmetry(pair.metric, generator, H)
    return {
        "source": H,
        "H": H,
        "eigenvalues": pair.spectral.eigenvalues.real,
        "T": pair.spectral.T,
        "metric": pair.metric,
        "K": np.diag(pair.spectral.eigenvalues.real),
        "h": pair.h,
        "clusters": pair.spectral.clusters,
        "cb": cb,
        "seed": 0,
        "generator": generator,
        "values": generator.eigenvalues,
        "metric_prime": member.eta_prime,
        "h_prime": member.h_prime,
    }


@pytest.mark.parametrize("tol", [None, "x"], ids=["None", "str"])
@pytest.mark.parametrize("name", sorted(_tol_entry_points()))
def test_every_function_taking_tol_refuses_anything_but_tolerances(name, tol):
    # a runner records a ParseError before reading its input, a building
    # block raises a ValueError at its first tolerance read
    function = _tol_entry_points()[name]
    available = _arguments_by_name()
    required = [
        p.name
        for p in inspect.signature(function).parameters.values()
        if p.default is inspect.Parameter.empty
    ]
    arguments = {param: available[param] for param in required}
    message = f"tol must be a Tolerances, got {type(tol).__name__}"
    if name.startswith("run_"):
        report = function(**arguments, tol=tol)
        assert report.error == {"type": "ParseError", "message": message}
    else:
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$") as caught:
            function(**arguments, tol=tol)
        assert caught.type is ValueError


def _python_files() -> list[Path]:
    root = Path(__file__).parents[1]
    parts = ("src", "tests", "perfbench")
    return sorted(path for part in parts for path in (root / part).rglob("*.py"))


def test_every_file_parses_with_the_grammar_of_the_oldest_supported_python():
    # feature_version refuses newer syntax such as except*, but not every
    # construct (a *tuple[...] annotation passes) and no newer library
    # name, which the next test looks for
    pyproject = (Path(__file__).parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    assert re.findall(r'^requires-python = "(.*)"$', pyproject, re.M) == [">=3.10"]
    for path in _python_files():
        ast.parse(path.read_text(encoding="utf-8"), str(path), feature_version=(3, 10))


# Standard-library names added in Python 3.11: modules and builtins bare,
# module attributes dotted, and a method, any attribute of that name, after
# a dot. Each fails only when run on 3.10, which this suite may never be.
NEWER_NAMES = (
    "tomllib",
    "ExceptionGroup",
    "BaseExceptionGroup",
    ".add_note",
    "datetime.UTC",
    "typing.Self",
    "typing.Never",
    "typing.LiteralString",
    "typing.assert_never",
    "typing.reveal_type",
    "enum.StrEnum",
    "asyncio.TaskGroup",
    "asyncio.timeout",
    "hashlib.file_digest",
    "math.cbrt",
    "math.exp2",
    "operator.call",
    "contextlib.chdir",
)


def _newer_names(source: str) -> set[str]:
    """The names above that ``source`` imports, reads bare, reads off an
    imported module (through its alias too), or reads as an attribute."""
    tree = ast.parse(source)
    used, modules = set(), {}  # modules: local name -> dotted origin
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                used.add(alias.name)
                local = alias.asname or alias.name.partition(".")[0]
                modules[local] = alias.name if alias.asname else local
        elif isinstance(node, ast.ImportFrom) and node.module:
            used.add(node.module)
            for alias in node.names:
                used.add(f"{node.module}.{alias.name}")
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(f".{node.attr}")
            if isinstance(node.value, ast.Name) and node.value.id in modules:
                used.add(f"{modules[node.value.id]}.{node.attr}")
    return used & set(NEWER_NAMES)


def test_no_file_uses_a_library_name_newer_than_the_oldest_supported_python():
    for path in _python_files():
        assert not _newer_names(path.read_text(encoding="utf-8")), path


def _uses_of_newer_names():
    for name in NEWER_NAMES:
        module, dot, attribute = name.rpartition(".")
        if module:
            yield f"import {module}\n{name}"
            yield f"import {module} as m\nm.{attribute}"
            yield f"from {module} import {attribute} as x"
        elif dot:
            yield f"error{name}('x')"
        else:
            yield from (f"import {name}", name)


def test_the_newer_name_scan_sees_each_use_and_passes_older_names():
    assert [source for source in _uses_of_newer_names() if not _newer_names(source)] == []
    older = "import datetime\nfrom typing import Any\ndatetime.timezone.utc\nerror.args"
    assert not _newer_names(older)

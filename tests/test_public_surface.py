"""The package's public surface: ``quasiherm.__all__`` and the kernels' home."""

import ast
import importlib
import re
from pathlib import Path

import quasiherm

KERNELS = (
    "DEFAULT_TOLERANCES",
    "as_matrix",
    "frobenius_norm",
    "gate_singular_values",
    "haar_unitary",
    "hermitian_from_basis",
    "hermitian_part",
    "hermiticity_defect",
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


def test_readme_imports_are_public():
    readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"^```python\n(.*?)^```", readme, flags=re.MULTILINE | re.DOTALL)
    imported = set().union(*map(_imported_from_quasiherm, blocks))
    assert imported
    assert imported <= set(quasiherm.__all__), imported - set(quasiherm.__all__)


def test_kernels_import_from_linalg_only():
    linalg = importlib.import_module("quasiherm.linalg")
    for name in KERNELS:
        assert hasattr(linalg, name), name
    assert not set(KERNELS) & set(quasiherm.__all__)

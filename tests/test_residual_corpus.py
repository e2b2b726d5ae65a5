"""A residual corpus: tier 1 sees a residual grow on the reference inputs.

``data/residuals.json`` holds, for each of the five reference inputs, the
verdict, the residual table and each member's seed, spread and residual
table of ``run_analyze(x, samples=5, seed=7)``, with the numpy version, the
BLAS name and version and the BLAS thread count that wrote it. A run must
give the same verdict, identity names, seeds and spreads, and no residual
above ``max(K·stored, FLOOR)``. Every residual sits about six decades below
``residual_tol``, so without this a residual could grow 100-fold unseen.

Going from 1 to 2 BLAS threads moved no residual by more than 1.33×, so
K = 8 leaves room for other BLAS builds; FLOOR, a few ε, is for residuals
stored at or near 0. A change that moves a residual beyond K× rewrites the
file, with the identity, the old and new values and the reason in
``CHANGES.md``. From the repository root, the file is written by::

    OPENBLAS_NUM_THREADS=1 PYTHONPATH=src python tests/test_residual_corpus.py --write
"""

import ctypes
import importlib.util
import json
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest

import quasiherm
from quasiherm import ModelSpec, run_analyze, swanson, two_level

K = 8.0
FLOOR = 1e-15
CORPUS = Path(__file__).with_name("data") / "residuals.json"
ROOT = Path(__file__).parents[1]


def _degenerate_file(workdir: Path) -> Path:
    """The matrix file written by the benchmark's degenerate-file-128 at workload seed 1."""
    path = ROOT / "perfbench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("perfbench_workloads", path)
    workloads = sys.modules.setdefault(spec.name, importlib.util.module_from_spec(spec))
    dont_write, sys.dont_write_bytecode = sys.dont_write_bytecode, True  # no file in perfbench/
    try:
        spec.loader.exec_module(workloads)
    finally:
        sys.dont_write_bytecode = dont_write
    cases, _ = workloads.build("degenerate-file-128", 1, quasiherm, workdir)
    return cases[0].source


INPUTS = {
    "random-256": lambda _: ModelSpec(
        "random_diagonalizable", {"seed": 0, "cond_bound": 100.0}, dim=256
    ),
    "random-64": lambda _: ModelSpec("random_diagonalizable", {"seed": 3}, dim=64),
    "two_level(1, 4, 0)": lambda _: two_level(1, 4, 0),
    "swanson(40, 2, 0.3, 0.5)": lambda _: swanson(40, 2, 0.3, 0.5),
    "degenerate-file-128": _degenerate_file,
}


def _entry(name: str, workdir: Path) -> dict:
    report = run_analyze(INPUTS[name](workdir), samples=5, seed=7)
    return {
        "verdict": report.verdict,
        "residuals": report.residuals,
        "family": [
            {"seed": m.seed, "spread": m.spread, "residuals": m.residuals} for m in report.family
        ],
    }


@pytest.mark.parametrize("name", INPUTS)
def test_residuals_stay_within_the_corpus(name, tmp_path):
    stored = json.loads(CORPUS.read_text(encoding="utf-8"))["inputs"][name]
    entry = _entry(name, tmp_path)
    assert entry["verdict"] == stored["verdict"]
    tables = [(entry["residuals"], stored["residuals"], "residuals")]
    assert [(m["seed"], m["spread"]) for m in entry["family"]] == [
        (m["seed"], m["spread"]) for m in stored["family"]
    ]
    for got, want in zip(entry["family"], stored["family"]):
        tables.append((got["residuals"], want["residuals"], f"member {want['seed']}"))
    for got, want, where in tables:
        assert sorted(got) == sorted(want), where
        for identity, value in want.items():
            assert got[identity] <= max(K * value, FLOOR), (where, identity, got[identity], value)


def _blas_threads():
    """The thread count of the scipy-openblas library numpy loads, or None."""
    for path in (Path(np.__file__).parent.parent / "numpy.libs").glob("libscipy_openblas*"):
        library = ctypes.CDLL(str(path))
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads"):
            if hasattr(library, symbol):
                return int(getattr(library, symbol)())
    return None


def write_corpus() -> None:
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    with tempfile.TemporaryDirectory() as workdir:
        inputs = {name: _entry(name, Path(workdir)) for name in INPUTS}
    document = {
        "written_by": {
            "numpy": np.__version__,
            "blas": blas.get("name"),
            "blas_version": blas.get("version"),
            "blas_threads": _blas_threads(),
        },
        "inputs": inputs,
    }
    CORPUS.parent.mkdir(exist_ok=True)
    CORPUS.write_text(json.dumps(document, indent=2) + "\n", encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--write"]:
        sys.exit(f"usage: {sys.argv[0]} --write")
    write_corpus()

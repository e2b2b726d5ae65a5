"""Benchmark workloads: inputs made from the seed, one operation, its checks.

An operation is what ``quasiherm analyze`` does minus process start:
``run_analyze(source, samples=5, seed=k)`` followed by ``to_json()``,
with ``out=`` set when the input came from a file. Every workload is a
fixed cycle of cases; the single-input workloads have a cycle of one.

Each case carries the reference the benchmark made itself (the spectrum
it generated and the commutant dimension that spectrum implies), so the
checks compare the program's printed report against data the program
did not compute.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

SAMPLES = 5
RESIDUAL_TOL = 1e-8  # quasiherm's default residual_tol, which the ops use
EIGENVALUE_TOL = 1e-8  # relative to max(|lambda|, 1)
DEGENERACY_TOL = 1e-7  # relative gap that merges eigenvalues into a cluster

# The eleven identities every family member must certify.
IDENTITIES = (
    "ph", "H=H", "sim", "sym", "eta-prime", "A-ph",
    "A=US", "B-ph", "eta=BB", "eta-form", "eta-prime-3",
)

SWANSON = {"omega": 2.0, "alpha": 0.3, "beta": 0.5}
# Swanson stays below dim 160: from there on analyze ends in
# NotPositiveDefinite (eta's condition number trips the positivity floor).
# Fixing that turns an early error into the full family, which a timed
# workload would read as a slowdown; it belongs in a regression test.
SWANSON_DIMS = range(4, 32)
RANDOM_DIMS = range(2, 33)

WORKLOADS = ("random-256", "degenerate-file-128", "small-mixed")
# BLAS threads per workload; the others use every core the process may use.
# small-mixed's kernels are n <= 32, which gain nothing from a second thread:
# its helper threads only spin, and each kernel then waits at a barrier for
# a core that the machine's other load may hold, which makes timings swing.
BLAS_THREADS = {"small-mixed": 1}


@dataclass
class Case:
    label: str
    source: object  # a quasiherm.ModelSpec or a matrix file path
    eigenvalues: np.ndarray  # reference spectrum, ascending
    out: Path | None = None

    @property
    def real_dimension(self) -> int:
        """Sum of squared cluster sizes of the reference spectrum."""
        gaps = np.diff(self.eigenvalues)
        scale = DEGENERACY_TOL * max(float(self.eigenvalues[-1] - self.eigenvalues[0]), 1.0)
        sizes = np.diff(np.flatnonzero(np.r_[True, gaps > scale, True]))
        return int(np.sum(sizes**2))


def _rng(seed: int, workload: str) -> np.random.Generator:
    return np.random.default_rng([seed, WORKLOADS.index(workload)])


def _haar(n: int, rng: np.random.Generator) -> np.ndarray:
    z = rng.standard_normal((n, n)) + 1j * rng.standard_normal((n, n))
    q, r = np.linalg.qr(z)
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def _random_case(qh, n: int, model_seed: int) -> Case:
    # The model's own generating data gives the spectrum D it was built from.
    _, truth = qh.random_diagonalizable(n, model_seed, 100.0)
    spec = qh.ModelSpec(
        "random_diagonalizable", {"seed": model_seed, "cond_bound": 100.0}, dim=n
    )
    return Case(f"random-{n}", spec, np.sort(np.real(truth.eigenvalues)))


def _swanson_matrix(dim: int) -> np.ndarray:
    """omega(a†a + 1/2) + alpha a² + beta a†² in the truncated number basis."""
    n = np.arange(dim, dtype=np.float64)
    H = np.diag(SWANSON["omega"] * (n + 0.5))
    ladder = np.sqrt((n[:-2] + 1.0) * (n[:-2] + 2.0))
    H[np.arange(dim - 2), np.arange(2, dim)] += SWANSON["alpha"] * ladder
    H[np.arange(2, dim), np.arange(dim - 2)] += SWANSON["beta"] * ladder
    return H


def _write_matrix(path: Path, H: np.ndarray) -> None:
    entries = [[float(z.real), float(z.imag)] for z in H.ravel()]
    path.write_text(json.dumps({"dim": H.shape[0], "entries": entries}), encoding="utf-8")


def build(workload: str, seed: int, qh, workdir: Path) -> tuple[list[Case], int]:
    """The workload's cycle of cases and the first sampling seed."""
    rng = _rng(seed, workload)
    base_seed = int(rng.integers(1 << 20))
    if workload == "random-256":
        # One matrix, model seed 0 as in the ROADMAP baseline; the workload
        # seed sets the sampling seeds. A drawn model seed can give a pair of
        # eigenvalues just apart enough not to merge into a cluster (model
        # seed 810396990: gap 5e-7 against a spread of 10), and then
        # commutant_basis fails sym[basis 40] at 1.14e-8 > 1e-8 on every op.
        return [_random_case(qh, 256, 0)], base_seed

    if workload == "degenerate-file-128":
        # H = T0⁻¹ D T0 with 8 clusters of 16 equal eigenvalues and
        # cond(T0) <= 100: the commutant has real dimension 8·16² = 2048.
        n, clusters = 128, 8
        levels = np.linspace(-4.0, 4.0, clusters) + rng.uniform(-0.2, 0.2, clusters)
        D = np.repeat(levels, n // clusters)
        s = np.exp(rng.uniform(0.0, np.log(100.0), n))
        T0 = _haar(n, rng) @ (s[:, None] * _haar(n, rng))
        H = np.linalg.solve(T0, D[:, None] * T0)
        path = workdir / "hamiltonian.json"
        _write_matrix(path, H)
        return [Case("degenerate-128", path, D, out=workdir / "report.json")], base_seed

    if workload == "small-mixed":
        b, c = rng.uniform(0.5, 3.0, 2)
        d = float(rng.uniform(-1.0, 1.0))
        root = np.sqrt(b * c)
        cases = [
            Case(
                "two_level",
                qh.ModelSpec("two_level", {"b": float(b), "c": float(c), "d": d}, dim=2),
                np.array([d - root, d + root]),
            )
        ]
        cases += [_random_case(qh, n, int(rng.integers(1 << 31))) for n in RANDOM_DIMS]
        for dim in SWANSON_DIMS:
            ref = np.sort(np.real(np.linalg.eigvals(_swanson_matrix(dim))))
            cases.append(Case(f"swanson-{dim}", qh.ModelSpec("swanson", dict(SWANSON), dim=dim), ref))
        return cases, base_seed

    raise ValueError(f"unknown workload {workload!r}; expected one of {WORKLOADS}")


def run_op(qh, case: Case, seed: int) -> str:
    """One operation: analyze, then serialise the report as the CLI prints it."""
    report = qh.run_analyze(case.source, samples=SAMPLES, seed=seed, out=case.out)
    return report.to_json()


def _matrix(payload: dict) -> np.ndarray:
    pairs = np.asarray(payload["entries"], dtype=np.float64)
    n = payload["dim"]
    return (pairs[:, 0] + 1j * pairs[:, 1]).reshape(n, n)


def check(case: Case, seed: int, text: str) -> str | None:
    """Return why the printed report is wrong, or None when it is right."""
    try:
        report = json.loads(text)
        if report["verdict"] != "pass":
            return f"verdict {report['verdict']}: {report.get('error') or report.get('failure')}"

        for key in ("ph", "H=H"):
            if not report["residuals"][key] <= RESIDUAL_TOL:
                return f"residual {key} = {report['residuals'][key]}"
        family = report["family"]
        if len(family) != SAMPLES:
            return f"{len(family)} family members, expected {SAMPLES}"
        for j, member in enumerate(family):
            if member["seed"] != seed + j:
                return f"member {j} has seed {member['seed']}, expected {seed + j}"
            residuals = member["residuals"]
            for key in IDENTITIES:
                if key not in residuals:
                    return f"member {j} lacks identity {key}"
                if not residuals[key] <= RESIDUAL_TOL:
                    return f"member {j}: {key} = {residuals[key]} > {RESIDUAL_TOL}"

        ref = case.eigenvalues
        scale = EIGENVALUE_TOL * max(float(np.max(np.abs(ref))), 1.0)
        pairs = np.asarray(report["eigenvalues"], dtype=np.float64)
        if pairs.shape != (ref.size, 2):
            return f"eigenvalues have shape {pairs.shape}, expected ({ref.size}, 2)"
        drift = float(np.max(np.abs(np.sort(pairs[:, 0]) - ref)))
        if drift > scale or float(np.max(np.abs(pairs[:, 1]))) > scale:
            return f"eigenvalues drift {drift:.3e} from the generated spectrum"

        h = _matrix(report["matrices"]["h"])
        asymmetry = float(np.linalg.norm(h - h.conj().T))
        if asymmetry > RESIDUAL_TOL * max(float(np.linalg.norm(h)), 1.0):
            return f"reported h is not Hermitian (defect {asymmetry:.3e})"
        h_drift = float(np.max(np.abs(np.linalg.eigvalsh(h) - ref)))
        if h_drift > scale:
            return f"spectrum of reported h drifts {h_drift:.3e} from the generated spectrum"

        expected = case.real_dimension
        if report["commutant"]["real_dimension"] != expected:
            return f"commutant dimension {report['commutant']['real_dimension']}, expected {expected}"

        if case.out is not None and case.out.read_text(encoding="utf-8").strip() != text.strip():
            return f"{case.out.name} differs from the printed report"
    except (KeyError, IndexError, TypeError, ValueError, OSError) as exc:
        return f"malformed report: {type(exc).__name__}: {exc}"
    return None

"""Verification reports: run the pipeline end to end and record the evidence.

A report is a JSON document holding the input descriptor, the tolerances
used, the certified spectrum, the constructed operators, a residual table
keyed by identity name, and one residual table per sampled family member.
The verdict is pass iff every recorded residual is within residual_tol.
Reports are deterministic for identical inputs apart from the timestamp,
on one numpy/BLAS build at one BLAS thread count: BLAS rounds differently
with the thread count, so the low digits of residuals can move.

A report is a frozen dataclass. ``matrices`` holds the complex arrays
``eta``, ``rho`` and ``h``; ``to_payload`` gives plain JSON lists. The
report's byte layout is a contract: indent 2, sorted keys, one
``[re, im]`` pair per matrix entry in row-major order, and floats in
shortest round-trip ``repr``. ``to_json`` equals
``json.dumps(to_payload(), indent=2, sort_keys=True)`` byte for byte. Its
first call renders each matrix in one pass, from its array into one
joined string, and later calls return that text, so the ``out=`` file and
a caller's ``to_json`` are one rendering. ``eta``, ``rho`` and ``h`` are
Hermitian bit for bit, so each float below the diagonal takes the string
of its mirror image above it (:mod:`~quasiherm.matrixio`): every mirrored
float is ``repr``-ed once, and the eigenvalue pairs go through json.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import (
    ComplexSpectrum,
    NonDiagonalizable,
    ParseError,
    QuasiHermError,
    ResidualExceeded,
)
from .linalg import DEFAULT_TOLERANCES, Tolerances, as_matrix, frobenius_norm
from .matrixio import dumps, load_matrix, matrix_document, matrix_from_payload, matrix_to_payload
from .metric import full_pipeline
from .models import ModelSpec, build_model, describe_model
from .spectral import eig_decompose
from .symmetry import _certified_commutant, metric_from_symmetry, sample_positive_symmetry

DEFAULT_MAX_DIM = 512

_EXIT_CODES = {"pass": 0, "error": 1, "fail": 2}


def _complex_pairs(values) -> list:
    return [[float(np.real(z)), float(np.imag(z))] for z in np.asarray(values).ravel()]


@dataclass
class FamilyMemberSummary:
    seed: int
    spread: float
    residuals: dict

    @property
    def max_residual(self) -> float:
        return max(self.residuals.values())

    def to_payload(self) -> dict:
        return {
            "seed": self.seed,
            "spread": self.spread,
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "max_residual": float(self.max_residual),
        }


@dataclass(frozen=True)
class VerificationReport:
    command: str
    input: dict
    tolerances: dict
    generated_at: str
    eigenvalues: list | None = None
    clusters: list | None = None
    cond_T: float | None = None
    commutant: dict | None = None
    matrices: dict | None = None
    residuals: dict = field(default_factory=dict)
    family: list = field(default_factory=list)
    failure: dict | None = None
    error: dict | None = None
    verdict: str = "pass"

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.verdict]

    def to_payload(self) -> dict:
        return self._payload(matrix_to_payload)

    def _payload(self, matrix) -> dict:
        """The report document, each matrix rendered by ``matrix``."""
        return {
            "command": self.command,
            "input": self.input,
            "tolerances": self.tolerances,
            "generated_at": self.generated_at,
            "eigenvalues": self.eigenvalues,
            "clusters": self.clusters,
            "cond_T": self.cond_T,
            "commutant": self.commutant,
            "matrices": None if self.matrices is None
            else {name: matrix(M) for name, M in self.matrices.items()},
            "residuals": {k: float(v) for k, v in self.residuals.items()},
            "family": [m.to_payload() for m in self.family],
            "failure": self.failure,
            "error": self.error,
            "verdict": self.verdict,
        }

    def to_json(self) -> str:
        return self._json

    @cached_property
    def _json(self) -> str:
        return dumps(self._payload(matrix_document))

    @staticmethod
    def from_payload(payload: dict) -> "VerificationReport":
        members = [
            FamilyMemberSummary(
                seed=m["seed"], spread=m["spread"], residuals=dict(m["residuals"])
            )
            for m in payload.get("family", [])
        ]
        return VerificationReport(
            command=payload["command"],
            input=payload["input"],
            tolerances=payload["tolerances"],
            generated_at=payload["generated_at"],
            eigenvalues=payload.get("eigenvalues"),
            clusters=payload.get("clusters"),
            cond_T=payload.get("cond_T"),
            commutant=payload.get("commutant"),
            matrices=None if payload.get("matrices") is None
            else {name: matrix_from_payload(m) for name, m in payload["matrices"].items()},
            residuals=dict(payload.get("residuals", {})),
            family=members,
            failure=payload.get("failure"),
            error=payload.get("error"),
            verdict=payload["verdict"],
        )


def _resolve_input(source, max_dim: int):
    """Turn a path, ModelSpec, or array into (H, descriptor)."""
    if isinstance(source, ModelSpec):
        # gate before building: a model allocates its full dim x dim matrix
        _check_dim(source.dim, max_dim)
        H = build_model(source)
        descriptor = describe_model(source)
    elif isinstance(source, (str, Path)):
        H = load_matrix(source)
        descriptor = {"path": str(source)}
    else:
        try:
            H = as_matrix(source)
        except ValueError as exc:
            raise ParseError(str(exc)) from exc
        descriptor = {"source": "in-memory", "dim": int(H.shape[0])}
    _check_dim(H.shape[0], max_dim)
    frobenius_norm(H)  # ParseError before any stage when ‖H‖_F overflows
    return H, descriptor


def _check_dim(dim: int, max_dim: int) -> None:
    if dim > max_dim:
        raise ParseError(f"dimension {dim} exceeds the configured maximum {max_dim}")


def _error_payload(exc: Exception) -> dict:
    payload = {"type": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ComplexSpectrum) and exc.eigenvalues is not None:
        payload["eigenvalues"] = _complex_pairs(exc.eigenvalues)
    if isinstance(exc, NonDiagonalizable) and exc.cond is not None:
        payload["cond"] = float(exc.cond)
    return payload


def _record_stages(fields, command, source, tol, samples, seed, spread, max_dim) -> None:
    """Run the stages ``command`` selects, recording their results in ``fields``."""
    for name, value in (("samples", samples), ("seed", seed)):
        if not isinstance(value, (int, np.integer)) or value < 0:
            raise ParseError(f"{name} must be an integer >= 0, got {value!r}")
    if not 1.0 <= spread < np.inf:
        raise ParseError(f"spread must be finite and >= 1, got {spread}")
    H, fields["input"] = _resolve_input(source, max_dim)

    if command == "spectrum":
        spectral = eig_decompose(H, tol)
        pair = None
    else:
        pair = full_pipeline(H, tol)
        spectral = pair.spectral

    fields["eigenvalues"] = _complex_pairs(spectral.eigenvalues)
    fields["clusters"] = [list(c) for c in spectral.clusters]
    fields["cond_T"] = float(spectral.cond_T)

    if pair is not None:
        fields["residuals"]["ph"] = float(pair.metric.pseudo_hermiticity_residual)
        fields["residuals"]["H=H"] = float(pair.similarity_residual)
        if command == "analyze":
            fields["matrices"] = {"eta": pair.metric.eta, "rho": pair.metric.rho, "h": pair.h}
        # h = X†·H_d·X is Hermitian bit for bit, with eigenbasis X† and
        # eigenvalues diag(H_d): certified as built, not factorized again
        cb = _certified_commutant(
            pair.h, spectral.eigenvalues.real, pair.metric.unitary.conj().T,
            spectral.clusters, tol,
        )
        fields["commutant"] = {
            "real_dimension": cb.real_dimension,
            "cluster_sizes": [len(c) for c in cb.clusters],
        }
        for member_seed in range(seed, seed + samples):
            generator = sample_positive_symmetry(cb, member_seed, spread, tol)
            # keep the residuals only: a member's matrices die here
            residuals = metric_from_symmetry(pair.metric, generator, H, tol).residuals
            fields["family"].append(
                FamilyMemberSummary(seed=member_seed, spread=spread, residuals=residuals)
            )


def _run(
    command: str,
    source,
    tol: Tolerances,
    samples: int,
    seed: int,
    spread: float,
    out,
    max_dim: int,
) -> VerificationReport:
    """Run the stages ``command`` selects and record them in a report.

    ``spectrum`` stops after the spectral data, ``family`` adds the metric
    and its sampled family, and ``analyze`` also records the matrices.
    """
    fields = {
        "command": command,
        "input": {},
        "tolerances": dataclasses.asdict(tol),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "residuals": {},
        "family": [],
    }
    failure = None  # (value, identity, bound) of the identity that failed
    try:
        # the stages' own matrices die on return, before the report is written
        _record_stages(fields, command, source, tol, samples, seed, spread, max_dim)
    except ResidualExceeded as exc:
        fields["residuals"][exc.identity] = float(exc.value)
        failure = (exc.value, exc.identity, exc.bound)
    except (ParseError, QuasiHermError, OSError) as exc:
        fields["error"] = _error_payload(exc)
        fields["verdict"] = "error"
    else:
        labeled = list(fields["residuals"].items())
        for member in fields["family"]:
            labeled.extend(member.residuals.items())
        bad = [(value, key) for key, value in labeled if value > tol.residual_tol]
        if bad:
            failure = (*max(bad), tol.residual_tol)
    if failure is not None:
        value, identity, bound = failure
        fields["failure"] = {"identity": identity, "value": float(value), "bound": float(bound)}
        fields["verdict"] = "fail"

    report = VerificationReport(**fields)
    if out is not None:
        try:
            with open(out, "w", encoding="utf-8") as f:
                print(report.to_json(), file=f)  # as the CLI prints it: no text + "\n" copy
        except OSError as exc:
            return dataclasses.replace(report, error=_error_payload(exc), verdict="error")
    return report


def run_analyze(
    source,
    tol: Tolerances = DEFAULT_TOLERANCES,
    samples: int = 5,
    seed: int = 0,
    spread: float = 10.0,
    out=None,
    max_dim: int = DEFAULT_MAX_DIM,
) -> VerificationReport:
    """Full treatment: pipeline, commutant, sampled metric family, verdict."""
    return _run("analyze", source, tol, samples, seed, spread, out, max_dim)


def run_family(
    source,
    tol: Tolerances = DEFAULT_TOLERANCES,
    samples: int = 5,
    seed: int = 0,
    spread: float = 10.0,
    out=None,
    max_dim: int = DEFAULT_MAX_DIM,
) -> VerificationReport:
    """Symmetry-family sampling only; matrices are left out of the report."""
    return _run("family", source, tol, samples, seed, spread, out, max_dim)


def run_spectrum(
    source,
    tol: Tolerances = DEFAULT_TOLERANCES,
    out=None,
    max_dim: int = DEFAULT_MAX_DIM,
) -> VerificationReport:
    """Spectral diagnostics only: eigenvalues, clusters, conditioning."""
    return _run("spectrum", source, tol, 0, 0, 10.0, out, max_dim)

"""Verification reports: run the pipeline end to end and record the evidence.

A report is a JSON document holding the input descriptor, the tolerances
used, the certified spectrum, the constructed operators, a residual table
keyed by identity name, and one residual table per sampled family member.
A stage's gate that trips is one more entry in the table it belongs to: a
member's in that member's row, after which no member is drawn. The
``failure`` is the largest entry above residual_tol over all the tables,
ties to the larger name, and the verdict is ``error`` when a stage raised
anything else, else ``fail`` when there is a failure, else ``pass``; both
are read from the tables, never stored beside them.
Reports are deterministic for identical inputs apart from the timestamp,
on one numpy/BLAS build at one BLAS thread count: BLAS rounds differently
with the thread count, so the low digits of residuals can move.

A report is a frozen dataclass, and its document has one key per field
plus ``failure`` and ``verdict``: ``to_payload`` renders only
``matrices``, the complex arrays ``eta``, ``rho`` and ``h``, as plain
JSON lists, and each ``family`` member as its fields plus
``max_residual``. ``from_payload`` is its inverse. A malformed document
is a :class:`~quasiherm.errors.ParseError` naming the key, and so is one
whose tolerances are not a :class:`~quasiherm.linalg.Tolerances`, whose
residual is not a finite float, whose member has no residual, or whose
``failure``, ``verdict`` or ``max_residual`` is not what its tables give. The
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
import math
import os
from dataclasses import dataclass, field
from datetime import datetime, timezone
from functools import cached_property

import numpy as np

from .errors import (
    ComplexSpectrum,
    InvalidModelParameters,
    NonDiagonalizable,
    ParseError,
    QuasiHermError,
    ResidualExceeded,
)
from .linalg import DEFAULT_TOLERANCES, Tolerances, as_matrix, frobenius_norm, require_integer
from .linalg import require_real, require_tolerances
from .matrixio import decode_path, dumps, load_matrix, matrix_document, matrix_from_payload
from .matrixio import matrix_to_payload
from .metric import full_pipeline
from .models import ModelSpec, build_model, describe_model
from .spectral import eig_decompose
from .symmetry import _certified_commutant, metric_from_symmetry, sample_positive_symmetry

DEFAULT_MAX_DIM = 512
MAX_SAMPLES = 1000  # the most members one run draws, so that every run ends
_PATHS = (str, bytes, os.PathLike)  # a ``source`` read as a path, as decode_path reads it

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
        return {**dataclasses.asdict(self), "max_residual": self.max_residual}


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
    error: dict | None = None

    @property
    def failure(self) -> dict | None:
        """The worst residual above ``residual_tol`` in any table; None once ``error`` is set."""
        bound = self.tolerances["residual_tol"]
        tables = [self.residuals, *(m.residuals for m in self.family)]
        bad = [(value, name) for t in tables for name, value in t.items() if value > bound]
        if self.error is not None or not bad:
            return None
        value, identity = max(bad)
        return {"identity": identity, "value": float(value), "bound": float(bound)}

    @property
    def verdict(self) -> str:
        return "error" if self.error is not None else "pass" if self.failure is None else "fail"

    @property
    def exit_code(self) -> int:
        return _EXIT_CODES[self.verdict]

    def to_payload(self) -> dict:
        return self._payload(matrix_to_payload)

    def _payload(self, matrix) -> dict:
        """The report document, one key per field, each matrix rendered by ``matrix``."""
        payload = {f.name: getattr(self, f.name) for f in dataclasses.fields(self)}
        payload.update(failure=self.failure, verdict=self.verdict)
        if self.matrices is not None:
            payload["matrices"] = {name: matrix(M) for name, M in self.matrices.items()}
        payload["family"] = [m.to_payload() for m in self.family]
        return payload

    def to_json(self) -> str:
        return self._json

    @cached_property
    def _json(self) -> str:
        return dumps(self._payload(matrix_document))

    @staticmethod
    def from_payload(payload: dict) -> "VerificationReport":
        """The report whose document is ``payload``, the inverse of :meth:`to_payload`;
        a malformed document, or a ``failure`` or ``verdict`` other than the
        one its residual tables give, is a :class:`ParseError` naming the key.
        """
        values = _field_values(VerificationReport, payload, "a report document")
        tolerances = values["tolerances"]
        try:
            valid = dataclasses.asdict(Tolerances(**tolerances)) == tolerances
        except (TypeError, ValueError):
            valid = False
        if not valid:
            raise ParseError(f"report key 'tolerances' is not a set of tolerances: {tolerances!r}")
        _check_residuals(values["residuals"], "report key 'residuals'")
        if values["matrices"] is not None:
            if not isinstance(values["matrices"], dict):
                raise ParseError("report key 'matrices' must be an object or null")
            values["matrices"] = {
                name: matrix_from_payload(m) for name, m in values["matrices"].items()
            }
        if not isinstance(values["family"], list):
            raise ParseError("report key 'family' must be a list")
        values["family"] = [
            _member_from_payload(m, f"family member {i}") for i, m in enumerate(values["family"])
        ]
        report = VerificationReport(**values)
        for key in ("failure", "verdict"):
            derived = getattr(report, key)
            if key not in payload or payload[key] != derived:
                raise ParseError(f"report key {key!r} must be {derived!r}, as its residuals give")
        return report


def _field_values(cls, document, where: str) -> dict:
    """The value of each of ``cls``'s fields, read from ``document`` by its name."""
    if not isinstance(document, dict):
        raise ParseError(f"{where} must be a JSON object, got {type(document).__name__}")
    try:
        return {f.name: document[f.name] for f in dataclasses.fields(cls)}
    except KeyError as exc:
        raise ParseError(f"{where} lacks the key {exc.args[0]!r}") from None


def _check_residuals(table, where: str) -> None:
    # a NaN compares false against the bound, so it would read as a pass
    if not isinstance(table, dict) or not all(
        isinstance(value, float) and math.isfinite(value) for value in table.values()
    ):
        raise ParseError(f"{where} must map identity names to finite floats")


def _member_from_payload(document, where: str) -> FamilyMemberSummary:
    member = FamilyMemberSummary(**_field_values(FamilyMemberSummary, document, where))
    _check_residuals(member.residuals, f"{where} key 'residuals'")
    if not member.residuals:
        raise ParseError(f"{where} key 'residuals' is empty")
    if document.get("max_residual") != member.max_residual:
        raise ParseError(f"{where} key 'max_residual' is not the largest of its residuals")
    require_integer(member.seed, f"{where} key 'seed'", 0, ParseError)
    require_real(member.spread, f"{where} key 'spread'", 1.0, ParseError)
    return member


def _resolve_input(source, max_dim: int):
    """Turn a ModelSpec, a path (``_PATHS``) or an array into (H, descriptor)."""
    if isinstance(source, ModelSpec):
        # gate before building: a model allocates its full dim x dim matrix,
        # and only an integer dim can be compared with max_dim
        _check_dim(require_integer(source.dim, "dim", 1, InvalidModelParameters), max_dim)
        H = build_model(source)
        descriptor = describe_model(source)
    elif isinstance(source, _PATHS):
        descriptor = {"path": decode_path(source, "source")}
        H = load_matrix(descriptor["path"])
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
    if isinstance(exc, ComplexSpectrum):
        payload["eigenvalues"] = _complex_pairs(exc.eigenvalues)
    if isinstance(exc, NonDiagonalizable):  # inf, from σ_min = 0, is not JSON
        payload["cond"] = float(exc.cond) if math.isfinite(exc.cond) else None
    return payload


def _record_stages(fields, command, source, tol, samples, seed, spread, out, max_dim) -> None:
    """Run the stages ``command`` selects, recording their results in ``fields``; a ``tol``
    that is not a Tolerances is refused first, so the report keeps DEFAULT_TOLERANCES."""
    fields["tolerances"] = dataclasses.asdict(require_tolerances(tol, ParseError))
    for name, value in (("samples", samples), ("seed", seed), ("max_dim", max_dim)):
        require_integer(value, name, 0, ParseError)
    # each member's seed is written too; Python ints, as a numpy int's sum may overflow
    seed, samples = int(seed), int(samples)
    if samples > MAX_SAMPLES:
        raise ParseError(f"samples must be at most {MAX_SAMPLES}, got {samples}")
    require_integer(seed + max(samples - 1, 0), "the last member's seed", 0, ParseError)
    require_real(spread, "spread", 1.0, ParseError)
    if out is not None:  # refused before any input is read
        decode_path(out, "out")
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
        # cond(sigma) <= spread and cond(rho) = cond_T, so each member's
        # factor sigma·rho stays within the condition cap
        spread = min(spread, tol.condition_cap / spectral.cond_T)
        for member_seed in range(seed, seed + samples):
            try:
                generator = sample_positive_symmetry(cb, member_seed, spread, tol)
                # keep the residuals only: a member's matrices die here
                residuals = metric_from_symmetry(pair.metric, generator, H, tol).residuals
            except ResidualExceeded as exc:
                # the member whose gate tripped holds the residual; no later one is drawn
                residuals = {exc.identity: float(exc.value)}
                fields["family"].append(FamilyMemberSummary(member_seed, spread, residuals))
                break
            fields["family"].append(FamilyMemberSummary(member_seed, spread, residuals))


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
        "tolerances": dataclasses.asdict(DEFAULT_TOLERANCES),
        "generated_at": datetime.now(timezone.utc).isoformat(),
        "residuals": {},
        "family": [],
    }
    try:
        # the stages' own matrices die on return, before the report is written;
        # an overflow is an input beyond float64's range, refused, not warned
        with np.errstate(over="raise"):
            _record_stages(fields, command, source, tol, samples, seed, spread, out, max_dim)
    except ResidualExceeded as exc:
        fields["residuals"][exc.identity] = float(exc.value)
    except FloatingPointError as exc:
        fields["error"] = _error_payload(ParseError(f"a value overflows float64: {exc}"))
    except (ParseError, QuasiHermError, OSError) as exc:
        fields["error"] = _error_payload(exc)

    report = VerificationReport(**fields)
    if out is not None:
        try:
            with open(decode_path(out, "out"), "w", encoding="utf-8") as f:
                print(report.to_json(), file=f)  # as the CLI prints it: no text + "\n" copy
        except (OSError, ParseError) as exc:
            if report.error is None:  # else the error that ended the run stays
                return dataclasses.replace(report, error=_error_payload(exc))
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

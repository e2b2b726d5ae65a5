"""Outside-in tracing of quasiherm's layers, installed from the benchmark.

The tracer replaces each traced function at every place a ``quasiherm``
module binds it (its call sites), so the program's sources stay untouched.
Each call becomes a span with wall time, self time (duration minus the
time its traced children cover) and an error flag; a memory tracer also
takes each span's tracemalloc peak relative to the memory in use on
entry. tracemalloc slows allocation-heavy Python several-fold, so span
times come from a tracer without it. ``numpy.linalg`` entry points are
wrapped as plain counters, giving exact factorization counts.

A traced name that does not resolve is recorded as missing, not as an
error: a change that deletes or renames a layer function can still run
the benchmark unedited.
"""

from __future__ import annotations

import sys
import time
import tracemalloc
from contextlib import contextmanager
from dataclasses import dataclass

# Traced functions as (module, attribute path). A span is named
# "<layer>.<attribute path>", the layer being the owning module's name.
TRACED = (
    ("quasiherm.report", "run_analyze"),
    ("quasiherm.report", "VerificationReport.to_json"),
    ("quasiherm.models", "build_model"),
    ("quasiherm.matrixio", "load_matrix"),
    ("quasiherm.matrixio", "matrix_to_payload"),
    ("quasiherm.spectral", "eig_decompose"),
    ("quasiherm.metric", "full_pipeline"),
    ("quasiherm.metric", "metric_from_T"),
    ("quasiherm.metric", "hermitian_equivalent"),
    ("quasiherm.symmetry", "commutant_basis"),
    ("quasiherm.symmetry", "sample_positive_symmetry"),
    ("quasiherm.symmetry", "metric_from_symmetry"),
    ("quasiherm.linalg", "hermitian_eig"),
    ("quasiherm.linalg", "sqrt_pd"),
    ("quasiherm.linalg", "solve"),
    ("quasiherm.linalg", "solve_right"),
    ("quasiherm.linalg", "polar_decompose"),
    ("quasiherm.linalg", "haar_unitary"),
)
SPANS = {f"{module.rsplit('.', 1)[-1]}.{path}": (module, path) for module, path in TRACED}

LAYERS = tuple(dict.fromkeys(name.split(".")[0] for name in SPANS))

# Factorization kind -> numpy.linalg entry points that perform one.
# SVD-based helpers are counted as SVDs; LU-based ones other than solve,
# and Cholesky and least squares, as "other".
FACTORIZATIONS = {
    "svd": ("svd", "cond", "matrix_rank", "pinv"),
    "eig": ("eig", "eigvals"),
    "eigh": ("eigh", "eigvalsh"),
    "solve": ("solve",),
    "qr": ("qr",),
    "other": ("inv", "cholesky", "lstsq", "det", "slogdet"),
}

_MB = 1024.0 * 1024.0


@dataclass
class SpanStats:
    calls: int = 0
    errors: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    peak_bytes: int = 0
    result_bytes: int = 0


class _Frame:
    __slots__ = ("stats", "t0", "child_s", "base", "peak_seen")

    def __init__(self, stats: SpanStats, base: int):
        self.stats = stats
        self.child_s = 0.0
        self.base = base
        self.peak_seen = base
        self.t0 = time.perf_counter()


def _resolve(module_name: str, path: str):
    """Return (owner, attribute name, object) or None when absent."""
    owner = sys.modules.get(module_name)
    parts = path.split(".")
    for part in parts[:-1]:
        owner = getattr(owner, part, None)
    if owner is None:
        return None
    obj = getattr(owner, parts[-1], None)
    return (owner, parts[-1], obj) if callable(obj) else None


class Tracer:
    """Spans and factorization counts for the operations run inside ``op()``.

    With ``memory`` set, tracemalloc runs inside ``op()`` and every span
    records its peak; its times then include tracemalloc's cost.
    """

    def __init__(self, memory: bool = False):
        self.memory = memory
        self.spans = {name: SpanStats() for name in SPANS}
        self.factorizations = {kind: 0 for kind in FACTORIZATIONS}
        self.found: list[str] = []
        self.missing: list[str] = []
        self.ops = 0
        self._stack: list[_Frame] = []
        self._enabled = False
        self._patches: list[tuple[object, str, object]] = []

    # -- installation ----------------------------------------------------

    def install(self, numpy_linalg) -> None:
        """Wrap every resolvable span and numpy.linalg counter in place."""
        self.found, self.missing = [], []
        modules = [
            m for name, m in list(sys.modules.items())
            if m is not None and (name == "quasiherm" or name.startswith("quasiherm."))
        ]
        for span, (module_name, path) in SPANS.items():
            target = _resolve(module_name, path)
            if target is None:
                self.missing.append(span)
                continue
            owner, attr, fn = target
            wrapper = self._span_wrapper(span, fn)
            if "." in path:
                # a method: the class attribute is the only binding
                self._patch(owner, attr, wrapper)
            else:
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is fn:
                            self._patch(module, key, wrapper)
            self.found.append(span)

        for kind, names in FACTORIZATIONS.items():
            for name in names:
                fn = getattr(numpy_linalg, name, None)
                if fn is not None:
                    self._patch(numpy_linalg, name, self._count_wrapper(kind, fn))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches.clear()

    def _patch(self, owner, attr: str, replacement) -> None:
        self._patches.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, replacement)

    def _count_wrapper(self, kind: str, fn):
        def counted(*args, **kwargs):
            if self._enabled:
                self.factorizations[kind] += 1
            return fn(*args, **kwargs)

        return counted

    def _span_wrapper(self, span: str, fn):
        stats = self.spans[span]

        def traced(*args, **kwargs):
            if not self._enabled:
                return fn(*args, **kwargs)
            frame = self._enter(stats)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                self._exit(frame, error=True)
                raise
            self._exit(frame, error=False)
            if isinstance(result, str):
                stats.result_bytes += len(result.encode("utf-8"))
            return result

        return traced

    # -- spans -------------------------------------------------------------

    def _enter(self, stats: SpanStats) -> _Frame:
        base = 0
        if self.memory:
            # Resetting the peak hides it from the enclosing span, so hand
            # it over first; _exit hands the child's peak back the same way.
            base, peak = tracemalloc.get_traced_memory()
            if self._stack:
                parent = self._stack[-1]
                parent.peak_seen = max(parent.peak_seen, peak)
            tracemalloc.reset_peak()
        frame = _Frame(stats, base)
        self._stack.append(frame)
        return frame

    def _exit(self, frame: _Frame, error: bool) -> None:
        duration = time.perf_counter() - frame.t0
        peak = max(tracemalloc.get_traced_memory()[1], frame.peak_seen) if self.memory else 0
        self._stack.pop()
        stats = frame.stats
        stats.calls += 1
        stats.errors += error
        stats.total_s += duration
        stats.self_s += duration - frame.child_s
        stats.peak_bytes = max(stats.peak_bytes, peak - frame.base)
        if self._stack:
            parent = self._stack[-1]
            parent.child_s += duration
            parent.peak_seen = max(parent.peak_seen, peak)

    @contextmanager
    def op(self):
        """Trace one operation: spans, counters and tracemalloc are live inside."""
        if self.memory:
            tracemalloc.start()
        self._enabled = True
        try:
            yield
        finally:
            self._enabled = False
            self._stack.clear()
            if self.memory:
                tracemalloc.stop()
            self.ops += 1

    # -- results -----------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-operation figures: times and counts are means over traced ops."""
        ops = max(self.ops, 1)
        s = self.spans

        def per_op(value):
            return value / ops

        out = {
            "report.self_s": per_op(s["report.run_analyze"].self_s),
            "report.to_json_s": per_op(s["report.VerificationReport.to_json"].total_s),
            "report.json_bytes": per_op(s["report.VerificationReport.to_json"].result_bytes),
            "models.build_s": per_op(s["models.build_model"].total_s),
            "matrixio.load_s": per_op(s["matrixio.load_matrix"].total_s),
            "matrixio.payload_s": per_op(s["matrixio.matrix_to_payload"].total_s),
            "spectral.eig_s": per_op(s["spectral.eig_decompose"].total_s),
            "metric.from_T_s": per_op(s["metric.metric_from_T"].total_s),
            "metric.herm_s": per_op(s["metric.hermitian_equivalent"].total_s),
            "metric.herm_calls": per_op(s["metric.hermitian_equivalent"].calls),
            "symmetry.commutant_s": per_op(s["symmetry.commutant_basis"].total_s),
            "symmetry.sample_s": per_op(s["symmetry.sample_positive_symmetry"].total_s),
            "symmetry.member_s": per_op(s["symmetry.metric_from_symmetry"].total_s),
        }
        for kind, count in self.factorizations.items():
            out[f"linalg.{kind}"] = per_op(count)
        out["linalg.factorizations"] = per_op(sum(self.factorizations.values()))
        for layer in LAYERS:
            members = [st for name, st in s.items() if name.split(".")[0] == layer]
            out[f"{layer}.calls"] = per_op(sum(st.calls for st in members))
            out[f"{layer}.errors"] = per_op(sum(st.errors for st in members))
        out["trace.layers_found"] = float(len(self.found))
        out["trace.layers_missing"] = float(len(self.missing))
        out["trace.ops"] = float(self.ops)
        return out

    def peaks(self) -> dict[str, float]:
        """Largest tracemalloc peak of any call, in MB above the memory at entry:
        for a few single spans, and for each layer over all its spans."""
        s = self.spans
        out = {
            "report.analyze_peak_mb": s["report.run_analyze"].peak_bytes / _MB,
            "symmetry.commutant_peak_mb": s["symmetry.commutant_basis"].peak_bytes / _MB,
            "symmetry.member_peak_mb": s["symmetry.metric_from_symmetry"].peak_bytes / _MB,
        }
        for layer in LAYERS:
            members = [st for name, st in s.items() if name.split(".")[0] == layer]
            out[f"{layer}.peak_mb"] = max(st.peak_bytes for st in members) / _MB
        return out

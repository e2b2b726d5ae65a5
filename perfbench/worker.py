"""One benchmark process: set up a workload, then time or trace its operations.

Started by ``run.py`` in a fresh interpreter per measurement, so that the
import, ``ru_maxrss`` and set-up time belong to this workload alone. Set-up
is the import, input generation and one warm-up operation. The mode decides
what follows:

* ``timed``: a closed loop, one operation at a time, for ``--seconds``;
* ``trace``: alternate untraced and traced cycles for ``--seconds``.

Prints one JSON object on its last stdout line.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import platform
import resource
import sys
import time
from contextlib import nullcontext
from pathlib import Path

import workloads
from tracer import Tracer

MAX_REASONS = 5


def _blas(numpy) -> dict:
    """BLAS name, version and the thread count the loaded library reports."""
    info = {"name": None, "version": None, "threads": None}
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        info["name"], info["version"] = blas.get("name"), blas.get("version")
    except (TypeError, KeyError, ValueError):
        pass
    libs = Path(numpy.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype, getter.argtypes = ctypes.c_int, []
                info["threads"] = int(getter())
                return info
    return info


class Tally:
    """Runs and checks operations; counts those attempted and failed."""

    def __init__(self, qh):
        self.qh = qh
        self.attempted = 0
        self.failed = 0
        self.reasons: list[str] = []

    def run(self, case, seed: int, scope=nullcontext) -> tuple[float, bool]:
        """Run and check one operation inside ``scope``; return its wall time
        and whether it passed."""
        self.attempted += 1
        reason = None
        with scope():
            t0 = time.perf_counter()
            try:
                text = workloads.run_op(self.qh, case, seed)
            except Exception as exc:  # any raise is a failed op, not a crash
                reason = f"raised {type(exc).__name__}: {exc}"
            elapsed = time.perf_counter() - t0
        if reason is None:
            reason = workloads.check(case, seed, text)
        if reason is not None:
            self.failed += 1
            if len(self.reasons) < MAX_REASONS:
                self.reasons.append(f"{case.label} seed {seed}: {reason}")
        return elapsed, reason is None


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--mode", choices=("timed", "trace"), required=True)
    parser.add_argument("--root", type=Path, required=True)
    parser.add_argument("--workdir", type=Path, required=True)
    args = parser.parse_args()

    src = (args.root / "src").resolve()
    sys.path.insert(0, str(src))
    import numpy
    import quasiherm as qh

    if src not in Path(qh.__file__).resolve().parents:
        print(f"quasiherm was imported from {qh.__file__}, not from {src}", file=sys.stderr)
        return 2

    args.workdir.mkdir(parents=True, exist_ok=True)
    cases, base_seed = workloads.build(args.workload, args.seed, qh, args.workdir)
    tally = Tally(qh)
    tally.run(cases[0], base_seed)
    ready = time.monotonic()

    result = {"ready": ready}
    cycle = 0

    def run_cycle(scope=nullcontext) -> list[tuple[float, bool]]:
        nonlocal cycle
        cycle += 1
        seed = base_seed + cycle * workloads.SAMPLES
        return [tally.run(case, seed, scope) for case in cases]

    start = time.perf_counter()
    if args.mode == "timed":
        ops: list[tuple[float, bool]] = []
        while not ops or time.perf_counter() - start < args.seconds:
            ops += run_cycle()
        result["ops"] = ops
    else:
        timing, memory = Tracer(), Tracer(memory=True)
        untraced: list[float] = []
        traced: list[float] = []

        def traced_cycle(tracer) -> list[tuple[float, bool]]:
            tracer.install(numpy.linalg)
            try:
                return run_cycle(tracer.op)
            finally:
                tracer.uninstall()

        while not traced or time.perf_counter() - start < args.seconds:
            untraced += [t for t, _ in run_cycle()]
            traced += [t for t, _ in traced_cycle(timing)]
            traced_cycle(memory)
        metrics = {**timing.metrics(), **memory.peaks()}
        metrics["trace.overhead_s"] = sum(traced) / len(traced) - sum(untraced) / len(untraced)
        result["trace"] = {"metrics": metrics, "found": timing.found, "missing": timing.missing}

    result.update(
        attempted=tally.attempted,
        failed=tally.failed,
        reasons=tally.reasons,
        maxrss_mb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        env={
            "python": platform.python_version(),
            "numpy": numpy.__version__,
            "blas": _blas(numpy),
            "quasiherm": getattr(qh, "__version__", None),
        },
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())

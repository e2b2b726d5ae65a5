"""quasiherm benchmark: one workload per invocation, checked and measured.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload random-256 --seed 1 --seconds 30 --trace 0

Each measurement runs in a fresh interpreter (``worker.py``) that imports
quasiherm from the checkout's ``src/``, with BLAS limited to the cores
this process may use (one thread on small-mixed). A closed loop drives
it: one caller, one operation at a time.

``--trace 0`` starts three workers one after another. Each sets up
(import, input generation, one warm-up operation) and then runs the timed
loop for a third of ``--seconds``: ``setup_s`` is the median of three
set-ups, and the pooled operation times span three processes, which
averages more of the machine's slow drift than one longer loop would.
``--trace 1`` starts one worker that alternates untraced and traced cycles
and reports per-layer figures. Every operation's printed report is
checked in either mode.

The last stdout line is the result object; the lines before it give the
environment, the traced layers found and every metric with its unit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
# A run must end within 180 s; the margin covers interpreter start and output.
DEADLINE_S = 170.0
WORKERS = 3
BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

sys.path.insert(0, str(HERE))
from workloads import BLAS_THREADS, WORKLOADS  # noqa: E402

UNITS = {
    "setup_s": "s",
    "analyze_s.p50": "s",
    "analyze_s.p90": "s",
    "ops_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ok_frac": "ratio",
}


def _trace_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("_mb"):
        return "MB"
    if name.endswith("_bytes"):
        return "bytes"
    return "count"


def _commit(root: Path) -> str | None:
    """HEAD's hash read from .git without running git; None outside a repository."""
    git = root / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def _source_facts(src: Path) -> dict:
    digest = hashlib.sha256()
    lines = 0
    for path in sorted(src.rglob("*.py")):
        data = path.read_bytes()
        digest.update(str(path.relative_to(src)).encode() + b"\0" + data)
        lines += data.count(b"\n")
    return {"src_lines": lines, "src_sha256": digest.hexdigest()}


def _child_env(threads: int) -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(ROOT / "src"), env.get("PYTHONPATH")) if p
    )
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    for var in BLAS_THREAD_VARS:
        env[var] = str(threads)
    return env


class WorkerFailed(Exception):
    pass


def _spawn(
    mode: str, seconds: float, args, env: dict, workdir: Path, deadline: float
) -> tuple[float, dict]:
    """Run one worker; return (seconds from spawn to its first timed op, its result)."""
    command = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--seconds", str(seconds), "--mode", mode,
        "--root", str(ROOT), "--workdir", str(workdir),
    ]
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise WorkerFailed(f"no time left for the {mode} worker")
    spawned = time.monotonic()
    try:
        proc = subprocess.run(
            command, env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=remaining
        )
    except subprocess.TimeoutExpired as exc:
        raise WorkerFailed(f"{mode} worker exceeded the {DEADLINE_S:.0f} s deadline") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerFailed(f"{mode} worker exited with status {proc.returncode}")
    result = json.loads(lines[-1])
    return result["ready"] - spawned, result


def _end_to_end(setups: list[float], results: list[dict], attempted: int, failed: int) -> dict:
    """Times and throughput count certified (passed) ops only; ops_per_s is
    their number over the whole timed wall time, failed ops included."""
    ops = [op for r in results for op in r["ops"]]
    wall = sum(t for t, _ in ops)
    passed = [t for t, ok in ops if ok]
    times = passed or [t for t, _ in ops]  # no op passed: the result is incorrect anyway
    p90 = statistics.quantiles(times, n=10, method="inclusive")[8] if len(times) > 1 else times[0]
    return {
        "setup_s": statistics.median(setups),
        "analyze_s.p50": statistics.median(times),
        "analyze_s.p90": p90,
        "ops_per_s": len(passed) / wall,
        "peak_rss_mb": statistics.median(r["maxrss_mb"] for r in results),
        "ok_frac": 1.0 - failed / attempted,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    deadline = time.monotonic() + DEADLINE_S
    src = ROOT / "src"
    if not (src / "quasiherm" / "__init__.py").is_file():
        print(f"error: no quasiherm sources under {src}", file=sys.stderr)
        return 2

    nproc = len(os.sched_getaffinity(0))
    env = _child_env(BLAS_THREADS.get(args.workload, nproc))
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    try:
        if args.trace:
            _, result = _spawn("trace", args.seconds, args, env, workdir, deadline)
            results = [result]
        else:
            setups, results = [], []
            for _ in range(WORKERS):
                spawned = time.monotonic()
                setup_s, result = _spawn(
                    "timed", args.seconds / WORKERS, args, env, workdir, deadline
                )
                setups.append(setup_s)
                results.append(result)
                # A slowed-down program still gets measured: when another
                # worker would likely overrun the deadline, report these.
                finished = time.monotonic()
                if deadline - finished < 1.5 * (finished - spawned):
                    break
    except (WorkerFailed, json.JSONDecodeError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass

    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    reasons = [reason for r in results for reason in r["reasons"]]
    env_record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": _commit(ROOT),
        **_source_facts(src),
        **results[-1]["env"],
        "blas_thread_limit": int(env[BLAS_THREAD_VARS[0]]),
        "nproc": nproc,
    }
    print("env " + json.dumps(env_record, sort_keys=True))

    if args.trace:
        trace = results[0]["trace"]
        print("layers found " + " ".join(trace["found"]))
        print("layers missing " + (" ".join(trace["missing"]) or "-"))
        metrics = {
            name: {"value": value, "unit": _trace_unit(name)}
            for name, value in trace["metrics"].items()
        }
    else:
        values = _end_to_end(setups, results, attempted, failed)
        metrics = {name: {"value": v, "unit": UNITS[name]} for name, v in values.items()}
        timed = sum(len(r["ops"]) for r in results)
        print(f"timed ops {timed} over {len(results)} workers; "
              f"failed_frac {failed / attempted!r} ratio ({failed}/{attempted})")

    for name, metric in metrics.items():
        print(f"{name:32s} {metric['value']!r} {metric['unit']}")
    for reason in reasons:
        print(f"failed: {reason}", file=sys.stderr)

    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())

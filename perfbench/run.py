"""Benchmark of the haseparator library.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload {margin_sweep,wide_head,file_roundtrip} \
        --seed N --seconds S --trace {0,1}

Each repeat runs in a fresh interpreter (perfbench/repeat.py) with BLAS
pinned to one thread per process. Repeats run back to back, each waiting
for the one before (a closed loop), until --seconds are spent: at least two
untraced repeats, or one traced repeat. Every repeat checks its outputs, and
all repeats of one seed must produce bitwise-equal outputs.

The last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics: the end-to-end metrics with --trace 0 and the
per-layer metrics with --trace 1. The lines before it give each metric's
median, maximum and sample count, and the run's metadata. The exit code is
0 only when every check passed.
"""

from __future__ import annotations

import argparse
import glob
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC_PACKAGE = os.path.join(ROOT, "src", "haseparator")
OUT_DIR = os.path.join(ROOT, ".perfbench")
WORKLOADS = ("margin_sweep", "wide_head", "file_roundtrip")
END_TO_END_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "cells_per_s": "1/s",
    "peak_rss_mb": "MB",
    "test_d_em": "deg",
    "test_acc": "fraction",
}
BLAS_THREADS = "1"
PINNED_ENV = {
    "OMP_NUM_THREADS": BLAS_THREADS,
    "OPENBLAS_NUM_THREADS": BLAS_THREADS,
    "MKL_NUM_THREADS": BLAS_THREADS,
}
# No repeat starts after the run has lasted LAST_START_S, and a repeat still
# running at RUN_LIMIT_S is killed, so that a run always ends within 180 s.
LAST_START_S = 120.0
RUN_LIMIT_S = 170.0
# Untraced runs first make this many set-up-only starts, so that setup_s is
# a median over enough samples even for the slowest workload.
SETUP_PROBES = 6


def run_repeat(args, name: str, work_root: str, timeout_s: float,
               setup_only: bool = False) -> dict:
    """Start one repeat, time its set-up up to READY, and return its result."""
    workdir = os.path.join(work_root, name)
    os.makedirs(workdir)
    spans_path = os.path.join(OUT_DIR, f"spans-{args.workload}-seed{args.seed}-{name}.jsonl")
    cmd = [
        sys.executable, os.path.join(HERE, "repeat.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(args.trace), "--spans", spans_path,
    ] + (["--setup-only"] if setup_only else [])
    env = dict(os.environ, PYTHONPATH=os.path.join(ROOT, "src"), **PINNED_ENV)
    start = time.perf_counter()
    # Its own process group, so that a kill also reaches the pool workers.
    proc = subprocess.Popen(cmd, cwd=workdir, env=env, stdout=subprocess.PIPE, text=True,
                            start_new_session=True)
    kill_group = lambda: _kill_group(proc.pid)
    watchdog = threading.Timer(timeout_s, kill_group)
    watchdog.start()
    try:
        ready = proc.stdout.readline()
        setup_s = time.perf_counter() - start
        rest = proc.stdout.read()
        proc.wait()
    finally:
        watchdog.cancel()
        kill_group()  # whatever of the group is still running
        proc.wait()
        proc.stdout.close()
    elapsed_s = time.perf_counter() - start
    lines = rest.strip().splitlines()
    if proc.returncode != 0 or ready.strip() != "READY" or not (lines or setup_only):
        return {"error": f"{name} exited with code {proc.returncode}", "elapsed_s": elapsed_s}
    result = json.loads(lines[-1]) if lines else {}
    result.update(setup_s=setup_s, elapsed_s=elapsed_s)
    return result


def _kill_group(pgid: int) -> None:
    try:
        os.killpg(pgid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def git_commit() -> str:
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[len("ref: "):]
        ref_path = os.path.join(git, ref)
        if os.path.isfile(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return "unknown"


def src_lines() -> int:
    total = 0
    for path in sorted(glob.glob(os.path.join(SRC_PACKAGE, "*.py"))):
        with open(path) as fh:
            total += sum(1 for _ in fh)
    return total


def layer_unit(name: str) -> str:
    if name.endswith("per_s"):
        return "1/s"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith(("_s", ".p50", ".p90")):
        return "s"
    if name.endswith("per_step"):
        return "count/step"
    if name == "metrics.pairs_scored":
        return "count"
    return "fraction"


def summarize(name: str, values: list[float], unit: str) -> str:
    samples = " ".join(f"{v:.4g}" for v in values)
    return (f"  {name:32s} {statistics.median(values):14.6g} {unit:10s}"
            f" max {max(values):.6g}  n={len(values)}  [{samples}]")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not os.path.isfile(os.path.join(SRC_PACKAGE, "__init__.py")):
        print(f"error: no haseparator package at {SRC_PACKAGE}", file=sys.stderr)
        return 2

    os.makedirs(OUT_DIR, exist_ok=True)
    work_root = os.path.join(OUT_DIR, f"work-{os.getpid()}")
    min_repeats = 1 if args.trace else 2
    probes, results = [], []
    start = time.perf_counter()
    try:
        left = lambda: RUN_LIMIT_S - (time.perf_counter() - start)
        if not args.trace:
            for index in range(SETUP_PROBES):
                probes.append(run_repeat(args, f"setup-{index}", work_root, left(),
                                         setup_only=True))
        while not any("error" in r for r in probes + results):
            results.append(run_repeat(args, f"repeat-{len(results)}", work_root, left()))
            ran = time.perf_counter() - start
            typical = statistics.median(r["elapsed_s"] for r in results)
            if len(results) >= min_repeats and (
                ran + typical > args.seconds or ran > LAST_START_S
            ):
                break
    finally:
        shutil.rmtree(work_root, ignore_errors=True)

    done = [r for r in results if "error" not in r]
    crashed = [r["error"] for r in probes + results if "error" in r]
    attempted = sum(r["attempted"] for r in done) + len(crashed)
    failed = sum(r["failed"] for r in done) + len(crashed)
    failures = crashed + [f for r in done for f in r["failures"]]
    if len(done) >= 2:
        attempted += 1
        if len({r["digest"] for r in done}) > 1:
            failed += 1
            failures.append("repeats on one seed produced different outputs")

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace} "
          f"repeats={len(done)} of {len(results)}")
    metrics = {}
    if done and not args.trace:
        samples = {
            "wall_s": [r["wall_s"] for r in done],
            "setup_s": [r["setup_s"] for r in probes + done],
            "cells_per_s": [r["cells"] / r["wall_s"] for r in done],
            "peak_rss_mb": [r["peak_rss_mb"] for r in done],
            "test_d_em": [r["test_d_em"] for r in done],
            "test_acc": [r["test_acc"] for r in done],
        }
        for name, values in samples.items():
            unit = END_TO_END_UNITS[name]
            print(summarize(name, values, unit))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    elif done:
        for name in done[0]["layers"]:
            values = [r["layers"][name] for r in done]
            unit = layer_unit(name)
            print(summarize(name, values, unit))
            metrics[name] = {"value": statistics.median(values), "unit": unit}
    print(f"  {'error_frac':32s} {failed / attempted:14.6g} "
          f"({failed} failed of {attempted} attempted)")
    for failure in failures:
        print(f"  FAILED: {failure}")
    meta = {
        "python": platform.python_version(),
        "numpy": done[0]["numpy"] if done else "unknown",
        "nproc": os.cpu_count(),
        "blas": done[0]["blas"] if done else "unknown",
        "blas_threads": int(BLAS_THREADS),
        "git_commit": git_commit(),
        "src_lines": src_lines(),
    }
    print("meta " + json.dumps(meta))
    correct = failed == 0 and bool(done)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())

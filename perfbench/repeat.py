"""One benchmark repeat in a fresh interpreter, started by run.py.

The process imports haseparator from the checkout, makes the workload's
inputs in its working directory and prints READY; the parent times that
set-up. With --setup-only it exits there. Otherwise it runs the workload
once and prints one JSON line with the result. With --trace 1 it also times a traced unit of the same work against
an untraced one and reports the per-layer metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import numpy as np  # noqa: E402

import haseparator  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def timed(fn):
    start = time.perf_counter()
    value = fn()
    return value, time.perf_counter() - start


def peak_rss_mb() -> float:
    """Peak RSS of this process plus the largest peak among its reaped children."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def blas_name() -> str:
    try:
        return np.show_config(mode="dicts")["Build Dependencies"]["blas"]["name"]
    except (TypeError, KeyError):
        return "unknown"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--spans", required=True, help="where a traced repeat writes its spans")
    parser.add_argument("--setup-only", action="store_true", help="exit once the inputs are made")
    args = parser.parse_args()
    if not os.path.abspath(haseparator.__file__).startswith(SRC + os.sep):
        print(f"haseparator imported from {haseparator.__file__}, not {SRC}", file=sys.stderr)
        return 2

    workload = workloads.WORKLOADS[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only:
        return 0

    raw, wall = timed(workload.run)
    outcome = workload.check(raw)
    result = {
        "wall_s": wall,
        "peak_rss_mb": peak_rss_mb(),
        "cells": outcome.cells,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "failures": outcome.failures,
        "digest": outcome.digest,
        "test_d_em": outcome.test_d_em,
        "test_acc": outcome.test_acc,
        "numpy": np.__version__,
        "blas": blas_name(),
    }
    if args.trace:
        # Each traced pass of the unit is followed by an untraced one, and
        # the first untraced pass also warms the process up. Per-layer
        # metrics and the overhead are medians over the passes.
        digests = [outcome.digest if workload.unit_is_run
                   else workload.unit_digest(workload.unit())]
        passes, traced_s, plain_s = [], [], []
        for index in range(workload.unit_passes):
            rec = spans.Recorder(run_id=f"{os.path.basename(os.getcwd())}-pass{index}")
            with rec.patched(spans.tracing_targets()):
                raw, seconds = timed(workload.unit)
            digests.append(workload.unit_digest(raw))
            traced_s.append(seconds)
            raw, seconds = timed(workload.unit)
            digests.append(workload.unit_digest(raw))
            plain_s.append(seconds)
            passes.append(rec)
        layers = workloads.sweep_layers(outcome.records, wall)
        per_pass = [spans.layer_metrics(rec) for rec in passes]
        for name in per_pass[0]:
            layers[name] = statistics.median(p[name] for p in per_pass)
        plain = statistics.median(plain_s)
        layers["trace.overhead_frac"] = (statistics.median(traced_s) - plain) / plain
        result["layers"] = layers
        result["attempted"] += 1
        if len(set(digests)) > 1:
            result["failed"] += 1
            result["failures"].append("traced and untraced passes produced different outputs")
        spans.write_all(passes, args.spans)
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())

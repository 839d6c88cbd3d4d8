"""Span recorder for traced benchmark repeats.

The recorder wraps the public names that each haseparator module imports
from the others (for example ``trainer.compute_loss`` or
``cli.load_checkpoint``), so the library itself is never edited. A span
records its id, name, start, end, parent span and run id; a few spans also
carry an attribute the per-layer metrics need (loss kind, batch rows, pairs
scored, CLI command). Spans stay in memory and are written out as JSON
lines when the repeat ends. Tiny validation helpers are counted, not timed,
so that tracing them does not distort the step they sit in.
"""

from __future__ import annotations

import json
import statistics
import time
from collections import Counter, defaultdict
from contextlib import contextmanager

from haseparator import cli, data, losses, metrics, model, runner, tensor, trainer
from haseparator.losses import LOSS_KINDS


class Recorder:
    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def span(self, name, fn, annotate=None):
        """Wrap fn so each call records one span, nested under the open one."""

        def traced(*args, **kwargs):
            record = {
                "id": len(self.spans),
                "name": name,
                "parent": self._stack[-1] if self._stack else None,
                "run": self.run_id,
            }
            self.spans.append(record)
            self._stack.append(record["id"])
            self._open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record["start"] = start
                record["end"] = time.perf_counter()
                self._stack.pop()
                self._open[name] -= 1
            if annotate is not None:
                record.update(annotate(args, kwargs, result))
            return result

        return traced

    def counter(self, name, fn, within: str):
        """Wrap fn so calls made while a `within` span is open are counted."""

        def counted(*args, **kwargs):
            if self._open[within]:
                self.counts[name] += 1
            return fn(*args, **kwargs)

        return counted

    @contextmanager
    def patched(self, targets):
        """Install wrappers for (module, attribute, make_wrapper) targets,
        restoring the original attributes on exit."""
        saved = []
        try:
            for module, attr, make in targets:
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, make(self, original))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)


def write_all(recorders, path) -> None:
    """Write every recorder's spans, then its counts, as JSON lines."""
    with open(path, "w") as fh:
        for rec in recorders:
            for record in rec.spans:
                fh.write(json.dumps(record) + "\n")
            fh.write(json.dumps({"run": rec.run_id, "counts": dict(rec.counts)}) + "\n")


def duration(span) -> float:
    return span["end"] - span["start"]


def self_times(spans) -> dict[int, float]:
    """Each span's duration minus the part of it that its children cover."""
    children = defaultdict(list)
    for s in spans:
        if s["parent"] is not None:
            children[s["parent"]].append((s["start"], s["end"]))
    out = {}
    for s in spans:
        covered, reach = 0.0, s["start"]
        for start, end in sorted(children[s["id"]]):
            start = max(start, reach)
            if end > start:
                covered += end - start
                reach = end
        out[s["id"]] = duration(s) - covered
    return out


def _span(name, annotate=None):
    return lambda rec, fn: rec.span(name, fn, annotate)


def _count(name, within):
    return lambda rec, fn: rec.counter(name, fn, within)


def tracing_targets():
    """Every wrapped boundary, as (module, attribute, make_wrapper)."""
    rows = lambda args, kwargs, result: {"rows": int(result.features.shape[0])}
    batch = lambda args, kwargs, result: {"rows": int(result.inputs.shape[0])}
    kind = lambda args, kwargs, result: {"kind": args[3].loss_kind}
    pairs = lambda args, kwargs, result: {"pairs": int(result[0].size + result[1].size)}
    command = lambda args, kwargs, result: {"command": args[0][0]}
    steps = lambda args, kwargs, result: {"steps": len(result.records)}

    targets = [
        (cli, "main", _span("cli.main", command)),
        (cli, "run_experiment", _span("runner.run_experiment")),
        (cli, "build_datasets", _span("data.build_datasets")),
        (cli, "load_checkpoint", _span("model.load_checkpoint")),
        (cli, "evaluate_model", _span("runner.evaluate_model")),
        (cli, "write_embeddings_csv", _span("runner.write_embeddings_csv")),
        (runner, "run_experiment", _span("runner.run_experiment")),
        (runner, "build_datasets", _span("data.build_datasets")),
        (runner, "load_delimited", _span("data.load_delimited", rows)),
        (runner, "train", _span("trainer.train", steps)),
        (runner, "evaluate_model", _span("runner.evaluate_model")),
        (runner, "forward", _span("model.forward", batch)),
        (runner, "accuracy", _span("metrics.accuracy")),
        (runner, "pair_angles", _span("metrics.pair_angles", pairs)),
        (runner, "build_histograms", _span("metrics.build_histograms")),
        (runner, "kl_divergence", _span("metrics.kl_divergence")),
        (runner, "emd_1d", _span("metrics.emd_1d")),
        (runner, "write_experiment_artifacts", _span("runner.write_experiment_artifacts")),
        (runner, "write_embeddings_csv", _span("runner.write_embeddings_csv")),
        (runner, "save_checkpoint", _span("model.save_checkpoint")),
        (trainer, "forward", _span("model.forward", batch)),
        (trainer, "compute_loss", _span("losses.compute_loss", kind)),
        (trainer, "backward", _span("model.backward")),
        (trainer, "sgd_step", _span("trainer.sgd_step")),
        (trainer, "accuracy", _span("metrics.accuracy")),
    ]
    for module in (data, losses, metrics, model, tensor):
        for helper in ("as_labels", "as_matrix"):
            if hasattr(module, helper):
                targets.append((module, helper, _count(f"tensor.{helper}", "trainer.train")))
    return targets


def layer_metrics(rec: Recorder) -> dict[str, float]:
    """Per-layer metrics of one traced unit of work.

    Times of a layer that did not run in the unit read 0.
    """
    by_name = defaultdict(list)
    for s in rec.spans:
        by_name[s["name"]].append(s)
    names = {s["id"]: s["name"] for s in rec.spans}
    total = lambda name: sum((duration(s) for s in by_name[name]), 0.0)
    p50_ms = lambda spans: 1e3 * statistics.median(map(duration, spans)) if spans else 0.0
    in_train = lambda name: [s for s in by_name[name] if names.get(s["parent"]) == "trainer.train"]
    ratio = lambda num, den: num / den if den > 0 else 0.0

    train_s = total("trainer.train")
    loss_calls = in_train("losses.compute_loss")
    steps = len(loss_calls)
    selfs = self_times(rec.spans)
    out = {}
    for kind in LOSS_KINDS:
        out[f"losses.{kind}.call_ms"] = p50_ms([s for s in loss_calls if s["kind"] == kind])
    out["losses.share"] = ratio(sum(map(duration, loss_calls)), train_s)
    out["trainer.step_ms"] = 1e3 * ratio(train_s, steps)
    out["trainer.update_ms"] = 1e3 * ratio(sum(map(duration, in_train("trainer.sgd_step"))), steps)
    out["trainer.self_ms"] = 1e3 * ratio(sum(selfs[s["id"]] for s in by_name["trainer.train"]), steps)
    out["trainer.samples_per_s"] = ratio(sum(s["rows"] for s in in_train("model.forward")), train_s)
    out["tensor.as_labels.per_step"] = ratio(rec.counts["tensor.as_labels"], steps)
    out["tensor.as_matrix.per_step"] = ratio(rec.counts["tensor.as_matrix"], steps)
    out["model.forward.call_ms"] = p50_ms(in_train("model.forward"))
    out["model.backward.call_ms"] = p50_ms(in_train("model.backward"))
    out["model.save_checkpoint_s"] = total("model.save_checkpoint")
    out["model.load_checkpoint_s"] = total("model.load_checkpoint")
    pairs = sum(s["pairs"] for s in by_name["metrics.pair_angles"])
    out["metrics.pair_angles_s"] = total("metrics.pair_angles")
    out["metrics.pairs_scored"] = float(pairs)
    out["metrics.histograms_s"] = total("metrics.build_histograms")
    out["metrics.scores_s"] = total("metrics.kl_divergence") + total("metrics.emd_1d")
    out["metrics.eval_pairs_per_s"] = ratio(pairs, out["metrics.pair_angles_s"])
    out["data.build_s"] = total("data.build_datasets")
    out["data.load_rows_per_s"] = ratio(
        sum(s["rows"] for s in by_name["data.load_delimited"]), total("data.load_delimited")
    )
    out["runner.train_s"] = train_s
    out["runner.evaluate_s"] = total("runner.evaluate_model")
    out["runner.artifacts_s"] = total("runner.write_experiment_artifacts")
    for command in ("train", "eval"):
        out[f"cli.{command}_s"] = sum(
            (duration(s) for s in by_name["cli.main"] if s["command"] == command), 0.0
        )
    return out

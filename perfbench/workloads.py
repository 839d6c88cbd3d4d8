"""The benchmark workloads.

Each workload makes its inputs from the seed when it is constructed (the
timed set-up) and runs one repeat through the library's public functions in
run(), the timed part. check() then turns the repeat's outputs into an
Outcome, whose digest covers every output except timings, so two repeats on
one seed must agree bitwise. All three are closed loops: the caller waits
for each result before it makes the next call.

For a traced run, unit() is the work timed with and without tracing and
unit_digest() fingerprints its outputs; unit_is_run says whether the unit
is the whole repeat.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
import shutil
import statistics
from dataclasses import dataclass, field, replace

import numpy as np

from haseparator import cli, runner
from haseparator.data import Dataset, gaussian_blobs, save_delimited
from haseparator.losses import ARCFACE, HASEPARATOR, LOSS_KINDS, SOFTMAX, LossConfig
from haseparator.runner import DatasetConfig, ExperimentConfig, SweepConfig
from haseparator.trainer import TrainConfig


@dataclass
class Outcome:
    """What one repeat produced, timings aside."""

    cells: int  # runs completed: sweep cells, experiments or CLI commands
    attempted: int
    failed: int
    digest: str
    test_d_em: float
    test_acc: float
    failures: list[str] = field(default_factory=list)
    records: list = field(default_factory=list)


def _digest(parts) -> str:
    h = hashlib.sha256()
    for part in parts:
        if isinstance(part, np.ndarray):
            h.update(np.ascontiguousarray(part, dtype=np.float64).tobytes())
        elif isinstance(part, bytes):
            h.update(part)
        else:
            h.update(repr(part).encode())
        h.update(b"|")
    return h.hexdigest()


def _result_parts(result):
    """Every deterministic output of one run_experiment call."""
    model = result.model
    yield from model.weights
    yield from model.biases
    yield model.class_weights
    for r in result.report.records:
        yield (r.step, r.lr.hex(), r.c_all.hex(), r.c_ce.hex(), r.c_sep.hex(), r.train_acc.hex())
    for split in ("train", "test"):
        s = result.scores[split]
        yield (split, s.d_kl.hex(), s.d_em.hex(), s.accuracy.hex())
        yield result.hists[split].pos_counts
        yield result.hists[split].neg_counts


# The frozen acceptance grid of tests/test_acceptance.py. The repository's
# contract forbids re-seeding that sweep, so the benchmark seed only
# permutes the order of the grid axes (and with it the pool's schedule) and
# picks which cells the traced run repeats in-process.
SWEEP_MARGINS = tuple(round(0.1 * k, 1) for k in range(1, 11))
SWEEP_SEEDS = (0, 1, 2, 3, 4)
SWEEP_SIGMA = 5.0
SWEEP_TEMPLATE = ExperimentConfig(
    dataset=DatasetConfig(kind="blobs", num_classes=5, per_class=60, dim=16,
                          center_radius=3.0, stddev=1.3),
    hidden_dims=(32, 32),
    embedding_dim=16,
    train=TrainConfig(steps=250, batch_size=64, base_lr=0.1, loss=LossConfig()),
    seed=0,
)
SWEEP_JOBS = 2


def _sweep_claims(margin_records, softmax_records) -> list[str]:
    """The acceptance sweep's three claims; returns the ones that failed."""
    hasep = {(r.margin, r.seed): r for r in margin_records if r.loss_kind == HASEPARATOR}
    arcface = {(r.margin, r.seed): r for r in margin_records if r.loss_kind == ARCFACE}
    softmax = {r.seed: r for r in softmax_records}
    failures = []
    stable_wins = sum(
        np.std([hasep[(m, s)].d_em for m in SWEEP_MARGINS])
        < np.std([arcface[(m, s)].d_em for m in SWEEP_MARGINS])
        for s in SWEEP_SEEDS
    )
    if stable_wins < 4:
        failures.append(f"margin stability won only {stable_wins}/5 seeds")
    best_margin = max(
        SWEEP_MARGINS, key=lambda m: np.mean([hasep[(m, s)].d_em for s in SWEEP_SEEDS])
    )
    separation_wins = sum(hasep[(best_margin, s)].d_em > softmax[s].d_em for s in SWEEP_SEEDS)
    if separation_wins < 4:
        failures.append(f"best margin {best_margin} beat softmax in only {separation_wins}/5 seeds")
    hasep_acc = float(np.mean([hasep[(best_margin, s)].accuracy for s in SWEEP_SEEDS]))
    softmax_acc = float(np.mean([softmax[s].accuracy for s in SWEEP_SEEDS]))
    if hasep_acc < softmax_acc - 0.01:
        failures.append(f"accuracy {hasep_acc:.3f} more than 1pt below softmax {softmax_acc:.3f}")
    return failures


class MarginSweep:
    """The paper's experiment: 100 margin cells plus 5 softmax cells on a
    pool of SWEEP_JOBS workers. The traced unit is one in-process cell per
    loss kind, because spans recorded in pool workers would be lost."""

    name = "margin_sweep"
    claims = 3
    unit_is_run = False
    unit_passes = 3  # the unit is short, so its timings need a median

    def __init__(self, seed: int):
        rng = random.Random(seed)
        losses, margins, seeds = [HASEPARATOR, ARCFACE], list(SWEEP_MARGINS), list(SWEEP_SEEDS)
        for axis in (losses, margins, seeds):
            rng.shuffle(axis)
        grid = dict(sigmas=(SWEEP_SIGMA,), seeds=tuple(seeds), experiment=SWEEP_TEMPLATE,
                    jobs=SWEEP_JOBS)
        self.margin_grid = SweepConfig(losses=tuple(losses), margins=tuple(margins), **grid)
        self.softmax_grid = SweepConfig(losses=(SOFTMAX,), margins=(0.5,), **grid)
        self.unit_configs = [self._cell(kind, margins[0], seeds[0]) for kind in LOSS_KINDS]

    @staticmethod
    def _cell(kind, margin, seed) -> ExperimentConfig:
        loss = LossConfig(loss_kind=kind, sigma=SWEEP_SIGMA)
        if kind == HASEPARATOR:
            loss = replace(loss, margin=margin)
        elif kind == ARCFACE:
            loss = replace(loss, arc_margin=margin)
        return replace(SWEEP_TEMPLATE, train=replace(SWEEP_TEMPLATE.train, loss=loss), seed=seed)

    def run(self):
        return runner.run_sweep(self.margin_grid), runner.run_sweep(self.softmax_grid)

    def check(self, raw) -> Outcome:
        margin_records, softmax_records = raw
        records = margin_records + softmax_records
        errors = [f"{r.loss_kind} m={r.margin} seed={r.seed}: {r.error}" for r in records if r.error]
        failures = errors or _sweep_claims(margin_records, softmax_records)
        done = [r for r in records if not r.error]
        return Outcome(
            cells=len(done),
            attempted=len(records) + self.claims,
            failed=len(errors) + (self.claims if errors else len(failures)),
            digest=_digest(
                (r.loss_kind, r.sigma, r.margin, r.seed, r.accuracy, r.d_kl, r.d_em,
                 r.final_c_t, r.error)
                for r in records
            ),
            test_d_em=statistics.fmean(r.d_em for r in done) if done else 0.0,
            test_acc=statistics.fmean(r.accuracy for r in done) if done else 0.0,
            failures=failures,
            records=records,
        )

    def unit(self):
        return [runner.run_experiment(config) for config in self.unit_configs]

    def unit_digest(self, results) -> str:
        return _digest(part for result in results for part in _result_parts(result))


def sweep_layers(records, wall_s: float) -> dict[str, float]:
    """Pool-level metrics from the sweep's own per-cell wall times."""
    out = {}
    for kind in LOSS_KINDS:
        times = [r.wall_time_s for r in records if r.loss_kind == kind]
        if len(times) >= 2:
            p50, p90 = statistics.median(times), statistics.quantiles(
                times, n=10, method="inclusive")[-1]
        else:
            p50 = p90 = times[0] if times else 0.0
        out[f"runner.sweep.cell_s.{kind}.p50"] = p50
        out[f"runner.sweep.cell_s.{kind}.p90"] = p90
    busy = sum(r.wall_time_s for r in records)
    out["runner.sweep.busy_frac"] = busy / (SWEEP_JOBS * wall_s) if records else 0.0
    return out


# C=100 well-separated blobs, so the (B, N, C) = (256, 64, 100) separator
# kernel dominates while the scores settle within 40 steps and vary little
# from seed to seed.
WIDE_TEMPLATE = ExperimentConfig(
    dataset=DatasetConfig(kind="blobs", num_classes=100, per_class=30, dim=32,
                          center_radius=8.0),
    hidden_dims=(64, 64),
    embedding_dim=64,
    train=TrainConfig(steps=40, batch_size=256),
    max_pairs=20_000,
)


class _WholeRepeatUnit:
    """The traced unit is the whole repeat."""

    unit_is_run = True
    unit_passes = 1

    def unit(self):
        return self.run()

    def unit_digest(self, raw) -> str:
        return self.check(raw).digest


class WideHead(_WholeRepeatUnit):
    """One run_experiment per loss kind on a 100-class head."""

    name = "wide_head"
    checks = 2

    def __init__(self, seed: int):
        self.configs = {
            kind: replace(WIDE_TEMPLATE, seed=seed,
                          train=replace(WIDE_TEMPLATE.train, loss=LossConfig(loss_kind=kind)))
            for kind in LOSS_KINDS
        }

    def run(self):
        return {kind: runner.run_experiment(c) for kind, c in self.configs.items()}

    def check(self, results) -> Outcome:
        failures = []
        scores = [s for r in results.values() for s in r.scores.values()]
        if not all(math.isfinite(v) for s in scores for v in (s.d_kl, s.d_em, s.accuracy)):
            failures.append("a score is not finite")
        hasep_em = results[HASEPARATOR].scores["test"].d_em
        softmax_em = results[SOFTMAX].scores["test"].d_em
        if not hasep_em > softmax_em:
            failures.append(f"haseparator test D_EM {hasep_em:.2f} <= softmax {softmax_em:.2f}")
        tests = [r.scores["test"] for r in results.values()]
        return Outcome(
            cells=len(results),
            attempted=len(results) + self.checks,
            failed=len(failures),
            digest=_digest(part for r in results.values() for part in _result_parts(r)),
            test_d_em=statistics.fmean(s.d_em for s in tests),
            test_acc=statistics.fmean(s.accuracy for s in tests),
            failures=failures,
        )


# About 6 MB of text: 10 000 rows of 32 features and a label.
FILE_CLASSES, FILE_PER_CLASS, FILE_DIM, FILE_RADIUS = 50, 200, 32, 8.0
FILE_STEPS = 100
FILE_NAME = "data.csv"


class FileRoundtrip(_WholeRepeatUnit):
    """`haseparator train` then `eval` of its checkpoint, both in-process,
    on a delimited file written at set-up. Paths are relative to the
    repeat's own working directory, so artifacts repeat byte for byte."""

    name = "file_roundtrip"
    checks = 1

    def __init__(self, seed: int):
        train, test = gaussian_blobs(
            FILE_CLASSES, FILE_PER_CLASS, FILE_DIM, center_radius=FILE_RADIUS, seed=seed
        )
        full = Dataset(
            np.concatenate([train.features, test.features]),
            np.concatenate([train.labels, test.labels]),
            FILE_CLASSES,
        )
        save_delimited(full, FILE_NAME)
        self.seed = seed

    def run(self):
        for out in ("train", "eval"):
            shutil.rmtree(out, ignore_errors=True)
        common = ["--dataset", f"file:{FILE_NAME}", "--seed", str(self.seed)]
        with contextlib.redirect_stdout(io.StringIO()):
            return [
                cli.main(["train", *common, "--loss", SOFTMAX, "--steps", str(FILE_STEPS),
                          "--out", "train"]),
                cli.main(["eval", *common, "--checkpoint", "train/checkpoint.txt",
                          "--out", "eval"]),
            ]

    def check(self, exits) -> Outcome:
        failures = [f"cli exit {code}" for code in exits if code != 0]
        files = {
            os.path.join(d, f): _read(os.path.join(d, f))
            for d in ("train", "eval") if os.path.isdir(d) for f in sorted(os.listdir(d))
        }
        scores = [f"scores_{split}.json" for split in ("train", "test")]
        if failures or any(files.get(f"train/{f}") != files.get(f"eval/{f}") for f in scores):
            failures.append("eval scores differ from train scores")
        test = json.loads(files.get("eval/scores_test.json", '{"d_em": 0, "accuracy": 0}'))
        return Outcome(
            cells=sum(code == 0 for code in exits),
            attempted=len(exits) + self.checks,
            failed=len(failures),
            digest=_digest(part for item in files.items() for part in item),
            test_d_em=float(test["d_em"]),
            test_acc=float(test["accuracy"]),
            failures=failures,
        )



def _read(path) -> bytes:
    with open(path, "rb") as fh:
        return fh.read()


WORKLOADS = {w.name: w for w in (MarginSweep, WideHead, FileRoundtrip)}

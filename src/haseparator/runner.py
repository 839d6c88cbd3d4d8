"""Experiment harness: dataset -> MLP -> training -> discrimination scores.

A single experiment is fully described by an ExperimentConfig; its master
seed feeds a SeedSequence that derives independent streams for dataset
generation, weight init, batch shuffling, and pair sampling, so runs are
reproducible end to end and two losses given the same seed see the same
data. train, eval and sweeps all score splits through evaluate_splits, which
writes no split's files until every split it was given has scored.

Sweeps cross losses x sigmas x margins x seeds and never drop failed cells.
A sweep trains each distinct ExperimentConfig once, so cells that differ
only in a setting their loss ignores (softmax at two margins) share a run.
The distinct runs of one loss kind share every array shape, so they train
together as stacks: one trainer.train call whose arrays carry a leading run
axis, and pays numpy's per-call cost once a step for all of its runs. Each
stack is split so that every one of the jobs worker processes has work.
Rows score the test split only, bitwise as run_experiment scores it. A run
that fails, in its config, data, training or evaluation, fails only its
own rows (an error of a whole stack, other than a run's divergence,
retrains its runs one at a time), and rows come back in grid order. A
worker holds the datasets of all data seeds of its stack at once. Only a
sweep that forks workers imports the process pool (and multiprocessing).
"""

from __future__ import annotations

import csv
import itertools
import math
import os
import re
import time
import warnings
from dataclasses import asdict, dataclass, field, fields, is_dataclass, replace

import numpy as np

from .data import (
    Dataset, gaussian_blobs, load_delimited, read_text_lines, split_dataset, two_rings,
)
from .errors import ConfigError, DataFormatError, LabelError, ShapeError
from .losses import ARCFACE, HASEPARATOR, LOSS_KINDS
from .metrics import (
    DEFAULT_BINS,
    DEFAULT_MAX_PAIRS,
    AngleHistograms,
    DiscriminationScores,
    accuracy,
    build_histograms,
    emd_1d,
    kl_divergence,
    pair_angles,
    unit_rows,
    write_histogram_csv,
    write_scores_json,
)
# forward is not called here, but perfbench's tracer pins runner.forward;
# dropping it belongs to ROADMAP item 1's benchmark change.
from .model import MlpModel, embed, forward, init_model, save_checkpoint
from .tensor import normalize
from .trainer import HISTORY_COLUMNS, TrainConfig, TrainReport, train, write_report_csv

DATASET_KINDS = ("blobs", "rings")
FILE_PREFIX = "file:"
SPLITS = ("train", "test")
# A config.txt comment starts at a # that begins a line or follows whitespace.
CONFIG_COMMENT = re.compile(r"(?:^|\s)#")


@dataclass(frozen=True)
class DatasetConfig:
    """Where the samples come from.

    kind is "blobs", "rings", or "file:<path>". Synthetic kinds regenerate
    from the experiment seed; rings is inherently 2 classes in 2 dims, so
    num_classes and dim apply to blobs only. train_fraction applies to file
    datasets (synthetic generators split 80/20 internally). A kind that
    config.txt would not give back is rejected.
    """

    kind: str = "blobs"
    num_classes: int = 5
    per_class: int = 100
    dim: int = 2
    center_radius: float = 3.0
    stddev: float = 1.0
    noise: float = 0.1
    train_fraction: float = 0.8

    def __post_init__(self):
        if self.kind not in DATASET_KINDS and not self.kind.startswith(FILE_PREFIX):
            raise ConfigError(
                f"dataset kind must be one of {DATASET_KINDS} or {FILE_PREFIX}<path>, "
                f"got {self.kind!r}"
            )
        if CONFIG_COMMENT.split(self.kind, 1)[0].strip() != self.kind or "\n" in self.kind:
            raise ConfigError(f"config.txt cannot hold dataset kind {self.kind!r}: a line "
                              "break, edge whitespace or whitespace before # would change it")
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train_fraction must be in (0, 1), got {self.train_fraction}")
        for name in ("center_radius", "stddev", "noise"):
            if not math.isfinite(getattr(self, name)):
                raise ConfigError(f"{name} must be finite, got {getattr(self, name)}")


@dataclass(frozen=True)
class ExperimentConfig:
    """One training run plus its evaluation.

    seed is the master seed of every stage: data, init, shuffling and pair
    sampling each draw from their own stream derived from it.
    """

    dataset: DatasetConfig = field(default_factory=DatasetConfig)
    hidden_dims: tuple[int, ...] = (32, 32)
    embedding_dim: int = 64
    train: TrainConfig = field(default_factory=lambda: TrainConfig(steps=200))
    bins: int = DEFAULT_BINS
    max_pairs: int = DEFAULT_MAX_PAIRS
    seed: int = 0

    def __post_init__(self):
        if self.embedding_dim < 1:
            raise ConfigError(f"embedding_dim must be >= 1, got {self.embedding_dim}")
        if any(h < 1 for h in self.hidden_dims):
            raise ConfigError(f"hidden dims must be >= 1, got {self.hidden_dims}")
        if self.bins < 2:
            raise ConfigError(f"bins must be >= 2, got {self.bins}")
        if self.max_pairs < 1:
            raise ConfigError(f"max_pairs must be >= 1, got {self.max_pairs}")
        if self.seed < 0:
            raise ConfigError(f"seed must be >= 0, got {self.seed}")


@dataclass
class ExperimentResult:
    config: ExperimentConfig
    train_data: Dataset
    test_data: Dataset
    model: MlpModel
    report: TrainReport
    hists: dict[str, AngleHistograms]
    scores: dict[str, DiscriminationScores]


def derive_seeds(seed) -> dict[str, int]:
    """Independent per-stage seeds (data, init, train, evaluation) from one run seed."""
    state = np.random.SeedSequence(seed).generate_state(5)
    names = ("data", "init", "train", "eval_train", "eval_test")
    return {name: int(value) for name, value in zip(names, state)}


def build_datasets(config: DatasetConfig, seed) -> tuple[Dataset, Dataset]:
    if config.kind == "blobs":
        return gaussian_blobs(
            config.num_classes,
            config.per_class,
            config.dim,
            center_radius=config.center_radius,
            stddev=config.stddev,
            seed=seed,
        )
    if config.kind == "rings":
        return two_rings(config.per_class, noise=config.noise, seed=seed)
    path = config.kind[len(FILE_PREFIX):]
    full = load_delimited(path)
    return split_dataset(full, seed=seed, train_fraction=config.train_fraction)


def evaluate_model(
    model: MlpModel,
    dataset: Dataset,
    bins: int = DEFAULT_BINS,
    max_pairs: int = DEFAULT_MAX_PAIRS,
    seed=0,
) -> tuple[AngleHistograms, DiscriminationScores, np.ndarray]:
    """Embed a split without a backward trace and score it: accuracy as the
    argmax of the cosines, D_KL and D_EM from the positive/negative
    pair-angle histograms. Both read the embeddings' directions from
    unit_rows."""
    embeddings = embed(model, dataset.features)
    cosines = unit_rows(embeddings)[0] @ normalize(model.class_weights, 0)[0]
    acc = accuracy(cosines, dataset.labels)
    del cosines  # rows x C, not needed while the pairs are scored
    pos, neg = pair_angles(embeddings, dataset.labels, max_pairs_per_kind=max_pairs, seed=seed)
    hist = build_histograms(pos, neg, num_bins=bins)
    scores = DiscriminationScores(d_kl=kl_divergence(hist), d_em=emd_1d(hist), accuracy=acc)
    return hist, scores, embeddings


def check_splits(config: ExperimentConfig, data, splits=SPLITS) -> None:
    """Raise ConfigError unless each named split of data, a (train, test)
    pair, has pairs to score: at least 2 classes and a class with 2 rows."""
    datasets = dict(zip(SPLITS, data))
    for split in splits:
        sizes = np.bincount(datasets[split].labels)
        classes = np.count_nonzero(sizes)
        if classes < 2 or sizes.max() < 2:
            kind = "positive" if sizes.max() < 2 else "negative"
            hint = (f"--train-fraction {config.dataset.train_fraction} splits the table"
                    if config.dataset.kind.startswith(FILE_PREFIX) else "raise --per-class")
            raise ConfigError(
                f"the {split} split has {len(datasets[split])} rows in {classes} classes, so "
                f"no {kind} pairs to score: it needs 2 classes and a class with 2 rows; {hint}"
            )


def _setup(config: ExperimentConfig, datasets: dict, splits=SPLITS):
    """A run's seeds, its (train, test) datasets and its initial model.

    datasets caches the splits by data config and data seed, so runs that
    share them share one feature array. The splits to be scored are
    checked with check_splits.
    """
    seeds = derive_seeds(config.seed)
    key = (config.dataset, seeds["data"])
    if key not in datasets:
        datasets[key] = build_datasets(config.dataset, seeds["data"])
    train_data, test_data = datasets[key]
    check_splits(config, (train_data, test_data), splits)
    layer_dims = (train_data.dim, *config.hidden_dims, config.embedding_dim)
    model = init_model(layer_dims, train_data.num_classes, seeds["init"])
    return seeds, (train_data, test_data), model


def evaluate_splits(model: MlpModel, config: ExperimentConfig, data, splits=SPLITS,
                    out_dir=None) -> tuple[dict, dict]:
    """Score the named splits of data, a (train, test) pair, each with its pair
    seed from config.seed; return (hists, scores) by split. Once all have
    scored, write their hist_, scores_ and embeddings_ files to out_dir. A
    split that cannot be scored raises its error, with the split's name in
    front of the message."""
    seeds = derive_seeds(config.seed)
    datasets = dict(zip(SPLITS, data))
    hists, scores, embeddings = {}, {}, {}
    for split in splits:
        try:
            hists[split], scores[split], embeddings[split] = evaluate_model(
                model, datasets[split], bins=config.bins, max_pairs=config.max_pairs,
                seed=seeds[f"eval_{split}"],
            )
        except (ConfigError, LabelError, ShapeError) as exc:
            raise type(exc)(f"{split} split: {exc}") from exc
    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        join = lambda name: os.path.join(out_dir, name)
        for split in splits:
            write_histogram_csv(hists[split], join(f"hist_{split}.csv"))
            write_scores_json(scores[split], join(f"scores_{split}.json"))
            write_embeddings_csv(embeddings[split], datasets[split].labels,
                                 join(f"embeddings_{split}.npz"))
    return hists, scores


def run_experiment(config: ExperimentConfig, out_dir=None) -> ExperimentResult:
    """Train one model and evaluate both splits; write artifacts when asked."""
    seeds, data, model = _setup(config, {})
    report = train(model, data[0], config.train, seeds["train"])
    hists, scores = evaluate_splits(report.final_model, config, data, out_dir=out_dir)
    result = ExperimentResult(
        config=config,
        train_data=data[0],
        test_data=data[1],
        model=report.final_model,
        report=report,
        hists=hists,
        scores=scores,
    )
    if out_dir is not None:
        write_experiment_artifacts(result, out_dir)
    return result


def write_embeddings_csv(embeddings, labels, path) -> None:
    """Write an uncompressed .npz holding float64 `embeddings` and int64
    `labels`; np.load(path, allow_pickle=False) reads it back. Its bytes
    repeat across reruns. perfbench's tracer pins this name (runner and cli);
    the rename belongs to ROADMAP item 1's benchmark change."""
    with open(path, "wb") as fh:
        np.savez(fh, allow_pickle=False, embeddings=np.asarray(embeddings, dtype=np.float64),
                 labels=np.asarray(labels, dtype=np.int64))


def config_fields(config, prefix=""):
    """(dotted path, annotation, value) of every field of a config that is
    not itself a dataclass, depth first in field order: config.txt's keys."""
    for f in fields(config):
        value = getattr(config, f.name)
        if is_dataclass(value):
            yield from config_fields(value, f"{prefix}{f.name}.")
        else:
            yield prefix + f.name, f.type, value


def field_parser(annotation: str):
    """Text -> value for a field annotated as a scalar, an optional scalar
    (text "None"), or a tuple of scalars (comma-separated)."""
    if annotation.endswith(" | None"):
        scalar = field_parser(annotation[: -len(" | None")])
        parse = lambda text: None if text == "None" else scalar(text)
    elif annotation.startswith("tuple["):
        item = field_parser(annotation[len("tuple["):].split(",")[0])
        parse = lambda text: tuple(item(v.strip()) for v in text.split(",") if v.strip())
    else:
        return {"int": int, "float": float, "str": str}[annotation]
    parse.__name__ = annotation  # argparse reports "invalid <name> value"
    return parse


def write_config_echo(config, path) -> None:
    """Echo every effective setting as flat key=value lines, tuples comma-separated."""
    with open(path, "w") as fh:
        for key, _, value in config_fields(config):
            text = ",".join(map(str, value)) if isinstance(value, (tuple, list)) else value
            fh.write(f"{key}={text}\n")


def write_experiment_artifacts(result: ExperimentResult, out_dir) -> None:
    """A run's report.csv, checkpoint.txt and config.txt; evaluate_splits writes the rest."""
    os.makedirs(out_dir, exist_ok=True)
    write_report_csv(result.report, os.path.join(out_dir, "report.csv"))
    save_checkpoint(result.model, os.path.join(out_dir, "checkpoint.txt"))
    write_config_echo(result.config, os.path.join(out_dir, "config.txt"))


@dataclass
class SweepRecord:
    """One grid cell's outcome, scored on the test split only; failed cells
    carry the error, never vanish.

    wall_time_s is the cell's share of the work: its stack's data, set-up
    and training time split evenly over the stack's runs, plus its own
    evaluation time, and split again evenly over the cells that repeat one
    distinct run. A sweep's row times therefore sum to its workers' busy
    time.
    """

    loss_kind: str
    sigma: float
    margin: float
    seed: int
    accuracy: float = math.nan
    d_kl: float = math.nan
    d_em: float = math.nan
    final_c_t: float = math.nan
    wall_time_s: float = math.nan
    error: str = ""


@dataclass(frozen=True)
class SweepConfig:
    """Cross product of losses x sigmas x margins x seeds over one template.

    The margin axis feeds HASeparator's cosine margin and doubles as
    ArcFace's additive angle in radians (both live on comparable [0.1, 1.0]
    grids); softmax ignores it, so its cells at different margins are one
    run, trained once and reported in each of their rows. Duplicate grid
    values are dropped with a warning.
    """

    losses: tuple[str, ...] = LOSS_KINDS
    sigmas: tuple[float, ...] = (3.0,)
    margins: tuple[float, ...] = (0.5,)
    seeds: tuple[int, ...] = (0,)
    experiment: ExperimentConfig = field(default_factory=ExperimentConfig)
    jobs: int = 1

    def __post_init__(self):
        for name in ("losses", "sigmas", "margins", "seeds"):
            values = getattr(self, name)
            if len(values) == 0:
                raise ConfigError(f"sweep grid {name} must be nonempty")
            object.__setattr__(self, name, _dedupe(values, name))
        for loss in self.losses:
            if loss not in LOSS_KINDS:
                raise ConfigError(f"unknown loss {loss!r}, expected one of {LOSS_KINDS}")
        if self.jobs < 1:
            raise ConfigError(f"jobs must be >= 1, got {self.jobs}")


def _dedupe(values, label) -> tuple:
    seen, out = set(), []
    for value in values:
        if value in seen:
            warnings.warn(f"duplicate {label} value {value!r} dropped from sweep grid")
        else:
            seen.add(value)
            out.append(value)
    return tuple(out)


def default_seeds(seed_base: int, num_seeds: int) -> tuple[int, ...]:
    """Run seeds seed_base + index, so schedules cannot reshuffle them."""
    if num_seeds < 1:
        raise ConfigError(f"num_seeds must be >= 1, got {num_seeds}")
    return tuple(seed_base + i for i in range(num_seeds))


def _cell_config(template: ExperimentConfig, loss_kind, sigma, margin, seed) -> ExperimentConfig:
    base_loss = template.train.loss
    if loss_kind == HASEPARATOR:
        loss = replace(base_loss, loss_kind=loss_kind, sigma=sigma, margin=margin)
    elif loss_kind == ARCFACE:
        loss = replace(base_loss, loss_kind=loss_kind, sigma=sigma, arc_margin=margin)
    else:
        loss = replace(base_loss, loss_kind=loss_kind, sigma=sigma)
    return replace(template, train=replace(template.train, loss=loss), seed=seed)


def _error_text(exc: Exception) -> str:
    return f"{type(exc).__name__}: {exc}"


def _run_stack(configs) -> list[tuple]:
    """Train distinct runs of one loss kind as one stack, then score each test split.

    Returns one (outcome, seconds) per config. outcome maps SweepRecord
    field names to values: the test split's DiscriminationScores fields and
    final_c_t, the last step's c_sep; or error, the text of whatever failed
    the run (data, set-up, training, divergence or test-split evaluation).
    """
    start = time.perf_counter()
    outcomes: list = [None] * len(configs)
    datasets: dict = {}
    runs = []
    for i, config in enumerate(configs):
        try:
            runs.append((i, *_setup(config, datasets, splits=("test",))))
        except Exception as exc:
            outcomes[i] = {"error": _error_text(exc)}
    reports: list = []
    if runs:
        ids, seeds, data, models = zip(*runs)
        args = (
            list(models),
            [splits[0] for splits in data],
            [configs[i].train for i in ids],
            [run_seeds["train"] for run_seeds in seeds],
        )
        try:
            reports = train(*args)
        except Exception:
            # An error of the whole stack (not a divergence, which train
            # returns per run): train each run alone, so it fails only its own.
            reports = [_train_alone(*run) for run in zip(*args)]
    times = [(time.perf_counter() - start) / len(configs)] * len(configs)
    c_sep = HISTORY_COLUMNS.index("c_sep")
    for (i, _, data, _), report in zip(runs, reports):
        if isinstance(report, Exception):
            outcomes[i] = {"error": _error_text(report)}
            continue
        start = time.perf_counter()
        try:
            _, scores = evaluate_splits(report.final_model, configs[i], data, splits=("test",))
            final_c_t = float(report.history[-1, c_sep]) if len(report.history) else math.nan
            outcomes[i] = {**asdict(scores["test"]), "final_c_t": final_c_t}
        except Exception as exc:
            outcomes[i] = {"error": _error_text(exc)}
        times[i] += time.perf_counter() - start
    return list(zip(outcomes, times))


def _train_alone(model, dataset, config, seed):
    """train's report for one run, or the exception it raised."""
    try:
        return train(model, dataset, config, seed)
    except Exception as exc:
        return exc


def run_sweep(sweep: SweepConfig) -> list[SweepRecord]:
    """Run every grid cell; results come back in grid order (losses outermost,
    then sigmas, margins, seeds) regardless of scheduling.

    Each distinct ExperimentConfig is trained once, however many cells
    share it. The distinct runs of each loss kind are trained as stacks,
    split so that all jobs workers have work. A cell's row holds the test
    scores that run_experiment gives for it, bit for bit, or the error of
    its run with the test split alone scored: run_experiment scores the
    train split first, and may fail there.
    """
    records, rows = [], {}  # rows: each distinct config's cells, by grid index
    grid = itertools.product(sweep.losses, sweep.sigmas, sweep.margins, sweep.seeds)
    for cell, (loss, sigma, margin, seed) in enumerate(grid):
        record = SweepRecord(loss, float(sigma), float(margin), int(seed))
        records.append(record)
        start = time.perf_counter()
        try:
            config = _cell_config(sweep.experiment, loss, sigma, margin, seed)
        except Exception as exc:
            record.error = _error_text(exc)
            record.wall_time_s = time.perf_counter() - start
            continue
        rows.setdefault(config, []).append(cell)

    stacks = []
    for kind in sweep.losses:
        runs = [config for config in rows if config.train.loss.loss_kind == kind]
        parts = min(sweep.jobs, len(runs))
        stacks += [runs[p * len(runs) // parts : (p + 1) * len(runs) // parts]
                   for p in range(parts)]
    # A fork pool starts all of its workers at the first submit, so ask for
    # no more than there are stacks; an all-failed grid has none.
    workers = min(sweep.jobs, len(stacks))
    if workers <= 1:
        results = [_run_stack(stack) for stack in stacks]
    else:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_run_stack, stacks))

    for stack, outcomes in zip(stacks, results):
        for config, (outcome, seconds) in zip(stack, outcomes):
            share = seconds / len(rows[config])
            for cell in rows[config]:
                records[cell] = replace(records[cell], **outcome, wall_time_s=share)
    return records


# sweep.csv column -> the SweepRecord field it holds
_SWEEP_COLUMNS = {("loss" if f.name == "loss_kind" else f.name): f for f in fields(SweepRecord)}


def write_sweep_csv(records, path) -> None:
    """One row per record; the columns are SweepRecord's fields, in order,
    with loss_kind written as loss and floats as .17g."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(_SWEEP_COLUMNS)
        for r in records:
            writer.writerow([format(getattr(r, f.name), ".17g") if f.type == "float"
                             else getattr(r, f.name) for f in _SWEEP_COLUMNS.values()])


def read_sweep_csv(path) -> list[SweepRecord]:
    """Rows of a write_sweep_csv file; a missing column, a short or long row,
    or an unparsable cell raises DataFormatError naming the path and line,
    and bytes that are not UTF-8 one naming the path."""
    records = []
    reader = csv.DictReader(read_text_lines(path, DataFormatError))
    missing = [c for c in _SWEEP_COLUMNS if c not in (reader.fieldnames or ())]
    if missing:
        raise DataFormatError(f"{path}:1: missing sweep columns {', '.join(missing)}")
    for row in reader:
        where = f"{path}:{reader.line_num}"
        if None in row or None in row.values():
            raise DataFormatError(f"{where}: expected {len(reader.fieldnames)} fields")
        values = {}
        for column, f in _SWEEP_COLUMNS.items():
            try:
                values[f.name] = field_parser(f.type)(row[column])
            except ValueError:
                raise DataFormatError(
                    f"{where}: column {column!r} cannot parse {row[column]!r}"
                ) from None
        records.append(SweepRecord(**values))
    return records

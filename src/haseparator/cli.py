"""Command-line front end: train one model, sweep a grid, re-evaluate, or
summarize sweep results.

Every option of train, sweep and eval can come from a flat key=value config
file (--config) where a line's leading/trailing whitespace is ignored and #
starts a comment; command-line flags override file values, and the effective
settings are echoed into the output directory next to the results.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from .errors import (
    CheckpointError,
    ConfigError,
    DataFormatError,
    LabelError,
    ShapeError,
)
from .losses import LOSS_KINDS, LossConfig
from .metrics import write_histogram_csv, write_scores_json
from .model import load_checkpoint
from .runner import (
    DatasetConfig,
    ExperimentConfig,
    SweepConfig,
    build_datasets,
    default_seeds,
    derive_seeds,
    evaluate_model,
    read_sweep_csv,
    run_experiment,
    run_sweep,
    write_config_echo,
    write_embeddings_csv,
    write_sweep_csv,
)
from .trainer import TrainConfig

_USER_ERRORS = (
    ConfigError,
    DataFormatError,
    CheckpointError,
    ShapeError,
    LabelError,
    FileNotFoundError,
)


def _float_list(text: str) -> tuple[float, ...]:
    return tuple(float(v) for v in text.split(",") if v.strip())


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(v) for v in text.split(",") if v.strip())


def _str_list(text: str) -> tuple[str, ...]:
    return tuple(v.strip() for v in text.split(",") if v.strip())


# key -> (converter, default); shared across the config file and the flags
_DATASET_OPTIONS = {
    "dataset": (str, "blobs"),
    "num-classes": (int, 5),
    "per-class": (int, 100),
    "dim": (int, 2),
    "center-radius": (float, 3.0),
    "stddev": (float, 1.0),
    "noise": (float, 0.1),
    "train-fraction": (float, 0.8),
}
_MODEL_OPTIONS = {
    "hidden-dims": (_int_list, (32, 32)),
    "embedding-dim": (int, 64),
}
_EVAL_OPTIONS = {
    "bins": (int, 180),
    "max-pairs": (int, 200_000),
}
_TRAIN_OPTIONS = {
    "steps": (int, None),
    "epochs": (int, None),
    "batch-size": (int, 64),
    "lr": (float, 0.1),
    "lr-drop-points": (_int_list, ()),
    "lr-drop-factor": (float, 0.1),
    "momentum": (float, 0.9),
    "weight-decay": (float, 1e-4),
}
_SINGLE_LOSS_OPTIONS = {
    "loss": (str, "haseparator"),
    "sigma": (float, 3.0),
    "margin": (float, 0.9),
    "arc-margin-deg": (float, None),
}
_SWEEP_GRID_OPTIONS = {
    "loss": (_str_list, LOSS_KINDS),
    "sigma": (_float_list, (3.0,)),
    "margin": (_float_list, (0.5,)),
    "num-seeds": (int, 1),
    "jobs": (int, None),
}
_COMMON_OPTIONS = {"seed": (int, 0), "out": (str, None)}


def _options_for(command: str) -> dict:
    table = dict(_DATASET_OPTIONS, **_EVAL_OPTIONS, **_COMMON_OPTIONS)
    if command == "train":
        table.update(_MODEL_OPTIONS, **_TRAIN_OPTIONS, **_SINGLE_LOSS_OPTIONS)
    elif command == "sweep":
        table.update(_MODEL_OPTIONS, **_TRAIN_OPTIONS, **_SWEEP_GRID_OPTIONS)
    elif command == "eval":
        table["checkpoint"] = (str, None)
    return table


def parse_config_file(path) -> dict[str, str]:
    values: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            values[key.strip()] = value.strip()
    return values


class Options:
    """Effective settings: flag if given, else config-file value, else default."""

    def __init__(self, args, table):
        self.args = args
        self.table = table
        self.file_values = parse_config_file(args.config) if args.config else {}
        unknown = sorted(set(self.file_values) - set(table))
        if unknown:
            raise ConfigError(f"unknown config keys: {', '.join(unknown)}")

    def get(self, key):
        convert, default = self.table[key]
        flag_value = getattr(self.args, key.replace("-", "_"), None)
        if flag_value is not None:
            return flag_value
        if key in self.file_values:
            try:
                return convert(self.file_values[key])
            except ValueError as exc:
                raise ConfigError(f"config key {key!r}: {exc}") from None
        return default


def _dataset_config(opts: Options) -> DatasetConfig:
    return DatasetConfig(
        kind=opts.get("dataset"),
        num_classes=opts.get("num-classes"),
        per_class=opts.get("per-class"),
        dim=opts.get("dim"),
        center_radius=opts.get("center-radius"),
        stddev=opts.get("stddev"),
        noise=opts.get("noise"),
        train_fraction=opts.get("train-fraction"),
    )


def _train_config(opts: Options, loss: LossConfig) -> TrainConfig:
    steps = opts.get("steps")
    epochs = opts.get("epochs")
    if steps is None and epochs is None:
        steps = 200
    return TrainConfig(
        batch_size=opts.get("batch-size"),
        steps=steps,
        epochs=epochs,
        base_lr=opts.get("lr"),
        lr_drop_points=opts.get("lr-drop-points"),
        lr_drop_factor=opts.get("lr-drop-factor"),
        momentum=opts.get("momentum"),
        weight_decay=opts.get("weight-decay"),
        seed=opts.get("seed"),
        loss=loss,
    )


def _single_loss_config(opts: Options) -> LossConfig:
    kwargs = {
        "loss_kind": opts.get("loss"),
        "sigma": opts.get("sigma"),
        "margin": opts.get("margin"),
    }
    arc_deg = opts.get("arc-margin-deg")
    if arc_deg is not None:
        kwargs["arc_margin"] = math.radians(arc_deg)
    return LossConfig(**kwargs)


def _experiment_config(opts: Options, loss: LossConfig) -> ExperimentConfig:
    return ExperimentConfig(
        dataset=_dataset_config(opts),
        hidden_dims=opts.get("hidden-dims"),
        embedding_dim=opts.get("embedding-dim"),
        train=_train_config(opts, loss),
        bins=opts.get("bins"),
        max_pairs=opts.get("max-pairs"),
        seed=opts.get("seed"),
    )


def _require_out(opts: Options) -> str:
    out = opts.get("out")
    if not out:
        raise ConfigError("--out directory is required")
    return out


def cmd_train(args) -> int:
    opts = Options(args, _options_for("train"))
    config = _experiment_config(opts, _single_loss_config(opts))
    out = _require_out(opts)
    result = run_experiment(config, out_dir=out)
    for split in ("train", "test"):
        s = result.scores[split]
        print(
            f"{split}: accuracy {s.accuracy:.4f}  d_kl {s.d_kl:.4f}  d_em {s.d_em:.2f} deg"
        )
    print(f"artifacts written to {out}")
    return 0


def cmd_sweep(args) -> int:
    opts = Options(args, _options_for("sweep"))
    out = _require_out(opts)
    template = _experiment_config(opts, LossConfig())
    jobs = opts.get("jobs")
    sweep = SweepConfig(
        losses=opts.get("loss"),
        sigmas=opts.get("sigma"),
        margins=opts.get("margin"),
        seeds=default_seeds(opts.get("seed"), opts.get("num-seeds")),
        experiment=template,
        jobs=jobs if jobs is not None else (os.cpu_count() or 1),
    )
    records = run_sweep(sweep)
    os.makedirs(out, exist_ok=True)
    write_sweep_csv(records, os.path.join(out, "sweep.csv"))
    write_config_echo(sweep, os.path.join(out, "config.txt"))
    failures = sum(1 for r in records if r.error)
    print(f"wrote {len(records)} rows to {os.path.join(out, 'sweep.csv')}")
    if failures:
        print(f"{failures} runs failed; see the error column", file=sys.stderr)
    return 0


def cmd_eval(args) -> int:
    opts = Options(args, _options_for("eval"))
    checkpoint_path = opts.get("checkpoint")
    if not checkpoint_path:
        raise ConfigError("--checkpoint is required")
    out = _require_out(opts)
    model = load_checkpoint(checkpoint_path)

    seeds = derive_seeds(opts.get("seed"))
    train_data, test_data = build_datasets(_dataset_config(opts), seeds["data"])
    if train_data.dim != model.layer_dims[0]:
        raise ShapeError(
            f"checkpoint expects input dim {model.layer_dims[0]}, dataset has {train_data.dim}"
        )
    if train_data.num_classes != model.num_classes:
        raise ShapeError(
            f"checkpoint expects {model.num_classes} classes, dataset has {train_data.num_classes}"
        )

    os.makedirs(out, exist_ok=True)
    for split, dataset in (("train", train_data), ("test", test_data)):
        hist, scores, embeddings = evaluate_model(
            model,
            dataset,
            bins=opts.get("bins"),
            max_pairs=opts.get("max-pairs"),
            seed=seeds[f"eval_{split}"],
        )
        write_histogram_csv(hist, os.path.join(out, f"hist_{split}.csv"))
        write_scores_json(scores, os.path.join(out, f"scores_{split}.json"))
        write_embeddings_csv(embeddings, dataset.labels, os.path.join(out, f"embeddings_{split}.csv"))
        print(
            f"{split}: accuracy {scores.accuracy:.4f}  d_kl {scores.d_kl:.4f}  "
            f"d_em {scores.d_em:.2f} deg"
        )
    return 0


def cmd_summarize(args) -> int:
    groups: dict[tuple, list] = {}
    for path in args.sweep_csv:
        for r in read_sweep_csv(path):
            groups.setdefault((r.loss_kind, r.sigma, r.margin), []).append(r)
    print(f"{'loss':>12} {'sigma':>8} {'margin':>8} {'runs':>5} {'failed':>6} "
          f"{'d_em':>8} {'d_kl':>8} {'accuracy':>8}")
    for (loss, sigma, margin), rows in groups.items():
        ok = [r for r in rows if not r.error]
        means = (np.mean([getattr(r, name) for r in ok]) if ok else math.nan
                 for name in ("d_em", "d_kl", "accuracy"))
        print(f"{loss:>12} {sigma:>8g} {margin:>8g} {len(rows):>5} {len(rows) - len(ok):>6} "
              + " ".join(f"{m:>8.4f}" for m in means))
    return 0


def _add_option_flags(parser, table, skip=()) -> None:
    for key, (convert, _) in table.items():
        if key in skip:
            continue
        parser.add_argument(f"--{key}", type=convert, default=None, metavar="V")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haseparator",
        description="Train and evaluate cosine classifiers with hyperplane-margin, "
        "angular-margin, or plain softmax losses on small datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    train_p = sub.add_parser("train", help="train one model and write all artifacts")
    train_p.add_argument("--loss", choices=LOSS_KINDS, default=None)
    _add_option_flags(train_p, _options_for("train"), skip=("loss",))
    train_p.set_defaults(func=cmd_train)

    sweep_p = sub.add_parser(
        "sweep",
        help="run a loss x sigma x margin x seed grid; --loss/--sigma/--margin "
        "accept comma-separated lists, seeds are seed..seed+num-seeds-1",
    )
    _add_option_flags(sweep_p, _options_for("sweep"))
    sweep_p.set_defaults(func=cmd_sweep)

    eval_p = sub.add_parser(
        "eval",
        help="recompute metrics for a checkpoint; pass the same --dataset/--seed "
        "as training to reproduce its evaluation exactly",
    )
    _add_option_flags(eval_p, _options_for("eval"))
    eval_p.set_defaults(func=cmd_eval)

    summarize_p = sub.add_parser(
        "summarize",
        help="print one row per (loss, sigma, margin) of sweep.csv files: runs, "
        "failed runs, and mean test d_em, d_kl and accuracy over the runs that finished",
    )
    summarize_p.add_argument("sweep_csv", nargs="+", metavar="SWEEP_CSV")
    summarize_p.set_defaults(func=cmd_summarize)

    for p in (train_p, sweep_p, eval_p):
        p.add_argument("--config", default=None, metavar="FILE",
                       help="flat key=value file; flags override it")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())

"""Command-line front end: train one model, sweep a grid, re-evaluate, or
summarize sweep results.

The options of train, sweep and eval are derived from the config dataclasses:
ExperimentConfig for train and eval and SweepConfig for sweep. eval has
flags only for the dataset, bins, max_pairs and seed, but its config file
takes every dotted ExperimentConfig key and ignores the training ones. A
field's flag is its leaf name with "_" as "-"; its parser comes from the
field's annotation and its default from the dataclass. The exceptions are
the tables below, the default jobs of sweep (the CPU count, in _root), and
epochs, which clears the default steps (in _config).

A --config file holds key=value lines; a line's leading/trailing whitespace
is ignored, and # starts a comment at the start of a line or after
whitespace (runner.CONFIG_COMMENT), so a value such as a path may hold a #
that follows no whitespace. A dataset kind that config.txt would not give
back is rejected before anything runs. A key is a flag name or the dotted
field path that config.txt echoes, so `train --config <run>/config.txt` and
`sweep --config <sweep>/config.txt` replay a run, and `eval --config
<run>/config.txt` replays its evaluation. train.loss.arc_margin is in
radians, --arc-margin-deg in degrees. Two file lines that set one field
(one key twice, a flag name and its dotted path, or sweep's seeds beside
seed or num-seeds) are rejected, and so is an unknown key, each error
naming its file and line. Flags override file values, and the
effective settings are echoed into the output directory next to the results.
"""

from __future__ import annotations

import argparse
import dataclasses
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
from .losses import LOSS_KINDS
from .model import load_checkpoint
from .runner import (
    CONFIG_COMMENT,
    SPLITS,
    ExperimentConfig,
    SweepConfig,
    build_datasets,
    check_splits,
    config_fields,
    default_seeds,
    derive_seeds,
    evaluate_model,  # not called here, but perfbench's tracer pins cli.evaluate_model
    evaluate_splits,
    field_parser,
    read_sweep_csv,
    run_experiment,
    run_sweep,
    write_config_echo,
    write_embeddings_csv,  # not called here, but perfbench's tracer pins cli.write_embeddings_csv
    write_sweep_csv,
)

_USER_ERRORS = (
    ConfigError,
    DataFormatError,
    CheckpointError,
    ShapeError,
    LabelError,
    OSError,
)


def _degrees(text: str) -> float:
    return math.radians(float(text))


# Flags not named after their field's leaf name.
_FLAG_NAMES = {
    "kind": "dataset", "base_lr": "lr", "loss_kind": "loss", "arc_margin": "arc-margin-deg",
    "losses": "loss", "sigmas": "sigma", "margins": "margin",
}
# --arc-margin-deg takes degrees; the field and its dotted key hold radians.
_FLAG_PARSERS = {"arc_margin": _degrees}
# ExperimentConfig fields that eval reads and has flags for; the others only
# shape training.
_EVAL_FIELDS = ("dataset", "bins", "max_pairs", "seed")
# Sweep fields without a flag: the grid sets each cell's loss and seed, and
# --seed/--num-seeds stand for seeds.
_SWEEP_UNFLAGGED = ("experiment.train.loss.", "experiment.seed", "seeds")
# Keys that are not config fields: the output and checkpoint paths, and on
# sweep the first run seed and the seed count, which _config turns into seeds.
_EXTRA_KEYS = {
    "train": {"out": str},
    "sweep": {"out": str, "seed": int, "num-seeds": int},
    "eval": {"out": str, "checkpoint": str},
}


def _root(command: str):
    """The config a subcommand builds, carrying its defaults."""
    return SweepConfig(jobs=os.cpu_count() or 1) if command == "sweep" else ExperimentConfig()


def _keys(command: str) -> tuple[dict, list[str]]:
    """Config-file key -> (dotted path, parser) for a subcommand, and the keys
    that are also flags. A field's keys are its dotted path and its flag."""
    keys = {key: (key, parse) for key, parse in _EXTRA_KEYS[command].items()}
    flags = list(keys)
    for path, annotation, _ in config_fields(_root(command)):
        keys[path] = (path, field_parser(annotation))
        if command == "sweep" and path.startswith(_SWEEP_UNFLAGGED):
            continue
        if command == "eval" and path.split(".")[0] not in _EVAL_FIELDS:
            continue
        leaf = path.rsplit(".", 1)[-1]
        flag = _FLAG_NAMES.get(leaf, leaf.replace("_", "-"))
        keys[flag] = (path, _FLAG_PARSERS.get(leaf, keys[path][1]))
        flags.append(flag)
    return keys, flags


def parse_config_file(path) -> list[tuple[int, str, str]]:
    """The (line number, key, value) of each key=value line, in file order."""
    entries = []
    with open(path, "rb") as fh:
        for lineno, raw in enumerate(fh, 1):
            try:
                raw = raw.decode("utf-8")
            except UnicodeDecodeError as exc:
                raise ConfigError(f"{path}:{lineno}: not UTF-8 text ({exc.reason})") from None
            line = CONFIG_COMMENT.split(raw, maxsplit=1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {raw.strip()!r}")
            key, _, value = line.partition("=")
            entries.append((lineno, key.strip(), value.strip()))
    return entries


def _build(config, values: dict, prefix=""):
    """config with every field whose dotted path is in values replaced."""
    changes = {}
    for f in dataclasses.fields(config):
        path = prefix + f.name
        value = getattr(config, f.name)
        if dataclasses.is_dataclass(value):
            changes[f.name] = _build(value, values, path + ".")
        elif path in values:
            changes[f.name] = values[path]
    return dataclasses.replace(config, **changes)


def _config(args, command: str):
    """The subcommand's config (flag if given, else config-file value, else
    default) and the values of every key that was set."""
    keys, flags = _keys(command)
    values = {}
    if args.config:
        setters = {}
        for lineno, key, text in parse_config_file(args.config):
            if key not in keys:
                raise ConfigError(f"{args.config}:{lineno}: unknown config key {key!r}")
            path, parse = keys[key]
            # sweep's seed and num-seeds each set a part of seeds.
            for part in ("seed", "num-seeds") if path == "seeds" else (path,):
                if part in setters:
                    first, first_key = setters[part]
                    raise ConfigError(f"{args.config}:{lineno}: {key!r} sets the same field "
                                      f"as {first_key!r} on line {first}")
                setters[part] = lineno, key
            try:
                values[path] = parse(text)
            except ValueError as exc:
                raise ConfigError(f"{args.config}:{lineno}: config key {key!r}: {exc}") from None
    for flag in flags:
        path = keys[flag][0]
        if (value := getattr(args, path)) is not None:
            values[path] = value
    for path in list(values):
        if path.endswith("train.epochs") and values[path] is not None:
            values.setdefault(path[: -len("epochs")] + "steps", None)  # clear the default
    if command == "sweep" and {"seed", "num-seeds"} & values.keys():
        values["seeds"] = default_seeds(values.pop("seed", 0), values.pop("num-seeds", 1))
    return _build(_root(command), values), values


def _required(values: dict, key: str) -> str:
    if not values.get(key):
        raise ConfigError(f"--{key} is required")
    return values[key]


def _print_scores(split: str, s) -> None:
    print(f"{split}: accuracy {s.accuracy:.4f}  d_kl {s.d_kl:.4f}  d_em {s.d_em:.2f} deg")


def cmd_train(args) -> int:
    config, values = _config(args, "train")
    out = _required(values, "out")
    result = run_experiment(config, out_dir=out)
    for split in SPLITS:
        _print_scores(split, result.scores[split])
    print(f"artifacts written to {out}")
    return 0


def cmd_sweep(args) -> int:
    sweep, values = _config(args, "sweep")
    out = _required(values, "out")
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
    config, values = _config(args, "eval")
    checkpoint_path = _required(values, "checkpoint")
    out = _required(values, "out")
    model = load_checkpoint(checkpoint_path)

    train_data, test_data = build_datasets(config.dataset, derive_seeds(config.seed)["data"])
    if train_data.dim != model.layer_dims[0]:
        raise ShapeError(
            f"checkpoint expects input dim {model.layer_dims[0]}, dataset has {train_data.dim}"
        )
    if train_data.num_classes != model.num_classes:
        raise ShapeError(
            f"checkpoint expects {model.num_classes} classes, dataset has {train_data.num_classes}"
        )
    check_splits(config, (train_data, test_data))
    scores = evaluate_splits(model, config, (train_data, test_data), out_dir=out)[1]
    for split in SPLITS:
        _print_scores(split, scores[split])
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


def _add_config_flags(parser, command: str) -> None:
    keys, flags = _keys(command)
    for flag in flags:
        path, parse = keys[flag]
        shown = {"choices": LOSS_KINDS} if path.endswith("loss_kind") else {"metavar": "V"}
        parser.add_argument(f"--{flag}", dest=path, type=parse, default=None, **shown)
    parser.add_argument("--config", default=None, metavar="FILE",
                        help="key=value file of flag names or config.txt keys; flags override it")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haseparator",
        description="Train and evaluate cosine classifiers with hyperplane-margin, "
        "angular-margin, or plain softmax losses on small datasets.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    commands = (
        ("train", cmd_train, "train one model and write all artifacts"),
        ("sweep", cmd_sweep, "run a loss x sigma x margin x seed grid; --loss/--sigma/--margin "
         "accept comma-separated lists, seeds are seed..seed+num-seeds-1"),
        ("eval", cmd_eval, "recompute metrics for a checkpoint; pass the same --dataset/--seed "
         "as training, or --config <run>/config.txt, to reproduce its evaluation exactly"),
    )
    for command, func, help_text in commands:
        command_p = sub.add_parser(command, help=help_text)
        _add_config_flags(command_p, command)
        command_p.set_defaults(func=func)

    summarize_p = sub.add_parser(
        "summarize",
        help="print one row per (loss, sigma, margin) of sweep.csv files: runs, "
        "failed runs, and mean test d_em, d_kl and accuracy over the runs that finished",
    )
    summarize_p.add_argument("sweep_csv", nargs="+", metavar="SWEEP_CSV")
    summarize_p.set_defaults(func=cmd_summarize)
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

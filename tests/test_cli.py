import argparse
import csv
import math
import re
import shlex
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haseparator import runner
from haseparator.cli import _config, build_parser, main, parse_config_file
from haseparator.data import Dataset, save_delimited
from haseparator.errors import ConfigError, DataFormatError
from haseparator.losses import LOSS_KINDS, LossConfig
from haseparator.runner import (
    DatasetConfig,
    ExperimentConfig,
    SweepConfig,
    read_sweep_csv,
    write_config_echo,
)
from haseparator.trainer import TrainConfig
from helpers import per_value_write_config_echo

TINY = [
    "--dataset", "blobs", "--num-classes", "3", "--per-class", "20", "--dim", "4",
    "--hidden-dims", "8", "--embedding-dim", "6", "--steps", "30",
    "--batch-size", "16",
]


def run_cli(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestParseConfigFile:
    def test_comments_blanks_and_whitespace(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("# a comment\n\n  steps = 30  # trailing\nsigma=2.5\n")
        assert parse_config_file(path) == [(3, "steps", "30"), (4, "sigma", "2.5")]

    def test_missing_equals_reports_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_text("steps=30\njusttext\n")
        with pytest.raises(Exception, match=":2:"):
            parse_config_file(path)

    def test_non_utf8_bytes_name_path_and_line(self, tmp_path):
        path = tmp_path / "run.cfg"
        path.write_bytes(b"steps=30\nsigma=\xff\xfe2\n")
        with pytest.raises(ConfigError, match=f"{re.escape(str(path))}:2:"):
            parse_config_file(path)


class TestTrain:
    def test_writes_artifacts_and_reports_scores(self, tmp_path, capsys):
        out = tmp_path / "run"
        code, stdout, _ = run_cli(
            ["train", *TINY, "--loss", "softmax", "--seed", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert "train: accuracy" in stdout and "test: accuracy" in stdout
        for name in ("checkpoint.txt", "report.csv", "scores_test.json",
                     "hist_train.csv", "embeddings_test.npz", "config.txt"):
            assert (out / name).exists()

    def test_missing_out_is_a_user_error(self, capsys):
        code, _, stderr = run_cli(["train", *TINY], capsys)
        assert code == 2
        assert stderr.startswith("error:")
        assert "--out" in stderr

    def test_unknown_loss_is_a_usage_error(self, tmp_path):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--loss", "hinge", "--out", str(tmp_path)])
        assert exc.value.code == 2

    def test_steps_and_epochs_together_rejected(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["train", *TINY, "--epochs", "2", "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert "steps" in stderr and "epochs" in stderr

    def test_negative_seed_rejected_before_the_run(self, tmp_path, capsys):
        with pytest.raises(ConfigError, match="seed"):
            ExperimentConfig(seed=-1)
        out = tmp_path / "run"
        code, _, err = run_cli(["train", *TINY, "--seed", "-1", "--out", str(out)], capsys)
        assert code == 2
        assert "seed" in err and "-1" in err
        assert not out.exists()

    @pytest.mark.parametrize("flag, build", [
        ("--weight-decay", lambda: TrainConfig(steps=1, weight_decay=math.nan)),
        ("--center-radius", lambda: DatasetConfig(center_radius=math.nan)),
        ("--stddev", lambda: DatasetConfig(stddev=math.nan)),
        ("--noise", lambda: DatasetConfig(noise=math.nan)),
    ], ids=["weight_decay", "center_radius", "stddev", "noise"])
    def test_nan_setting_rejected_before_the_run(self, tmp_path, capsys, flag, build):
        field = flag[2:].replace("-", "_")
        with pytest.raises(ConfigError, match=field):
            build()
        out = tmp_path / "run"
        code, _, err = run_cli(["train", *TINY, flag, "nan", "--out", str(out)], capsys)
        assert code == 2
        assert field in err
        assert not out.exists()

    @pytest.mark.parametrize("value", ["inf", "-inf"])
    @pytest.mark.parametrize("field", [
        "weight_decay", "base_lr", "lr_drop_factor", "sigma", "center_radius", "stddev", "noise",
    ])
    def test_infinite_setting_rejected_before_the_run(self, tmp_path, capsys, field, value):
        # Such a setting used to train and be reported as a divergence.
        with pytest.raises(ConfigError, match=field):
            if field in ("weight_decay", "base_lr", "lr_drop_factor"):
                TrainConfig(steps=1, **{field: float(value)})
            elif field == "sigma":
                LossConfig(sigma=float(value))
            else:
                DatasetConfig(**{field: float(value)})
        out = tmp_path / "run"
        flag = "--" + {"base_lr": "lr"}.get(field, field).replace("_", "-")
        code, _, err = run_cli(["train", *TINY, f"{flag}={value}", "--out", str(out)], capsys)
        assert code == 2
        assert field in err and "diverged" not in err
        assert not out.exists()

    def test_file_dataset_kind(self, tmp_path, capsys):
        rng = np.random.default_rng(0)
        data = Dataset(rng.normal(size=(40, 3)), rng.integers(0, 2, size=40), 2)
        csv_path = tmp_path / "points.csv"
        save_delimited(data, csv_path)
        code, stdout, _ = run_cli(
            ["train", "--dataset", f"file:{csv_path}", "--hidden-dims", "8",
             "--embedding-dim", "4", "--steps", "20", "--loss", "softmax",
             "--out", str(tmp_path / "run")],
            capsys,
        )
        assert code == 0
        assert "test: accuracy" in stdout


class TestConfigFile:
    def test_flags_override_file_values(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "dataset=blobs\nnum-classes=3\nper-class=20\ndim=4\n"
            "hidden-dims=8\nembedding-dim=6\nsteps=30\nbatch-size=16\n"
            "loss=softmax\nsigma=2.0\n"
        )
        out = tmp_path / "run"
        code, _, _ = run_cli(
            ["train", "--config", str(cfg), "--sigma", "4.0", "--out", str(out)],
            capsys,
        )
        assert code == 0
        echo = dict(
            line.split("=", 1) for line in (out / "config.txt").read_text().splitlines()
        )
        assert float(echo["train.loss.sigma"]) == 4.0
        assert echo["train.loss.loss_kind"] == "softmax"

    def test_unknown_key_rejected(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("stepz=30\n")
        code, _, stderr = run_cli(
            ["train", "--config", str(cfg), "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert "unknown config keys" in stderr and "stepz" in stderr

    def test_directory_is_a_user_error(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["train", "--config", str(tmp_path), "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert stderr.startswith("error:")

    def test_bad_value_names_the_key(self, tmp_path, capsys):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("steps=soon\n")
        code, _, stderr = run_cli(
            ["train", "--config", str(cfg), "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert "steps" in stderr

    # (command, file text, the key of the first line that sets the field and
    # its line number, the key that sets it again and its line number)
    @pytest.mark.parametrize("command, text, first, second", [
        ("train", "steps=3\n# four\nsteps=4\n", ("steps", 1), ("steps", 3)),
        ("train", "lr=0.5\ntrain.base_lr=0.2\n", ("lr", 1), ("train.base_lr", 2)),
        ("train", "train.loss.arc_margin=0.1\narc-margin-deg=30\n",
         ("train.loss.arc_margin", 1), ("arc-margin-deg", 2)),
        ("sweep", "seed=1\nseeds=0,1\n", ("seed", 1), ("seeds", 2)),
        ("sweep", "seeds=0,1\n\nnum-seeds=2\n", ("seeds", 1), ("num-seeds", 3)),
        ("eval", "dataset.kind=rings\ndataset=blobs\n", ("dataset.kind", 1), ("dataset", 2)),
    ])
    def test_field_set_twice_names_both_lines(self, tmp_path, capsys, command, text,
                                              first, second):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(text)
        out = tmp_path / "x"
        code, _, stderr = run_cli([command, "--config", str(cfg), "--out", str(out)], capsys)
        assert code == 2
        assert stderr == (f"error: {cfg}:{second[1]}: {second[0]!r} sets the same field as "
                          f"{first[0]!r} on line {first[1]}\n")
        assert not out.exists()

    def test_sweep_seed_and_num_seeds_set_seeds_together(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("seed=5\nnum-seeds=2\n")
        args = build_parser().parse_args(["sweep", "--config", str(cfg), "--seed", "7"])
        assert _config(args, "sweep")[0].seeds == (7, 8)


class TestEval:
    def train_once(self, tmp_path, capsys, seed="3"):
        out = tmp_path / "trained"
        args = ["train", *TINY, "--loss", "softmax", "--sigma", "2.5",
                "--seed", seed, "--out", str(out)]
        code, _, _ = run_cli(args, capsys)
        assert code == 0
        return out

    def test_reproduces_training_evaluation_exactly(self, tmp_path, capsys):
        trained = self.train_once(tmp_path, capsys)
        out = tmp_path / "reeval"
        code, _, _ = run_cli(
            ["eval", "--checkpoint", str(trained / "checkpoint.txt"),
             "--dataset", "blobs", "--num-classes", "3", "--per-class", "20",
             "--dim", "4", "--seed", "3", "--out", str(out)],
            capsys,
        )
        assert code == 0
        for name in ("scores_train.json", "scores_test.json",
                     "hist_test.csv", "embeddings_test.npz"):
            assert (out / name).read_bytes() == (trained / name).read_bytes()

    def test_unscorable_split_writes_no_split_files(self, tmp_path, capsys):
        # 4 rows a class: at the default train fraction the test split holds
        # one row of each class, so it has no positive pairs to score.
        table = tmp_path / "small.csv"
        rng = np.random.default_rng(0)
        save_delimited(Dataset(rng.normal(size=(12, 3)), np.arange(12) % 3, 3), table)
        dataset = ["--dataset", f"file:{table}"]
        model = [*dataset, "--hidden-dims", "8", "--embedding-dim", "4", "--steps", "5"]
        trained = tmp_path / "trained"
        code, _, _ = run_cli(["train", *model, "--train-fraction", "0.5",
                              "--out", str(trained)], capsys)
        assert code == 0
        runs = {"eval": [*dataset, "--checkpoint", str(trained / "checkpoint.txt")],
                "train": model}
        for command, args in runs.items():
            out = tmp_path / command
            code, _, err = run_cli([command, *args, "--out", str(out)], capsys)
            assert code == 2
            assert "no positive pairs" in err
            written = [p.name for p in out.glob("*")
                       if p.name.startswith(("hist_", "scores_", "embeddings_"))]
            assert written == []

    def test_unscorable_split_fails_before_training(self, tmp_path, capsys, monkeypatch):
        # The same 12-row, 3-class table: at the default train fraction its
        # test split holds 3 rows, one of each class. train, eval and each
        # sweep row fail on it, naming the split, before any training.
        table = tmp_path / "small.csv"
        rng = np.random.default_rng(0)
        save_delimited(Dataset(rng.normal(size=(12, 3)), np.arange(12) % 3, 3), table)
        dataset = ["--dataset", f"file:{table}"]
        trained = tmp_path / "trained"
        code, _, _ = run_cli(["train", *dataset, "--train-fraction", "0.5", "--steps", "5",
                              "--out", str(trained)], capsys)
        assert code == 0

        def trainer_called(*args):
            raise AssertionError("the trainer was called")

        monkeypatch.setattr(runner, "train", trainer_called)
        named = "the test split has 3 rows in 3 classes, so no positive pairs"
        runs = {"train": [*dataset, "--steps", "5"],
                "eval": [*dataset, "--checkpoint", str(trained / "checkpoint.txt")]}
        for command, args in runs.items():
            out = tmp_path / command
            code, _, err = run_cli([command, *args, "--out", str(out)], capsys)
            assert code == 2
            assert named in err and "--train-fraction 0.8" in err
            assert not out.exists()
        with pytest.raises(ConfigError, match="test split has 5 rows in 5 classes.*--per-class"):
            runner.run_experiment(ExperimentConfig(dataset=DatasetConfig(per_class=5),
                                                   train=TrainConfig(steps=5)))
        sweep = SweepConfig(losses=("softmax", "haseparator"), seeds=(0, 1), experiment=(
            ExperimentConfig(dataset=DatasetConfig(kind=f"file:{table}"),
                             train=TrainConfig(steps=5))))
        records = runner.run_sweep(sweep)
        assert len(records) == 4
        assert all(r.error.startswith(f"ConfigError: {named}") for r in records)
        assert all("--train-fraction 0.8" in r.error for r in records)
        # A class of one row stays in the train split: the test split has one class.
        save_delimited(Dataset(rng.normal(size=(11, 3)), np.arange(11) // 10, 2), table)
        with pytest.raises(ConfigError, match="test split has 2 rows in 1 classes, so no negative"):
            runner.run_experiment(ExperimentConfig(dataset=DatasetConfig(kind=f"file:{table}"),
                                                   train=TrainConfig(steps=5)))

    def test_negative_seed_rejected_before_the_evaluation(self, tmp_path, capsys):
        trained = self.train_once(tmp_path, capsys)
        out = tmp_path / "eval"
        code, _, err = run_cli(
            ["eval", *TINY[:8], "--checkpoint", str(trained / "checkpoint.txt"),
             "--seed", "-1", "--out", str(out)],
            capsys,
        )
        assert code == 2
        assert "seed" in err and "-1" in err
        assert not out.exists()

    def test_dimension_mismatch_reported(self, tmp_path, capsys):
        trained = self.train_once(tmp_path, capsys)
        code, _, stderr = run_cli(
            ["eval", "--checkpoint", str(trained / "checkpoint.txt"),
             "--dataset", "blobs", "--num-classes", "3", "--per-class", "20",
             "--dim", "5", "--out", str(tmp_path / "bad")],
            capsys,
        )
        assert code == 2
        assert "input dim" in stderr

    def test_class_count_mismatch_reported(self, tmp_path, capsys):
        trained = self.train_once(tmp_path, capsys)
        code, _, stderr = run_cli(
            ["eval", "--checkpoint", str(trained / "checkpoint.txt"),
             "--dataset", "blobs", "--num-classes", "4", "--per-class", "20",
             "--dim", "4", "--out", str(tmp_path / "bad")],
            capsys,
        )
        assert code == 2
        assert "classes" in stderr

    def test_corrupt_checkpoint_reported(self, tmp_path, capsys):
        bad = tmp_path / "checkpoint.txt"
        bad.write_text("not a checkpoint\n")
        code, _, stderr = run_cli(
            ["eval", "--checkpoint", str(bad), "--out", str(tmp_path / "x")], capsys
        )
        assert code == 2
        assert stderr.startswith("error:")

    def test_missing_checkpoint_reported(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["eval", "--checkpoint", str(tmp_path / "absent.txt"),
             "--out", str(tmp_path / "x")],
            capsys,
        )
        assert code == 2


class TestSweep:
    SWEEP = ["sweep", *TINY, "--loss", "softmax,haseparator", "--sigma", "3.0",
             "--margin", "0.4,0.8", "--num-seeds", "2", "--seed", "5",
             "--jobs", "1"]

    def test_grid_written_with_derived_seeds(self, tmp_path, capsys):
        out = tmp_path / "sweep"
        code, stdout, _ = run_cli([*self.SWEEP, "--out", str(out)], capsys)
        assert code == 0
        assert "8 rows" in stdout
        records = read_sweep_csv(out / "sweep.csv")
        assert len(records) == 2 * 1 * 2 * 2
        assert {r.seed for r in records} == {5, 6}
        assert (out / "config.txt").exists()
        assert all(r.error == "" for r in records)

    def test_rerun_identical_except_wall_time(self, tmp_path, capsys):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert run_cli([*self.SWEEP, "--out", str(out_a)], capsys)[0] == 0
        assert run_cli([*self.SWEEP, "--out", str(out_b)], capsys)[0] == 0
        with open(out_a / "sweep.csv") as fa, open(out_b / "sweep.csv") as fb:
            rows_a, rows_b = list(csv.DictReader(fa)), list(csv.DictReader(fb))
        assert len(rows_a) == len(rows_b)
        for row_a, row_b in zip(rows_a, rows_b):
            row_a.pop("wall_time_s")
            row_b.pop("wall_time_s")
            assert row_a == row_b

    def test_softmax_margins_train_once_per_seed(self, tmp_path, capsys, monkeypatch):
        trained = []
        train = runner.train
        monkeypatch.setattr(runner, "train", lambda m, *a: trained.extend(m) or train(m, *a))
        out = tmp_path / "sweep"
        code, _, _ = run_cli(
            ["sweep", *TINY, "--loss", "softmax", "--margin", "0.2,0.5,0.8",
             "--num-seeds", "2", "--jobs", "1", "--out", str(out)],
            capsys,
        )
        assert code == 0
        assert len(trained) == 2
        records = read_sweep_csv(out / "sweep.csv")
        assert [(r.margin, r.seed) for r in records] == [
            (m, s) for m in (0.2, 0.5, 0.8) for s in (0, 1)
        ]
        for r in records:
            assert (r.d_em, r.accuracy) == (records[r.seed].d_em, records[r.seed].accuracy)

    def test_failed_cells_reported_on_stderr(self, tmp_path, capsys):
        code, _, stderr = run_cli(
            ["sweep", *TINY, "--loss", "haseparator", "--margin", "0.5,1.5",
             "--jobs", "1", "--out", str(tmp_path / "sweep")],
            capsys,
        )
        assert code == 0
        assert "1 runs failed" in stderr


def write_points(path, rows=40, dim=3, classes=2) -> None:
    rng = np.random.default_rng(0)
    data = Dataset(rng.normal(size=(rows, dim)), rng.integers(0, classes, size=rows), classes)
    save_delimited(data, path)


def echo_lines(path) -> dict[str, str]:
    return dict(line.split("=", 1) for line in Path(path).read_text().splitlines())


# Valid configs whose config.txt must echo and replay exactly: None steps or
# epochs, empty and one-element tuples, values holding "#" and ", ", and
# edge floats. nan is left out, because a replayed nan never equals itself;
# the dataset settings and weight_decay must also be finite, while the sweep
# grid's sigmas and margins keep their infinities.
echo_floats = st.one_of(
    st.sampled_from([-0.0, 5e-324, -2.5e-310, 1.7976931348623157e308, math.inf, -math.inf, 0.1]),
    st.floats(allow_nan=False),
)
finite_echo_floats = echo_floats.filter(math.isfinite)
positive_floats = st.floats(min_value=5e-324, allow_nan=False, allow_infinity=False)
train_settings = dict(
    batch_size=st.integers(1, 10**4),
    base_lr=positive_floats,
    lr_drop_points=st.lists(st.integers(0, 10**6), max_size=2, unique=True).map(
        lambda points: tuple(sorted(points))),
    lr_drop_factor=positive_floats,
    momentum=st.floats(0, 1, exclude_max=True),
    weight_decay=st.floats(min_value=0, allow_nan=False, allow_infinity=False),
    loss=st.builds(
        LossConfig,
        loss_kind=st.sampled_from(LOSS_KINDS),
        sigma=positive_floats,
        margin=st.floats(0, 1, exclude_min=True),
        arc_margin=st.floats(0, math.pi / 2, exclude_max=True),
    ),
)
experiment_configs = st.builds(
    ExperimentConfig,
    dataset=st.builds(
        DatasetConfig,
        kind=st.sampled_from(["blobs", "rings", "file:d#1/data.csv", "file:a, b.csv"]),
        num_classes=st.integers(), per_class=st.integers(), dim=st.integers(),
        center_radius=finite_echo_floats, stddev=finite_echo_floats,
        noise=finite_echo_floats,
        train_fraction=st.floats(0, 1, exclude_min=True, exclude_max=True),
    ),
    hidden_dims=st.lists(st.integers(1, 10**4), max_size=2).map(tuple),
    embedding_dim=st.integers(1, 10**4),
    train=st.one_of(
        st.builds(TrainConfig, steps=st.integers(0, 10**6), **train_settings),
        st.builds(TrainConfig, epochs=st.integers(0, 10**6), **train_settings),
    ),
    bins=st.integers(2, 10**6),
    max_pairs=st.integers(1, 10**9),
    seed=st.integers(min_value=0),
)
sweep_configs = st.builds(
    SweepConfig,
    losses=st.lists(st.sampled_from(LOSS_KINDS), min_size=1, unique=True).map(tuple),
    sigmas=st.lists(echo_floats, min_size=1, max_size=2, unique=True).map(tuple),
    margins=st.lists(echo_floats, min_size=1, max_size=2, unique=True).map(tuple),
    seeds=st.lists(st.integers(), min_size=1, max_size=2, unique=True).map(tuple),
    experiment=experiment_configs,
    jobs=st.integers(1, 64),
)


class TestReplay:
    """A run's config.txt is a --config file that reproduces the run."""

    def test_train_replays_every_artifact(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        write_points(points)
        run, replay = tmp_path / "run", tmp_path / "replay"
        code, _, _ = run_cli(
            ["train", "--dataset", f"file:{points}", "--hidden-dims", "8,6",
             "--embedding-dim", "4", "--batch-size", "16", "--epochs", "3",
             "--lr-drop-points", "2,4", "--loss", "arcface", "--arc-margin-deg", "20",
             "--seed", "3", "--out", str(run)],
            capsys,
        )
        assert code == 0
        echo = echo_lines(run / "config.txt")
        assert echo["train.epochs"] == "3" and echo["train.steps"] == "None"
        assert echo["train.lr_drop_points"] == "2,4"
        assert float(echo["train.loss.arc_margin"]) == math.radians(20)
        assert "train.seed" not in echo
        code, _, _ = run_cli(
            ["train", "--config", str(run / "config.txt"), "--out", str(replay)], capsys
        )
        assert code == 0
        names = sorted(p.name for p in run.iterdir())
        assert names == sorted(p.name for p in replay.iterdir())
        for name in names:
            assert (replay / name).read_bytes() == (run / name).read_bytes(), name

    def test_eval_replays_train_evaluation(self, tmp_path, capsys):
        points = tmp_path / "points.csv"
        write_points(points, rows=60, classes=3)
        run, replay = tmp_path / "run", tmp_path / "replay"
        code, _, _ = run_cli(
            ["train", "--dataset", f"file:{points}", "--hidden-dims", "8",
             "--embedding-dim", "4", "--steps", "20", "--batch-size", "16",
             "--loss", "haseparator", "--max-pairs", "500", "--bins", "30",
             "--seed", "4", "--out", str(run)],
            capsys,
        )
        assert code == 0
        code, _, _ = run_cli(
            ["eval", "--config", str(run / "config.txt"),
             "--checkpoint", str(run / "checkpoint.txt"), "--out", str(replay)],
            capsys,
        )
        assert code == 0
        for split in ("train", "test"):
            for name in (f"scores_{split}.json", f"hist_{split}.csv",
                         f"embeddings_{split}.npz"):
                assert (replay / name).read_bytes() == (run / name).read_bytes(), name

    def test_sweep_replays_its_rows(self, tmp_path, capsys):
        sweep, replay = tmp_path / "sweep", tmp_path / "replay"
        code, _, _ = run_cli(
            ["sweep", *TINY, "--loss", "arcface,haseparator", "--sigma", "2,4",
             "--margin", "0.3", "--seed", "7", "--num-seeds", "2", "--jobs", "1",
             "--out", str(sweep)],
            capsys,
        )
        assert code == 0
        code, _, _ = run_cli(
            ["sweep", "--config", str(sweep / "config.txt"), "--out", str(replay)], capsys
        )
        assert code == 0
        assert (replay / "config.txt").read_bytes() == (sweep / "config.txt").read_bytes()
        first, second = read_sweep_csv(sweep / "sweep.csv"), read_sweep_csv(replay / "sweep.csv")
        assert len(first) == 8 and {r.seed for r in first} == {7, 8}
        for a, b in zip(first, second, strict=True):
            a.wall_time_s = b.wall_time_s = 0.0
            assert a == b

    def test_train_replays_a_path_holding_hash(self, tmp_path, capsys):
        # "#" starts a comment only at the start of a line or after
        # whitespace, so the echoed path is read back whole
        points = tmp_path / "d#1" / "data.csv"
        points.parent.mkdir()
        write_points(points)
        run, replay = tmp_path / "run", tmp_path / "replay"
        code, _, _ = run_cli(
            ["train", "--dataset", f"file:{points}", "--hidden-dims", "8",
             "--embedding-dim", "4", "--steps", "10", "--batch-size", "16",
             "--out", str(run)],
            capsys,
        )
        assert code == 0
        assert echo_lines(run / "config.txt")["dataset.kind"] == f"file:{points}"
        code, _, _ = run_cli(
            ["train", "--config", str(run / "config.txt"), "--out", str(replay)], capsys
        )
        assert code == 0
        names = sorted(p.name for p in run.iterdir())
        assert names == sorted(p.name for p in replay.iterdir())
        for name in names:
            assert (replay / name).read_bytes() == (run / name).read_bytes(), name

    @pytest.mark.parametrize("path", ["my runs #2/data.csv", "data.csv ", "data.csv\t",
                                      "a\nb/data.csv", "a\tb #c.csv"])
    @pytest.mark.parametrize("command", ["train", "sweep"])
    def test_rejects_a_path_that_config_txt_cannot_give_back(
        self, tmp_path, capsys, monkeypatch, command, path
    ):
        # The file exists, so only the config check can fail the command.
        monkeypatch.chdir(tmp_path)
        (tmp_path / path).parent.mkdir(parents=True, exist_ok=True)
        write_points(tmp_path / path)
        code, _, err = run_cli(
            [command, "--dataset", f"file:{path}", "--steps", "5", "--out", "run"], capsys
        )
        assert code == 2
        assert repr(f"file:{path}") in err
        assert not (tmp_path / "run").exists()

    @given(config=st.one_of(experiment_configs, sweep_configs))
    @settings(max_examples=100, deadline=None)
    def test_echo_bytes_and_replay_of_any_config(self, tmp_path_factory, config):
        out = tmp_path_factory.mktemp("echo")
        write_config_echo(config, out / "new.txt")
        per_value_write_config_echo(config, out / "old.txt")
        assert (out / "new.txt").read_bytes() == (out / "old.txt").read_bytes()
        command = "sweep" if isinstance(config, SweepConfig) else "train"
        args = build_parser().parse_args([command, "--config", str(out / "new.txt")])
        assert _config(args, command)[0] == config

    def test_flag_keys_and_echo_keys_build_equal_configs(self, tmp_path):
        flag_file = tmp_path / "flags.cfg"
        flag_file.write_text(
            "dataset=rings\nper-class=30\nnoise=0.2\nhidden-dims=8\nembedding-dim=6\n"
            "epochs=2\nbatch-size=8\nlr=0.05\nlr-drop-points=1\nmomentum=0.5\n"
            "loss=arcface\nsigma=4\narc-margin-deg=30\nbins=90\nmax-pairs=500\nseed=4\n"
        )
        parser = build_parser()
        from_flags, _ = _config(parser.parse_args(["train", "--config", str(flag_file)]), "train")
        echo = tmp_path / "config.txt"
        write_config_echo(from_flags, echo)
        from_echo, _ = _config(parser.parse_args(["train", "--config", str(echo)]), "train")
        assert from_echo == from_flags
        assert from_flags.train.steps is None and from_flags.train.epochs == 2
        assert from_flags.train.loss.arc_margin == math.radians(30)
        assert from_flags.dataset.kind == "rings" and from_flags.seed == 4

    def test_flag_overrides_echo_key(self, tmp_path):
        echo = tmp_path / "config.txt"
        write_config_echo(_config(build_parser().parse_args(["train"]), "train")[0], echo)
        args = build_parser().parse_args(
            ["train", "--config", str(echo), "--sigma", "7", "--arc-margin-deg", "10"]
        )
        config, _ = _config(args, "train")
        assert config.train.loss.sigma == 7.0
        assert config.train.loss.arc_margin == math.radians(10)


# The flags of each subcommand before they were derived from the config
# dataclasses; deriving them must neither add nor drop one.
SUBCOMMAND_FLAGS = {
    "train": {
        "--arc-margin-deg", "--batch-size", "--bins", "--center-radius", "--config",
        "--dataset", "--dim", "--embedding-dim", "--epochs", "--hidden-dims", "--loss",
        "--lr", "--lr-drop-factor", "--lr-drop-points", "--margin", "--max-pairs",
        "--momentum", "--noise", "--num-classes", "--out", "--per-class", "--seed",
        "--sigma", "--stddev", "--steps", "--train-fraction", "--weight-decay",
    },
    "sweep": {
        "--batch-size", "--bins", "--center-radius", "--config", "--dataset", "--dim",
        "--embedding-dim", "--epochs", "--hidden-dims", "--jobs", "--loss", "--lr",
        "--lr-drop-factor", "--lr-drop-points", "--margin", "--max-pairs", "--momentum",
        "--noise", "--num-classes", "--num-seeds", "--out", "--per-class", "--seed",
        "--sigma", "--stddev", "--steps", "--train-fraction", "--weight-decay",
    },
    "eval": {
        "--bins", "--center-radius", "--checkpoint", "--config", "--dataset", "--dim",
        "--max-pairs", "--noise", "--num-classes", "--out", "--per-class", "--seed",
        "--stddev", "--train-fraction",
    },
}


def test_subcommand_flags_unchanged():
    subparsers = next(
        a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)
    )
    for command, expected in SUBCOMMAND_FLAGS.items():
        actions = subparsers.choices[command]._actions
        flags = {o for a in actions for o in a.option_strings} - {"-h", "--help"}
        assert flags == expected, command


SWEEP_HEADER = "loss,sigma,margin,seed,accuracy,d_kl,d_em,final_c_t,wall_time_s,error\n"
SWEEP_ROW = "softmax,3,0.5,0,0.75,1.5,40.25,0.1,0.02,\n"


class TestSummarize:
    # haseparator at margin 1.5 fails its LossConfig check, so that group is
    # all errors; softmax first, so first-seen order is not sorted order
    SWEEP = ["sweep", *TINY, "--loss", "softmax,haseparator", "--margin", "0.5,1.5",
             "--num-seeds", "2", "--jobs", "1"]

    @pytest.fixture(scope="class")
    def sweeps(self, tmp_path_factory):
        paths = []
        for name in ("a", "b"):
            out = tmp_path_factory.mktemp(name)
            assert main([*self.SWEEP, "--out", str(out)]) == 0
            paths.append(out / "sweep.csv")
        return paths

    def test_one_row_per_group_with_means_of_finished_runs(self, sweeps, tmp_path, capsys):
        # a failed row with finite scores, so averaging it in would show
        injected = tmp_path / "injected.csv"
        injected.write_text(SWEEP_HEADER + "haseparator,3,0.5,9,0.5,1,99,0.1,0.01,injected\n")
        paths = [*sweeps, injected]
        code, stdout, _ = run_cli(["summarize", *map(str, paths)], capsys)
        assert code == 0
        header, *lines = stdout.splitlines()
        assert header.split() == ["loss", "sigma", "margin", "runs", "failed",
                                  "d_em", "d_kl", "accuracy"]
        groups = {}
        for path in paths:
            for r in read_sweep_csv(path):
                groups.setdefault((r.loss_kind, r.sigma, r.margin), []).append(r)
        assert len(lines) == len(groups) == 4
        for line, ((loss, sigma, margin), rows) in zip(lines, groups.items()):
            ok = [r for r in rows if not r.error]
            means = [np.mean([getattr(r, name) for r in ok]) if ok else math.nan
                     for name in ("d_em", "d_kl", "accuracy")]
            assert line.split() == [loss, f"{sigma:g}", f"{margin:g}", str(len(rows)),
                                    str(len(rows) - len(ok)), *(f"{m:.4f}" for m in means)]
        assert [line.split()[3:5] for line in lines] == [
            ["4", "0"], ["4", "0"], ["5", "1"], ["4", "4"]]
        assert lines[3].split()[5:] == ["nan"] * 3

    def test_output_ignores_wall_time(self, sweeps, capsys):
        outputs = [run_cli(["summarize", str(path)], capsys)[1] for path in sweeps]
        assert outputs[0] == outputs[1]

    def test_missing_file_reported(self, tmp_path, capsys):
        code, _, stderr = run_cli(["summarize", str(tmp_path / "absent.csv")], capsys)
        assert code == 2
        assert stderr.startswith("error:")

    def test_missing_column_names_path_and_line(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        path.write_text(SWEEP_HEADER.replace("d_kl,", "") + SWEEP_ROW.replace("1.5,", ""))
        code, _, stderr = run_cli(["summarize", str(path)], capsys)
        assert code == 2
        assert stderr.startswith(f"error: {path}:1:") and "d_kl" in stderr

    def test_unparsable_cell_names_path_and_line(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        path.write_text(SWEEP_HEADER + SWEEP_ROW + SWEEP_ROW.replace(",3,", ",three,"))
        code, _, stderr = run_cli(["summarize", str(path)], capsys)
        assert code == 2
        assert stderr.startswith(f"error: {path}:3:") and "'sigma'" in stderr

    def test_non_utf8_file_names_path(self, tmp_path, capsys):
        path = tmp_path / "sweep.csv"
        path.write_bytes(b"\xff\xfe" + (SWEEP_HEADER + SWEEP_ROW).encode("utf-16-le"))
        with pytest.raises(DataFormatError, match=re.escape(str(path))):
            read_sweep_csv(path)
        code, _, stderr = run_cli(["summarize", str(path)], capsys)
        assert code == 2
        assert stderr.startswith(f"error: {path}:")

    @pytest.mark.parametrize("row", [SWEEP_ROW[:-2] + "\n", SWEEP_ROW[:-1] + ",extra\n"],
                             ids=["short", "long"])
    def test_ragged_row_names_path_and_line(self, tmp_path, capsys, row):
        path = tmp_path / "sweep.csv"
        path.write_text(SWEEP_HEADER + row)
        code, _, stderr = run_cli(["summarize", str(path)], capsys)
        assert code == 2
        assert stderr.startswith(f"error: {path}:2:")


def readme_commands() -> list[str]:
    """Every `haseparator ...` command in the README's sh blocks, with
    backslash-continued lines joined."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    commands = []
    for block in re.findall(r"```sh\n(.*?)```", text, flags=re.DOTALL):
        for line in block.replace("\\\n", " ").splitlines():
            if line.strip().startswith("haseparator "):
                commands.append(line.split("#", 1)[0].strip())
    return commands


def test_readme_commands_parse():
    commands = readme_commands()
    assert {shlex.split(c)[1] for c in commands} >= {"train", "sweep", "eval", "summarize"}
    parser = build_parser()
    for command in commands:
        try:
            parser.parse_args(shlex.split(command)[1:])
        except SystemExit:
            pytest.fail(f"README command does not parse: {command}")

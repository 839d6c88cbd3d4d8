import math
import os
from dataclasses import replace

import numpy as np
import pytest

from haseparator.data import Dataset, save_delimited
from haseparator.errors import ConfigError
from haseparator.losses import LossConfig
from haseparator.runner import (
    DatasetConfig,
    ExperimentConfig,
    SweepConfig,
    build_datasets,
    default_seeds,
    read_sweep_csv,
    run_experiment,
    run_sweep,
    write_config_echo,
    write_embeddings_csv,
    write_sweep_csv,
)
from haseparator.trainer import TrainConfig

from helpers import read_embeddings_csv


def tiny_experiment(seed=0, loss_kind="softmax", **loss_kw):
    return ExperimentConfig(
        dataset=DatasetConfig(kind="blobs", num_classes=3, per_class=20, dim=4),
        hidden_dims=(8,),
        embedding_dim=6,
        train=TrainConfig(
            steps=30, batch_size=16, loss=LossConfig(loss_kind=loss_kind, **loss_kw)
        ),
        seed=seed,
    )


class TestDatasetConfig:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            DatasetConfig(kind="spirals")

    def test_file_kind_accepted(self):
        DatasetConfig(kind="file:/tmp/x.csv")


class TestExperimentConfig:
    @pytest.mark.parametrize("field", [{"bins": 1}, {"max_pairs": 0}])
    def test_evaluation_settings_rejected_before_training(self, field):
        with pytest.raises(ConfigError):
            ExperimentConfig(**field)


class TestBuildDatasets:
    def test_blobs_deterministic_for_seed(self):
        a_train, _ = build_datasets(DatasetConfig(), seed=3)
        b_train, _ = build_datasets(DatasetConfig(), seed=3)
        np.testing.assert_array_equal(a_train.features, b_train.features)

    def test_file_kind_loads_and_splits(self, tmp_path):
        rng = np.random.default_rng(1)
        full = Dataset(rng.normal(size=(30, 3)), rng.integers(0, 2, size=30), 2, "train")
        path = tmp_path / "data.csv"
        save_delimited(full, path)
        train, test = build_datasets(DatasetConfig(kind=f"file:{path}"), seed=0)
        assert len(train) + len(test) == 30
        assert train.dim == 3


class TestRunExperiment:
    def test_scores_for_both_splits(self):
        result = run_experiment(tiny_experiment())
        assert set(result.scores) == {"train", "test"}
        for scores in result.scores.values():
            assert 0.0 <= scores.accuracy <= 1.0
            assert scores.d_kl >= 0.0
            assert 0.0 <= scores.d_em <= 180.0

    def test_deterministic_scores(self):
        a = run_experiment(tiny_experiment(seed=5))
        b = run_experiment(tiny_experiment(seed=5))
        assert a.scores == b.scores

    def test_artifacts_byte_identical_across_runs(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        run_experiment(tiny_experiment(seed=6), out_dir=out_a)
        run_experiment(tiny_experiment(seed=6), out_dir=out_b)
        names = sorted(os.listdir(out_a))
        assert names == sorted(os.listdir(out_b))
        assert names == [
            "checkpoint.txt", "config.txt", "embeddings_test.csv",
            "embeddings_train.csv", "hist_test.csv", "hist_train.csv",
            "report.csv", "scores_test.json", "scores_train.json",
        ]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_same_seed_same_dataset_across_losses(self):
        soft = run_experiment(tiny_experiment(seed=7, loss_kind="softmax"))
        hasep = run_experiment(tiny_experiment(seed=7, loss_kind="haseparator", margin=0.9))
        np.testing.assert_array_equal(soft.train_data.features, hasep.train_data.features)
        np.testing.assert_array_equal(soft.test_data.labels, hasep.test_data.labels)

    def test_rings_mlp_beats_95_percent(self):
        config = ExperimentConfig(
            dataset=DatasetConfig(kind="rings", per_class=200),
            hidden_dims=(32, 32),
            embedding_dim=16,
            train=TrainConfig(
                steps=300, batch_size=64, base_lr=0.1,
                loss=LossConfig(loss_kind="softmax", sigma=3.0),
            ),
            seed=0,
        )
        result = run_experiment(config)
        assert result.scores["test"].accuracy > 0.95


class TestEmbeddingsCsv:
    def test_round_trip(self, tmp_path):
        rng = np.random.default_rng(2)
        emb = rng.normal(size=(7, 5))
        labels = rng.integers(0, 3, size=7)
        path = tmp_path / "emb.csv"
        write_embeddings_csv(emb, labels, path)
        assert path.read_text().splitlines()[0] == "5"
        loaded, loaded_labels = read_embeddings_csv(path)
        np.testing.assert_array_equal(loaded, emb)
        np.testing.assert_array_equal(loaded_labels, labels)


class TestConfigEcho:
    def test_flat_keys_and_values(self, tmp_path):
        path = tmp_path / "config.txt"
        write_config_echo(tiny_experiment(), path)
        lines = dict(line.split("=", 1) for line in path.read_text().splitlines())
        assert lines["dataset.kind"] == "blobs"
        assert lines["train.loss.loss_kind"] == "softmax"
        assert lines["hidden_dims"] == "8"
        assert float(lines["train.base_lr"]) == 0.1


class TestSweep:
    def test_grid_order_and_row_count(self):
        sweep = SweepConfig(
            losses=("softmax", "haseparator"),
            sigmas=(2.0, 3.0),
            margins=(0.5,),
            seeds=(0, 1),
            experiment=tiny_experiment(),
        )
        records = run_sweep(sweep)
        assert len(records) == 2 * 2 * 1 * 2
        expected = [
            (loss, sigma, 0.5, seed)
            for loss in ("softmax", "haseparator")
            for sigma in (2.0, 3.0)
            for seed in (0, 1)
        ]
        got = [(r.loss_kind, r.sigma, r.margin, r.seed) for r in records]
        assert got == expected
        assert all(r.error == "" for r in records)
        assert all(r.wall_time_s > 0 for r in records)

    def test_duplicate_grid_values_deduped_with_warning(self):
        with pytest.warns(UserWarning, match="duplicate"):
            sweep = SweepConfig(
                losses=("softmax",),
                sigmas=(3.0, 3.0),
                margins=(0.5,),
                seeds=(0,),
                experiment=tiny_experiment(),
            )
        assert sweep.sigmas == (3.0,)

    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(losses=(), experiment=tiny_experiment())

    def test_unknown_loss_rejected(self):
        with pytest.raises(ConfigError):
            SweepConfig(losses=("hinge",), experiment=tiny_experiment())

    def test_failed_runs_become_error_rows(self):
        sweep = SweepConfig(
            losses=("haseparator",),
            sigmas=(3.0,),
            margins=(0.5, 1.5),  # 1.5 is outside the valid margin range
            seeds=(0,),
            experiment=tiny_experiment(),
        )
        records = run_sweep(sweep)
        assert len(records) == 2
        assert records[0].error == ""
        assert records[1].error != ""
        assert math.isnan(records[1].accuracy)

    def test_parallel_matches_serial(self):
        base = dict(
            losses=("softmax", "haseparator"),
            sigmas=(3.0,),
            margins=(0.4, 0.8),
            seeds=(0,),
            experiment=tiny_experiment(),
        )
        serial = run_sweep(SweepConfig(**base, jobs=1))
        parallel = run_sweep(SweepConfig(**base, jobs=2))
        for a, b in zip(serial, parallel):
            assert (a.loss_kind, a.sigma, a.margin, a.seed) == (b.loss_kind, b.sigma, b.margin, b.seed)
            assert a.accuracy == b.accuracy
            assert a.d_kl == b.d_kl
            assert a.d_em == b.d_em
            assert a.final_c_t == b.final_c_t

    def test_softmax_rows_ignore_margin_axis(self):
        sweep = SweepConfig(
            losses=("softmax",),
            sigmas=(3.0,),
            margins=(0.2, 0.9),
            seeds=(0,),
            experiment=tiny_experiment(),
        )
        a, b = run_sweep(sweep)
        assert a.accuracy == b.accuracy and a.d_em == b.d_em

    def test_arcface_margin_drives_runs(self):
        sweep = SweepConfig(
            losses=("arcface",),
            sigmas=(3.0,),
            margins=(0.1, 1.0),
            seeds=(0,),
            experiment=tiny_experiment(),
        )
        a, b = run_sweep(sweep)
        assert a.error == "" and b.error == ""
        assert a.d_em != b.d_em  # different arc margins change the outcome

    def test_csv_round_trip(self, tmp_path):
        sweep = SweepConfig(
            losses=("softmax",), sigmas=(3.0,), margins=(0.5,), seeds=(0, 1),
            experiment=tiny_experiment(),
        )
        records = run_sweep(sweep)
        path = tmp_path / "sweep.csv"
        write_sweep_csv(records, path)
        loaded = read_sweep_csv(path)
        assert loaded == records


class TestDefaultSeeds:
    def test_base_plus_index(self):
        assert default_seeds(10, 3) == (10, 11, 12)

    def test_count_validated(self):
        with pytest.raises(ConfigError):
            default_seeds(0, 0)

import math
import os
import time
from dataclasses import replace

import numpy as np
import pytest

from haseparator import runner
from haseparator.data import ROW_CHUNK, Dataset, save_delimited
from haseparator.errors import ConfigError
from haseparator.losses import LOSS_KINDS, LossConfig
from haseparator.runner import (
    DatasetConfig,
    ExperimentConfig,
    SweepConfig,
    build_datasets,
    _cell_config,
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
from haseparator.trainer import TrainConfig

from helpers import assert_embeddings_npz


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
            "checkpoint.txt", "config.txt", "embeddings_test.npz",
            "embeddings_train.npz", "hist_test.csv", "hist_train.csv",
            "report.csv", "scores_test.json", "scores_train.json",
        ]
        for name in names:
            assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    def test_embeddings_artifacts_hold_the_evaluated_embeddings(self, tmp_path):
        config = tiny_experiment(seed=6)
        result = run_experiment(config, out_dir=tmp_path)
        seeds = derive_seeds(config.seed)
        for split, data in (("train", result.train_data), ("test", result.test_data)):
            embeddings = evaluate_model(result.model, data, bins=config.bins,
                                        max_pairs=config.max_pairs, seed=seeds[f"eval_{split}"])[2]
            assert_embeddings_npz(tmp_path / f"embeddings_{split}.npz", embeddings, data.labels)

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


class TestEmbeddingsNpz:
    def test_round_trip(self, tmp_path):
        # More rows than ROW_CHUNK, the block size of the text tables.
        rng = np.random.default_rng(2)
        emb = rng.normal(size=(2 * ROW_CHUNK + 7, 5))
        labels = rng.integers(0, 3, size=emb.shape[0])
        write_embeddings_csv(emb, labels, tmp_path / "emb.npz")
        assert_embeddings_npz(tmp_path / "emb.npz", emb, labels)


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

    def test_negative_seed_becomes_a_config_error_row(self):
        sweep = SweepConfig(losses=("softmax",), seeds=(-2, 0), experiment=tiny_experiment())
        records = run_sweep(sweep)
        assert records[0].error.startswith("ConfigError") and "-2" in records[0].error
        assert records[1].error == ""

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


def cell_row(template, loss, sigma, margin, seed):
    """What a sweep row should hold for one cell, from run_experiment."""
    try:
        result = run_experiment(_cell_config(template, loss, sigma, margin, seed))
    except Exception as exc:
        return f"{type(exc).__name__}: {exc}"
    test = result.scores["test"]
    return (test.accuracy.hex(), test.d_kl.hex(), test.d_em.hex(),
            result.report.records[-1].c_sep.hex())


def sweep_row(record):
    if record.error:
        return record.error
    return (record.accuracy.hex(), record.d_kl.hex(), record.d_em.hex(),
            record.final_c_t.hex())


class TestSweepStacks:
    """Cells of one loss kind train as one stacked model; every row must
    equal what run_experiment gives for its cell, bit for bit."""

    @pytest.mark.parametrize("jobs", [1, 2])
    def test_rows_equal_run_experiment(self, jobs):
        sweep = SweepConfig(losses=LOSS_KINDS, sigmas=(2.0, 4.0), margins=(0.3, 0.8),
                            seeds=(0, 1), experiment=tiny_experiment(), jobs=jobs)
        records = run_sweep(sweep)
        assert len(records) == 24
        for r in records:
            assert r.error == ""
            assert sweep_row(r) == cell_row(sweep.experiment, r.loss_kind, r.sigma,
                                            r.margin, r.seed)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_failed_cells_leave_the_other_rows_unchanged(self):
        # margin 1.5 is rejected before training; sigma 1e200 diverges
        # inside the stack.
        sweep = SweepConfig(losses=("haseparator", "arcface"), sigmas=(3.0, 1e200),
                            margins=(0.5, 1.5), seeds=(0, 1), experiment=tiny_experiment())
        records = run_sweep(sweep)
        rejected = [r for r in records if r.loss_kind == "haseparator" and r.margin == 1.5]
        diverged = [r for r in records if r.sigma == 1e200 and r not in rejected]
        assert rejected and all(r.error.startswith("ConfigError: margin") for r in rejected)
        assert diverged and all(
            r.error.startswith("DivergenceError: training diverged at step") for r in diverged
        )
        for r in records:
            assert sweep_row(r) == cell_row(sweep.experiment, r.loss_kind, r.sigma,
                                            r.margin, r.seed)
        assert sum(r.error == "" for r in records) == 6

    def test_evaluation_error_fails_only_its_row(self, monkeypatch):
        failing_seed = derive_seeds(1)["eval_test"]
        evaluate = runner.evaluate_model

        def flaky(model, dataset, bins, max_pairs, seed):
            if seed == failing_seed:
                raise ConfigError("evaluation failed")
            return evaluate(model, dataset, bins=bins, max_pairs=max_pairs, seed=seed)

        sweep = SweepConfig(losses=("haseparator",), margins=(0.4, 0.8), seeds=(0, 1),
                            experiment=tiny_experiment())
        expected = run_sweep(sweep)
        monkeypatch.setattr(runner, "evaluate_model", flaky)
        records = run_sweep(sweep)
        for got, want in zip(records, expected, strict=True):
            if got.seed == 1:
                assert got.error == "ConfigError: evaluation failed"
                assert math.isnan(got.d_em)
            else:
                assert sweep_row(got) == sweep_row(want)

    def test_stack_error_fails_only_the_failing_run(self, monkeypatch):
        # A stack-wide error that is not a divergence (a MemoryError, say)
        # sends each run to train alone; only the run that fails alone errs.
        failing_seed = derive_seeds(1)["train"]
        train = runner.train

        def fragile(model, dataset, config, seed):
            if isinstance(seed, list) or seed == failing_seed:
                raise MemoryError("out of memory")
            return train(model, dataset, config, seed)

        sweep = SweepConfig(losses=("haseparator",), margins=(0.4, 0.8), seeds=(0, 1),
                            experiment=tiny_experiment())
        expected = run_sweep(sweep)
        monkeypatch.setattr(runner, "train", fragile)
        records = run_sweep(sweep)
        for got, want in zip(records, expected, strict=True):
            if got.seed == 1:
                assert got.error == "MemoryError: out of memory"
            else:
                assert sweep_row(got) == sweep_row(want)

    def test_stack_scores_each_run_on_its_test_split_once(self, monkeypatch):
        scored = []
        evaluate = runner.evaluate_model

        def counted(model, dataset, **kwargs):
            scored.append(dataset.split)
            return evaluate(model, dataset, **kwargs)

        monkeypatch.setattr(runner, "evaluate_model", counted)
        configs = [runner._cell_config(tiny_experiment(), "haseparator", 3.0, margin, seed)
                   for margin in (0.4, 0.8) for seed in (0, 1)]
        outcomes = runner._run_stack(configs)
        assert all(isinstance(outcome, tuple) for outcome, _ in outcomes)
        assert scored == ["test"] * len(configs)

    def test_row_times_sum_within_busy_time(self):
        sweep = SweepConfig(losses=LOSS_KINDS, margins=(0.4, 0.8), seeds=(0, 1, 2),
                            experiment=tiny_experiment(), jobs=2)
        start = time.perf_counter()
        records = run_sweep(sweep)
        elapsed = time.perf_counter() - start
        assert all(r.wall_time_s > 0 for r in records)
        assert sum(r.wall_time_s for r in records) <= sweep.jobs * elapsed

    def test_distinct_runs_train_once_and_share_datasets(self, monkeypatch):
        trained, built = [], []
        train, build = runner.train, runner.build_datasets
        monkeypatch.setattr(runner, "train", lambda m, *a: trained.extend(m) or train(m, *a))
        monkeypatch.setattr(runner, "build_datasets",
                            lambda *a: built.append(a) or build(*a))
        sweep = SweepConfig(losses=("softmax", "haseparator"), margins=(0.2, 0.5, 0.8),
                            seeds=(0, 1), experiment=tiny_experiment())
        records = run_sweep(sweep)
        # 2 softmax runs (one per seed) and 6 haseparator runs; each loss
        # kind's stack builds one dataset per seed.
        assert len(trained) == 8
        assert len(built) == 4
        softmax = [r for r in records if r.loss_kind == "softmax"]
        assert len(softmax) == 6
        for r in softmax:
            twin = next(t for t in softmax if t.seed == r.seed)
            assert sweep_row(r) == sweep_row(twin)


class TestSweepWorkers:
    """A fork pool starts every worker it is given at the first submit, so a
    sweep asks for no more workers than it has stacks. A recording fake
    stands in for the pool, so these tests start no processes."""

    @pytest.fixture
    def pools(self, monkeypatch):
        requested = []

        class RecordingPool:
            def __init__(self, max_workers):
                requested.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(runner, "ProcessPoolExecutor", RecordingPool)
        return requested

    @pytest.mark.parametrize("losses, margins, jobs, expected", [
        (("softmax",), (0.5,), 8, []),  # one run: trained in this process
        (("haseparator",), (1.5,), 4, []),  # every cell fails set-up: no stacks
        (("softmax", "haseparator"), (0.5,), 2, [2]),
        (LOSS_KINDS, (0.5,), 8, [3]),
    ])
    def test_workers_bounded_by_stacks(self, pools, losses, margins, jobs, expected):
        sweep = SweepConfig(losses=losses, margins=margins, experiment=tiny_experiment(),
                            jobs=jobs)
        records = run_sweep(sweep)
        assert pools == expected
        for r in records:
            assert sweep_row(r) == cell_row(sweep.experiment, r.loss_kind, r.sigma,
                                            r.margin, r.seed)


class TestDefaultSeeds:
    def test_base_plus_index(self):
        assert default_seeds(10, 3) == (10, 11, 12)

    def test_count_validated(self):
        with pytest.raises(ConfigError):
            default_seeds(0, 0)

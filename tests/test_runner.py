import concurrent.futures
import copy
import math
import os
import subprocess
import sys
import time
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haseparator import errors, runner
from haseparator.data import ROW_CHUNK, Dataset, save_delimited
from haseparator.errors import ConfigError
from haseparator.losses import LOSS_KINDS, LossConfig
from haseparator.model import init_model
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

    def test_file_kind_without_a_path_rejected(self):
        with pytest.raises(ConfigError, match="names no file"):
            DatasetConfig(kind="file:")


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
        full = Dataset(rng.normal(size=(30, 3)), rng.integers(0, 2, size=30), 2)
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


class TestEvaluateModel:
    def test_embeds_without_a_backward_trace(self):
        # Each 5000 x 512 hidden array is 19.5 MiB. Embedding through the
        # training forward kept every layer's arrays and traced 88.0 MiB;
        # holding one layer's input, product and sum traces 58.7 MiB.
        rng = np.random.default_rng(4)
        data = Dataset(rng.normal(size=(5000, 64)), np.arange(5000) % 10, 10)
        model = init_model((64, 512, 512, 128), 10, seed=4)
        tracemalloc.start()
        try:
            evaluate_model(model, data, seed=4)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 64 * 2**20

    @pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
    def test_accuracy_reads_rows_whose_norm_overflows(self):
        # Scaling the last layer by 2**1000 scales each embedding exactly,
        # and its squared norm overflows. The scores read directions, so
        # accuracy must not move; a normalize that zeroes such rows scored
        # every row as class 0.
        result = run_experiment(tiny_experiment())
        model = copy.deepcopy(result.model)
        model.weights[-1] *= 2.0**1000
        model.biases[-1] *= 2.0**1000
        _, scores, embeddings = evaluate_model(model, result.test_data)
        assert np.isinf(np.sum(embeddings * embeddings, axis=1)).all()
        assert np.mean(result.test_data.labels == 0) < result.scores["test"].accuracy
        assert scores.accuracy == result.scores["test"].accuracy

    def test_accuracy_reads_class_columns_whose_norm_overflows(self):
        # A class column scaled by 2**1000 keeps its direction, and its
        # squared norm overflows. A normalize that zeroed it scored 0.65 for
        # 0.75 here and printed numpy's overflow warning.
        config = replace(tiny_experiment(), dataset=DatasetConfig(num_classes=5, per_class=20))
        result = run_experiment(config)
        for column in range(5):
            model = copy.deepcopy(result.model)
            model.class_weights[:, column] *= 2.0**1000
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                _, scores, _ = evaluate_model(model, result.test_data)
            assert scores.accuracy == result.scores["test"].accuracy


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


def stack_rows(configs):
    """runner._run_stack's outcome for each config, as cell_row gives it."""
    return [outcome["error"] if "error" in outcome else
            tuple(outcome[name].hex() for name in ("accuracy", "d_kl", "d_em", "final_c_t"))
            for outcome, _ in runner._run_stack(configs)]


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
                assert got.error == "ConfigError: test split: evaluation failed"
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
            scored.append(dataset.features.tobytes())
            return evaluate(model, dataset, **kwargs)

        monkeypatch.setattr(runner, "evaluate_model", counted)
        configs = [runner._cell_config(tiny_experiment(), "haseparator", 3.0, margin, seed)
                   for margin in (0.4, 0.8) for seed in (0, 1)]
        outcomes = runner._run_stack(configs)
        assert all("error" not in outcome for outcome, _ in outcomes)
        tests = [runner.build_datasets(c.dataset, runner.derive_seeds(c.seed)["data"])[1]
                 for c in configs]
        assert scored == [test.features.tobytes() for test in tests]

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.filterwarnings("ignore:excluded .* zero embeddings:UserWarning")
    @given(kind=st.sampled_from(LOSS_KINDS), classes=st.integers(2, 3),
           embedding_dim=st.integers(1, 3), batch_size=st.sampled_from([1, 3, 64]),
           base_lr=st.floats(-3, 8).map(lambda x: 10.0**x),
           weight_decay=st.sampled_from([0.0, 1e-4, 1.0, 1e6]),
           runs=st.lists(st.tuples(st.floats(-3, 200).map(lambda x: 10.0**x),
                                   st.floats(0.05, 1.0), st.integers(0, 3)),
                         min_size=3, max_size=3))
    @settings(max_examples=60, deadline=None)
    def test_extreme_configs_finish_or_fail_typed(self, kind, classes, embedding_dim,
                                                 batch_size, base_lr, weight_decay, runs):
        # Each run, alone or in a stack of 3, ends with finite test scores or
        # with an error of the library's own types, never a bare numpy one;
        # a stack's runs equal their solo runs, whatever the others do. A
        # solo run equals run_experiment's test scores or its error, unless
        # run_experiment failed on the train split, which a sweep never scores.
        template = ExperimentConfig(
            dataset=DatasetConfig(num_classes=classes, per_class=10, dim=2),
            hidden_dims=(3,), embedding_dim=embedding_dim, max_pairs=50,
            train=TrainConfig(steps=6, batch_size=batch_size, base_lr=base_lr,
                              weight_decay=weight_decay))
        configs = [_cell_config(template, kind, *run) for run in runs]
        alone = [stack_rows([config])[0] for config in configs]
        for row, run in zip(alone, runs):
            if isinstance(row, str):
                assert isinstance(getattr(errors, row.split(":")[0], None), type), row
            else:
                assert all(math.isfinite(float.fromhex(v)) for v in row[:3]), row
            expected = cell_row(template, kind, *run)
            if not (isinstance(expected, str) and "train split" in expected):
                assert row == expected
        assert stack_rows(configs) == alone

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
    stands in for the pool, so these tests start no processes; run_sweep
    imports the pool from concurrent.futures when it forks, so the fake
    goes there."""

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

        monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", RecordingPool)
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


POOL_IMPORT_SCRIPT = """
import sys
from dataclasses import replace

import haseparator, haseparator.cli
from haseparator.losses import LossConfig
from haseparator.runner import (
    DatasetConfig, ExperimentConfig, SweepConfig, run_experiment, run_sweep,
)
from haseparator.trainer import TrainConfig

def pool_loaded():
    return sorted(m for m in ("concurrent.futures", "multiprocessing") if m in sys.modules)

template = ExperimentConfig(
    dataset=DatasetConfig(kind="blobs", num_classes=3, per_class=20, dim=4),
    hidden_dims=(8,), embedding_dim=6,
    train=TrainConfig(steps=5, batch_size=16, loss=LossConfig(loss_kind="softmax")))
run_experiment(template)
sweep = SweepConfig(losses=("softmax",), seeds=(0, 1), experiment=template, jobs=1)
serial = [vars(r) for r in run_sweep(sweep)]
print(pool_loaded())
forked = [vars(r) for r in run_sweep(replace(sweep, jobs=2))]
print(pool_loaded())
for row in serial + forked:
    row.pop("wall_time_s")
print(forked == serial and not serial[0]["error"])
"""


def test_only_a_forking_sweep_imports_the_pool(tmp_path):
    """Importing the package, one run and a one-job sweep leave the process
    pool and multiprocessing unimported; a two-stack sweep at two jobs forks
    and imports them, with the same rows. A fresh interpreter, since this
    one has imported them already."""
    src = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run([sys.executable, "-c", POOL_IMPORT_SCRIPT], cwd=tmp_path,
                          env=env, capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stderr
    assert done.stdout.splitlines() == [
        "[]", "['concurrent.futures', 'multiprocessing']", "True"]


class TestDefaultSeeds:
    def test_base_plus_index(self):
        assert default_seeds(10, 3) == (10, 11, 12)

    def test_count_validated(self):
        with pytest.raises(ConfigError):
            default_seeds(0, 0)

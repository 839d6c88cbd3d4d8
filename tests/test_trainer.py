import copy
import csv
import math
import re
import tracemalloc
import warnings
from dataclasses import replace

import numpy as np
import pytest

from haseparator.data import gaussian_blobs
from haseparator import trainer
from haseparator.errors import ConfigError, DivergenceError, ShapeError
from haseparator.losses import LossConfig, compute_loss
from haseparator.metrics import accuracy
from haseparator.model import backward, forward, init_model
from haseparator.trainer import (
    TrainConfig,
    lr_at,
    resolve_total_steps,
    train,
    write_report_csv,
)

from helpers import scaled_cosine_logits, sgd_step


def softmax_config(**kw):
    kw.setdefault("loss", LossConfig(loss_kind="softmax", sigma=3.0))
    return TrainConfig(**kw)


def blob_train_set(seed=0, classes=3, per_class=30, dim=2, stddev=0.5):
    train_data, _ = gaussian_blobs(
        classes, per_class, dim, center_radius=4.0, stddev=stddev, seed=seed
    )
    return train_data


class TestTrainConfig:
    def test_exactly_one_of_steps_epochs(self):
        with pytest.raises(ConfigError):
            TrainConfig(steps=10, epochs=2)
        with pytest.raises(ConfigError):
            TrainConfig()

    def test_momentum_range(self):
        with pytest.raises(ConfigError):
            TrainConfig(steps=1, momentum=1.0)

    def test_nonnegative_weight_decay(self):
        with pytest.raises(ConfigError):
            TrainConfig(steps=1, weight_decay=-1e-4)

    def test_drop_points_strictly_increasing(self):
        with pytest.raises(ConfigError):
            TrainConfig(steps=10, lr_drop_points=(5, 5))
        with pytest.raises(ConfigError):
            TrainConfig(steps=10, lr_drop_points=(6, 2))

    def test_batch_size_positive(self):
        with pytest.raises(ConfigError):
            TrainConfig(steps=1, batch_size=0)


class TestSgdStep:
    def test_plain_gradient_step(self):
        p, v = sgd_step(np.array([1.0, 2.0]), np.array([0.5, -1.0]), np.zeros(2), 0.1, 0.0, 0.0)
        np.testing.assert_allclose(p, [0.95, 2.1], atol=1e-15)
        np.testing.assert_allclose(v, [0.5, -1.0], atol=1e-15)

    def test_all_zero_leaves_params(self):
        p, v = sgd_step(np.array([3.0]), np.zeros(1), np.zeros(1), 0.1, 0.9, 0.0)
        assert p[0] == 3.0 and v[0] == 0.0

    def test_two_steps_constant_gradient_displacement(self):
        # v1 = g, v2 = 0.9 g + g: total displacement lr * g * (1 + 1.9)
        p = np.array([0.0])
        v = np.zeros(1)
        g = np.array([2.0])
        lr = 0.1
        p, v = sgd_step(p, g, v, lr, 0.9, 0.0)
        p, v = sgd_step(p, g, v, lr, 0.9, 0.0)
        assert p[0] == pytest.approx(-lr * 2.0 * 2.9, abs=1e-12)

    def test_weight_decay_coupling(self):
        # v = g + wd * p before the step
        p, v = sgd_step(np.array([10.0]), np.array([1.0]), np.zeros(1), 1.0, 0.0, 0.1)
        assert v[0] == pytest.approx(2.0, abs=1e-15)
        assert p[0] == pytest.approx(8.0, abs=1e-15)

    def test_inputs_not_mutated(self):
        p0 = np.array([1.0])
        g0 = np.array([1.0])
        v0 = np.array([1.0])
        sgd_step(p0, g0, v0, 0.1, 0.9, 0.01)
        assert p0[0] == 1.0 and g0[0] == 1.0 and v0[0] == 1.0

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sgd_step(np.zeros(2), np.zeros(3), np.zeros(2), 0.1, 0.0, 0.0)


def reference_train(model, data, config, seed):
    """train() written out per parameter with the pure reference update."""
    model = copy.deepcopy(model)
    params = [*model.weights, *model.biases, model.class_weights]
    velocities = [np.zeros_like(p) for p in params]
    n = len(model.weights)
    rng = np.random.default_rng(seed)
    step, records = 0, []
    while step < config.steps:
        order = rng.permutation(len(data))
        for start in range(0, len(data), config.batch_size):
            if step == config.steps:
                break
            idx = order[start : start + config.batch_size]
            trace = forward(model, data.features[idx])
            result = compute_loss(trace.embeddings, model.class_weights, data.labels[idx],
                                  config.loss)
            grads = backward(model, trace, result.grad_embeddings)
            lr = lr_at(step, config)
            for i, g in enumerate((*grads.weights, *grads.biases, result.grad_weights)):
                params[i], velocities[i] = sgd_step(
                    params[i], g, velocities[i], lr, config.momentum, config.weight_decay
                )
            model.weights, model.biases = params[:n], params[n : 2 * n]
            model.class_weights = params[-1]
            records.append((result.total_loss, result.ce_loss, result.separator_loss))
            step += 1
    return model, records


def sweep_stack(steps):
    """Models, datasets and configs of a 25-run separator stack of the
    margin sweep's shapes; run k trains with seed k."""
    data = [gaussian_blobs(5, 60, 16, center_radius=3.0, stddev=1.3, seed=s)[0]
            for s in range(5)]
    models = [init_model((16, 32, 32, 16), 5, seed=k) for k in range(25)]
    configs = [TrainConfig(steps=steps, batch_size=64,
                           loss=LossConfig(sigma=5.0, margin=0.1 * (1 + k % 10)))
               for k in range(25)]
    return models, [data[k % 5] for k in range(25)], configs


def traced_sweep_stack(steps):
    """(tracemalloc peak, reports) of training sweep_stack(steps) as one stack."""
    models, data, configs = sweep_stack(steps)
    tracemalloc.start()
    try:
        reports = train(models, data, configs, list(range(25)))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    return peak, reports


def parameter_bytes(model) -> list[bytes]:
    return [p.tobytes() for p in (*model.weights, *model.biases, model.class_weights)]


class TestInPlaceUpdate:
    """trainer.sgd_step, the one in-place update of a step, against the pure
    per-parameter reference in tests/helpers.py."""

    @pytest.mark.parametrize("runs", [1, 3])
    def test_buffer_update_matches_reference_bitwise(self, runs):
        rng = np.random.default_rng(20)
        shapes = [(4, 3), (3,), (3, 5)]
        params = [[rng.normal(size=s) for s in shapes] for _ in range(runs)]
        velocities = [[np.zeros(s) for s in shapes] for _ in range(runs)]
        flat = np.stack([np.concatenate([p.ravel() for p in run]) for run in params])
        flat_velocities = np.zeros_like(flat)
        cfg = softmax_config(steps=30, lr_drop_points=(10, 20), momentum=0.9,
                             weight_decay=1e-3)
        for step in range(30):
            grads = [[rng.normal(size=s) for s in shapes] for _ in range(runs)]
            lr = lr_at(step, cfg)
            trainer.sgd_step(
                flat, np.stack([np.concatenate([g.ravel() for g in run]) for run in grads]),
                flat_velocities, lr, cfg.momentum, cfg.weight_decay,
            )
            for k in range(runs):
                for i in range(len(shapes)):
                    params[k][i], velocities[k][i] = sgd_step(
                        params[k][i], grads[k][i], velocities[k][i], lr, cfg.momentum,
                        cfg.weight_decay,
                    )
        for k in range(runs):
            assert flat[k].tobytes() == np.concatenate([p.ravel() for p in params[k]]).tobytes()
            assert flat_velocities[k].tobytes() == np.concatenate(
                [v.ravel() for v in velocities[k]]).tobytes()

    def test_single_run_matches_reference_loop(self):
        data = blob_train_set(per_class=20)
        model = init_model((data.dim, 8, 4), data.num_classes, seed=21)
        cfg = TrainConfig(steps=24, batch_size=16, lr_drop_points=(8, 16), momentum=0.9,
                          weight_decay=1e-3, loss=LossConfig(loss_kind="haseparator"))
        report = train(model, data, cfg, seed=22)
        expected, losses = reference_train(model, data, cfg, seed=22)
        assert parameter_bytes(report.final_model) == parameter_bytes(expected)
        assert [(r.c_all, r.c_ce, r.c_sep) for r in report.records] == losses

    @pytest.mark.parametrize("kind", ["softmax", "haseparator", "arcface"])
    def test_stack_matches_reference_loop_per_run(self, kind):
        datasets = [blob_train_set(seed=s, per_class=20) for s in (0, 1)]
        grid = [(2.0, 0.5), (4.0, 0.9), (3.0, 0.0), (2.0, 0.2)]
        configs = [
            TrainConfig(steps=24, batch_size=16, lr_drop_points=(8, 16), momentum=0.9,
                        weight_decay=1e-3,
                        loss=LossConfig(loss_kind=kind, sigma=sigma, margin=max(m, 0.1),
                                        arc_margin=m))
            for sigma, m in grid
        ]
        data = [datasets[k % 2] for k in range(4)]
        models = [init_model((d.dim, 8, 4), d.num_classes, seed=30 + k)
                  for k, d in enumerate(data)]
        seeds = [40, 41, 42, 43]
        reports = train(models, data, configs, seeds)
        for k in range(4):
            expected, losses = reference_train(models[k], data[k], configs[k], seeds[k])
            assert parameter_bytes(reports[k].final_model) == parameter_bytes(expected)
            assert [(r.c_all, r.c_ce, r.c_sep) for r in reports[k].records] == losses

    def test_stack_that_loses_a_run_matches_each_survivor_alone(self):
        # 72 rows in batches of 16: each epoch ends on a batch of 8, which
        # reuses the first rows of the full batches' arrays. sigma 1e300
        # diverges at step 1 and sigma 2e76 a few steps later, once its
        # weights' squared norms overflow; each diverged run keeps its place
        # in the stack's arrays and keeps computing, unread. The runs share
        # one dataset, then have their own: the third run's rows must still
        # come from its own dataset once the second has diverged.
        shared = blob_train_set(per_class=30, dim=4)
        own = [blob_train_set(seed=s, per_class=30, dim=4) for s in range(4)]
        configs = [
            TrainConfig(steps=12, batch_size=16, base_lr=5.0,
                        loss=LossConfig(loss_kind="haseparator", sigma=sigma, margin=0.5))
            for sigma in (3.0, 1e300, 5.0, 2e76)
        ]
        for data in ([shared] * 4, own):
            models = [init_model((d.dim, 8, 6), d.num_classes, seed=50 + k)
                      for k, d in enumerate(data)]
            with np.errstate(all="ignore"):
                reports = train(models, data, configs, [60, 61, 62, 63])
            assert isinstance(reports[1], DivergenceError)
            assert int(re.search(r"at step (\d+)", str(reports[1])).group(1)) > 0
            steps = {}
            for k in (1, 3):
                # A diverging single run raises its stack entry's error, and
                # its steps before the named one are finite.
                with np.errstate(all="ignore"):
                    with pytest.raises(DivergenceError) as info:
                        train(models[k], data[k], configs[k], 60 + k)
                    assert str(info.value) == str(reports[k])
                    steps[k] = int(re.search(r"at step (\d+)", str(reports[k])).group(1))
                    before = train(models[k], data[k], replace(configs[k], steps=steps[k]), 60 + k)
                assert np.isfinite(before.history).all()
            assert 1 == steps[1] < steps[3] < 12
            for k in (0, 2):
                alone = train(models[k], data[k], configs[k], 60 + k)
                assert parameter_bytes(reports[k].final_model) == parameter_bytes(
                    alone.final_model)
                assert repr(reports[k].records) == repr(alone.records)
                assert reports[k].history.tobytes() == alone.history.tobytes()

    def test_stack_memory_is_bounded(self):
        # A 25-run separator stack of the margin sweep's shapes over 20
        # steps peaks at 5.0 MB under tracemalloc: the trace keeps two
        # scratch buffers and one buffer per layer, made for the full batch
        # and viewed by an epoch's shorter last one. It peaked at 6.0 MB
        # when the trace also kept each pre-activation, the last product
        # and one delta per hidden layer.
        peak, _ = traced_sweep_stack(20)
        assert peak <= 5.6e6

    def test_stack_memory_does_not_grow_with_steps(self):
        # The stack's history is one (runs, steps, 5) float64 array: 0.25 MB
        # more at 250 steps than at 50. A StepRecord per run and step made
        # that 1.21 MB.
        peak_50, reports = traced_sweep_stack(50)
        peak_250, _ = traced_sweep_stack(250)
        assert peak_250 - peak_50 <= 0.5e6
        models, data, configs = sweep_stack(50)
        for k, report in enumerate(reports):
            alone = train(models[k], data[k], configs[k], k)
            assert report.history.shape == (50, 5)
            assert report.history.tobytes() == alone.history.tobytes()

    def test_stack_of_mixed_loss_kinds_rejected(self):
        data = blob_train_set()
        models = [init_model((data.dim, 8, 4), data.num_classes, seed=s) for s in (1, 2)]
        configs = [softmax_config(steps=5),
                   TrainConfig(steps=5, loss=LossConfig(loss_kind="haseparator"))]
        with pytest.raises(ConfigError):
            train(models, [data, data], configs, [1, 2])


class TestLrSchedule:
    def test_before_first_drop(self):
        cfg = softmax_config(steps=100, base_lr=0.1, lr_drop_points=(50, 75))
        assert lr_at(49, cfg) == 0.1

    def test_past_both_drops(self):
        cfg = softmax_config(steps=100, base_lr=0.1, lr_drop_points=(50, 75), lr_drop_factor=0.1)
        assert lr_at(99, cfg) == pytest.approx(0.001, abs=1e-15)

    def test_drop_is_inclusive_at_boundary(self):
        cfg = softmax_config(steps=100, base_lr=0.1, lr_drop_points=(50,))
        assert lr_at(50, cfg) == pytest.approx(0.01, abs=1e-15)

    def test_resolve_steps_from_epochs(self):
        cfg = softmax_config(epochs=2, batch_size=4)
        assert resolve_total_steps(cfg, dataset_size=10) == 6  # ceil(10/4) * 2


class TestTrain:
    def test_zero_steps_returns_initial_model(self):
        data = blob_train_set()
        model = init_model((data.dim, 8, 4), data.num_classes, seed=1)
        report = train(model, data, softmax_config(steps=0), seed=2)
        assert report.records == []
        for a, b in zip(report.final_model.weights, model.weights):
            np.testing.assert_array_equal(a, b)

    def test_input_model_not_mutated(self):
        data = blob_train_set()
        model = init_model((data.dim, 8, 4), data.num_classes, seed=3)
        before = [w.copy() for w in model.weights]
        train(model, data, softmax_config(steps=5), seed=4)
        for a, b in zip(model.weights, before):
            np.testing.assert_array_equal(a, b)

    def test_record_count_and_lr_column(self):
        data = blob_train_set()
        model = init_model((data.dim, 8, 4), data.num_classes, seed=5)
        cfg = softmax_config(steps=20, batch_size=16, lr_drop_points=(10, 15))
        report = train(model, data, cfg, seed=6)
        assert len(report.records) == 20
        for record in report.records:
            assert record.lr == lr_at(record.step, cfg)

    def test_bitwise_determinism(self):
        data = blob_train_set()
        cfg = softmax_config(steps=30, batch_size=16)
        runs = []
        for _ in range(2):
            model = init_model((data.dim, 8, 4), data.num_classes, seed=8)
            runs.append(train(model, data, cfg, seed=7))
        first, second = runs
        for a, b in zip(first.final_model.weights, second.final_model.weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(
            first.final_model.class_weights, second.final_model.class_weights
        )
        assert first.records == second.records

    def test_separable_blobs_reach_full_train_accuracy(self):
        data = blob_train_set(stddev=0.4)
        model = init_model((data.dim, 16, 8), data.num_classes, seed=9)
        cfg = softmax_config(steps=200, batch_size=32, base_lr=0.1)
        report = train(model, data, cfg, seed=10)
        emb = forward(report.final_model, data.features).embeddings
        logits = scaled_cosine_logits(emb, report.final_model.class_weights, 3.0)
        assert accuracy(logits, data.labels) == 1.0

    def test_full_batch_loss_non_increasing_at_small_lr(self):
        data = blob_train_set()
        model = init_model((data.dim, 8, 4), data.num_classes, seed=11)
        cfg = softmax_config(steps=10, batch_size=len(data), base_lr=1e-3)
        report = train(model, data, cfg, seed=12)
        losses = [r.c_all for r in report.records]
        assert all(b <= a + 1e-12 for a, b in zip(losses, losses[1:]))

    def test_reduces_to_textbook_gradient_descent(self):
        # momentum 0, weight decay 0, full batch: train() must match a
        # hand-written descent loop that replicates the documented
        # per-epoch permutation
        data = blob_train_set(per_class=10)
        cfg = softmax_config(
            steps=7, batch_size=len(data), base_lr=0.05, momentum=0.0,
            weight_decay=0.0,
        )
        model = init_model((data.dim, 6, 4), data.num_classes, seed=14)
        report = train(model, data, cfg, seed=13)

        oracle = copy.deepcopy(model)
        rng = np.random.default_rng(13)
        for step in range(7):
            order = rng.permutation(len(data))
            batch_x = data.features[order]
            batch_y = data.labels[order]
            trace = forward(oracle, batch_x)
            result = compute_loss(trace.embeddings, oracle.class_weights, batch_y, cfg.loss)
            grads = backward(oracle, trace, result.grad_embeddings)
            for i in range(len(oracle.weights)):
                oracle.weights[i] = oracle.weights[i] - 0.05 * grads.weights[i]
                oracle.biases[i] = oracle.biases[i] - 0.05 * grads.biases[i]
            oracle.class_weights = oracle.class_weights - 0.05 * result.grad_weights

        for a, b in zip(report.final_model.weights, oracle.weights):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(report.final_model.class_weights, oracle.class_weights)

    def test_drop_point_beyond_run_rejected(self):
        data = blob_train_set()
        model = init_model((data.dim, 8, 4), data.num_classes, seed=15)
        with pytest.raises(ConfigError):
            train(model, data, softmax_config(steps=10, lr_drop_points=(10,)), seed=0)

    def test_haseparator_training_reduces_separator_loss(self):
        data = blob_train_set()
        model = init_model((data.dim, 16, 8), data.num_classes, seed=16)
        cfg = TrainConfig(
            steps=150, batch_size=32,
            loss=LossConfig(loss_kind="haseparator", sigma=3.0, margin=0.9),
        )
        report = train(model, data, cfg, seed=17)
        first = np.mean([r.c_sep for r in report.records[:10]])
        last = np.mean([r.c_sep for r in report.records[-10:]])
        assert last < first

    def test_divergence_reported_at_first_nonfinite_step(self):
        data = blob_train_set()
        model = init_model((data.dim, 8, 4), data.num_classes, seed=18)
        cfg = softmax_config(steps=100, base_lr=1e6)
        with np.errstate(all="ignore"):
            with pytest.raises(DivergenceError) as info:
                train(model, data, cfg, seed=0)
            step = int(re.search(r"at step (\d+)", str(info.value)).group(1))
            report = train(model, data, replace(cfg, steps=step), seed=0)
        assert step > 0
        assert all(math.isfinite(r.c_all) for r in report.records)

    def test_divergence_raises_no_numpy_warning(self):
        # sigma 1e300 overflows the loss at step 1. The DivergenceError is
        # the report: the overflow and invalid-value warnings on the way
        # there are not shown, so under "error" they do not preempt it.
        data = blob_train_set()
        model = init_model((data.dim, 8, 4), data.num_classes, seed=18)
        configs = [TrainConfig(steps=5, loss=LossConfig(loss_kind="haseparator", sigma=sigma))
                   for sigma in (1e300, 3.0)]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError, match="at step 1"):
                train(model, data, configs[0], seed=0)
            reports = train([model, model], [data, data], configs, [0, 0])
        assert isinstance(reports[0], DivergenceError)
        assert isinstance(reports[1], trainer.TrainReport)

    def test_overflowing_norm_is_reported_as_divergence(self):
        # weight_decay 1e6 at base_lr 10 scales the weights by about -1e7 a
        # step, until the embeddings' squared norms overflow while every
        # entry stays finite. normalize then gives those rows no direction,
        # which would leave the loss finite and the run training on.
        train_data, _ = gaussian_blobs(2, 20, 3, seed=0)
        model = init_model((3, 4, 4), 2, seed=19)
        cfg = softmax_config(steps=15, base_lr=10.0, weight_decay=1e6,
                             loss=LossConfig(loss_kind="softmax", sigma=1e-3))
        with np.errstate(over="ignore"):
            with pytest.raises(DivergenceError, match=r"at step \d+: total loss inf"):
                train(model, train_data, cfg, seed=0)

    @pytest.mark.parametrize("kind", ["softmax", "haseparator", "arcface"])
    def test_stack_run_whose_norms_overflow_leaves_alone(self, kind):
        # sigma 1e100 takes a run's weights past 1e154 in one step, where
        # their squared norms overflow: that run diverges at step 1, and the
        # others keep the bits of their own runs.
        data = blob_train_set(dim=4)
        configs = [TrainConfig(steps=12, batch_size=16, base_lr=1.0,
                               loss=LossConfig(loss_kind=kind, sigma=sigma, margin=0.5))
                   for sigma in (3.0, 1e100, 5.0)]
        models = [init_model((4, 8, 6), 3, seed=50 + k) for k in range(3)]
        with np.errstate(all="ignore"):
            reports = train(models, [data] * 3, configs, [60, 61, 62])
        assert isinstance(reports[1], DivergenceError)
        assert "at step 1: total loss inf" in str(reports[1])
        for k in (0, 2):
            alone = train(models[k], data, configs[k], 60 + k)
            assert parameter_bytes(reports[k].final_model) == parameter_bytes(alone.final_model)
            assert reports[k].history.tobytes() == alone.history.tobytes()


class TestReportCsv:
    def test_round_trip(self, tmp_path):
        data = blob_train_set()
        model = init_model((data.dim, 8, 4), data.num_classes, seed=18)
        report = train(model, data, softmax_config(steps=5), seed=19)
        path = tmp_path / "report.csv"
        write_report_csv(report, path)
        with open(path, newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 5
        for row, record in zip(rows, report.records):
            assert int(row["step"]) == record.step
            assert float(row["c_all"]) == record.c_all
            assert float(row["train_acc"]) == record.train_acc

import re
import tracemalloc
import warnings

import numpy as np
import pytest

from haseparator.cli import main
from haseparator.errors import CheckpointError, ConfigError, ShapeError
from haseparator.losses import LossConfig, compute_loss
from haseparator.model import (
    CHECKPOINT_MAGIC,
    MlpModel,
    backward,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from helpers import relative_error


def small_model(seed=0, dims=(3, 4, 2), classes=3):
    return init_model(dims, classes, seed)


class TestInit:
    def test_same_seed_identical(self):
        a, b = small_model(7), small_model(7)
        for wa, wb in zip(a.weights, b.weights):
            np.testing.assert_array_equal(wa, wb)
        np.testing.assert_array_equal(a.class_weights, b.class_weights)

    def test_different_seeds_differ(self):
        a, b = small_model(1), small_model(2)
        assert not np.array_equal(a.weights[0], b.weights[0])

    def test_biases_start_at_zero(self):
        model = small_model()
        for b in model.biases:
            assert not b.any()

    def test_scaled_normal_statistics(self):
        model = init_model((256, 256), 10, seed=3)
        observed = model.weights[0].std()
        expected = np.sqrt(2.0 / 256.0)
        assert abs(observed - expected) / expected < 0.2

    def test_rejects_short_dims(self):
        with pytest.raises(ConfigError):
            init_model((5,), 3, seed=0)


class TestForward:
    def test_zero_weights_give_zero_embeddings(self):
        model = small_model()
        for w in model.weights:
            w[:] = 0.0
        trace = forward(model, np.ones((4, 3)))
        assert not trace.embeddings.any()

    def test_identity_single_layer(self):
        model = MlpModel(
            layer_dims=(2, 2),
            weights=[np.eye(2)],
            biases=[np.zeros(2)],
            class_weights=np.ones((2, 2)),
        )
        x = np.array([[1.0, -2.0], [0.5, 3.0]])
        np.testing.assert_array_equal(forward(model, x).embeddings, x)

    def test_matches_manual_recomputation(self):
        model = small_model(seed=5)
        rng = np.random.default_rng(6)
        x = rng.normal(size=(5, 3))
        trace = forward(model, x)
        h = x @ model.weights[0] + model.biases[0]
        h = np.maximum(h, 0.0)
        expected = h @ model.weights[1] + model.biases[1]
        np.testing.assert_allclose(trace.embeddings, expected, atol=1e-12)

    def test_input_dim_mismatch(self):
        with pytest.raises(ShapeError):
            forward(small_model(), np.ones((2, 5)))


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        model = small_model()
        trace = forward(model, np.ones((3, 3)))
        grads = backward(model, trace, np.zeros_like(trace.embeddings))
        for g in grads.weights + grads.biases:
            assert not g.any()

    def test_linear_model_weight_grad_is_input_sum(self):
        # single affine layer, loss = sum of embeddings: dL/dW = X^T @ 1
        model = MlpModel(
            layer_dims=(3, 2),
            weights=[np.zeros((3, 2))],
            biases=[np.zeros(2)],
            class_weights=np.ones((2, 2)),
        )
        rng = np.random.default_rng(7)
        x = rng.normal(size=(4, 3))
        trace = forward(model, x)
        grads = backward(model, trace, np.ones_like(trace.embeddings))
        np.testing.assert_allclose(grads.weights[0], x.T @ np.ones((4, 2)), atol=1e-12)
        np.testing.assert_allclose(grads.biases[0], np.full(2, 4.0), atol=1e-12)

    def test_matches_finite_differences_fixed_projection(self):
        # loss = sum(embeddings * R) has constant upstream gradient R
        model = small_model(seed=8)
        rng = np.random.default_rng(9)
        x = rng.normal(size=(4, 3))
        direction = rng.normal(size=(4, model.embedding_dim))

        def loss_value():
            return float(np.sum(forward(model, x).embeddings * direction))

        grads = backward(model, forward(model, x), direction)
        step = 1e-6
        for param, grad in zip(
            model.weights + model.biases, grads.weights + grads.biases
        ):
            numeric = np.zeros_like(param)
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + step
                up = loss_value()
                param[idx] = orig - step
                down = loss_value()
                param[idx] = orig
                numeric[idx] = (up - down) / (2 * step)
            assert relative_error(grad, numeric) < 1e-5

    def test_end_to_end_gradient_check_through_loss(self):
        model = init_model((3, 6, 5, 4), 3, seed=10)
        rng = np.random.default_rng(11)
        x = rng.normal(size=(4, 3))
        labels = rng.integers(0, 3, size=4)
        config = LossConfig(loss_kind="haseparator", sigma=3.0, margin=0.6)

        def total_loss():
            emb = forward(model, x).embeddings
            return compute_loss(emb, model.class_weights, labels, config).total_loss

        trace = forward(model, x)
        result = compute_loss(trace.embeddings, model.class_weights, labels, config)
        grads = backward(model, trace, result.grad_embeddings)

        step = 1e-6
        params = model.weights + model.biases + [model.class_weights]
        analytic = grads.weights + grads.biases + [result.grad_weights]
        for param, grad in zip(params, analytic):
            numeric = np.zeros_like(param)
            for idx in np.ndindex(param.shape):
                orig = param[idx]
                param[idx] = orig + step
                up = total_loss()
                param[idx] = orig - step
                down = total_loss()
                param[idx] = orig
                numeric[idx] = (up - down) / (2 * step)
            assert relative_error(grad, numeric) < 1e-5

    def test_stale_trace_rejected(self):
        model = small_model()
        trace = forward(model, np.ones((3, 3)))
        with pytest.raises(ShapeError):
            backward(model, trace, np.zeros((5, model.embedding_dim)))


class TestCheckpoint:
    def test_round_trip_exact(self, tmp_path):
        model = init_model((3, 7, 4), 5, seed=12)
        path = tmp_path / "model.txt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        assert loaded.layer_dims == model.layer_dims
        for a, b in zip(loaded.weights, model.weights):
            np.testing.assert_array_equal(a, b)
        for a, b in zip(loaded.biases, model.biases):
            np.testing.assert_array_equal(a, b)
        np.testing.assert_array_equal(loaded.class_weights, model.class_weights)

    def test_edge_values_round_trip_byte_for_byte(self, tmp_path):
        model = init_model((3, 4), 2, seed=18)
        edges = [-0.0, 5e-324, -2.2250738585072014e-308, 1.7976931348623157e308,
                 -1.7976931348623157e308, 1e-300, 1e300]
        model.weights[0].flat[:len(edges)] = edges
        model.biases[0][:] = [-0.0, 5e-324, 1.7976931348623157e308, -1e-320]
        model.class_weights[:] = [[-0.0, 0.0], [-5e-324, 4.9e-322], [1e308, -1e-308], [3, -3]]
        save_checkpoint(model, tmp_path / "a.txt")
        loaded = load_checkpoint(tmp_path / "a.txt")
        for got, want in zip(loaded.weights + loaded.biases + [loaded.class_weights],
                             model.weights + model.biases + [model.class_weights]):
            assert got.tobytes() == want.tobytes()
        save_checkpoint(loaded, tmp_path / "b.txt")
        assert (tmp_path / "a.txt").read_bytes() == (tmp_path / "b.txt").read_bytes()

    def test_crlf_file_loads(self, tmp_path):
        model = init_model((3, 5, 4), 3, seed=19)
        path = tmp_path / "model.txt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes().replace(b"\n", b"\r\n"))
        loaded = load_checkpoint(path)
        for got, want in zip(loaded.weights + loaded.biases + [loaded.class_weights],
                             model.weights + model.biases + [model.class_weights]):
            assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("header", [3, 7, 9])
    def test_file_cut_after_a_header_names_its_path(self, tmp_path, header):
        # np.loadtxt warns on a block with no rows; the loader must raise first.
        path = tmp_path / "model.txt"
        save_checkpoint(init_model((3, 4), 2, seed=16), path)
        lines = path.read_text().splitlines(keepends=True)
        assert lines[header].startswith("param ")
        path.write_text("".join(lines[:header + 1]))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(CheckpointError, match=re.escape(str(path))):
                load_checkpoint(path)

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("something else\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_truncated_file(self, tmp_path):
        model = init_model((3, 4), 2, seed=13)
        path = tmp_path / "model.txt"
        save_checkpoint(model, path)
        lines = path.read_text().splitlines()
        path.write_text("\n".join(lines[:-2]) + "\n")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_garbled_values(self, tmp_path):
        model = init_model((3, 4), 2, seed=14)
        path = tmp_path / "model.txt"
        save_checkpoint(model, path)
        path.write_text(path.read_text().replace("param layer0.weight 3 4", "param layer0.weight 3 9"))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_missing_file(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope.txt")

    def test_non_utf8_file_names_path(self, tmp_path, capsys):
        path = tmp_path / "bad.csv"
        path.write_bytes(b"\xff\xfe" + "1,2,0\n3,4,1\n".encode("utf-16-le"))
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(path)
        code = main(["eval", "--checkpoint", str(path), "--out", str(tmp_path / "eval")])
        assert code == 2
        assert capsys.readouterr().err.startswith(f"error: {path}:")

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
    def test_non_finite_parameter_names_it(self, tmp_path, value):
        model = init_model((3, 4), 2, seed=15)
        model.class_weights[1, 0] = float(value)
        path = tmp_path / "model.txt"
        save_checkpoint(model, path)
        with pytest.raises(CheckpointError, match="class_weights"):
            load_checkpoint(path)

    # Each edit of a saved (3, 4) x 2-class checkpoint, whose lines are: the
    # magic, layer_dims, num_classes, then param headers at 3, 7 and 9.
    @pytest.mark.parametrize("edit", [
        lambda lines: ["haseparator-checkpoint 0", *lines[1:]],
        lambda lines: [*lines[:2], "classes 2", *lines[3:]],
        lambda lines: [lines[0], "layer_dims 3 0", *lines[2:]],
        lambda lines: [*lines[:7], "param layer1.bias 1 4", *lines[8:]],
        lambda lines: [*lines[:9], "param class_weights 2 4", *lines[10:]],
        lambda lines: [*lines[:8], lines[8] + " 0.5", *lines[9:]],
        lambda lines: [*lines[:5], "x" + lines[5][1:], *lines[6:]],
        lambda lines: lines[:-1],
        lambda lines: lines[:9],
    ], ids=["magic", "missing header", "dimensions", "unknown parameter", "header shape",
            "long row", "non-numeric", "truncated block", "missing parameter"])
    def test_malformed_file_names_its_path(self, tmp_path, edit):
        path = tmp_path / "model.txt"
        save_checkpoint(init_model((3, 4), 2, seed=16), path)
        lines = path.read_text().splitlines()
        assert lines[0] == CHECKPOINT_MAGIC and lines[3].startswith("param layer0.weight")
        path.write_text("\n".join(edit(lines)) + "\n")
        with pytest.raises(CheckpointError, match=re.escape(str(path))):
            load_checkpoint(path)

    def test_load_holds_the_parameters_not_the_text(self, tmp_path):
        # 3.7 MiB of parameters in a 9.9 MiB file. Reading every line into a
        # list and each block into Python floats traced 20.3 MiB.
        model = init_model((64, 512, 512, 128), 1000, seed=17)
        path = tmp_path / "wide.txt"
        save_checkpoint(model, path)
        params = model.weights + model.biases + [model.class_weights]
        tracemalloc.start()
        try:
            loaded = load_checkpoint(path)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 2 * sum(p.nbytes for p in params)
        for got, want in zip(loaded.weights + loaded.biases + [loaded.class_weights], params):
            assert got.tobytes() == want.tobytes()

"""Small MLP feature extractor with a bias-free cosine classification head.

The body is a stack of affine + rectifier layers; the final layer is affine
with no nonlinearity and produces raw embeddings (normalization happens
inside the loss). Classification weights are a separate N x C matrix with
no bias, matching the cosine head.

forward and backward also run a stack of K models at once: every parameter
then carries a leading run axis (weights K x in x out, biases K x out,
class weights K x N x C), and so do the inputs (K x B x D). Each run's
products and sums are the ones its 2-d arrays would get.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .data import read_text_lines, write_rows
from .errors import CheckpointError, ConfigError, ShapeError
from .tensor import as_matrix

CHECKPOINT_MAGIC = "haseparator-checkpoint 1"


@dataclass
class MlpModel:
    layer_dims: tuple[int, ...]
    weights: list[np.ndarray]
    biases: list[np.ndarray]
    class_weights: np.ndarray

    @property
    def embedding_dim(self) -> int:
        return self.layer_dims[-1]

    @property
    def num_classes(self) -> int:
        return self.class_weights.shape[-1]

    def copy(self) -> "MlpModel":
        return MlpModel(
            layer_dims=self.layer_dims,
            weights=[w.copy() for w in self.weights],
            biases=[b.copy() for b in self.biases],
            class_weights=self.class_weights.copy(),
        )


@dataclass
class ForwardTrace:
    """Per-layer values recorded by forward(), consumed by backward()."""

    inputs: np.ndarray
    pre_activations: list[np.ndarray] = field(default_factory=list)
    activations: list[np.ndarray] = field(default_factory=list)
    embeddings: np.ndarray | None = None


@dataclass
class ModelGrads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def init_model(layer_dims, num_classes: int, seed) -> MlpModel:
    """He-style scaled normal initialization, deterministic given seed.

    Weight entries are drawn from N(0, 2/fan_in); biases start at zero.
    """
    dims = tuple(int(d) for d in layer_dims)
    if len(dims) < 2:
        raise ConfigError(f"layer_dims needs at least 2 entries, got {dims}")
    if min(dims) < 1 or num_classes < 1:
        raise ConfigError(f"dimensions must be positive: {dims}, C={num_classes}")
    rng = np.random.default_rng(seed)
    weights, biases = [], []
    for fan_in, fan_out in zip(dims[:-1], dims[1:]):
        weights.append(rng.normal(0.0, np.sqrt(2.0 / fan_in), size=(fan_in, fan_out)))
        biases.append(np.zeros(fan_out))
    class_weights = rng.normal(0.0, np.sqrt(2.0 / dims[-1]), size=(dims[-1], num_classes))
    return MlpModel(dims, weights, biases, class_weights)


def forward(model: MlpModel, inputs) -> ForwardTrace:
    """Run the MLP body; the last layer is affine with no rectifier."""
    x = as_matrix(inputs, stack=True)
    if x.shape[-1] != model.layer_dims[0]:
        raise ShapeError(
            f"inputs have {x.shape[-1]} features, model expects {model.layer_dims[0]}"
        )
    if x.shape[:-2] != model.class_weights.shape[:-2]:
        raise ShapeError(f"inputs of shape {x.shape} do not match the model's run stack")
    trace = ForwardTrace(inputs=x)
    activation = x
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        z = activation @ w + b[..., None, :]
        trace.pre_activations.append(z)
        activation = z if i == last else np.maximum(z, 0.0)
        trace.activations.append(activation)
    trace.embeddings = activation
    return trace


def backward(model: MlpModel, trace: ForwardTrace, grad_embeddings) -> ModelGrads:
    """Chain-rule gradients of every body weight and bias.

    grad_embeddings is the upstream gradient with respect to the raw
    embeddings (typically LossResult.grad_embeddings); the classification
    weights get their gradient directly from the loss, not from here.
    """
    grad_embeddings = as_matrix(grad_embeddings, stack=True)
    if trace.embeddings is None or grad_embeddings.shape != trace.embeddings.shape:
        raise ShapeError(
            f"upstream gradient shape {grad_embeddings.shape} does not match "
            f"trace embeddings"
        )
    n_layers = len(model.weights)
    grads_w: list[np.ndarray | None] = [None] * n_layers
    grads_b: list[np.ndarray | None] = [None] * n_layers
    delta = grad_embeddings
    for i in range(n_layers - 1, -1, -1):
        layer_in = trace.inputs if i == 0 else trace.activations[i - 1]
        grads_w[i] = np.swapaxes(layer_in, -1, -2) @ delta
        grads_b[i] = delta.sum(axis=-2)
        if i > 0:
            delta = (delta @ np.swapaxes(model.weights[i], -1, -2)) * (
                trace.pre_activations[i - 1] > 0
            )
    return ModelGrads(weights=grads_w, biases=grads_b)


def save_checkpoint(model: MlpModel, path) -> None:
    """Write a model as line-oriented text.

    Format: a magic line, "layer_dims d0 d1 ...", "num_classes C", then for
    each parameter a line "param <name> <rows> <cols>" followed by <rows>
    lines of <cols> space-separated values (17 significant digits, which
    round-trips float64 exactly). Parameter order is layer0.weight,
    layer0.bias, layer1.weight, ... , class_weights; biases are stored as
    1 x n matrices.
    """
    named = []
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        named.append((f"layer{i}.weight", w))
        named.append((f"layer{i}.bias", b.reshape(1, -1)))
    named.append(("class_weights", model.class_weights))
    with open(path, "w") as fh:
        fh.write(f"{CHECKPOINT_MAGIC}\n")
        fh.write("layer_dims " + " ".join(str(d) for d in model.layer_dims) + "\n")
        fh.write(f"num_classes {model.num_classes}\n")
        for name, values in named:
            fh.write(f"param {name} {values.shape[0]} {values.shape[1]}\n")
            write_rows(fh, values, " ")


def load_checkpoint(path) -> MlpModel:
    """Read a checkpoint written by save_checkpoint; raises CheckpointError."""
    lines = [ln.rstrip("\r\n") for ln in read_text_lines(path, CheckpointError)]
    try:
        if not lines or lines[0] != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        if not lines[1].startswith("layer_dims ") or not lines[2].startswith("num_classes "):
            raise CheckpointError(f"{path}: missing header lines")
        dims = tuple(int(v) for v in lines[1].split()[1:])
        num_classes = int(lines[2].split()[1])
        pos = 3
        params = {}
        while pos < len(lines) and lines[pos]:
            head = lines[pos].split()
            if len(head) != 4 or head[0] != "param":
                raise CheckpointError(f"{path}: bad parameter header {lines[pos]!r}")
            name, rows, cols = head[1], int(head[2]), int(head[3])
            block = lines[pos + 1 : pos + 1 + rows]
            if len(block) != rows:
                raise CheckpointError(f"{path}: truncated parameter {name}")
            values = np.array([[float(v) for v in ln.split()] for ln in block])
            if values.shape != (rows, cols):
                raise CheckpointError(f"{path}: parameter {name} has wrong shape")
            if not np.all(np.isfinite(values)):
                raise CheckpointError(f"{path}: parameter {name} has non-finite values")
            params[name] = values
            pos += 1 + rows
    except CheckpointError:
        raise
    except (ValueError, IndexError) as exc:
        raise CheckpointError(f"{path}: cannot parse checkpoint ({exc})") from exc

    try:
        weights = [params[f"layer{i}.weight"] for i in range(len(dims) - 1)]
        biases = [params[f"layer{i}.bias"].reshape(-1) for i in range(len(dims) - 1)]
        class_weights = params["class_weights"]
    except KeyError as exc:
        raise CheckpointError(f"{path}: missing parameter {exc}") from exc
    for i, w in enumerate(weights):
        if w.shape != (dims[i], dims[i + 1]) or biases[i].shape != (dims[i + 1],):
            raise CheckpointError(f"{path}: layer {i} shapes do not match layer_dims")
    if class_weights.shape != (dims[-1], num_classes):
        raise CheckpointError(f"{path}: class_weights shape does not match header")
    return MlpModel(dims, weights, biases, class_weights)

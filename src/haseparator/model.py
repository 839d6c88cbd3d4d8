"""Small MLP feature extractor with a bias-free cosine classification head.

The body is a stack of affine + rectifier layers; the final layer is affine
with no nonlinearity and produces raw embeddings (normalization happens
inside the loss). Classification weights are a separate N x C matrix with
no bias, matching the cosine head.

forward, embed and backward also run a stack of K models at once: every
parameter then carries a leading run axis (weights K x in x out, biases
K x out, class weights K x N x C), and so do the inputs (K x B x D). Each
run's products and sums are the ones its 2-d arrays would get.

A training step's trace holds one array per layer, the rectified output of
a hidden layer or the embeddings of the last, and two scratch buffers of
the widest layer: forward's products go to one, and backward's deltas
alternate between the two. backward reads each rectifier's mask from its
output, since max(z, 0) > 0 exactly where z > 0, NaN and -0.0 included.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import chain, islice

import numpy as np

from .data import read_text_lines
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
    """The values forward() records for backward().

    activations holds one array per layer: a hidden layer's rectified
    output, then the embeddings. scratch holds two flat buffers, each with
    room for one layer's output at the widest layer width: forward writes
    its products to the first, and backward its deltas to both in turn, so
    it can run on one trace any number of times.
    """

    inputs: np.ndarray
    activations: list[np.ndarray] = field(default_factory=list)
    scratch: list[np.ndarray] = field(default_factory=list)

    @property
    def embeddings(self) -> np.ndarray | None:
        return self.activations[-1] if self.activations else None


@dataclass
class ModelGrads:
    weights: list[np.ndarray]
    biases: list[np.ndarray]


def _slot(arrays: list, i: int, shape) -> np.ndarray:
    """arrays[i] when it has this shape, else a new array put in its place."""
    arrays.extend([None] * (i + 1 - len(arrays)))
    if arrays[i] is None or arrays[i].shape != shape:
        arrays[i] = np.empty(shape)
    return arrays[i]


def _scratch(trace: ForwardTrace, j: int, shape) -> np.ndarray:
    """A C-contiguous array of this shape at the start of trace.scratch[j]."""
    return trace.scratch[j][: math.prod(shape)].reshape(shape)


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


def _check_inputs(model: MlpModel, inputs) -> np.ndarray:
    """inputs as a float64 array that fits the model's first layer and run stack."""
    x = as_matrix(inputs, stack=True)
    if x.shape[-1] != model.layer_dims[0]:
        raise ShapeError(
            f"inputs have {x.shape[-1]} features, model expects {model.layer_dims[0]}"
        )
    if x.shape[:-2] != model.class_weights.shape[:-2]:
        raise ShapeError(f"inputs of shape {x.shape} do not match the model's run stack")
    return x


def forward(model: MlpModel, inputs, out: ForwardTrace | None = None) -> ForwardTrace:
    """Run the MLP body; the last layer is affine with no rectifier.

    Given out, an earlier trace, forward writes into those of its arrays
    whose shapes fit and returns it, with the values of a fresh trace.
    """
    x = _check_inputs(model, inputs)
    trace = ForwardTrace(inputs=x) if out is None else out
    trace.inputs = activation = x
    size = math.prod(x.shape[:-1]) * max(model.layer_dims[1:])
    if len(trace.scratch) != 2 or trace.scratch[0].size < size:
        trace.scratch = [np.empty(size), np.empty(size)]
    last = len(model.weights) - 1
    del trace.activations[last + 1 :]
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        shape = (*x.shape[:-1], w.shape[-1])
        # The product goes to scratch and the bias is added out of place,
        # as embed adds it: numpy adds into a one-entry array by its
        # reduction loop, which can return the bias's NaN instead of the
        # product's.
        product = np.matmul(activation, w, out=_scratch(trace, 0, shape))
        activation = np.add(product, b[..., None, :], out=_slot(trace.activations, i, shape))
        if i < last:
            np.maximum(activation, 0.0, out=activation)
    return trace


def embed(model: MlpModel, inputs) -> np.ndarray:
    """The embeddings of forward(model, inputs), bit for bit, holding only
    the current layer's arrays: no trace is kept for a backward pass."""
    activation = _check_inputs(model, inputs)
    last = len(model.weights) - 1
    for i, (w, b) in enumerate(zip(model.weights, model.biases)):
        # Out of place, as forward adds the bias: an in-place add into a
        # one-entry array can return the bias's NaN instead of the product's.
        activation = np.matmul(activation, w) + b[..., None, :]
        if i < last:
            np.maximum(activation, 0.0, out=activation)
    return activation


def backward(model: MlpModel, trace: ForwardTrace, grad_embeddings, out=None) -> ModelGrads:
    """Chain-rule gradients of every body weight and bias.

    grad_embeddings is the upstream gradient with respect to the raw
    embeddings (typically LossResult.grad_embeddings); the classification
    weights get their gradient directly from the loss, not from here. Given
    out, a ModelGrads shaped like the model, the gradients go there.
    """
    grad_embeddings = as_matrix(grad_embeddings, stack=True)
    if trace.embeddings is None or grad_embeddings.shape != trace.embeddings.shape:
        raise ShapeError(
            f"upstream gradient shape {grad_embeddings.shape} does not match "
            f"trace embeddings"
        )
    if out is None:
        out = ModelGrads([np.empty_like(w) for w in model.weights],
                         [np.empty_like(b) for b in model.biases])
    delta = grad_embeddings
    for i in range(len(model.weights) - 1, -1, -1):
        layer_in = trace.inputs if i == 0 else trace.activations[i - 1]
        np.matmul(np.swapaxes(layer_in, -1, -2), delta, out=out.weights[i])
        np.sum(delta, axis=-2, out=out.biases[i])
        if i > 0:
            # W^T stays a transposed view: a contiguous copy multiplies
            # faster but changes bits at some widths. Consecutive layers'
            # deltas take turns in the two scratch buffers.
            delta = np.matmul(delta, np.swapaxes(model.weights[i], -1, -2),
                              out=_scratch(trace, i % 2, layer_in.shape))
            delta *= layer_in > 0
    return out


def _layout(dims, num_classes) -> list[tuple[str, tuple[int, int]]]:
    """(checkpoint name, 2-d shape) of each parameter block, in file order."""
    layout = []
    for i, (fan_in, fan_out) in enumerate(zip(dims[:-1], dims[1:])):
        layout += [(f"layer{i}.weight", (fan_in, fan_out)), (f"layer{i}.bias", (1, fan_out))]
    return layout + [("class_weights", (dims[-1], num_classes))]


def save_checkpoint(model: MlpModel, path) -> None:
    """Write a model as line-oriented text.

    Format: a magic line, "layer_dims d0 d1 ...", "num_classes C", then for
    each parameter a line "param <name> <rows> <cols>" followed by <rows>
    lines of <cols> space-separated values, written by np.savetxt with 17
    significant digits (an exact float64 round trip). Parameter order is
    layer0.weight, layer0.bias, layer1.weight, ... , class_weights; biases
    are stored as 1 x n matrices.
    """
    params = [p for pair in zip(model.weights, model.biases) for p in pair] + [model.class_weights]
    with open(path, "w") as fh:
        fh.write(f"{CHECKPOINT_MAGIC}\n")
        fh.write("layer_dims " + " ".join(str(d) for d in model.layer_dims) + "\n")
        fh.write(f"num_classes {model.num_classes}\n")
        for (name, shape), values in zip(_layout(model.layer_dims, model.num_classes), params):
            fh.write(f"param {name} {shape[0]} {shape[1]}\n")
            np.savetxt(fh, values.reshape(shape), fmt="%.17g")


def load_checkpoint(path) -> MlpModel:
    """Read a checkpoint written by save_checkpoint one parameter block at a
    time: each block, under the header that the layer_dims and num_classes
    lines give, is parsed by one np.loadtxt call over its lines. Raises
    CheckpointError naming the path."""
    lines = (ln.rstrip("\r\n") for ln in read_text_lines(path, CheckpointError))
    try:
        if next(lines, None) != CHECKPOINT_MAGIC:
            raise CheckpointError(f"{path}: not a checkpoint file")
        dims_line, classes_line = next(lines, ""), next(lines, "")
        if not dims_line.startswith("layer_dims ") or not classes_line.startswith("num_classes "):
            raise CheckpointError(f"{path}: missing header lines")
        dims = tuple(int(v) for v in dims_line.split()[1:])
        num_classes = int(classes_line.split()[1])
        if len(dims) < 2 or min(*dims, num_classes) < 1:
            raise CheckpointError(f"{path}: bad dimensions {dims}, C={num_classes}")
        blocks = []
        for name, shape in _layout(dims, num_classes):
            header, got = f"param {name} {shape[0]} {shape[1]}", next(lines, None)
            if got != header:
                raise CheckpointError(f"{path}: expected the header {header!r}, got {got!r}")
            first = next(lines, "")
            if not first.strip():  # np.loadtxt warns on a block with no rows
                raise CheckpointError(f"{path}: parameter {name} has no rows")
            values = np.loadtxt(chain([first], islice(lines, shape[0] - 1)), ndmin=2, comments=None)
            if values.shape != shape:
                raise CheckpointError(f"{path}: {name} has shape {values.shape}, not {shape}")
            if not np.all(np.isfinite(values)):
                raise CheckpointError(f"{path}: parameter {name} has non-finite values")
            blocks.append(values)
    except CheckpointError:
        raise
    except (ValueError, IndexError) as exc:
        raise CheckpointError(f"{path}: cannot parse checkpoint ({exc})") from exc
    return MlpModel(dims, blocks[:-1:2], [b[0] for b in blocks[1::2]], blocks[-1])

"""The training step's kernels against their earlier expressions, byte for byte.

normalize and normalize_backward skip masks that change nothing, forward
and backward write into reused arrays, and _cross_entropy takes its class
max on a class-major copy. tests/helpers.py keeps the expressions they
replaced. The library must give the same bytes on 2-d and stacked inputs
with zero vectors, norms at or below EPSILON, NaN and inf entries, signed
zeros and +-1e300. embed, the evaluation pass, must give forward's
embeddings byte for byte.
"""

import math

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from haseparator import losses
from haseparator.model import MlpModel, ModelGrads, backward, embed, forward, init_model
from haseparator.tensor import EPSILON, normalize, normalize_backward
from haseparator.trainer import _unpack
from helpers import (
    reference_backward,
    reference_cross_entropy,
    reference_forward,
    reference_normalize,
    reference_normalize_backward,
)

SPECIAL = [0.0, -0.0, EPSILON, -EPSILON, 1e-13, 1e300, -1e300, np.nan, np.inf, -np.inf]
# Factors that turn whole rows or columns into zero vectors, signed zero
# vectors or vectors whose norm is at or below EPSILON.
SCALES = [1.0, 1.0, 0.0, -0.0, 1e-13]
values = st.one_of(st.floats(-4.0, 4.0), st.sampled_from(SPECIAL))
shapes = st.one_of(
    st.tuples(st.integers(1, 6), st.integers(1, 12)),
    st.tuples(st.integers(1, 3), st.integers(1, 6), st.integers(1, 12)),
)


@st.composite
def matrices(draw, shape=None):
    """A float64 array of the shape (drawn when None) with scaled rows and columns."""
    shape = draw(shapes) if shape is None else shape
    m = draw(hnp.arrays(np.float64, shape, elements=values))
    scales = st.sampled_from(SCALES)
    rows = draw(hnp.arrays(np.float64, (*shape[:-1], 1), elements=scales))
    columns = draw(hnp.arrays(np.float64, (*shape[:-2], 1, shape[-1]), elements=scales))
    with np.errstate(invalid="ignore"):
        return m * rows * columns


def assert_same(got, want):
    got, want = np.asarray(got), np.asarray(want)
    assert (got.shape, got.dtype) == (want.shape, want.dtype)
    assert got.tobytes() == want.tobytes()


@settings(max_examples=150, deadline=None)
@given(matrices(), st.sampled_from([-1, -2]))
def test_normalize_matches_reference(m, axis):
    with np.errstate(all="ignore"):
        got, want = normalize(m, axis), reference_normalize(m, axis)
    for a, b in zip(got, want):
        assert_same(a, b)


@settings(max_examples=150, deadline=None)
@given(st.data(), st.sampled_from([-1, -2]))
def test_normalize_backward_matches_reference(data, axis):
    m = data.draw(matrices())
    grad_unit = data.draw(matrices(m.shape))
    with np.errstate(all="ignore"):
        unit, norms = reference_normalize(m, axis)
        got = normalize_backward(unit, norms, grad_unit, axis)
        want = reference_normalize_backward(unit, norms, grad_unit, axis)
    assert_same(got, want)


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_cross_entropy_matches_reference(data):
    logits = data.draw(matrices())
    labels = data.draw(
        hnp.arrays(np.int64, logits.shape[:-1], elements=st.integers(0, logits.shape[-1] - 1))
    )
    with np.errstate(all="ignore"):
        got = losses._cross_entropy(logits, losses._target_index(labels))
        want = reference_cross_entropy(logits, labels)
    for a, b in zip(got, want):
        assert_same(a, b)


@st.composite
def nets(draw):
    """(model, inputs): a model whose parameters are views of a run-major
    buffer, as the trainer lays them out, with 2-d (runs None) or stacked
    parameters, and inputs of a matching shape."""
    runs = draw(st.sampled_from([None, 1, 3]))
    stack = (1,) if runs is None else (runs,)
    dims = tuple(draw(st.lists(st.integers(1, 5), min_size=2, max_size=4)))
    shapes = [*zip(dims[:-1], dims[1:]), *((d,) for d in dims[1:]), (dims[-1], 3)]
    flat = [draw(matrices((*stack, *shape))).reshape(stack[0], -1) for shape in shapes]
    pick = (lambda a: a[0]) if runs is None else (lambda a: a)
    model = _unpack(np.concatenate(flat, axis=1), dims, shapes, pick)
    batch = draw(st.integers(1, 6))
    inputs = draw(matrices((*stack, batch, dims[0])))
    return model, pick(inputs)


def grad_views(model: MlpModel) -> ModelGrads:
    """Gradient arrays laid out like the trainer's gradient buffer."""
    shapes = [*(w.shape[-2:] for w in model.weights), *(b.shape[-1:] for b in model.biases),
              model.class_weights.shape[-2:]]
    runs = model.class_weights.shape[:-2]
    buffer = np.full((*(runs or (1,)), sum(math.prod(s) for s in shapes)), np.nan)
    views = _unpack(buffer, model.layer_dims, shapes, (lambda a: a) if runs else (lambda a: a[0]))
    return ModelGrads(views.weights, views.biases)


def assert_traces_same(got, want):
    for a, b in zip(got.activations, want.activations, strict=True):
        assert_same(a, b)
    assert_same(got.embeddings, want.embeddings)


def assert_grads_same(got, want):
    for a, b in zip((*got.weights, *got.biases), (*want.weights, *want.biases), strict=True):
        assert_same(a, b)


@settings(max_examples=100, deadline=None)
@given(nets(), st.data())
def test_forward_and_backward_match_reference(net, data):
    model, inputs = net
    upstream = data.draw(matrices((*inputs.shape[:-1], model.layer_dims[-1])))
    with np.errstate(all="ignore"):
        want = reference_forward(model, inputs)
        got = forward(model, inputs)
        assert_traces_same(got, want)
        want_grads = reference_backward(model, want, upstream)
        assert_grads_same(backward(model, got, upstream), want_grads)
        assert_grads_same(backward(model, got, upstream, grad_views(model)), want_grads)


def assert_layer_views(trace, model):
    """trace.scratch holds two scratch buffers and one buffer a layer, and
    each activation is a view of its layer's buffer."""
    assert len(trace.scratch) == len(model.weights) + 2
    for a, buffer in zip(trace.activations, trace.scratch[2:], strict=True):
        assert a.base is buffer


@settings(max_examples=50, deadline=None)
@given(nets(), st.data())
def test_forward_into_a_reused_trace_equals_a_fresh_one(net, data):
    model, inputs = net
    earlier = data.draw(matrices(inputs.shape))
    upstream = data.draw(matrices((*inputs.shape[:-1], model.layer_dims[-1])))
    with np.errstate(all="ignore"):
        trace = forward(model, earlier)
        backward(model, trace, upstream)
        buffers = [id(a) for a in trace.scratch]
        assert forward(model, inputs, trace) is trace
        assert_layer_views(trace, model)
        assert_traces_same(trace, reference_forward(model, inputs))
        assert_grads_same(backward(model, trace, upstream),
                          reference_backward(model, reference_forward(model, inputs), upstream))
        assert [id(a) for a in trace.scratch] == buffers


@settings(max_examples=50, deadline=None)
@given(nets(), st.data())
def test_forward_of_fewer_rows_reuses_the_trace(net, data):
    # The trainer forwards an epoch's shorter last batch, a leading-rows
    # view of the full batch's array, into the full batch's trace.
    model, inputs = net
    rows = inputs.shape[-2]
    longer = (*inputs.shape[:-2], rows + data.draw(st.integers(1, 3)), inputs.shape[-1])
    batch = data.draw(matrices(longer))
    upstream = data.draw(matrices((*inputs.shape[:-1], model.layer_dims[-1])))
    with np.errstate(all="ignore"):
        trace = forward(model, batch)
        backward(model, trace, data.draw(matrices(trace.embeddings.shape)))
        buffers = list(trace.scratch)
        batch[..., :rows, :] = inputs
        assert forward(model, batch[..., :rows, :], trace) is trace
        assert all(a is b for a, b in zip(trace.scratch, buffers, strict=True))
        assert_layer_views(trace, model)
        want = reference_forward(model, inputs)
        assert_traces_same(trace, want)
        assert_grads_same(backward(model, trace, upstream),
                          reference_backward(model, want, upstream))


def one_entry_net(dims, runs=None):
    """Batch 1 and width 1 throughout: inf inputs times zero weights give a
    NaN product, to which a NaN bias is added (of the other sign on x86)."""
    stack = () if runs is None else (runs,)
    model = MlpModel(dims, [np.zeros((*stack, 1, 1)) for _ in dims[1:]],
                     [np.full((*stack, 1), np.nan) for _ in dims[1:]], np.ones((*stack, 1, 3)))
    return model, np.full((*stack, 1, 1), np.inf)


@settings(max_examples=150, deadline=None)
@given(nets())
@example(one_entry_net((1, 1)))
@example(one_entry_net((1, 1, 1)))
@example(one_entry_net((1, 1, 1), runs=1))
def test_embed_matches_forward(net):
    model, inputs = net
    with np.errstate(all="ignore"):
        assert_same(embed(model, inputs), forward(model, inputs).embeddings)


def test_embed_matches_forward_on_a_whole_split():
    rng = np.random.default_rng(3)
    model = init_model((32, 32, 32, 64), 5, seed=3)
    for b in model.biases:
        b[:] = rng.normal(size=b.shape)
    inputs = rng.normal(size=(8000, 32))
    assert_same(embed(model, inputs), forward(model, inputs).embeddings)

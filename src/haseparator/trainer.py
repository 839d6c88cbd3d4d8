"""SGD training loop with momentum, L2 weight decay, and step LR drops.

Determinism contract: train() seeds one numpy Generator from a run's seed
argument and draws a full permutation of the training set from it at the
start of every epoch; batches are consecutive slices of that permutation and
the last partial batch is used. Runs with equal seeds are bitwise
reproducible, alone or in a stack of runs trained together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields, replace

import numpy as np

from .errors import ConfigError, DivergenceError
from .losses import LossConfig, LossStack, compute_loss
from .metrics import accuracy
from .model import ForwardTrace, MlpModel, ModelGrads, backward, forward


@dataclass(frozen=True)
class TrainConfig:
    """Optimization settings; exactly one of steps or epochs must be set."""

    batch_size: int = 64
    steps: int | None = None
    epochs: int | None = None
    base_lr: float = 0.1
    lr_drop_points: tuple[int, ...] = ()
    lr_drop_factor: float = 0.1
    momentum: float = 0.9
    weight_decay: float = 1e-4
    loss: LossConfig = field(default_factory=LossConfig)

    def __post_init__(self):
        if (self.steps is None) == (self.epochs is None):
            raise ConfigError("set exactly one of steps or epochs")
        for name in ("steps", "epochs"):
            value = getattr(self, name)
            if value is not None and value < 0:
                raise ConfigError(f"{name} must be >= 0, got {value}")
        if self.batch_size < 1:
            raise ConfigError(f"batch_size must be >= 1, got {self.batch_size}")
        if not self.base_lr > 0:
            raise ConfigError(f"base_lr must be positive, got {self.base_lr}")
        if not self.lr_drop_factor > 0:
            raise ConfigError(f"lr_drop_factor must be positive, got {self.lr_drop_factor}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        drops = tuple(self.lr_drop_points)
        if any(d < 0 for d in drops) or any(a >= b for a, b in zip(drops, drops[1:])):
            raise ConfigError(f"lr_drop_points must be strictly increasing and >= 0, got {drops}")
        object.__setattr__(self, "lr_drop_points", drops)


@dataclass
class StepRecord:
    step: int
    lr: float
    c_all: float
    c_ce: float
    c_sep: float
    train_acc: float


@dataclass
class TrainReport:
    """A run's trained model and its history: a (steps, 5) float64 array
    whose row i holds step i's lr, c_all, c_ce, c_sep and train_acc."""

    history: np.ndarray
    final_model: MlpModel

    @property
    def records(self) -> list[StepRecord]:
        """The history as StepRecords, made when read; a step is its row index."""
        return [StepRecord(step, *row) for step, row in enumerate(self.history.tolist())]


def sgd_step(params, grads, velocities, lr, momentum, weight_decay) -> None:
    """A step's momentum-SGD update with additive L2, in place:
    v <- mu v + g + wd p, then p <- p - lr v.

    The arguments are equal-shape float64 buffers, each holding every
    parameter of every run of a step; each entry's arithmetic is that of
    the pure per-parameter update, so are its bits. grads is spent: once
    added, it holds the update's intermediate products.
    """
    velocities *= momentum
    velocities += grads
    velocities += np.multiply(weight_decay, params, out=grads)
    params -= np.multiply(lr, velocities, out=grads)


def lr_at(step: int, config: TrainConfig) -> float:
    """Learning rate at a step: each drop point at or before it applies once."""
    drops = sum(1 for d in config.lr_drop_points if d <= step)
    return config.base_lr * config.lr_drop_factor**drops


def resolve_total_steps(config: TrainConfig, dataset_size: int) -> int:
    if config.steps is not None:
        return config.steps
    batches_per_epoch = -(-dataset_size // config.batch_size)
    return config.epochs * batches_per_epoch


def _unpack(buffer, layer_dims, shapes, pick) -> MlpModel:
    """An MlpModel whose parameters are views of a runs x P buffer.

    Each view keeps the run axis first; pick drops it for a single run.
    """
    views, end = [], 0
    for shape in shapes:
        size = math.prod(shape)
        views.append(pick(buffer[:, end : end + size].reshape(-1, *shape)))
        end += size
    n = len(layer_dims) - 1
    return MlpModel(layer_dims, views[:n], views[n : 2 * n], views[-1])


def train(model, dataset, config, seed):
    """Run SGD over minibatches shuffled from seed; the input model is not mutated.

    Raises DivergenceError at the first step whose loss is not finite.

    A stack of K runs is trained at once when model, dataset, config and
    seed are sequences of K: models of one shape, datasets of one size
    (repeating a Dataset shares its feature array), and configs that differ
    only in their loss settings, all of one loss kind. The stack's arrays
    carry a leading run axis, and each run's bits equal those of its own
    call. Each run gathers its batch rows from its own dataset. The result
    is a list of K entries: a run's TrainReport, or the DivergenceError
    that took it out of the stack. A diverged run finishes its step's
    backward and update with the others, then leaves the stack.
    """
    stacked = isinstance(model, (list, tuple))
    models, datasets, configs, seeds = (
        (list(model), list(dataset), list(config), list(seed)) if stacked
        else ([model], [dataset], [config], [seed])
    )
    if not len(models) == len(datasets) == len(configs) == len(seeds) > 0:
        raise ConfigError("a stack needs one model, dataset, config and seed per run")
    first = configs[0]
    if any(replace(c, loss=first.loss) != first for c in configs):
        raise ConfigError("the runs of a stack may differ only in their loss settings")
    size = len(datasets[0])
    if size == 0:
        raise ConfigError("dataset is empty")
    if any(len(d) != size for d in datasets) or len({
        (m.layer_dims, m.class_weights.shape) for m in models
    }) > 1:
        raise ConfigError("the runs of a stack need equal dataset sizes and model shapes")
    total_steps = resolve_total_steps(first, size)
    if first.lr_drop_points and first.lr_drop_points[-1] >= total_steps > 0:
        raise ConfigError(
            f"lr_drop_points {first.lr_drop_points} exceed the run of {total_steps} steps"
        )
    losses = [c.loss for c in configs]
    loss = LossStack.of(losses) if stacked else first.loss
    pick = (lambda a: a) if stacked else (lambda a: a[0])

    # Run-major flat buffers: row k holds every parameter of run k, so
    # dropping a run drops a row, and the update is one in-place operation.
    # The gradient buffer has the same layout.
    layer_dims = models[0].layer_dims
    shapes = [p.shape for p in _parameters(models[0])]
    params = np.stack([np.concatenate([p.ravel() for p in _parameters(m)]) for m in models])
    velocities, grad = np.zeros_like(params), np.empty_like(params)
    net, grads = (_unpack(b, layer_dims, shapes, pick) for b in (params, grad))
    steps: dict = {}
    rngs = [np.random.default_rng(s) for s in seeds]
    alive = list(range(len(models)))
    # history[run, step]: the step's lr, c_all, c_ce, c_sep and train_acc.
    # rows picks the alive runs, a basic slice until a run leaves.
    history, rows = np.empty((len(models), total_steps, 5)), slice(None)
    outcomes: list = [None] * len(models)
    batches = -(-size // first.batch_size)

    for step in range(total_steps):
        start = (step % batches) * first.batch_size
        if start == 0:
            orders = np.array([rng.permutation(size) for rng in rngs])
        idx = orders[:, start : start + first.batch_size]
        batch_x, batch_y, trace = _step_arrays(steps, idx.shape, datasets[0].dim)
        for k, run in enumerate(alive):
            # Permutation indices never clip; unlike "raise", "clip" writes out unbuffered.
            np.take(datasets[run].features, idx[k], axis=0, out=batch_x[k], mode="clip")
            np.take(datasets[run].labels, idx[k], out=batch_y[k], mode="clip")
        forward(net, pick(batch_x), trace)
        result = compute_loss(trace.embeddings, net.class_weights, pick(batch_y), loss)
        lr = lr_at(step, first)
        acc = accuracy(result.logits, pick(batch_y))
        # A single run's values are scalars, and so is a margin-free stack's c_sep.
        for column, value in enumerate(
            (lr, result.total_loss, result.ce_loss, result.separator_loss, acc)
        ):
            history[rows, step, column] = value
        finite = np.isfinite(history[rows, step, 1])
        for k in np.flatnonzero(~finite):
            c_all, c_ce, c_sep = history[alive[k], step, 1:4].tolist()
            error = DivergenceError(
                f"training diverged at step {step}: total loss {c_all}, "
                f"cross-entropy {c_ce}, separator {c_sep}"
            )
            if not stacked:
                raise error
            outcomes[alive[k]] = error
        backward(net, trace, result.grad_embeddings, ModelGrads(grads.weights, grads.biases))
        np.copyto(grads.class_weights, result.grad_weights)
        sgd_step(params, grad, velocities, lr, first.momentum, first.weight_decay)

        if not finite.all():
            # The diverged runs leave after their step; the others keep its results.
            alive = [run for run, ok in zip(alive, finite) if ok]
            if not alive:
                break
            rows = np.array(alive)
            params, velocities, orders = params[finite], velocities[finite], orders[finite]
            grad = np.empty_like(params)
            net, grads = (_unpack(b, layer_dims, shapes, pick) for b in (params, grad))
            steps.clear()
            rngs = [rng for rng, ok in zip(rngs, finite) if ok]
            loss = LossStack.of([losses[run] for run in alive])

    for k, run in enumerate(alive):
        final = _unpack(params[k : k + 1].copy(), layer_dims, shapes, lambda a: a[0])
        outcomes[run] = TrainReport(history=history[run], final_model=final)
    return outcomes if stacked else outcomes[0]


def _step_arrays(steps, shape, dim):
    """steps[shape]: the batch features, labels and trace of a runs x rows
    batch, made on first use. An epoch's shorter last batch views the first
    rows of a full batch's arrays and shares its trace's scratch buffers."""
    if shape not in steps:
        longer = [s for s in steps if s[1] > shape[1]]
        if not longer:
            steps[shape] = np.empty((*shape, dim)), np.empty(shape, np.int64), ForwardTrace(None)
            return steps[shape]
        batch_x, batch_y, trace = steps[longer[0]]
        steps[shape] = batch_x[:, : shape[1]], batch_y[:, : shape[1]], ForwardTrace(
            None, [a[..., : shape[1], :] for a in trace.activations], list(trace.scratch))
    return steps[shape]


def _parameters(model: MlpModel) -> list[np.ndarray]:
    return [*model.weights, *model.biases, model.class_weights]


def write_report_csv(report: TrainReport, path) -> None:
    """One CRLF-terminated row per step; the columns are StepRecord's fields,
    in order: the step (its history row index) as %d, then the history
    columns as %.17g."""
    columns = [f.name for f in fields(StepRecord)]
    line = "%d" + ",%.17g" * (len(columns) - 1) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(columns) + "\r\n")
        fh.writelines(line % (step, *row) for step, row in enumerate(report.history.tolist()))

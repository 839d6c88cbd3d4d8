"""SGD training loop with momentum, L2 weight decay, and step LR drops.

Determinism contract: train() seeds one numpy Generator from a run's seed
argument and draws a full permutation of the training set from it at the
start of every epoch; batches are consecutive slices of that permutation and
the last partial batch is used. Runs with equal seeds are bitwise
reproducible, alone or in a stack of runs trained together.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, field, replace

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
        if not 0 < self.base_lr < math.inf:
            raise ConfigError(f"base_lr must be finite and > 0, got {self.base_lr}")
        if not 0 < self.lr_drop_factor < math.inf:
            raise ConfigError(f"lr_drop_factor must be finite and > 0, got {self.lr_drop_factor}")
        if not 0 <= self.momentum < 1:
            raise ConfigError(f"momentum must lie in [0, 1), got {self.momentum}")
        if not 0 <= self.weight_decay < math.inf:
            raise ConfigError(f"weight_decay must be finite and >= 0, got {self.weight_decay}")
        drops = tuple(self.lr_drop_points)
        if any(d < 0 for d in drops) or any(a >= b for a, b in zip(drops, drops[1:])):
            raise ConfigError(f"lr_drop_points must be strictly increasing and >= 0, got {drops}")
        object.__setattr__(self, "lr_drop_points", drops)


# A training step's values, in the order of a history row and report.csv.
HISTORY_COLUMNS = ("lr", "c_all", "c_ce", "c_sep", "train_acc")
StepRecord = namedtuple("StepRecord", ("step", *HISTORY_COLUMNS))


@dataclass
class TrainReport:
    """A run's trained model and its history: a (steps, len(HISTORY_COLUMNS))
    float64 array whose row i holds step i's values of HISTORY_COLUMNS."""

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

    Raises DivergenceError naming the first step whose loss is not finite.

    A stack of K runs is trained at once when model, dataset, config and
    seed are sequences of K: models of one shape, datasets of one size
    (repeating a Dataset shares its feature array), and configs that differ
    only in their loss settings, all of one loss kind. The stack's arrays
    carry a leading run axis, and each run's bits equal those of its own
    call. Each run gathers its batch rows from its own dataset. The result
    is a list of K entries: a run's TrainReport, or the DivergenceError
    naming its first non-finite step. A diverged run keeps its place in
    the stack's arrays and keeps computing, but nothing reads its values
    again; training stops once every run has diverged. A single run is a
    stack of one whose error is raised after the loop. The error reports a
    non-finite step, so the step loop shows no numpy floating-point warning.
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
    loss = LossStack.of([c.loss for c in configs]) if stacked else first.loss
    pick = (lambda a: a) if stacked else (lambda a: a[0])

    # Run-major flat buffers: row k holds every parameter of run k, and the
    # update is one in-place operation. The gradient buffer has the same layout.
    layer_dims = models[0].layer_dims
    shapes = [p.shape for p in _parameters(models[0])]
    params = np.stack([np.concatenate([p.ravel() for p in _parameters(m)]) for m in models])
    velocities, grad = np.zeros_like(params), np.empty_like(params)
    net, grads = (_unpack(b, layer_dims, shapes, pick) for b in (params, grad))
    rngs = [np.random.default_rng(s) for s in seeds]
    # history[run, step]: the step's values of HISTORY_COLUMNS, in order.
    history = np.empty((len(models), total_steps, len(HISTORY_COLUMNS)))
    outcomes: list = [None] * len(models)
    batches = -(-size // first.batch_size)
    # One batch's arrays and trace serve every step: an epoch's shorter last
    # batch views their leading rows.
    batch_x = np.empty((len(models), min(first.batch_size, size), datasets[0].dim))
    batch_y = np.empty(batch_x.shape[:2], np.int64)
    trace = ForwardTrace(None)

    with np.errstate(all="ignore"):
        for step in range(total_steps):
            start = (step % batches) * first.batch_size
            if start == 0:
                orders = np.array([rng.permutation(size) for rng in rngs])
            idx = orders[:, start : start + first.batch_size]
            x, y = batch_x[:, : idx.shape[1]], batch_y[:, : idx.shape[1]]
            for k, data in enumerate(datasets):
                # Permutation indices never clip; unlike "raise", "clip" writes out unbuffered.
                np.take(data.features, idx[k], axis=0, out=x[k], mode="clip")
                np.take(data.labels, idx[k], out=y[k], mode="clip")
            forward(net, pick(x), trace)
            result = compute_loss(trace.embeddings, net.class_weights, pick(y), loss)
            lr = lr_at(step, first)
            acc = accuracy(result.logits, pick(y))
            # A single run's values are scalars, and so is a margin-free stack's c_sep.
            for column, value in enumerate(
                (lr, result.total_loss, result.ce_loss, result.separator_loss, acc)
            ):
                history[:, step, column] = value
            for k in np.flatnonzero(~np.isfinite(history[:, step, 1])):
                if outcomes[k] is None:
                    c_all, c_ce, c_sep = history[k, step, 1:4].tolist()
                    outcomes[k] = DivergenceError(
                        f"training diverged at step {step}: total loss {c_all}, "
                        f"cross-entropy {c_ce}, separator {c_sep}"
                    )
            if None not in outcomes:
                break
            backward(net, trace, result.grad_embeddings, ModelGrads(grads.weights, grads.biases))
            np.copyto(grads.class_weights, result.grad_weights)
            sgd_step(params, grad, velocities, lr, first.momentum, first.weight_decay)

    for k, outcome in enumerate(outcomes):
        if outcome is None:
            final = _unpack(params[k : k + 1].copy(), layer_dims, shapes, lambda a: a[0])
            outcomes[k] = TrainReport(history=history[k], final_model=final)
    if not stacked and isinstance(outcomes[0], DivergenceError):
        raise outcomes[0]
    return outcomes if stacked else outcomes[0]


def _parameters(model: MlpModel) -> list[np.ndarray]:
    return [*model.weights, *model.biases, model.class_weights]


def write_report_csv(report: TrainReport, path) -> None:
    """One CRLF-terminated row per step: the step (its history row index)
    as %d, then its HISTORY_COLUMNS as %.17g, under a header of their names."""
    line = "%d" + ",%.17g" * len(HISTORY_COLUMNS) + "\r\n"
    with open(path, "w", newline="") as fh:
        fh.write(",".join(("step", *HISTORY_COLUMNS)) + "\r\n")
        fh.writelines(line % (step, *row) for step, row in enumerate(report.history.tolist()))

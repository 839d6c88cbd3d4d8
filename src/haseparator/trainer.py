"""SGD training loop with momentum, L2 weight decay, and step LR drops.

Determinism contract: train() seeds one numpy Generator from a run's seed
argument and draws a full permutation of the training set from it at the
start of every epoch; batches are consecutive slices of that permutation and
the last partial batch is used. Runs with equal seeds are bitwise
reproducible, alone or in a stack of runs trained together.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace

import numpy as np

from .errors import ConfigError, DivergenceError
from .losses import LossConfig, LossStack, compute_loss
from .metrics import accuracy
from .model import MlpModel, backward, forward


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
        if self.weight_decay < 0:
            raise ConfigError(f"weight_decay must be >= 0, got {self.weight_decay}")
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
    records: list[StepRecord]
    final_model: MlpModel


def sgd_step(params, grads, velocities, lr, momentum, weight_decay) -> None:
    """A step's momentum-SGD update with additive L2, in place:
    v <- mu v + g + wd p, then p <- p - lr v.

    The arguments are equal-shape float64 buffers, each holding every
    parameter of every run of a step; each entry's arithmetic is that of
    the pure per-parameter update, so are its bits.
    """
    velocities *= momentum
    velocities += grads
    velocities += weight_decay * params
    params -= lr * velocities


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
    call. The result is a list of K entries: a run's TrainReport, or the
    DivergenceError that took it out of the stack while the others went on.
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

    distinct = {id(d): d for d in datasets}
    which = np.array([list(distinct).index(id(d)) for d in datasets])
    distinct = list(distinct.values())

    # Run-major flat buffers: row k holds every parameter of run k, so
    # dropping a run drops a row, and the update is one in-place operation.
    layer_dims = models[0].layer_dims
    shapes = [p.shape for p in _parameters(models[0])]
    params = np.stack([np.concatenate([p.ravel() for p in _parameters(m)]) for m in models])
    velocities = np.zeros_like(params)
    net = _unpack(params, layer_dims, shapes, pick)
    rngs = [np.random.default_rng(s) for s in seeds]
    alive = list(range(len(models)))
    records: list[list[StepRecord]] = [[] for _ in models]
    outcomes: list = [None] * len(models)
    batches = -(-size // first.batch_size)

    for step in range(total_steps):
        start = (step % batches) * first.batch_size
        if start == 0:
            orders = np.array([rng.permutation(size) for rng in rngs])
        while alive:
            idx = orders[:, start : start + first.batch_size]
            batch_x, batch_y = map(pick, _batch(distinct, which, idx))
            trace = forward(net, batch_x)
            result = compute_loss(trace.embeddings, net.class_weights, batch_y, loss)
            values = np.stack(
                np.broadcast_arrays(result.total_loss, result.ce_loss, result.separator_loss),
                axis=-1,
            ).reshape(-1, 3)  # c_all, c_ce, c_sep of each run
            finite = np.isfinite(values[:, 0])
            if finite.all():
                break
            for k in np.flatnonzero(~finite):
                c_all, c_ce, c_sep = values[k].tolist()
                error = DivergenceError(
                    f"training diverged at step {step}: total loss {c_all}, "
                    f"cross-entropy {c_ce}, separator {c_sep}"
                )
                if not stacked:
                    raise error
                outcomes[alive[k]] = error
            # The diverged runs leave the stack, and the step is redone
            # without them.
            alive = [run for run, ok in zip(alive, finite) if ok]
            params, velocities = params[finite], velocities[finite]
            which, orders = which[finite], orders[finite]
            rngs = [rng for rng, ok in zip(rngs, finite) if ok]
            loss = LossStack.of([losses[run] for run in alive]) if alive else loss
            net = _unpack(params, layer_dims, shapes, pick)
        if not alive:
            break
        grads = backward(net, trace, result.grad_embeddings)
        lr = lr_at(step, first)
        grad = np.concatenate(
            [g.reshape(len(alive), -1)
             for g in (*grads.weights, *grads.biases, result.grad_weights)],
            axis=1,
        )
        sgd_step(params, grad, velocities, lr, first.momentum, first.weight_decay)

        train_acc = np.reshape(accuracy(result.logits, batch_y), -1).tolist()
        for run, run_losses, acc in zip(alive, values.tolist(), train_acc):
            records[run].append(StepRecord(step, lr, *run_losses, acc))

    for k, run in enumerate(alive):
        final = _unpack(params[k : k + 1].copy(), layer_dims, shapes, lambda a: a[0])
        outcomes[run] = TrainReport(records=records[run], final_model=final)
    return outcomes if stacked else outcomes[0]


def _batch(datasets, which, idx):
    """Features and labels of rows idx[k] of datasets[which[k]] for each run k.

    Only those rows are copied: the stack never holds a second copy of its
    datasets.
    """
    if len(datasets) == 1:
        return datasets[0].features[idx], datasets[0].labels[idx]
    features, labels = datasets[0].features, datasets[0].labels
    batch_x = np.empty((*idx.shape, *features.shape[1:]), dtype=features.dtype)
    batch_y = np.empty(idx.shape, dtype=labels.dtype)
    for d, dataset in enumerate(datasets):
        runs = np.flatnonzero(which == d)
        rows = idx[runs]
        batch_x[runs], batch_y[runs] = dataset.features[rows], dataset.labels[rows]
    return batch_x, batch_y


def _parameters(model: MlpModel) -> list[np.ndarray]:
    return [*model.weights, *model.biases, model.class_weights]


def write_report_csv(report: TrainReport, path) -> None:
    """One CRLF-terminated row per step: step, lr, c_all, c_ce, c_sep, train_acc."""
    rows = ((r.step, r.lr, r.c_all, r.c_ce, r.c_sep, r.train_acc) for r in report.records)
    with open(path, "w", newline="") as fh:
        fh.write("step,lr,c_all,c_ce,c_sep,train_acc\r\n")
        fh.writelines("%d,%.17g,%.17g,%.17g,%.17g,%.17g\r\n" % row for row in rows)

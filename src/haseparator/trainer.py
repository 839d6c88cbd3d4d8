"""SGD training loop with momentum, L2 weight decay, and step LR drops.

Determinism contract: train() seeds one numpy Generator from its seed
argument and draws a full permutation of the training set from it at the
start of every epoch; batches are consecutive slices of that permutation and
the last partial batch is used. Runs with equal seeds are bitwise
reproducible.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .data import Dataset
from .errors import ConfigError, DivergenceError, ShapeError
from .losses import LossConfig, compute_loss
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


def sgd_step(param, grad, velocity, lr, momentum, weight_decay):
    """One momentum-SGD update with additive L2: v <- mu v + g + wd p, p <- p - lr v.

    Pure: returns fresh (param, velocity) arrays.
    """
    param = np.asarray(param, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    velocity = np.asarray(velocity, dtype=np.float64)
    if param.shape != grad.shape or param.shape != velocity.shape:
        raise ShapeError(
            f"param {param.shape}, grad {grad.shape}, velocity {velocity.shape} must match"
        )
    new_velocity = momentum * velocity + grad + weight_decay * param
    return param - lr * new_velocity, new_velocity


def lr_at(step: int, config: TrainConfig) -> float:
    """Learning rate at a step: each drop point at or before it applies once."""
    drops = sum(1 for d in config.lr_drop_points if d <= step)
    return config.base_lr * config.lr_drop_factor**drops


def resolve_total_steps(config: TrainConfig, dataset_size: int) -> int:
    if config.steps is not None:
        return config.steps
    batches_per_epoch = -(-dataset_size // config.batch_size)
    return config.epochs * batches_per_epoch


def train(model: MlpModel, dataset: Dataset, config: TrainConfig, seed) -> TrainReport:
    """Run SGD over minibatches shuffled from seed; the input model is not mutated.

    Raises DivergenceError at the first step whose loss is not finite.
    """
    if len(dataset) == 0:
        raise ConfigError("dataset is empty")
    total_steps = resolve_total_steps(config, len(dataset))
    if config.lr_drop_points and config.lr_drop_points[-1] >= total_steps > 0:
        raise ConfigError(
            f"lr_drop_points {config.lr_drop_points} exceed the run of {total_steps} steps"
        )
    model = model.copy()
    rng = np.random.default_rng(seed)
    params = model.weights + model.biases + [model.class_weights]
    velocities = [np.zeros_like(p) for p in params]
    records: list[StepRecord] = []

    step = 0
    while step < total_steps:
        order = rng.permutation(len(dataset))
        for start in range(0, len(dataset), config.batch_size):
            if step >= total_steps:
                break
            idx = order[start : start + config.batch_size]
            batch_x = dataset.features[idx]
            batch_y = dataset.labels[idx]

            trace = forward(model, batch_x)
            result = compute_loss(trace.embeddings, model.class_weights, batch_y, config.loss)
            if not math.isfinite(result.total_loss):
                raise DivergenceError(
                    f"training diverged at step {step}: total loss {result.total_loss}, "
                    f"cross-entropy {result.ce_loss}, separator {result.separator_loss}"
                )
            grads = backward(model, trace, result.grad_embeddings)

            lr = lr_at(step, config)
            n_layers = len(model.weights)
            for i in range(n_layers):
                model.weights[i], velocities[i] = sgd_step(
                    model.weights[i], grads.weights[i], velocities[i],
                    lr, config.momentum, config.weight_decay,
                )
                model.biases[i], velocities[n_layers + i] = sgd_step(
                    model.biases[i], grads.biases[i], velocities[n_layers + i],
                    lr, config.momentum, config.weight_decay,
                )
            model.class_weights, velocities[-1] = sgd_step(
                model.class_weights, result.grad_weights, velocities[-1],
                lr, config.momentum, config.weight_decay,
            )

            records.append(
                StepRecord(
                    step=step,
                    lr=lr,
                    c_all=result.total_loss,
                    c_ce=result.ce_loss,
                    c_sep=result.separator_loss,
                    train_acc=accuracy(result.logits, batch_y),
                )
            )
            step += 1

    return TrainReport(records=records, final_model=model)


def write_report_csv(report: TrainReport, path) -> None:
    """One CRLF-terminated row per step: step, lr, c_all, c_ce, c_sep, train_acc."""
    rows = ((r.step, r.lr, r.c_all, r.c_ce, r.c_sep, r.train_acc) for r in report.records)
    with open(path, "w", newline="") as fh:
        fh.write("step,lr,c_all,c_ce,c_sep,train_acc\r\n")
        fh.writelines("%d,%.17g,%.17g,%.17g,%.17g,%.17g\r\n" % row for row in rows)

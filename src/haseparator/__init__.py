"""Hyperplane-margin embedding learning on normalized cosine classifiers.

Cosine-classifier losses (plain softmax, additive angular margin, and a
hinge on projections onto inter-class hyperplane normals), a small
from-scratch MLP with analytic gradients, a seeded SGD trainer, and an
evaluation suite that scores embedding discrimination through pair-angle
histograms (KL divergence and 1-d Wasserstein distance).
"""

from .data import Dataset, gaussian_blobs, load_delimited, split_dataset, two_rings
from .errors import (
    CheckpointError,
    ConfigError,
    DataFormatError,
    DivergenceError,
    LabelError,
    NonNumericCellError,
    RaggedRowError,
    ShapeError,
)
from .losses import (
    ARCFACE,
    HASEPARATOR,
    LOSS_KINDS,
    SOFTMAX,
    LossConfig,
    LossResult,
    compute_loss,
)
from .metrics import (
    AngleHistograms,
    DiscriminationScores,
    accuracy,
    build_histograms,
    emd_1d,
    kl_divergence,
    pair_angles,
)
from .model import (
    MlpModel,
    backward,
    forward,
    init_model,
    load_checkpoint,
    save_checkpoint,
)
from .runner import (
    DatasetConfig,
    ExperimentConfig,
    ExperimentResult,
    SweepConfig,
    SweepRecord,
    evaluate_model,
    run_experiment,
    run_sweep,
    write_sweep_csv,
)
from .trainer import TrainConfig, TrainReport, lr_at, sgd_step, train

__all__ = [
    "ARCFACE",
    "HASEPARATOR",
    "LOSS_KINDS",
    "SOFTMAX",
    "AngleHistograms",
    "CheckpointError",
    "ConfigError",
    "DataFormatError",
    "Dataset",
    "DatasetConfig",
    "DiscriminationScores",
    "DivergenceError",
    "ExperimentConfig",
    "ExperimentResult",
    "LabelError",
    "LossConfig",
    "LossResult",
    "MlpModel",
    "NonNumericCellError",
    "RaggedRowError",
    "ShapeError",
    "SweepConfig",
    "SweepRecord",
    "TrainConfig",
    "TrainReport",
    "accuracy",
    "backward",
    "build_histograms",
    "compute_loss",
    "emd_1d",
    "evaluate_model",
    "forward",
    "gaussian_blobs",
    "init_model",
    "kl_divergence",
    "load_checkpoint",
    "load_delimited",
    "lr_at",
    "pair_angles",
    "run_experiment",
    "run_sweep",
    "save_checkpoint",
    "sgd_step",
    "split_dataset",
    "train",
    "two_rings",
    "write_sweep_csv",
]

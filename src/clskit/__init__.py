"""Deterministic classifier training, prediction fusion, and evaluation.

The package is organized as a thin stack: ``numerics`` provides the seeded
random streams, a stable softmax and input checks, ``losses`` the
smoothed/focal cross-entropy family, ``schedule`` step-decay learning rates,
``trainer`` a small reference classifier, ``metrics`` the five ranking
metrics, ``ensemble`` weighted prediction fusion and the fusion-weight
sweep, ``ids`` the sample-id column, ``fileio`` the prediction and label CSVs
and the run-config and manifest JSON files, and ``cli`` the command-line
surface.
"""

from .ensemble import EnsembleManifest, EnsembleMember, fuse, sweep_weights
from .losses import LossConfig, loss_grad, loss_value, smooth_labels
from .metrics import (
    MetricReport,
    full_report,
    mean_auc,
    mean_average_precision,
    mean_class_accuracy,
    topk_accuracy,
)
from .numerics import make_rng, softmax
from .schedule import FreezePolicy, StepDecaySchedule, default_schedule, lr_at, schedule_table
from .trainer import (
    BackboneHead,
    EpochRecord,
    FeatureDataset,
    TrainConfig,
    TrainLog,
    forward,
    init_model,
    predict,
    synth_dataset,
    train,
)

__version__ = "0.1.0"

__all__ = [
    "BackboneHead",
    "EnsembleManifest",
    "EnsembleMember",
    "EpochRecord",
    "FeatureDataset",
    "FreezePolicy",
    "LossConfig",
    "MetricReport",
    "StepDecaySchedule",
    "TrainConfig",
    "TrainLog",
    "default_schedule",
    "forward",
    "full_report",
    "fuse",
    "init_model",
    "loss_grad",
    "loss_value",
    "lr_at",
    "make_rng",
    "mean_auc",
    "mean_average_precision",
    "mean_class_accuracy",
    "predict",
    "schedule_table",
    "smooth_labels",
    "softmax",
    "sweep_weights",
    "synth_dataset",
    "topk_accuracy",
    "train",
]

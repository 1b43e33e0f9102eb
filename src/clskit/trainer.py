"""Deterministic reference classifier: fixed random-feature backbone plus a
trainable linear softmax head.

The backbone is a random linear map followed by a rectifier; it stands in
for a large pretrained feature extractor, which is exactly what makes the
frozen/unfrozen distinction meaningful here.  Training is plain mini-batch
gradient descent (no momentum, no weight decay) so every update is
checkable against the analytic gradients in :mod:`clskit.losses`.

Determinism: the data, initialization, and per-epoch shuffles each come
from their own keyed stream, so (seed, config, data) fully determine the
model, the log, and all predictions.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .losses import LossConfig, label_terms, loss_kernel
from .metrics import topk_accuracy
from .numerics import CHUNK_ELEMENTS, check_labels, make_rng, softmax, softmax_rows
from .schedule import FreezePolicy, StepDecaySchedule, lr_at

# Stream-key tags keeping dataset geometry, model init, and shuffles on
# disjoint generators regardless of the user-facing seed values.
_DIRECTION_TAG = 11
_INIT_TAG = 22
_SHUFFLE_TAG = 33


@dataclass
class FeatureDataset:
    """Feature rows with integer class labels."""

    features: np.ndarray  # (n, d) float
    labels: np.ndarray  # (n,) int in [0, num_classes)
    num_classes: int

    def __post_init__(self) -> None:
        self.features = np.asarray(self.features, dtype=float)
        if self.features.ndim != 2 or self.features.shape[0] < 1:
            raise ValueError("features must be a non-empty 2-D matrix")
        if not np.all(np.isfinite(self.features)):
            raise ValueError("features must be finite")
        if self.num_classes < 2:
            raise ValueError(f"num_classes must be >= 2, got {self.num_classes}")
        # integers in range: a fraction or a string is rejected, not cast
        self.labels = check_labels(self.labels, self.features.shape[0], self.num_classes)

    @property
    def n(self) -> int:
        return self.features.shape[0]

    @property
    def dims(self) -> int:
        return self.features.shape[1]


@dataclass
class BackboneHead:
    """Fixed-at-init backbone matrix plus trainable linear head."""

    backbone: np.ndarray  # (hidden, dims)
    head_weights: np.ndarray  # (classes, hidden)
    head_bias: np.ndarray  # (classes,)


@dataclass(frozen=True)
class TrainConfig:
    epochs: int
    batch_size: int
    schedule: StepDecaySchedule
    loss: LossConfig
    freeze: FreezePolicy
    seed: int
    hidden_dim: int = 32

    def __post_init__(self) -> None:
        if self.epochs < 1:
            raise ValueError(f"epochs must be >= 1, got {self.epochs}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if self.hidden_dim < 1:
            raise ValueError(f"hidden_dim must be >= 1, got {self.hidden_dim}")
        object.__setattr__(self, "freeze", FreezePolicy(self.freeze))


@dataclass(frozen=True)
class EpochRecord:
    epoch: int
    lr: float
    train_loss: float
    val_top1: float


@dataclass(frozen=True)
class TrainLog:
    records: tuple[EpochRecord, ...]
    # The last epoch's validation predictions, those of the returned model:
    # the bits of ``predict(model, val_set)``.  Not compared, so two logs are
    # equal when their records are.
    val_probs: np.ndarray | None = field(default=None, compare=False, repr=False)


def _class_direction(class_index: int, dims: int) -> np.ndarray:
    # Fixed per (class, dims): datasets drawn with different seeds share
    # blob geometry, and a train/val pair stays a single learning problem.
    g = make_rng(_DIRECTION_TAG, class_index).standard_normal(dims)
    return g / np.linalg.norm(g)


def synth_dataset(
    seed: int, n: int, d: int, num_classes: int, separation: float
) -> FeatureDataset:
    """Gaussian-blob dataset: one unit-covariance blob per class, its mean at
    distance ``separation`` from the origin along a class-specific direction.

    Labels are balanced within one sample; row order is a seeded shuffle.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if n < num_classes:
        raise ValueError(f"n must be >= num_classes, got n={n}, num_classes={num_classes}")
    if d < 1:
        raise ValueError(f"d must be >= 1, got {d}")
    if not (math.isfinite(separation) and separation >= 0.0):
        raise ValueError(f"separation must be a non-negative real, got {separation}")
    rng = make_rng(seed)
    counts = [n // num_classes + (1 if c < n % num_classes else 0) for c in range(num_classes)]
    labels = np.repeat(np.arange(num_classes), counts)
    directions = np.stack([_class_direction(c, d) for c in range(num_classes)])
    features = separation * directions[labels] + rng.standard_normal((n, d))
    order = rng.permutation(n)
    return FeatureDataset(features[order], labels[order], num_classes)


def init_model(dims: int, num_classes: int, hidden_dim: int, seed: int) -> BackboneHead:
    """Backbone entries ~ N(0, 1/d) (rows roughly unit norm); zero head, so
    the untrained model predicts the uniform distribution."""
    if dims < 1 or num_classes < 2 or hidden_dim < 1:
        raise ValueError("dims >= 1, num_classes >= 2, hidden_dim >= 1 required")
    rng = make_rng(_INIT_TAG, seed)
    backbone = rng.standard_normal((hidden_dim, dims)) / math.sqrt(dims)
    return BackboneHead(
        backbone=backbone,
        head_weights=np.zeros((num_classes, hidden_dim)),
        head_bias=np.zeros(num_classes),
    )


def _layers(model: BackboneHead, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Hidden activations and logits of the feature rows ``x`` (n, d).

    Stacked matrix-vector products, one per row, keep each row's bits
    independent of the other rows: ``forward`` and ``predict`` agree exactly.
    """
    hidden = np.maximum(np.matmul(x[:, None, :], model.backbone.T)[:, 0], 0.0)
    logits = np.matmul(hidden[:, None, :], model.head_weights.T)[:, 0] + model.head_bias
    return hidden, logits


def forward(model: BackboneHead, features: np.ndarray) -> np.ndarray:
    """softmax(head_weights @ relu(backbone @ x) + head_bias) for one row."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 1 or x.shape[0] != model.backbone.shape[1]:
        raise ValueError(
            f"feature row must have length {model.backbone.shape[1]}, got shape {x.shape}"
        )
    _, logits = _layers(model, x[None, :])
    return softmax(logits[0])


def predict(model: BackboneHead, dataset: FeatureDataset) -> np.ndarray:
    """Row i of the result is ``forward(model, dataset.features[i])``; rows go
    in blocks of at most ``CHUNK_ELEMENTS`` hidden activations."""
    if dataset.dims != model.backbone.shape[1]:
        raise ValueError(
            f"dataset dims {dataset.dims} != model input dims {model.backbone.shape[1]}"
        )
    if dataset.num_classes != model.head_bias.shape[0]:
        raise ValueError(
            f"dataset classes {dataset.num_classes} != model classes {model.head_bias.shape[0]}"
        )
    out = np.empty((dataset.n, dataset.num_classes))
    rows = max(1, CHUNK_ELEMENTS // model.backbone.shape[0])
    with np.errstate(over="ignore", invalid="ignore"):  # softmax_rows rejects overflow
        for start in range(0, dataset.n, rows):
            _, logits = _layers(model, dataset.features[start : start + rows])
            out[start : start + rows] = softmax_rows(logits)
    return out


def train(
    train_set: FeatureDataset, val_set: FeatureDataset, config: TrainConfig
) -> tuple[BackboneHead, TrainLog]:
    """Mini-batch gradient descent on the configured loss.

    Per epoch: lr from the schedule, a seeded shuffle, sequential batch
    updates ``param -= lr * mean_gradient``, each batch one forward and one
    backward pass over its rows.  The shuffled rows go in blocks of whole
    batches, at most ``CHUNK_ELEMENTS`` values per gathered array: a block
    gathers its feature rows and its :func:`~clskit.losses.label_terms`
    once, and each batch slices them, so the block size changes no bit.  A
    diverged batch is named by its index from the start of the epoch.  With
    ``freeze=frozen`` the backbone array is never touched, so it is
    bit-identical afterwards.  The log keeps the last epoch's validation
    predictions as ``val_probs``.
    """
    if train_set.dims != val_set.dims:
        raise ValueError(f"train dims {train_set.dims} != val dims {val_set.dims}")
    if train_set.num_classes != val_set.num_classes:
        raise ValueError(
            f"train classes {train_set.num_classes} != val classes {val_set.num_classes}"
        )
    model = init_model(train_set.dims, train_set.num_classes, config.hidden_dim, config.seed)
    frozen = config.freeze is FreezePolicy.FROZEN
    n, batch_size = train_set.n, config.batch_size
    # whole batches per block, so that a block's gathered features and label
    # terms hold at most CHUNK_ELEMENTS values each (one batch at least)
    widest = max(train_set.dims, train_set.num_classes)
    block = batch_size * max(1, CHUNK_ELEMENTS // (batch_size * widest))
    records = []
    # A diverging run's products may overflow; softmax_rows then rejects the
    # non-finite logits and names the batch, so the warnings would add nothing.
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            lr = lr_at(config.schedule, epoch)
            order = make_rng(_SHUFFLE_TAG, config.seed, epoch).permutation(n)
            loss_total = 0.0
            for block_start in range(0, n, block):
                rows = order[block_start : block_start + block]
                block_x = train_set.features[rows]
                block_terms = label_terms(
                    train_set.labels[rows], train_set.num_classes, config.loss
                )
                for start in range(0, len(rows), batch_size):
                    stop = start + batch_size
                    x = block_x[start:stop]
                    hidden, logits = _layers(model, x)
                    try:
                        probs = softmax_rows(logits)
                    except ValueError as exc:  # diverged: say where
                        raise ValueError(
                            f"epoch {epoch} batch {(block_start + start) // batch_size}: {exc}"
                        ) from None
                    terms = tuple([t[start:stop] for t in block_terms])
                    losses, g_logits = loss_kernel(probs, terms, config.loss)
                    loss_total += float(losses.sum())
                    grad_backbone = None
                    if not frozen:
                        g_hidden = np.where(hidden > 0.0, g_logits @ model.head_weights, 0.0)
                        grad_backbone = g_hidden.T @ x
                    size = len(x)
                    model.head_weights = model.head_weights - lr * ((g_logits.T @ hidden) / size)
                    model.head_bias = model.head_bias - lr * (g_logits.sum(axis=0) / size)
                    if grad_backbone is not None:
                        model.backbone = model.backbone - lr * (grad_backbone / size)
            try:
                val_probs = predict(model, val_set)
            except ValueError as exc:  # the epoch's last update diverged
                raise ValueError(f"epoch {epoch} validation: {exc}") from None
            val_top1 = topk_accuracy(val_probs, val_set.labels, 1)
            records.append(EpochRecord(epoch, lr, loss_total / n, val_top1))
    return model, TrainLog(tuple(records), val_probs)

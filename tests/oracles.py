"""Reference implementations for the batched loss kernel and trainer.

The functions below are verbatim copies of the per-sample code that
``clskit.losses.loss_rows`` and the batched ``clskit.trainer`` replaced: a
loss and a gradient computed class by class for one sample, prediction row
by row, and training sample by sample.  The tests compare the batched code
against them.
"""

from __future__ import annotations

import math

import numpy as np

from clskit.losses import LossConfig
from clskit.metrics import topk_accuracy
from clskit.numerics import check_probability_vector, make_rng, softmax
from clskit.schedule import FreezePolicy, lr_at
from clskit.trainer import (
    _SHUFFLE_TAG,
    BackboneHead,
    EpochRecord,
    FeatureDataset,
    TrainConfig,
    TrainLog,
    init_model,
)


def _off_target_weight(epsilon: float, num_classes: int) -> float:
    # eps == 0 keeps unit weight on the off-target terms (the unsmoothed
    # form); smoothing replaces it with the smoothed off-target mass.
    return epsilon / (num_classes - 1) if epsilon > 0.0 else 1.0


def loss_value(p: np.ndarray, true_class: int, config: LossConfig) -> float:
    """Per-sample loss for probability vector ``p`` and true class ``c``."""
    q = check_probability_vector(p)
    num_classes = q.size
    if not 0 <= true_class < num_classes:
        raise IndexError(f"true_class {true_class} out of range for {num_classes} classes")
    floor = config.clamp_floor
    q = np.clip(q, floor, 1.0 - floor)
    eps, gamma = config.epsilon, config.gamma

    qc = float(q[true_class])
    value = -((1.0 - qc) ** gamma) * (1.0 - eps) * math.log(qc)
    if config.form == "per_class_sum":
        off_w = _off_target_weight(eps, num_classes)
        for i in range(num_classes):
            if i == true_class:
                continue
            qi = float(q[i])
            value -= (qi**gamma) * off_w * math.log1p(-qi)
    return value


def loss_grad(logits: np.ndarray, true_class: int, config: LossConfig) -> np.ndarray:
    """Gradient of ``loss_value(softmax(logits), c)`` with respect to the logits.

    For ``eps = 0, gamma = 0, target_only`` this is the classical
    ``softmax(logits) - onehot(c)``.
    """
    p = softmax(logits)
    num_classes = p.size
    if not 0 <= true_class < num_classes:
        raise IndexError(f"true_class {true_class} out of range for {num_classes} classes")
    floor = config.clamp_floor
    q = np.clip(p, floor, 1.0 - floor)
    eps, gamma = config.epsilon, config.gamma

    # dL/dp, term by term.  The gamma > 0 guards avoid 0 * inf at the
    # clamp boundaries when the focal factor is off.
    dldp = np.zeros(num_classes)
    qc = float(q[true_class])
    d_target = -(1.0 - eps) * ((1.0 - qc) ** gamma) / qc
    if gamma > 0.0:
        d_target += (1.0 - eps) * gamma * ((1.0 - qc) ** (gamma - 1.0)) * math.log(qc)
    dldp[true_class] = d_target
    if config.form == "per_class_sum":
        off_w = _off_target_weight(eps, num_classes)
        for i in range(num_classes):
            if i == true_class:
                continue
            qi = float(q[i])
            d_i = off_w * (qi**gamma) / (1.0 - qi)
            if gamma > 0.0:
                d_i -= off_w * gamma * (qi ** (gamma - 1.0)) * math.log1p(-qi)
            dldp[i] = d_i

    # Chain through the softmax Jacobian: dL/dz_j = p_j * (d_j - <d, p>).
    return p * (dldp - float(np.dot(dldp, p)))


def forward(model: BackboneHead, features: np.ndarray) -> np.ndarray:
    """softmax(head_weights @ relu(backbone @ x) + head_bias) for one row."""
    x = np.asarray(features, dtype=float)
    if x.ndim != 1 or x.shape[0] != model.backbone.shape[1]:
        raise ValueError(
            f"feature row must have length {model.backbone.shape[1]}, got shape {x.shape}"
        )
    hidden = np.maximum(model.backbone @ x, 0.0)
    return softmax(model.head_weights @ hidden + model.head_bias)


def predict(model: BackboneHead, dataset: FeatureDataset) -> np.ndarray:
    """Row i of the result is ``forward(model, dataset.features[i])``."""
    if dataset.dims != model.backbone.shape[1]:
        raise ValueError(
            f"dataset dims {dataset.dims} != model input dims {model.backbone.shape[1]}"
        )
    if dataset.num_classes != model.head_bias.shape[0]:
        raise ValueError(
            f"dataset classes {dataset.num_classes} != model classes {model.head_bias.shape[0]}"
        )
    out = np.empty((dataset.n, dataset.num_classes))
    for i in range(dataset.n):
        out[i] = forward(model, dataset.features[i])
    return out


def train(
    train_set: FeatureDataset, val_set: FeatureDataset, config: TrainConfig
) -> tuple[BackboneHead, TrainLog]:
    """Mini-batch gradient descent on the configured loss.

    Per epoch: lr from the schedule, a seeded shuffle, sequential batch
    updates ``param -= lr * mean_gradient``.  With ``freeze=frozen`` the
    backbone array is never touched, so it is bit-identical afterwards.
    """
    if train_set.dims != val_set.dims:
        raise ValueError(f"train dims {train_set.dims} != val dims {val_set.dims}")
    if train_set.num_classes != val_set.num_classes:
        raise ValueError(
            f"train classes {train_set.num_classes} != val classes {val_set.num_classes}"
        )
    model = init_model(train_set.dims, train_set.num_classes, config.hidden_dim, config.seed)
    frozen = config.freeze is FreezePolicy.FROZEN
    n = train_set.n
    records = []
    for epoch in range(config.epochs):
        lr = lr_at(config.schedule, epoch)
        order = make_rng(_SHUFFLE_TAG, config.seed, epoch).permutation(n)
        loss_total = 0.0
        for start in range(0, n, config.batch_size):
            batch = order[start : start + config.batch_size]
            grad_w = np.zeros_like(model.head_weights)
            grad_b = np.zeros_like(model.head_bias)
            grad_backbone = None if frozen else np.zeros_like(model.backbone)
            for idx in batch:
                x = train_set.features[idx]
                c = int(train_set.labels[idx])
                pre_hidden = model.backbone @ x
                hidden = np.maximum(pre_hidden, 0.0)
                logits = model.head_weights @ hidden + model.head_bias
                loss_total += loss_value(softmax(logits), c, config.loss)
                g_logits = loss_grad(logits, c, config.loss)
                grad_w += np.outer(g_logits, hidden)
                grad_b += g_logits
                if grad_backbone is not None:
                    g_hidden = model.head_weights.T @ g_logits
                    grad_backbone += np.outer(
                        np.where(pre_hidden > 0.0, g_hidden, 0.0), x
                    )
            size = len(batch)
            model.head_weights = model.head_weights - lr * (grad_w / size)
            model.head_bias = model.head_bias - lr * (grad_b / size)
            if grad_backbone is not None:
                model.backbone = model.backbone - lr * (grad_backbone / size)
        val_top1 = topk_accuracy(predict(model, val_set), val_set.labels, 1)
        records.append(EpochRecord(epoch, lr, loss_total / n, val_top1))
    return model, TrainLog(tuple(records))

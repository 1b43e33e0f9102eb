"""Reference implementations for the batched loss kernel and trainer, the
ranking metrics written straight from their definitions, and the two ways
Python's builtin ``sum`` adds floats.

The loss, prediction and training functions below are verbatim copies of
the per-sample code that ``clskit.losses.loss_rows`` and the batched
``clskit.trainer`` replaced: a loss and a gradient computed class by class
for one sample, prediction row by row, and training sample by sample.  The
tests compare the batched code against them.
"""

from __future__ import annotations

import builtins
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


_BUILTIN_SUM = builtins.sum


def ordered_sum(values) -> float:
    """Floats added left to right: the bits of ``sum`` up to Python 3.11,
    on every Python version."""
    total = 0.0
    for value in values:
        total += value
    return total


def compensated_sum(iterable, start=0):
    """``sum`` as Python 3.12 computes it (CPython gh-100425): floats are
    added with Neumaier's compensated summation, and the compensation is
    added at the end.  Anything but a list of floats goes to the builtin."""
    values = list(iterable)
    if not values or any(type(v) is not float for v in values):
        return _BUILTIN_SUM(values, start)
    total, compensation = float(start), 0.0
    for value in values:
        step = total + value
        if abs(total) >= abs(value):
            compensation += (total - step) + value
        else:
            compensation += (value - step) + total
        total = step
    return total + compensation if compensation and math.isfinite(compensation) else total


# -- ranking metrics -------------------------------------------------------
# Brute-force oracles follow the definitions directly: explicit sorts and
# pair loops, no shared code with the package implementations.  Means add
# their floats left to right, the same bits on every Python version.


def oracle_topk(scores, labels, k):
    hits = 0
    for row, c in zip(scores, labels):
        order = sorted(range(len(row)), key=lambda j: (-row[j], j))
        if order.index(c) < k:
            hits += 1
    return hits / len(labels)


def oracle_mca(scores, labels):
    num_classes = len(scores[0])
    recalls = []
    for c in range(num_classes):
        rows = [i for i, y in enumerate(labels) if y == c]
        if not rows:
            continue
        correct = 0
        for i in rows:
            best, best_j = None, None
            for j, v in enumerate(scores[i]):
                if best is None or v > best:
                    best, best_j = v, j
            if best_j == c:
                correct += 1
        recalls.append(correct / len(rows))
    return ordered_sum(recalls) / len(recalls)


def oracle_map(scores, labels):
    num_classes = len(scores[0])
    aps = []
    for c in range(num_classes):
        num_pos = sum(1 for y in labels if y == c)
        if num_pos == 0:
            continue
        order = sorted(range(len(labels)), key=lambda i: (-scores[i][c], i))
        found = 0
        precisions = []
        for rank, i in enumerate(order, start=1):
            if labels[i] == c:
                found += 1
                precisions.append(found / rank)
        aps.append(ordered_sum(precisions) / num_pos)
    return ordered_sum(aps) / len(aps)


def oracle_mauc(scores, labels):
    num_classes = len(scores[0])
    aucs = []
    for c in range(num_classes):
        pos = [scores[i][c] for i, y in enumerate(labels) if y == c]
        neg = [scores[i][c] for i, y in enumerate(labels) if y != c]
        if not pos or not neg:
            continue
        wins = ties = 0
        for a in pos:
            for b in neg:
                if a > b:
                    wins += 1
                elif a == b:
                    ties += 1
        aucs.append((wins + 0.5 * ties) / (len(pos) * len(neg)))
    return ordered_sum(aucs) / len(aucs)


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

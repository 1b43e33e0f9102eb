"""Cross-entropy loss family: plain, label-smoothed, and focal-modulated.

Every loss is evaluated per sample: a probability vector ``p`` over C
classes and the true class index ``c``.  Writing ``w_c = 1 - eps`` for the
target weight, the general per-sample loss is

    target term:      -(1 - p_c)^gamma * w_c * log(p_c)
    off-target terms: -(p_i)^gamma * w_i * log(1 - p_i)    for i != c

where ``w_i`` is ``eps / (C - 1)`` when smoothing is on (``eps > 0``) and 1
when it is off.  The unsmoothed form deliberately keeps unit weight on the
off-target terms rather than taking the ``eps -> 0`` limit, which would
drop them; ``eps = 0, gamma = 0`` therefore reproduces the plain per-class
cross entropy ``-log(p_c) - sum(log(1 - p_i))``.

Two reductions are provided: ``per_class_sum`` (all terms above) and
``target_only`` (just the target term, i.e. categorical cross entropy when
``eps = gamma = 0``).  Gradients with respect to pre-softmax logits are
hand-derived; there is no autodiff here.  One batched kernel,
:func:`loss_kernel`, computes losses and gradients for a (B, C) matrix of
samples from the factors that depend on the labels alone (the target
mask, the weights and the signed weights, :func:`label_terms`), so a
caller that meets the same labels again builds them once.
:func:`loss_rows` is the kernel on freshly built factors, and
:func:`loss_value` and :func:`loss_grad` are its one-row calls.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .numerics import check_probability_vector, softmax

LOSS_FORMS = ("per_class_sum", "target_only")


@dataclass(frozen=True)
class LossConfig:
    """Hyperparameters selecting one member of the loss family.

    epsilon      label-smoothing mass moved off the target class, in [0, 1)
    gamma        focal exponent, >= 0 (0 disables focal modulation)
    form         "per_class_sum" or "target_only"
    clamp_floor  probabilities are clamped to [floor, 1 - floor] before logs
    """

    epsilon: float = 0.0
    gamma: float = 0.0
    form: str = "per_class_sum"
    clamp_floor: float = 1e-12

    def __post_init__(self) -> None:
        if not (math.isfinite(self.epsilon) and 0.0 <= self.epsilon < 1.0):
            raise ValueError(f"epsilon must be in [0, 1), got {self.epsilon}")
        if not (math.isfinite(self.gamma) and self.gamma >= 0.0):
            raise ValueError(f"gamma must be >= 0, got {self.gamma}")
        if self.form not in LOSS_FORMS:
            raise ValueError(f"form must be one of {LOSS_FORMS}, got {self.form!r}")
        if not 0.0 < self.clamp_floor <= 1e-6:
            raise ValueError(f"clamp_floor must be in (0, 1e-6], got {self.clamp_floor}")


def _check_class(true_class: int, num_classes: int) -> None:
    if not 0 <= true_class < num_classes:
        raise IndexError(f"true_class {true_class} out of range for {num_classes} classes")


def smooth_labels(true_class: int, num_classes: int, epsilon: float) -> np.ndarray:
    """Smoothed target distribution: 1 - eps on the true class, eps/(C-1) elsewhere.

    ``epsilon = 0`` gives the one-hot vector.
    """
    if num_classes < 2:
        raise ValueError(f"num_classes must be >= 2, got {num_classes}")
    if not (math.isfinite(epsilon) and 0.0 <= epsilon < 1.0):
        raise ValueError(f"epsilon must be in [0, 1), got {epsilon}")
    _check_class(true_class, num_classes)
    out = np.full(num_classes, epsilon / (num_classes - 1), dtype=float)
    out[true_class] = 1.0 - epsilon
    return out


def label_terms(
    labels: np.ndarray, num_classes: int, config: LossConfig
) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """The factors of :func:`loss_rows` that depend on the labels alone.

    Returns four (B, C) arrays for the true classes ``labels``: the boolean
    target mask, the term weights ``w``, the signed weights ``du/dq * w``
    (``-w_c`` on the target, ``w_i`` off it) and the signed weights times
    gamma.  A caller that scores the same samples again, such as a training
    epoch walking its shuffled rows, computes them once.
    """
    eps = config.epsilon
    target = np.zeros((labels.shape[0], num_classes), dtype=bool)
    target[np.arange(labels.shape[0]), labels] = True
    # eps == 0 keeps unit weight on the off-target terms (the unsmoothed
    # form); smoothing replaces it with the smoothed off-target mass.
    off_w = eps / (num_classes - 1) if eps > 0.0 else 1.0
    if config.form == "target_only":
        off_w = 0.0
    weight = np.where(target, 1.0 - eps, off_w)
    signed_weight = np.where(target, -(1.0 - eps), off_w)
    return target, weight, signed_weight, signed_weight * config.gamma


def loss_rows(
    p: np.ndarray, labels: np.ndarray, config: LossConfig
) -> tuple[np.ndarray, np.ndarray]:
    """Losses and logit gradients of B samples in one pass.

    ``p`` holds (B, C) probability rows, softmax of the logits, and
    ``labels`` the true classes; returns the (B,) losses and the (B, C)
    logit gradients.  Nothing is validated: :func:`loss_value` and
    :func:`loss_grad` are the checked one-row calls.  Each term is
    ``-w * u^gamma * l`` with focal base ``u`` = ``1 - q_c`` | ``q_i`` and
    log term ``l`` = ``log(q_c)`` | ``log1p(-q_i)`` (target | off-target), so
    ``dL/dq = du/dq * w * (u^gamma / (1 - u) - gamma * u^(gamma - 1) * l)``.
    The label factors come from :func:`label_terms`; :func:`loss_kernel`
    takes them precomputed.
    """
    return loss_kernel(p, label_terms(labels, p.shape[1], config), config)


def loss_kernel(
    p: np.ndarray,
    terms: tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray],
    config: LossConfig,
) -> tuple[np.ndarray, np.ndarray]:
    """:func:`loss_rows` of the (B, C) probability rows ``p`` whose
    :func:`label_terms` are ``terms``; the same operations on the same
    operands, so the same bits."""
    target, weight, signed_weight, signed_gamma = terms
    gamma = config.gamma
    # maximum then minimum: the bits of np.clip for finite p, with less overhead
    q = np.minimum(np.maximum(p, config.clamp_floor), 1.0 - config.clamp_floor)
    complement = 1.0 - q
    base = np.where(target, complement, q)
    log_term = np.where(target, np.log(q), np.log1p(-q))
    focal = base**gamma
    values = -((focal * weight) * log_term).sum(axis=1)

    # dL/dp; the focal-derivative term is exactly zero when gamma == 0.
    dldp = (signed_weight * focal) / np.where(target, q, complement)
    if gamma > 0.0:
        dldp -= signed_gamma * base ** (gamma - 1.0) * log_term
    # Chain through the softmax Jacobian: dL/dz_j = p_j * (d_j - <d, p>).
    inner = np.einsum("ij,ij->i", dldp, p)
    return values, p * (dldp - inner[:, None])


def loss_value(p: np.ndarray, true_class: int, config: LossConfig) -> float:
    """Per-sample loss for probability vector ``p`` and true class ``c``."""
    q = check_probability_vector(p)
    _check_class(true_class, q.size)
    values, _ = loss_rows(q[None, :], np.array([true_class]), config)
    return float(values[0])


def loss_grad(logits: np.ndarray, true_class: int, config: LossConfig) -> np.ndarray:
    """Gradient of ``loss_value(softmax(logits), c)`` with respect to the logits.

    For ``eps = 0, gamma = 0, target_only`` this is the classical
    ``softmax(logits) - onehot(c)``.
    """
    p = softmax(logits)
    _check_class(true_class, p.size)
    _, grads = loss_rows(p[None, :], np.array([true_class]), config)
    return grads[0]

"""Weighted fusion of prediction matrices and a simplex grid search over
fusion weights.

Fusion runs in probability space: logit-typed inputs are pushed through a
row-wise softmax first, and the mix is the arithmetic weighted mean, so the
output of valid inputs is again a row-stochastic matrix without any
renormalization.  Each output element is the correctly rounded sum of the
weighted member values, bit for bit what ``math.fsum`` returns, which makes
fusion order-independent: permuting members and weights together
reproduces the same bits.

One batched kernel, :func:`_exact_sum`, computes those sums.  Two VecSum
passes of Knuth's error-free TwoSum transform (Ogita, Rump and Oishi,
"Accurate Sum and Dot Product", SIAM J. Sci. Comput. 2005) keep each
element's exact sum while leaving it as a rounded value plus small exact
remainders.  A certificate then proves the rounded value correct: either
every remainder past the last TwoSum's error is zero, so IEEE addition
itself rounded the exact sum, or an error bound on the remainders puts the
exact sum strictly inside the value's rounding interval.  Elements it
cannot prove (near rounding ties with nonzero remainders, extreme
cancellation, exact zeros, whose sign is ``math.fsum``'s to decide, and
non-finite intermediates) are summed by ``math.fsum`` itself.  The kernel
works in blocks of at most :data:`CHUNK_ELEMENTS` values, and the sweep
fuses its grid points in chunks of the same budget.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import (
    _topk_hits,
    mean_auc,
    mean_average_precision,
    mean_class_accuracy,
    topk_accuracy,
)
from .numerics import check_labels, check_prediction_matrix, softmax_rows

SCORE_TYPES = ("prob", "logit")
WEIGHT_SUM_TOL = 1e-9
PROB_ROW_TOL = 1e-6
MAX_GRID_POINTS = 1_000_000
MAX_SWEEP_MEMBERS = 5
# Elements of one block of member values summed at once by the fusion kernel,
# and of one chunk of weighted members in the sweep; bounds their temporaries.
CHUNK_ELEMENTS = 1 << 14

OBJECTIVES = ("top1", "top5", "mca", "map", "mauc")

_UNIT_ROUNDOFF = 2.0**-53
_VECSUM_PASSES = 2


@dataclass(frozen=True)
class EnsembleMember:
    path: str
    weight: float


@dataclass(frozen=True)
class EnsembleManifest:
    """Ordered prediction sources with fusion weights summing to 1."""

    members: tuple[EnsembleMember, ...]
    score_type: str = "prob"

    def __post_init__(self) -> None:
        object.__setattr__(self, "members", tuple(self.members))
        if len(self.members) < 2:
            raise ValueError(f"manifest needs >= 2 members, got {len(self.members)}")
        _check_weights([m.weight for m in self.members])
        if self.score_type not in SCORE_TYPES:
            raise ValueError(f"score_type must be one of {SCORE_TYPES}, got {self.score_type!r}")

    def paths(self) -> list[str]:
        return [m.path for m in self.members]

    def weights(self) -> np.ndarray:
        return np.array([m.weight for m in self.members], dtype=float)


def _check_weights(weights: Sequence[float]) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.ndim != 1 or w.size < 1:
        raise ValueError("weights must be a non-empty vector")
    if not np.all(np.isfinite(w)) or np.any(w < 0.0):
        raise ValueError("weights must be finite and non-negative")
    total = float(w.sum())
    if abs(total - 1.0) > WEIGHT_SUM_TOL:
        raise ValueError(f"weights must sum to 1 within {WEIGHT_SUM_TOL}, got {total!r}")
    return w


def _check_members(preds: Sequence[np.ndarray], score_type: str) -> list[np.ndarray]:
    if score_type not in SCORE_TYPES:
        raise ValueError(f"score_type must be one of {SCORE_TYPES}, got {score_type!r}")
    mats = [check_prediction_matrix(p) for p in preds]
    if not mats:
        raise ValueError("at least one prediction matrix is required")
    shape = mats[0].shape
    for k, m in enumerate(mats):
        if m.shape != shape:
            raise ValueError(f"member {k} has shape {m.shape}, expected {shape}")
    if score_type == "logit":
        mats = [softmax_rows(m) for m in mats]
    else:
        for k, m in enumerate(mats):
            if np.any(np.abs(m.sum(axis=1) - 1.0) > PROB_ROW_TOL):
                raise ValueError(f"member {k} rows must sum to 1 (score_type=prob)")
    return mats


def _identical(mats: list[np.ndarray]) -> bool:
    return all(np.array_equal(m, mats[0]) for m in mats[1:])


def _two_sum(a: np.ndarray, b: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    # Knuth's TwoSum: s = fl(a + b) and s + e == a + b exactly, barring overflow.
    s = a + b
    bb = s - a
    return s, (a - (s - bb)) + (b - bb)


def _certified_sum(q: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column sums of an (M, L) block, overwritten in the process, and the
    mask of the columns whose sum is proven correctly rounded."""
    m = q.shape[0]
    for _ in range(_VECSUM_PASSES):
        for i in range(1, m):
            q[i], q[i - 1] = _two_sum(q[i], q[i - 1])
    # The passes keep the exact column sum S and leave r = fl(q[-1] + q[-2])
    # from the last TwoSum, so S = r + d + sum(rest) exactly.  With every rest
    # value zero, r is the rounding of S by IEEE addition itself (ties to even
    # included).  Otherwise |sum(rest)| <= bound (the factor covers the
    # rounding of the sum of magnitudes and of the product; additions that
    # underflow are exact), and r is certified when S lies strictly between
    # the midpoints to r's neighbours.  Each comparison is of one rounded
    # value against a float, so by monotonicity of rounding it holds for the
    # exact value too.
    r = q[-1]
    d = q[-2] if m > 1 else np.zeros_like(r)
    bound = np.abs(q[:-2]).sum(axis=0) * (1 + 2 * m * _UNIT_ROUNDOFF)
    gap_up = np.nextafter(r, np.inf) - r
    gap_down = r - np.nextafter(r, -np.inf)
    certified = (bound == 0) | ((2 * (d + bound) < gap_up) & (2 * (d - bound) > -gap_down))
    certified &= np.isfinite(gap_up + gap_down) & (r != 0)
    return r, certified


def _exact_sum(products: Sequence[np.ndarray] | np.ndarray) -> np.ndarray:
    """Correctly rounded sum over the M members of ``products`` (an ``(M, ...)``
    stack, or M arrays of one shape): element for element the bits of
    ``math.fsum``, including its errors."""
    members = [np.asarray(p, dtype=float).reshape(-1) for p in products]
    out = np.empty(members[0].size)
    step = max(1, CHUNK_ELEMENTS // len(members))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite goes to fsum
        for start in range(0, out.size, step):
            stop = min(start + step, out.size)
            out[start:stop], certified = _certified_sum(
                np.stack([p[start:stop] for p in members])
            )
            for j in start + np.flatnonzero(~certified):
                out[j] = math.fsum(p[j] for p in members)
    return out.reshape(np.shape(products[0]))


def fuse(
    preds: Sequence[np.ndarray], weights: Sequence[float], score_type: str = "prob"
) -> np.ndarray:
    """Convex combination of prediction matrices: row i of the output is
    ``sum_k weights[k] * preds[k][i]``."""
    mats = _check_members(preds, score_type)
    w = _check_weights(weights)
    if w.size != len(mats):
        raise ValueError(f"{len(mats)} members but {w.size} weights")
    if _identical(mats):
        # Convexity fixed point, honored exactly rather than up to rounding.
        return mats[0].copy()
    return _exact_sum([wk * m for wk, m in zip(w, mats)])


def _topk_of(objective: str, num_classes: int) -> int | None:
    return {"top1": 1, "top5": min(5, num_classes)}.get(objective)


def _objective_fn(objective: str, num_classes: int):
    k = _topk_of(objective, num_classes)
    if k is not None:
        return lambda preds, labels: topk_accuracy(preds, labels, k)
    if objective == "mca":
        return mean_class_accuracy
    if objective == "map":
        return mean_average_precision
    if objective == "mauc":
        return mean_auc
    raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")


def _composition_grid(total: int, parts: int) -> np.ndarray:
    """Every way to write ``total`` as ``parts`` non-negative integers, one per
    row, in ascending lexicographic order, so that on ties the first (lex
    smallest) weight vector wins."""
    prefixes = np.zeros((1, 0), dtype=np.int64)
    for _ in range(parts - 1):
        choices = total - prefixes.sum(axis=1) + 1  # next part: 0 .. what is left
        first = np.cumsum(choices) - choices
        heads = np.arange(choices.sum()) - np.repeat(first, choices)
        prefixes = np.column_stack([np.repeat(prefixes, choices, axis=0), heads])
    return np.column_stack([prefixes, total - prefixes.sum(axis=1)])


def sweep_weights(
    preds: Sequence[np.ndarray],
    labels: np.ndarray,
    resolution: int,
    objective: str = "top1",
    score_type: str = "prob",
) -> tuple[np.ndarray, float]:
    """Exhaustive search over the weight simplex grid ``{k / resolution}``.

    Returns the best (weights, score); ties resolve to the lexicographically
    smallest weight vector.  The grid contains every unit vector, so the
    returned score is >= every single member's score.  Each grid point is
    scored on exactly what :func:`fuse` returns for its weights.
    """
    mats = _check_members(preds, score_type)
    m = len(mats)
    if m < 2:
        raise ValueError(f"sweep needs >= 2 members, got {m}")
    if m > MAX_SWEEP_MEMBERS:
        raise ValueError(f"sweep supports at most {MAX_SWEEP_MEMBERS} members, got {m}")
    if resolution < 1:
        raise ValueError(f"resolution must be >= 1, got {resolution}")
    num_points = math.comb(resolution + m - 1, m - 1)
    if num_points > MAX_GRID_POINTS:
        raise ValueError(
            f"weight grid has {num_points} points, over the {MAX_GRID_POINTS} limit"
        )
    n, num_classes = mats[0].shape
    y = check_labels(labels, n, num_classes)
    score_fn = _objective_fn(objective, num_classes)
    grid = _composition_grid(resolution, m)
    if _identical(mats):
        # Every point fuses to mats[0] exactly, so all tie and the first wins.
        return grid[0] / resolution, score_fn(mats[0], y)
    k = _topk_of(objective, num_classes)
    stack = np.stack(mats)[:, None]
    points_per_chunk = max(1, CHUNK_ELEMENTS // stack.size)
    best_index, best_score = 0, -math.inf
    for start in range(0, len(grid), points_per_chunk):
        weights = grid[start:start + points_per_chunk] / resolution
        fused = _exact_sum(weights.T[:, :, None, None] * stack)
        if k is None:
            scores = [score_fn(f, y) for f in fused]
        else:
            scores = _topk_hits(fused, y, k) / n
        i = int(np.argmax(scores))
        if scores[i] > best_score:
            best_index, best_score = start + i, float(scores[i])
    return grid[best_index] / resolution, best_score

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
works in blocks of at most :data:`CHUNK_ELEMENTS` values, every block of a
call in the same buffer, with the TwoSum steps done in place.

The sweep makes its weight grid chunk by chunk, in the grid's order, so its
memory is that of one chunk however many points the grid has.  The top-1,
top-5 and mean-class-accuracy objectives only compare fused values within
a row, so the sweep filters before it sums exactly (the "filter, then exact"
pattern of Shewchuk, "Adaptive Precision Floating-Point Arithmetic and Fast
Robust Geometric Predicates", 1997): one matrix product per chunk gives a
plain float value of every fused element and a bound on its distance from
the correctly rounded one.  A row whose every class margin to the true
class exceeds the two bounds is ranked by the floats; only the rest, the
near ties, are fused exactly and ranked by the metrics' rule.  Either way
each point's score is the one :func:`fuse`'s output gets.  mAP and mAUC
need the values themselves and fuse every point exactly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .metrics import (
    _class_accuracy,
    _topk_rows,
    mean_auc,
    mean_average_precision,
    mean_class_accuracy,
    topk_accuracy,
)
from .numerics import CHUNK_ELEMENTS, check_labels, check_prediction_matrix, softmax_rows

SCORE_TYPES = ("prob", "logit")
WEIGHT_SUM_TOL = 1e-9
PROB_ROW_TOL = 1e-6
MAX_GRID_POINTS = 1_000_000
MAX_SWEEP_MEMBERS = 5

OBJECTIVES = ("top1", "top5", "mca", "map", "mauc")

_UNIT_ROUNDOFF = 2.0**-53
_SMALLEST_SUBNORMAL = 2.0**-1074
_VECSUM_PASSES = 2
# Safety factor of the sweep filter's error bound (see _filter_values).
_FILTER_FACTOR = 4.0


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


def _two_sum(a: np.ndarray, b: np.ndarray, s: np.ndarray, t: np.ndarray) -> None:
    """Knuth's TwoSum in place: ``a`` becomes fl(a + b) and ``b`` its error,
    so that the new a + b equals the old one exactly, barring overflow.
    ``s`` and ``t`` are scratch rows of the same length."""
    np.add(a, b, out=s)
    np.subtract(s, a, out=t)  # bb = s - a
    np.subtract(b, t, out=b)  # b - bb
    np.subtract(s, t, out=t)  # s - bb
    np.subtract(a, t, out=a)  # a - (s - bb)
    np.add(a, b, out=b)
    np.copyto(a, s)


def _certified_sum(q: np.ndarray, scratch: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column sums of an (M, L) block, overwritten in the process, and the
    mask of the columns whose sum is proven correctly rounded; ``scratch``
    holds two rows of length L."""
    m = q.shape[0]
    for _ in range(_VECSUM_PASSES):
        for i in range(1, m):
            _two_sum(q[i], q[i - 1], scratch[0], scratch[1])
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


def _exact_sum(
    products: Sequence[np.ndarray] | np.ndarray, weights: np.ndarray | None = None
) -> np.ndarray:
    """Correctly rounded sum over the M members of ``products`` (an ``(M, ...)``
    stack, or M arrays of one shape), each first multiplied by its entry of
    ``weights`` when given: element for element the bits of ``math.fsum`` of
    the rounded products, including its errors."""
    members = [np.asarray(p, dtype=float).reshape(-1) for p in products]
    out = np.empty(members[0].size)
    m = len(members)
    factors = np.ones(m) if weights is None else weights
    step = max(1, CHUNK_ELEMENTS // m)
    # One block for every chunk: the members' values, then two scratch rows.
    block = np.empty((m + 2, min(step, out.size)))
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite goes to fsum
        for start in range(0, out.size, step):
            stop = min(start + step, out.size)
            q = block[:, :stop - start]
            for row, p, factor in zip(q, members, factors):
                np.multiply(p[start:stop], factor, out=row)
            out[start:stop], certified = _certified_sum(q[:m], q[m:])
            for j in start + np.flatnonzero(~certified):
                out[j] = math.fsum(factor * p[j] for p, factor in zip(members, factors))
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
    return _exact_sum(mats, w)


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


def _grid_blocks(total: int, parts: int, size: int):
    """The rows of ``_composition_grid(total, parts)``, in order, as blocks of
    at most ``size`` rows: a grid that fits is made whole, a two-part grid is
    sliced, and a larger one is split by its leading part."""
    if math.comb(total + parts - 1, parts - 1) <= size:
        yield _composition_grid(total, parts)
    elif parts == 2:
        for start in range(0, total + 1, size):
            heads = np.arange(start, min(start + size, total + 1))
            yield np.column_stack([heads, total - heads])
    else:
        for head in range(total + 1):
            for block in _grid_blocks(total - head, parts - 1, size):
                yield np.column_stack([np.full(len(block), head), block])


def _grid_chunks(total: int, parts: int, size: int):
    """``_composition_grid(total, parts)`` cut into consecutive chunks of
    ``size`` rows (the last may be shorter), made from blocks of at most
    about :data:`CHUNK_ELEMENTS` values, so the whole grid never exists."""
    pending = np.zeros((0, parts), dtype=np.int64)
    for block in _grid_blocks(total, parts, max(size, CHUNK_ELEMENTS // parts)):
        block = np.concatenate([pending, block])
        cut = len(block) - len(block) % size
        for start in range(0, cut, size):
            yield block[start:start + size]
        pending = block[cut:]
    if len(pending):
        yield pending


def _filter_values(
    weights: np.ndarray, flat: np.ndarray, abs_flat: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Plain float values ``f`` of the fused elements at the ``(G, M)`` weight
    points over the ``(M, L)`` members ``flat``, and bounds ``b`` such that
    :func:`fuse` gives a value within ``b`` of ``f``, element for element.

    Fuse rounds each product ``w_k p_k`` and then the exact sum of the
    products; ``f`` is a dot product in whatever order and with whatever
    fused multiply-adds the matrix kernel uses.  With ``S = sum |w_k p_k|``,
    the two differ by at most about ``(M + 2) u S + (M + 1) eta`` (unit
    roundoff ``u``, smallest subnormal ``eta``, the underflow term).  The
    factor 4 over ``M (u S + eta)`` leaves room for the rounding of ``S``, of
    ``b`` itself and of the margins it is compared with.
    """
    scale = _FILTER_FACTOR * len(flat)
    bound = weights @ abs_flat
    bound *= scale * _UNIT_ROUNDOFF
    bound += scale * _SMALLEST_SUBNORMAL
    return weights @ flat, bound


def _filter_topk_rows(
    f: np.ndarray, b: np.ndarray, y: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Top-k hit masks ``(G, n)`` of the rows of class-major ``(G, C, n)``
    float values ``f``, and the mask of the rows where they are proven to be
    the hits of exact values that each lie within ``b`` of their ``f``.
    Both inputs are overwritten in the process.

    A row is proven when every other class's margin to the true class
    exceeds the sum of their bounds, so that no exact values within the
    bounds can tie or swap them, and when every ``f + b`` of the row is
    finite (no overflow, here or in the exact sum).
    """
    num_classes, n = f.shape[1:]
    at_target = y * n + np.arange(n)
    finite = np.isfinite(f + b)
    f -= f.reshape(len(f), -1)[:, at_target][:, None]  # the margins
    b += b.reshape(len(b), -1)[:, at_target][:, None]
    apart = np.abs(f) > b
    apart |= np.arange(num_classes)[:, None] == y
    apart &= finite
    return np.count_nonzero(f > 0, axis=1) < k, apart.all(axis=1)


def _sweep_topk_rows(
    weights: np.ndarray, stack: np.ndarray, flat: np.ndarray, abs_flat: np.ndarray,
    y: np.ndarray, k: int,
) -> np.ndarray:
    """``(G, n)`` top-k hit masks of what :func:`fuse` returns at each of the
    G weight points for the ``(M, n, C)`` members ``stack``, whose values
    ``flat`` holds class-major: the float filter decides the rows it
    proves, and the rest are fused exactly."""
    m, n, num_classes = stack.shape
    with np.errstate(over="ignore", invalid="ignore"):  # non-finite rows go exact
        f, b = _filter_values(weights, flat, abs_flat)
        hits, proven = _filter_topk_rows(
            f.reshape(-1, num_classes, n), b.reshape(-1, num_classes, n), y, k
        )
    points, rows = np.nonzero(~proven)
    step = max(1, CHUNK_ELEMENTS // (m * num_classes))
    for start in range(0, points.size, step):
        p, r = points[start:start + step], rows[start:start + step]
        fused = _exact_sum(weights.T[:, p, None] * stack[:, r])
        hits[p, r] = _topk_rows(fused, y[r], k)
    return hits


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
    if _identical(mats):
        # Every point fuses to mats[0] exactly, so all tie and the first, all
        # weight on the last member, wins.
        return np.eye(m)[-1], score_fn(mats[0], y)
    stack = np.stack(mats)
    k = 1 if objective == "mca" else _topk_of(objective, num_classes)
    if k is None:
        # mAP and mAUC need the fused values themselves.
        points_per_chunk = max(1, CHUNK_ELEMENTS // stack.size)

        def score_chunk(weights):
            fused = _exact_sum(weights.T[:, :, None, None] * stack[:, None])
            return [score_fn(f, y) for f in fused]
    else:
        points_per_chunk = max(1, CHUNK_ELEMENTS // (n * num_classes))
        flat = stack.transpose(0, 2, 1).reshape(m, -1)
        abs_flat = np.abs(flat)

        def score_chunk(weights):
            hits = _sweep_topk_rows(weights, stack, flat, abs_flat, y, k)
            if objective == "mca":
                return _class_accuracy(hits, y, num_classes)
            return np.count_nonzero(hits, axis=1) / n
    best_point, best_score = None, -math.inf
    for chunk in _grid_chunks(resolution, m, points_per_chunk):
        scores = score_chunk(chunk / resolution)
        i = int(np.argmax(scores))
        if scores[i] > best_score:
            best_point, best_score = chunk[i], float(scores[i])
    return best_point / resolution, best_score

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

The sweep makes its weight grid one chunk at a time, in lexicographic order,
from ``itertools.combinations`` by stars and bars (each point's bar
positions), so its memory is that of one chunk however many points the grid
has.  The top-1, top-5 and mean-class-accuracy objectives only compare fused
values within a row, so the sweep filters before it sums exactly (the
"filter, then exact" pattern of Shewchuk, "Adaptive Precision Floating-Point
Arithmetic and Fast Robust Geometric Predicates", 1997): grid weights are
non-negative and their rounded sum is at most 1 + 2**-53, so each element's
largest member magnitude bounds how far a float fused value lies from the
correctly rounded one at every point, and the bounds are worked out once per
sweep.  Rows that every member ranks alike by more than twice those bounds
rank alike at every point too, so they are settled once per sweep as sure
hits or sure misses and counted, not scored point by point (the root box of
Land and Doig's branch and bound, Econometrica 1960).  One matrix product
per chunk then gives every open row's float margin of each class to the
true class.  A row whose every margin exceeds its pair of bounds is ranked
by the floats; only the rest, the near ties, are fused exactly and ranked by
the metrics' rule.  Either way each point's score is the one :func:`fuse`'s
output gets.  mAP and mAUC need the values themselves: they fuse every
point exactly and score each chunk's points in one batched ranking.

The sweep's kernels take class-major members, ``(M, C, n)``, the layout of
the metrics' kernels: the sweep stacks its ``(n, C)`` members that way once,
so bounds, margins, exact fallbacks and fused chunks all run along the
sample axis.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

# topk_accuracy goes unused here; perfbench's tracer times it under this name
from .metrics import _mean_recall, _ranker, _true_class_rank, topk_accuracy  # noqa: F401
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
# Safety factor of the sweep filter's error bounds (see _filter_bounds).
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
            with np.errstate(over="ignore", invalid="ignore"):  # huge rows sum to inf or NaN
                sums = m.sum(axis=1)
            if not np.all(np.abs(sums - 1.0) <= PROB_ROW_TOL):
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


def _grid_chunks(total: int, parts: int, size: int):
    """Every way to write ``total`` as ``parts`` non-negative integers, one per
    row, in ascending lexicographic order (so that on ties the first, lex
    smallest, weight vector wins), as consecutive chunks of ``size`` rows (the
    last may be shorter).

    Stars and bars: a composition is a choice of ``parts - 1`` bar positions
    out of ``total + parts - 1``, its parts the gaps between the bars, and
    ``itertools.combinations`` yields those choices in the same lexicographic
    order.  The choices are read a whole number of chunks, about
    :data:`CHUNK_ELEMENTS` values, at a time, so the whole grid never exists.
    """
    slots = total + parts - 1
    bars = itertools.combinations(range(slots), parts - 1)
    step = size * max(1, CHUNK_ELEMENTS // (size * parts))
    while True:
        flat = itertools.chain.from_iterable(itertools.islice(bars, step))
        block = np.fromiter(flat, np.int64).reshape(-1, parts - 1)
        if not len(block):
            return
        rows = np.diff(block, axis=1, prepend=-1, append=slots) - 1
        for start in range(0, len(rows), size):
            yield rows[start:start + size]


def _filter_bounds(cols: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Bounds ``(C, n)`` on how far each class's float margin to the true
    class may lie from the margin of what :func:`fuse` returns, at every
    weight point of a sweep of the ``(M, C, n)`` members ``cols``.

    Fuse rounds each product ``w_k p_k`` and then the exact sum of the
    products; the float value is a dot product in whatever order and with
    whatever fused multiply-adds the matrix kernel uses.  With
    ``S = sum |w_k p_k|`` the two differ by at most about
    ``(M + 2) u S + (M + 1) eta`` (unit roundoff ``u``, smallest subnormal
    ``eta``, the underflow term).  Grid weights are non-negative and their
    rounded sum is at most ``1 + u``, so at every point ``S <= (1 + u) A``,
    ``A`` the element's largest member magnitude.  An element's bound is
    ``b = 4 M (u A + eta)``, and a pair's ``b_c + b_y``: for ``M >= 2`` the
    factor ``4 M`` is at least twice ``M + 2``, which covers
    ``(M + 2)(1 + u)**3`` (the weight sum and the rounding of ``b``) and
    the rounding of the margins and of the pair sums.  An element with
    ``A >= 2**1020`` gets an infinite bound, so no row whose floats could
    overflow is ranked by them, and the true class gets ``-inf``: it is
    always apart from itself.
    """
    n = cols.shape[2]
    largest = np.maximum(cols.max(axis=0), -cols.min(axis=0))
    bound = _FILTER_FACTOR * len(cols) * (_UNIT_ROUNDOFF * largest + _SMALLEST_SUBNORMAL)
    bound[largest >= 2.0**1020] = np.inf
    target = y, np.arange(n)
    pair = bound + bound[target]
    pair[target] = -np.inf
    return pair


def _settled_rows(
    cols: np.ndarray, pair: np.ndarray, y: np.ndarray, k: int
) -> tuple[np.ndarray, np.ndarray]:
    """Masks ``(n,)`` of the rows that :func:`fuse` ranks top-k at every
    weight point of a sweep, and of those it ranks below the top k at every
    point, for the ``(M, C, n)`` members ``cols`` and the pair bounds
    ``pair`` from :func:`_filter_bounds`.

    Class c is surely below the true class y when every member puts it there
    by more than twice the pair bound: ``D_k = fl(p_k[c] - p_k[y]) < -2
    pair``.  Rounding is monotone and ``2 pair`` is exact, so the exact
    difference ``d_k`` is below ``-2 pair`` too.  Each grid weight is
    ``fl(j / R)``, non-negative and at least ``(1 - u) j / R``, so the
    weights sum to at least ``1 - u`` and the exact margin ``E = sum w_k d_k``
    is below ``-2 (1 - u) pair``.  What fuse returns lies within two
    roundings of each exact weighted sum, less than the float product's
    error that ``pair`` covers, so fuse's margin is below ``E + pair < 0``:
    c ranks strictly below y, whatever their indices.  ``D_k > 2 pair`` for
    every k puts c strictly above y the same way.  A row with at most k
    classes not surely below, the true class one of them, is a sure hit; a
    row with at least k classes surely above is a sure miss.  The true
    class, infinite bounds and NaN margins settle nothing.  The members go
    one at a time, so no ``(M, C, n)`` array of margins is made.
    """
    n = len(y)
    target = y, np.arange(n)
    twice = 2 * pair
    twice[target] = np.nan  # neither below nor above itself
    below = np.ones(twice.shape, dtype=bool)
    above = below.copy()
    with np.errstate(over="ignore", invalid="ignore"):  # huge values settle nothing
        for values in cols:
            margins = values - values[target]
            below &= margins < -twice
            above &= margins > twice
    return np.count_nonzero(~below, axis=0) <= k, np.count_nonzero(above, axis=0) >= k


def _sweep_topk_rows(
    weights: np.ndarray, cols: np.ndarray, pair: np.ndarray, y: np.ndarray, k: int
) -> np.ndarray:
    """``(G, n)`` top-k hit masks of what :func:`fuse` returns at each of the
    G weight points for the ``(M, C, n)`` members ``cols``.

    One matrix product gives every class's float margin to the true class.
    A row whose every margin exceeds its bound in ``pair`` (from
    :func:`_filter_bounds`) is ranked by its margins, as no exact values
    within the bounds can tie or swap; the rest are fused exactly.
    """
    m, num_classes, n = cols.shape
    with np.errstate(over="ignore", invalid="ignore"):  # rows of huge values go exact
        margins = (weights @ cols.reshape(m, -1)).reshape(len(weights), num_classes, n)
        margins -= margins[:, y, np.arange(n)][:, None]
        hits = np.count_nonzero(margins > 0, axis=1) < k
        proven = (np.abs(margins, out=margins) > pair).all(axis=1)
    points, rows = np.nonzero(~proven)
    step = max(1, CHUNK_ELEMENTS // (m * num_classes))
    for start in range(0, points.size, step):
        p, r = points[start:start + step], rows[start:start + step]
        fused = _exact_sum(weights.T[:, None, p] * cols[:, :, r])  # (C, P)
        hits[p, r] = _true_class_rank(fused, y[r]) < k
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
    if objective not in OBJECTIVES:
        raise ValueError(f"objective must be one of {OBJECTIVES}, got {objective!r}")
    # One C-ordered (M, C, n) copy (np.stack of the transposes would keep
    # their (M, n, C) memory order), so every chunk's product reads it as is.
    cols = np.array([mat.T for mat in mats])
    if objective in ("map", "mauc"):
        # mAP and mAUC need the fused values themselves.
        points_per_chunk = max(1, CHUNK_ELEMENTS // cols.size)
        rank = _ranker(y, num_classes, objective)  # the labels' part, once per sweep

        def score_chunk(weights):
            fused = _exact_sum(weights.T[:, :, None, None] * cols[:, None])
            return rank(fused)[0]
    else:
        # Rows settled at every point are counted once; the open rest is
        # ranked point by point.
        k = min(5, num_classes) if objective == "top5" else 1
        pair = _filter_bounds(cols, y)
        sure_hit, sure_miss = _settled_rows(cols, pair, y, k)
        open_rows = ~(sure_hit | sure_miss)
        # compress keeps the C order that a boolean index would not
        cols, pair, y_open = cols.compress(open_rows, axis=2), pair[:, open_rows], y[open_rows]
        points_per_chunk = max(1, CHUNK_ELEMENTS // max(1, y_open.size * num_classes))
        totals = np.bincount(y, minlength=num_classes)
        present = np.flatnonzero(totals)
        classes = y_open == present[:, None]
        settled = np.bincount(y[sure_hit], minlength=num_classes)[present]  # hits per class

        def score_chunk(weights):
            hits = _sweep_topk_rows(weights, cols, pair, y_open, k)
            if objective == "mca":
                correct = np.count_nonzero(hits[:, None] & classes, axis=-1)
                return _mean_recall(correct + settled, totals[present])
            return (np.count_nonzero(hits, axis=1) + np.count_nonzero(sure_hit)) / n
    if _identical(mats):
        # Every point fuses to mats[0] exactly, so all tie and the first, all
        # weight on the last member, wins.
        return np.eye(m)[-1], float(score_chunk(np.eye(m)[-1:])[0])
    best_point, best_score = None, -math.inf
    for chunk in _grid_chunks(resolution, m, points_per_chunk):
        scores = score_chunk(chunk / resolution)
        i = int(np.argmax(scores))
        if scores[i] > best_score:
            best_point, best_score = chunk[i], float(scores[i])
    return best_point / resolution, best_score

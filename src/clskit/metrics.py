"""Ranking metrics for multi-class predictions: top-k accuracy, mean
per-class accuracy, mean average precision, and mean ROC AUC.

Conventions (fixed so results are bit-stable and oracle-testable):

* Averaging over classes is macro (unweighted); a class is excluded from
  mCA/mAP when it has no samples/positives, and from mAUC when it lacks
  either positives or negatives.
* Ties always break toward the lower index: lower class index when ranking
  the classes of one sample, lower sample index when sorting samples by a
  class's score.
* AP is the mean of precision at each positive rank; AUC is the pairwise
  statistic (wins + 0.5 * ties) / (positives * negatives), with the wins
  and ties counted from ranks rather than pair by pair.
* All values are fractions in [0, 1]; the display layer shows percentages
  except for mAUC, which stays a 3-decimal fraction.

Every mean adds its terms one after another in a fixed order (rank order
within an AP, class order across classes) with numpy cumulative sums, so
small instances match a brute-force oracle exactly and no bit depends on
the Python version, whose builtin ``sum`` compensates from 3.12 on.

mAP and mAUC share one ranking per class: an unstable sort of the class's
scores, after which only the runs of equal values get a second sort, into
ascending sample order, which gives the stable sort's permutation.  AP reads
the positives' ranks from it, and AUC its integer win and tie counts from
the runs, so both take O(n log n) time and O(n) memory per class.  The
rankings also take a stack of ``(..., n, C)`` scores, one ranking per
(point, class) row, so a weight sweep scores a chunk of fused points with
one call.  The true class's rank behind top-k and mean class accuracy is
counted on class-major blocks of the scores, along the sample axis.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass

import numpy as np

from .numerics import CHUNK_ELEMENTS, check_labels, check_prediction_matrix


@dataclass(frozen=True)
class MetricReport:
    """The five evaluation metrics for one prediction set."""

    top1: float
    top5: float
    mca: float
    map: float
    mauc: float

    def as_dict(self) -> dict[str, float]:
        return {
            "top1": self.top1,
            "top5": self.top5,
            "mca": self.mca,
            "map": self.map,
            "mauc": self.mauc,
        }

    def summary_row(self) -> str:
        """One-line summary, percentages except mAUC: ``55.07 / 85.61 / 20.95 / 26.20 / 0.859``."""
        return (
            f"{self.top1 * 100:.2f} / {self.top5 * 100:.2f} / {self.mca * 100:.2f}"
            f" / {self.map * 100:.2f} / {self.mauc:.3f}"
        )

    def table(self) -> str:
        rows = [
            ("top1", f"{self.top1 * 100:.2f}"),
            ("top5", f"{self.top5 * 100:.2f}"),
            ("mca", f"{self.mca * 100:.2f}"),
            ("map", f"{self.map * 100:.2f}"),
            ("mauc", f"{self.mauc:.3f}"),
        ]
        return "\n".join(f"{name:<5} {value:>7}" for name, value in rows)


def _true_class_rank(scores: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rank of the true class in each row of ``(..., n, C)`` scores: the
    number of classes that score strictly higher or tie it with a lower
    index.  The rows are copied class-major in blocks of at most
    ``CHUNK_ELEMENTS`` scores (one row at the least), so each comparison
    and each count runs along the sample axis, in the smallest unsigned
    type that holds every label and every count."""
    n, num_classes = scores.shape[-2:]
    flat = scores.reshape(-1, num_classes)
    small = np.min_scalar_type(num_classes)
    labels = np.broadcast_to(y.astype(small), scores.shape[:-1]).reshape(-1)
    targets = flat[np.arange(len(flat)), labels]
    lower = np.arange(num_classes, dtype=small)[:, None]
    rank = np.empty(len(flat), dtype=np.intp)
    step = max(1, CHUNK_ELEMENTS // num_classes)
    for start in range(0, len(flat), step):
        rows = slice(start, start + step)
        block = flat[rows].T.copy()  # (C, rows)
        ahead = block > targets[rows]
        ahead |= (block == targets[rows]) & (lower < labels[rows])
        rank[rows] = ahead.sum(axis=0, dtype=small)
    return rank.reshape(scores.shape[:-1])


def _class_accuracy(hits: np.ndarray, y: np.ndarray, num_classes: int) -> np.ndarray:
    """Mean over the classes present in ``y`` of the share of their rows that
    ``(..., n)`` hit masks mark."""
    totals = np.bincount(y, minlength=num_classes)
    present = np.flatnonzero(totals)
    correct = np.count_nonzero(hits[..., None, :] & (y == present[:, None]), axis=-1)
    return _mean_recall(correct, totals[present])


def _mean_recall(correct: np.ndarray, totals: np.ndarray) -> np.ndarray:
    """Mean of the recalls ``correct / totals`` along the last (class) axis:
    each recall is a ratio of exact integer counts, and the recalls are
    summed in class order, one after another."""
    return np.cumsum(correct / totals, axis=-1)[..., -1] / totals.size


def topk_accuracy(preds: np.ndarray, labels: np.ndarray, k: int) -> float:
    """Fraction of rows whose true class ranks among the k highest scores.

    A row's rank of class c counts classes with strictly greater score plus
    tied classes with lower index.
    """
    scores = check_prediction_matrix(preds)
    n, num_classes = scores.shape
    y = check_labels(labels, n, num_classes)
    if not 1 <= k <= num_classes:
        raise ValueError(f"k must be in [1, {num_classes}], got {k}")
    return int(np.count_nonzero(_true_class_rank(scores, y) < k)) / n


def mean_class_accuracy(preds: np.ndarray, labels: np.ndarray) -> float:
    """Unweighted mean over classes (with >= 1 sample) of per-class top-1 recall."""
    scores = check_prediction_matrix(preds)
    n, num_classes = scores.shape
    y = check_labels(labels, n, num_classes)
    return float(_class_accuracy(_true_class_rank(scores, y) < 1, y, num_classes))


def _class_order(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row by row, the indices of ``(B, n)`` scores by descending score with
    ties in ascending index (exactly ``np.argsort(-block, axis=-1,
    kind="stable")``), and the run bounds of that order: the flat positions
    where a run of equal scores starts, then ``B * n``.

    One unstable sort ranks each row; equal values (signed zeros among them)
    form runs.  Only the positions in runs of two or more get a second sort:
    one unstable sort of their unique keys ``run * n + index`` puts each such
    run's indices in ascending order.
    """
    rows, n = block.shape
    negated = np.negative(block, order="C")
    order = np.argsort(negated, axis=-1)
    ranked = negated.ravel()[order + np.arange(0, rows * n, n)[:, None]]  # sorted values
    starts = np.ones(rows * n + 1, dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=starts[:-1].reshape(rows, n)[:, 1:])
    tied = np.flatnonzero(~(starts[:-1] & starts[1:]))  # positions in runs of >= 2
    run_base = np.cumsum(starts[tied]) * n
    np.put(order, tied, np.sort(run_base + order.take(tied)) - run_base)
    return order, np.flatnonzero(starts)


def _ranked_blocks(
    scores: np.ndarray, y: np.ndarray, positives: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each (point, class) row of ``(..., n, C)`` scores ranked once, the rows
    taken point by point and, within a point, class by class, in blocks of at
    most about ``CHUNK_ELEMENTS`` scores (one row at the least), so memory
    stays linear in n.  Yields, per block of B rows, the ``positives`` count
    of each row's class, the ``(B, n)`` masks of where each row's ranking puts
    its class's positives, and the run bounds of :func:`_class_order`."""
    n, num_classes = scores.shape[-2:]
    rows = scores.reshape(-1, n, num_classes).swapaxes(1, 2)  # (points, C, n)
    total = len(rows) * num_classes
    per_block = max(1, CHUNK_ELEMENTS // n)
    for first in range(0, total, per_block):
        point, cls = np.divmod(np.arange(first, min(first + per_block, total)), num_classes)
        # a block within one point is a view, and one across points a gather
        block = rows[point[0], cls[0]:cls[-1] + 1] if point[0] == point[-1] else rows[point, cls]
        order, bounds = _class_order(block)
        yield positives[cls], y[order] == cls[:, None], bounds


def _block_aps(pos: np.ndarray, hits: np.ndarray, _bounds: np.ndarray) -> np.ndarray:
    """AP of each row of a ranked block, 0 for a row without positives: the
    mean over its positives of k / rank for the k-th positive.  The rows'
    terms sit side by side, each row's in rank order under a row of zeros,
    so one cumulative sum adds each row's terms one after another."""
    n = hits.shape[1]
    at = np.flatnonzero(hits)  # the positives, row by row in rank order
    row = at // n
    k = np.arange(1, at.size + 1) - (np.cumsum(pos) - pos)[row]
    terms = np.zeros((1 + pos.max(), len(pos)))
    terms[k, row] = k / (at - row * n + 1)
    return np.cumsum(terms, axis=0)[-1] / np.maximum(pos, 1)


def _block_aucs(pos: np.ndarray, hits: np.ndarray, bounds: np.ndarray) -> np.ndarray:
    """AUC of each row of a ranked block, 0 for a row without both a positive
    and a negative, from integer counts: a positive wins against the
    negatives of its row past the end of its run of equal scores, and ties
    the negatives in its run."""
    n = hits.shape[1]
    # negatives of the block before each position, at the run bounds
    neg_before = np.zeros(hits.size + 1, dtype=np.int64)
    np.cumsum(~hits, out=neg_before[1:])
    neg_at = neg_before[bounds]
    neg_in_run = neg_at[1:] - neg_at[:-1]
    pos_in_run = bounds[1:] - bounds[:-1] - neg_in_run
    row_runs = np.searchsorted(bounds, np.arange(0, hits.size, n))
    # per positive: the negatives before its row's end less those before its
    # run's end, summed over the row's runs
    wins = neg_before[n::n] * pos - np.add.reduceat(pos_in_run * neg_at[1:], row_runs)
    ties = np.add.reduceat(pos_in_run * neg_in_run, row_runs)
    return (wins + 0.5 * ties) / np.maximum(pos * (n - pos), 1)


# Per ranking metric: its block function, whether a class needs a negative
# as well as a positive to count, and the error when no class counts.
_RANKING = {
    "map": (_block_aps, False, "mean_average_precision needs at least one positive label"),
    "mauc": (_block_aucs, True, "mean_auc needs a class with both positives and negatives"),
}


def _ranking_means(scores: np.ndarray, y: np.ndarray, *names: str) -> list[np.ndarray]:
    """The macro mean of each named ranking metric (``"map"``, ``"mauc"``) at
    every point of ``(..., n, C)`` scores, each of shape ``(...)``, from one
    ranking per (point, class) row.  Which classes count depends on the
    labels alone.  A mean adds its classes' values in class order with a
    cumulative sum, as each AP adds its terms, so no bit depends on how the
    Python version's ``sum`` adds floats."""
    n, num_classes = scores.shape[-2:]
    positives = np.bincount(y, minlength=num_classes)
    counted = []
    for name in names:
        _, needs_negative, error = _RANKING[name]
        included = (positives > 0) & ((positives < n) | (not needs_negative))
        if not included.any():
            raise ValueError(error)
        counted.append(included)
    fns = [_RANKING[name][0] for name in names]
    blocks = [[fn(*block) for fn in fns] for block in _ranked_blocks(scores, y, positives)]
    shape = scores.shape[:-2] + (num_classes,)
    means = []
    for values, included in zip(zip(*blocks), counted):
        kept = np.concatenate(values).reshape(shape)[..., included]
        means.append(np.cumsum(kept, axis=-1)[..., -1] / kept.shape[-1])
    return means


def mean_average_precision(preds: np.ndarray, labels: np.ndarray) -> float:
    """Macro one-vs-rest AP: mean precision at each positive rank, averaged
    over classes with at least one positive."""
    scores = check_prediction_matrix(preds)
    y = check_labels(labels, *scores.shape)
    return float(_ranking_means(scores, y, "map")[0])


def mean_auc(preds: np.ndarray, labels: np.ndarray) -> float:
    """Macro one-vs-rest ROC AUC via the pairwise win/tie count, averaged
    over classes that have both positives and negatives.

    The counts are rank counts (the Mann-Whitney U identity): in a class's
    ranking, each positive wins against the negatives of the runs of equal
    scores below its own and ties the negatives of its run, so time is
    O(n log n) and memory O(n) per class.
    """
    scores = check_prediction_matrix(preds)
    y = check_labels(labels, *scores.shape)
    return float(_ranking_means(scores, y, "mauc")[0])


def full_report(preds: np.ndarray, labels: np.ndarray) -> MetricReport:
    """All five metrics; top-5 uses k = min(5, C).  The input is validated
    once, and mAP and mAUC come from the same per-class rankings."""
    scores = check_prediction_matrix(preds)
    n, num_classes = scores.shape
    y = check_labels(labels, n, num_classes)
    rank = _true_class_rank(scores, y)
    top1_hits = rank == 0
    mean_ap, mean_roc_auc = _ranking_means(scores, y, "map", "mauc")
    return MetricReport(
        top1=int(np.count_nonzero(top1_hits)) / n,
        top5=int(np.count_nonzero(rank < min(5, num_classes))) / n,
        mca=float(_class_accuracy(top1_hits, y, num_classes)),
        map=float(mean_ap),
        mauc=float(mean_roc_auc),
    )

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

Per-class means are accumulated in ascending class/rank order with plain
sequential summation, so small instances match a brute-force oracle
exactly.

mAP and mAUC share one ranking per class: an unstable sort of the class's
scores whose runs of equal values are then put in ascending sample order,
which is the stable sort's permutation.  AP reads the positives' ranks from
it, and AUC its integer win and tie counts from the runs, so both take
O(n log n) time and O(n) memory per class.
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
    index."""
    n, num_classes = scores.shape[-2:]
    target = scores[..., np.arange(n), y][..., None]
    ahead = (scores > target) | ((scores == target) & (np.arange(num_classes) < y[:, None]))
    return np.count_nonzero(ahead, axis=-1)


def _topk_rows(scores: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Mask of the rows of ``(..., n, C)`` scores whose true class is among
    the k highest."""
    return _true_class_rank(scores, y) < k


def _topk_hits(scores: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Count, along the row axis of ``(..., n, C)`` scores, the rows
    :func:`_topk_rows` marks."""
    return np.count_nonzero(_topk_rows(scores, y, k), axis=-1)


def _class_accuracy(hits: np.ndarray, y: np.ndarray, num_classes: int) -> np.ndarray:
    """Mean over the classes present in ``y`` of the share of their rows that
    ``(..., n)`` hit masks mark: each recall is a ratio of exact integer
    counts (sums of ones, exact in floats), and the recalls are summed in
    class order, one after another."""
    totals = np.bincount(y, minlength=num_classes)
    present = np.flatnonzero(totals)
    correct = hits @ (y[:, None] == present).astype(float)
    return np.cumsum(correct / totals[present], axis=-1)[..., -1] / present.size


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
    return int(_topk_hits(scores, y, k)) / n


def mean_class_accuracy(preds: np.ndarray, labels: np.ndarray) -> float:
    """Unweighted mean over classes (with >= 1 sample) of per-class top-1 recall."""
    scores = check_prediction_matrix(preds)
    n, num_classes = scores.shape
    y = check_labels(labels, n, num_classes)
    return float(_class_accuracy(_topk_rows(scores, y, 1), y, num_classes))


def _class_order(block: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Row by row, the indices of ``(B, n)`` scores by descending score with
    ties in ascending index (exactly ``np.argsort(-block, axis=-1,
    kind="stable")``), and the run bounds of that order: the flat positions
    where a run of equal scores starts, then ``B * n``.

    One unstable sort ranks each row; equal values (signed zeros among them)
    form runs, and one more unstable sort of the unique keys
    ``run * n + index`` puts each run's indices in ascending order.
    """
    rows, n = block.shape
    negated = np.negative(block, order="C")
    order = np.argsort(negated, axis=-1)
    ranked = negated.ravel()[order + np.arange(0, rows * n, n)[:, None]]  # sorted values
    starts = np.ones(rows * n + 1, dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=starts[:-1].reshape(rows, n)[:, 1:])
    bounds = np.flatnonzero(starts)
    if bounds.size <= rows * n:  # some run holds a tie
        run_base = (np.cumsum(starts[:-1]).reshape(rows, n) - 1) * n
        order = np.sort(run_base + order, axis=-1) - run_base
    return order, bounds


def _ranked_blocks(
    scores: np.ndarray, y: np.ndarray
) -> Iterator[tuple[np.ndarray, np.ndarray, np.ndarray]]:
    """Each class ranked once, in blocks of classes of at most about
    ``CHUNK_ELEMENTS`` scores (one class at the least), so memory stays
    linear in n.  Yields, per block of B classes, their positive counts, the
    ``(B, n)`` masks of where each class's ranking puts its positives, and
    the run bounds of :func:`_class_order`."""
    n, num_classes = scores.shape
    positives = np.bincount(y, minlength=num_classes)
    per_block = max(1, CHUNK_ELEMENTS // n)
    for first in range(0, num_classes, per_block):
        last = min(first + per_block, num_classes)
        order, bounds = _class_order(scores[:, first:last].T)
        yield positives[first:last], y[order] == np.arange(first, last)[:, None], bounds


def _block_aps(pos: np.ndarray, hits: np.ndarray) -> list[float]:
    """AP of each class of a ranked block that has a positive: the mean over
    its positives of k / rank for the k-th positive, summed in rank order."""
    aps = []
    for row, p in zip(hits, pos.tolist()):
        if p:
            ranks = np.flatnonzero(row) + 1
            aps.append(sum((np.arange(1, p + 1) / ranks).tolist()) / p)
    return aps


def _block_aucs(pos: np.ndarray, hits: np.ndarray, bounds: np.ndarray) -> list[float]:
    """AUC of each class of a ranked block that has a positive and a
    negative, from integer counts: a positive wins against the negatives of
    its row past the end of its run of equal scores, and ties the negatives
    in its run."""
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
    return [
        (w + 0.5 * t) / (p * (n - p))
        for p, w, t in zip(pos.tolist(), wins.tolist(), ties.tolist())
        if 0 < p < n
    ]


def _macro_mean(values: list[float], error: str) -> float:
    if not values:
        raise ValueError(error)
    return sum(values) / len(values)


_NO_AP = "mean_average_precision needs at least one positive label"
_NO_AUC = "mean_auc needs a class with both positives and negatives"


def mean_average_precision(preds: np.ndarray, labels: np.ndarray) -> float:
    """Macro one-vs-rest AP: mean precision at each positive rank, averaged
    over classes with at least one positive."""
    scores = check_prediction_matrix(preds)
    y = check_labels(labels, *scores.shape)
    aps = [ap for pos, hits, _ in _ranked_blocks(scores, y) for ap in _block_aps(pos, hits)]
    return _macro_mean(aps, _NO_AP)


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
    aucs = [auc for block in _ranked_blocks(scores, y) for auc in _block_aucs(*block)]
    return _macro_mean(aucs, _NO_AUC)


def full_report(preds: np.ndarray, labels: np.ndarray) -> MetricReport:
    """All five metrics; top-5 uses k = min(5, C).  The input is validated
    once, and mAP and mAUC come from the same per-class rankings."""
    scores = check_prediction_matrix(preds)
    n, num_classes = scores.shape
    y = check_labels(labels, n, num_classes)
    rank = _true_class_rank(scores, y)
    aps, aucs = [], []
    for pos, hits, bounds in _ranked_blocks(scores, y):
        aps += _block_aps(pos, hits)
        aucs += _block_aucs(pos, hits, bounds)
    return MetricReport(
        top1=int(np.count_nonzero(rank == 0)) / n,
        top5=int(np.count_nonzero(rank < min(5, num_classes))) / n,
        mca=float(_class_accuracy(rank == 0, y, num_classes)),
        map=_macro_mean(aps, _NO_AP),
        mauc=_macro_mean(aucs, _NO_AUC),
    )

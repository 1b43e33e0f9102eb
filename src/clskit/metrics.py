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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .numerics import check_labels, check_prediction_matrix


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


def _topk_rows(scores: np.ndarray, y: np.ndarray, k: int) -> np.ndarray:
    """Mask of the rows of ``(..., n, C)`` scores whose true class is among
    the k highest: fewer than k classes score strictly higher or tie it with
    a lower index."""
    n, num_classes = scores.shape[-2:]
    target = scores[..., np.arange(n), y][..., None]
    ahead = (scores > target) | ((scores == target) & (np.arange(num_classes) < y[:, None]))
    return np.count_nonzero(ahead, axis=-1) < k


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
    top1 = np.argmax(scores, axis=1)  # first max, so ties go to the lower class
    return float(_class_accuracy(top1 == y, y, num_classes))


def mean_average_precision(preds: np.ndarray, labels: np.ndarray) -> float:
    """Macro one-vs-rest AP: mean precision at each positive rank, averaged
    over classes with at least one positive."""
    scores = check_prediction_matrix(preds)
    n, num_classes = scores.shape
    y = check_labels(labels, n, num_classes)
    # Every class's samples, descending by score; ties keep the lower sample
    # index first.  Each class sorts as one contiguous row, and column r of
    # ``hits`` marks which classes rank a positive at r.
    order = np.argsort(np.negative(scores.T, order="C"), axis=1, kind="stable")
    hits = y[order] == np.arange(num_classes)[:, None]
    classes, rows = np.nonzero(hits)  # grouped by class, ranks ascending
    starts = np.searchsorted(classes, np.arange(num_classes + 1))
    aps = []
    for c in range(num_classes):
        ranks = rows[starts[c]:starts[c + 1]] + 1
        if ranks.size == 0:
            continue
        # precision at the k-th positive is k / rank, summed in rank order
        precisions = np.arange(1, ranks.size + 1) / ranks
        aps.append(sum(precisions.tolist()) / ranks.size)
    if not aps:
        raise ValueError("mean_average_precision needs at least one positive label")
    return sum(aps) / len(aps)


def mean_auc(preds: np.ndarray, labels: np.ndarray) -> float:
    """Macro one-vs-rest ROC AUC via the pairwise win/tie count, averaged
    over classes that have both positives and negatives.

    The counts are rank counts (the Mann-Whitney U identity): each positive
    wins against the negatives that sort below it and ties the ones equal to
    it, found by binary search in the sorted negatives, so time is
    O(n log n) and memory O(n) per class.
    """
    scores = check_prediction_matrix(preds)
    n, num_classes = scores.shape
    y = check_labels(labels, n, num_classes)
    aucs = []
    for c in range(num_classes):
        positives = y == c
        pos = scores[positives, c]
        neg = np.sort(scores[~positives, c])
        if pos.size == 0 or neg.size == 0:
            continue
        wins = int(np.searchsorted(neg, pos, side="left").sum())
        ties = int(np.searchsorted(neg, pos, side="right").sum()) - wins
        aucs.append((wins + 0.5 * ties) / (pos.size * neg.size))
    if not aucs:
        raise ValueError("mean_auc needs a class with both positives and negatives")
    return sum(aucs) / len(aucs)


def full_report(preds: np.ndarray, labels: np.ndarray) -> MetricReport:
    """All five metrics; top-5 uses k = min(5, C)."""
    scores = check_prediction_matrix(preds)
    num_classes = scores.shape[1]
    return MetricReport(
        top1=topk_accuracy(scores, labels, 1),
        top5=topk_accuracy(scores, labels, min(5, num_classes)),
        mca=mean_class_accuracy(scores, labels),
        map=mean_average_precision(scores, labels),
        mauc=mean_auc(scores, labels),
    )

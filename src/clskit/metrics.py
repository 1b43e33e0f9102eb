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
  and ties counted by searches rather than pair by pair.
* All values are fractions in [0, 1]; the display layer shows percentages
  except for mAUC, which stays a 3-decimal fraction.

Every mean adds its terms one after another in a fixed order (rank order
within an AP, class order across classes) with numpy cumulative sums, so
small instances match a brute-force oracle exactly and no bit depends on
the Python version, whose builtin ``sum`` compensates from 3.12 on.

mAP and mAUC rank only the positives.  Per class, one value sort orders the
negatives' scores, and each positive is searched in them: the negatives
above it and level with it are integer counts, which give AUC's wins and
ties (the Mann-Whitney identity; Hanley and McNeil, 1982).  When no negative
equals a positive, the k-th best positive's stable rank is k plus the
negatives above it, so AP needs no index order.  Only a class where a
positive ties a negative takes the stable sort's permutation, ties in
ascending sample order, and reads its positives' ranks from it: the "filter,
then exact" pattern (Shewchuk, 1997).  Both take O(n log n) time and O(n)
memory per class.

The kernels take class-major scores, ``(C, n)`` or a stack ``(..., C, n)``
of them, so each ranking and each count runs along the sample axis.  The
public functions take ``(n, C)`` and pass its transpose, a view.  A weight
sweep fuses its points class-major and ranks a chunk of them, one ranking
per (point, class) row, with one call.
"""

from __future__ import annotations

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


def _true_class_rank(cols: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Rank of the true class in each column of ``(C, n)`` scores: the
    number of classes that score strictly higher or tie it with a lower
    index.  The columns are copied in blocks of at most ``CHUNK_ELEMENTS``
    scores (one column at the least), so each comparison and each count
    runs along the sample axis, in the smallest unsigned type that holds
    every label and every count."""
    num_classes, n = cols.shape
    small = np.min_scalar_type(num_classes)
    labels = y.astype(small)
    targets = cols[labels, np.arange(n)]
    lower = np.arange(num_classes, dtype=small)[:, None]
    rank = np.empty(n, dtype=np.intp)
    step = max(1, CHUNK_ELEMENTS // num_classes)
    for start in range(0, n, step):
        rows = slice(start, start + step)
        block = cols[:, rows].copy()
        ahead = block > targets[rows]
        ahead |= (block == targets[rows]) & (lower < labels[rows])
        rank[rows] = ahead.sum(axis=0, dtype=small)
    return rank


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
    return int(np.count_nonzero(_true_class_rank(scores.T, y) < k)) / n


def mean_class_accuracy(preds: np.ndarray, labels: np.ndarray) -> float:
    """Unweighted mean over classes (with >= 1 sample) of per-class top-1 recall."""
    scores = check_prediction_matrix(preds)
    n, num_classes = scores.shape
    y = check_labels(labels, n, num_classes)
    return float(_class_accuracy(_true_class_rank(scores.T, y) < 1, y, num_classes))


def _class_order(block: np.ndarray) -> np.ndarray:
    """Row by row, the indices of ``(B, n)`` scores by descending score with
    ties in ascending index: exactly ``np.argsort(-block, axis=-1,
    kind="stable")``.

    One unstable sort ranks each row; equal values (signed zeros among them)
    form runs.  A second sort of the unique keys ``run * n + index`` puts each
    run's indices in ascending order.
    """
    rows, n = block.shape
    negated = np.negative(block, order="C")
    order = np.argsort(negated, axis=-1)
    ranked = negated.ravel()[order + np.arange(0, rows * n, n)[:, None]]  # sorted values
    starts = np.ones((rows, n), dtype=bool)
    np.not_equal(ranked[:, 1:], ranked[:, :-1], out=starts[:, 1:])
    run_base = np.cumsum(starts).reshape(rows, n) * n
    keys = np.sort(run_base + order, axis=None).reshape(rows, n)
    return keys - run_base


def _positive_slots(y: np.ndarray, positives: np.ndarray) -> np.ndarray:
    """Row c: the sample indices of class c's positives in ascending order,
    padded with n to the largest class's count.  It holds fewer entries than
    the ``(n, C)`` scores it indexes."""
    slots = np.full((positives.size, positives.max()), y.size)
    # row-major, the unpadded slots take the samples grouped by class
    slots[np.arange(slots.shape[1]) < positives[:, None]] = np.argsort(
        y.astype(np.min_scalar_type(positives.size)), kind="stable"
    )
    return slots


def _block_ranking(
    block: np.ndarray, cls: np.ndarray, slots: np.ndarray, y: np.ndarray, ap: bool, auc: bool
) -> tuple[np.ndarray | None, np.ndarray | None]:
    """AP (when ``ap``) and AUC (when ``auc``) of each row of ``(B, n)``
    scores, row b scoring class ``cls[b]`` whose positives ``slots[b]``
    lists; 0 for a row without a positive (AP) or without both a positive
    and a negative (AUC).

    Each row's negatives are sorted by value, and each of its positives is
    searched in them: ``above`` negatives score higher than it.  When no
    negative equals a positive, the k-th best positive's stable rank is
    ``k + above``, whichever positive of a run of equal scores it is, and the
    positive wins against the rest of the negatives.  A row where a positive
    ties a negative counts the ties with a second search, and takes its
    positives' ranks from the stable order of :func:`_class_order`, all such
    rows of the block in one call.  AP adds its terms ``k / rank`` in rank
    order with one cumulative sum."""
    rows, n = block.shape
    valid = slots < n
    pos = np.count_nonzero(valid, axis=1)
    offsets = np.arange(0, rows * (n + 1), n + 1)[:, None]
    flat = slots + offsets
    # negated scores, so ascending sorts rank from the top; a pad column
    work = np.empty((rows, n + 1))
    np.negative(block, out=work[:, :n])
    work[:, n] = np.inf
    best = work.ravel()[flat]  # each row's positives, pads +inf
    best.sort(axis=1)  # the k-th best positive in column k - 1, pads last
    work.ravel()[flat] = np.inf
    work.sort(axis=1)  # each row's negatives, then +inf
    above = np.empty(best.shape, dtype=np.intp)
    for row in range(rows):
        above[row] = np.searchsorted(work[row], best[row])
    # a positive ties a negative when the next negative down equals it
    tied = np.flatnonzero((valid & (work.ravel()[above + offsets] == best)).any(axis=1))
    aps = aucs = None
    if auc:
        at_least = above.copy()  # negatives that score at least as high
        for row in tied:
            at_least[row] = np.searchsorted(work[row], best[row], "right")
        wins = (valid * ((n - pos)[:, None] - at_least)).sum(axis=1)
        ties = (valid * (at_least - above)).sum(axis=1)
        aucs = (wins + 0.5 * ties) / np.maximum(pos * (n - pos), 1)
    if ap:
        k = np.arange(1, best.shape[1] + 1)
        terms = valid * (k / (k + above))
        if tied.size:
            order = _class_order(block if tied.size == rows else block[tied])
            hit = np.flatnonzero(y[order] == cls[tied, None])  # rows' positives in rank order
            row = hit // n
            k_hit = np.arange(1, hit.size + 1) - (np.cumsum(pos[tied]) - pos[tied])[row]
            terms[tied[row], k_hit - 1] = k_hit / (hit - row * n + 1)
        aps = np.cumsum(terms, axis=1)[:, -1] / np.maximum(pos, 1)
    return aps, aucs


def _ranking_means(cols: np.ndarray, y: np.ndarray, *names: str) -> list[np.ndarray]:
    """The macro mean of each named ranking metric (``"map"``, ``"mauc"``) at
    every point of ``(..., C, n)`` scores, each of shape ``(...)``: see
    :func:`_ranker`."""
    return _ranker(y, cols.shape[-2], *names)(cols)


def _ranker(y: np.ndarray, num_classes: int, *names: str):
    """The function that takes ``(..., C, n)`` scores of labels ``y`` to the
    macro mean of each named ranking metric (``"map"``, ``"mauc"``) at every
    point, each of shape ``(...)``.  Which classes count and where each
    class's positives lie depend on the labels alone, so they are settled
    here once, and a weight sweep ranks every chunk of its points with them.

    The (point, class) rows are views of the scores, taken in order in
    blocks of at most about ``CHUNK_ELEMENTS`` scores (one row at the least),
    so memory stays linear in n; :func:`_block_ranking` scores each block
    once for every named metric, with its positives padded to its own
    largest class.  A mean adds its classes' values in class order with a
    cumulative sum, as each AP adds its terms, so no bit depends on how the
    Python version's ``sum`` adds floats."""
    n = y.size
    positives = np.bincount(y, minlength=num_classes)
    counted = []
    for name in names:
        # AUC needs a negative as well as a positive
        included = (positives > 0) & ((positives < n) | (name == "map"))
        if not included.any():
            raise ValueError(
                "mean_average_precision needs at least one positive label" if name == "map"
                else "mean_auc needs a class with both positives and negatives"
            )
        counted.append(included)
    slots = _positive_slots(y, positives)
    per_block = max(1, CHUNK_ELEMENTS // n)

    def means(cols: np.ndarray) -> list[np.ndarray]:
        rows = cols.reshape(-1, n)
        blocks = []
        for first in range(0, len(rows), per_block):
            block = rows[first:first + per_block]
            cls = np.arange(first, first + len(block)) % num_classes
            width = max(1, positives[cls].max())
            values = _block_ranking(
                block, cls, slots[cls, :width], y, "map" in names, "mauc" in names
            )
            blocks.append(dict(zip(("map", "mauc"), values)))
        shape = cols.shape[:-1]
        result = []
        for name, included in zip(names, counted):
            kept = np.concatenate([part[name] for part in blocks]).reshape(shape)[..., included]
            result.append(np.cumsum(kept, axis=-1)[..., -1] / kept.shape[-1])
        return result

    return means


def mean_average_precision(preds: np.ndarray, labels: np.ndarray) -> float:
    """Macro one-vs-rest AP: mean precision at each positive rank, averaged
    over classes with at least one positive."""
    scores = check_prediction_matrix(preds)
    y = check_labels(labels, *scores.shape)
    return float(_ranking_means(scores.T, y, "map")[0])


def mean_auc(preds: np.ndarray, labels: np.ndarray) -> float:
    """Macro one-vs-rest ROC AUC via the pairwise win/tie count, averaged
    over classes that have both positives and negatives.

    The counts are the Mann-Whitney U identity: each positive, searched in
    its class's sorted negatives, wins against those below it and ties those
    level with it, so time is O(n log n) and memory O(n) per class.
    """
    scores = check_prediction_matrix(preds)
    y = check_labels(labels, *scores.shape)
    return float(_ranking_means(scores.T, y, "mauc")[0])


def full_report(preds: np.ndarray, labels: np.ndarray) -> MetricReport:
    """All five metrics; top-5 uses k = min(5, C).  The input is validated
    once, and mAP and mAUC come from the same per-class sorts and searches."""
    scores = check_prediction_matrix(preds)
    n, num_classes = scores.shape
    y = check_labels(labels, n, num_classes)
    rank = _true_class_rank(scores.T, y)
    top1_hits = rank == 0
    mean_ap, mean_roc_auc = _ranking_means(scores.T, y, "map", "mauc")
    return MetricReport(
        top1=int(np.count_nonzero(top1_hits)) / n,
        top5=int(np.count_nonzero(rank < min(5, num_classes))) / n,
        mca=float(_class_accuracy(top1_hits, y, num_classes)),
        map=float(mean_ap),
        mauc=float(mean_roc_auc),
    )

"""Ranking metrics against brute-force oracles written straight from the
definitions.  On small instances the package values must match the oracles
exactly, including every tie case."""

import builtins
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given
from hypothesis import strategies as st
from oracles import compensated_sum, ordered_sum

from clskit import metrics
from clskit.metrics import (
    MetricReport,
    _class_accuracy,
    _class_order,
    _ranking_means,
    _true_class_rank,
    full_report,
    mean_auc,
    mean_average_precision,
    mean_class_accuracy,
    topk_accuracy,
)

# -- oracles -------------------------------------------------------------
# Independent formulations: explicit sorts and pair loops, no numpy logic.
# Means add their floats left to right, the same bits on every Python version.


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


def random_instance(rng):
    n = int(rng.integers(1, 9))
    num_classes = int(rng.integers(2, 5))
    # one-decimal scores force plenty of exact ties
    scores = np.round(rng.uniform(0.0, 1.0, size=(n, num_classes)), 1)
    labels = rng.integers(0, num_classes, size=n)
    return scores, labels


# -- exact oracle equivalence --------------------------------------------

def test_topk_matches_oracle_exactly():
    rng = np.random.default_rng(10)
    for _ in range(200):
        scores, labels = random_instance(rng)
        for k in range(1, scores.shape[1] + 1):
            assert topk_accuracy(scores, labels, k) == oracle_topk(scores, labels, k)


def test_batched_topk_hits_match_oracle_per_slice():
    rng = np.random.default_rng(15)
    for _ in range(50):
        scores, labels = random_instance(rng)
        batch = np.round(rng.uniform(0.0, 1.0, size=(3, 2) + scores.shape), 1)
        n = scores.shape[0]
        for k in range(1, scores.shape[1] + 1):
            hits = np.count_nonzero(_true_class_rank(batch, labels) < k, axis=-1)
            assert hits.shape == (3, 2)
            for index in np.ndindex(3, 2):
                assert hits[index] / n == oracle_topk(batch[index], labels, k)


def test_mca_matches_oracle_exactly():
    rng = np.random.default_rng(11)
    for _ in range(200):
        scores, labels = random_instance(rng)
        assert mean_class_accuracy(scores, labels) == oracle_mca(scores, labels)


def test_map_matches_oracle_exactly():
    rng = np.random.default_rng(12)
    for _ in range(200):
        scores, labels = random_instance(rng)
        assert mean_average_precision(scores, labels) == oracle_map(scores, labels)


def test_mauc_matches_oracle_exactly():
    rng = np.random.default_rng(13)
    for _ in range(200):
        scores, labels = random_instance(rng)
        try:
            got = mean_auc(scores, labels)
        except ValueError:
            # every sample in one class: the oracle has no eligible class either
            assert len(set(map(int, labels))) == 1
            continue
        assert got == oracle_mauc(scores, labels)


@st.composite
def tied_instances(draw):
    # few distinct scores (signed zeros and a subnormal among them), so most
    # pairs tie, and labels that may leave classes empty
    n = draw(st.integers(1, 40))
    num_classes = draw(st.integers(2, 5))
    levels = st.sampled_from([0.0, -0.0, 5e-324, 0.25, 0.5, 1.0, 3.0])
    scores = draw(st.lists(levels, min_size=n * num_classes, max_size=n * num_classes))
    labels = draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n))
    return np.array(scores).reshape(n, num_classes), np.array(labels)


@given(tied_instances())
def test_map_and_mauc_match_oracles_under_heavy_ties(instance):
    scores, labels = instance
    assert mean_average_precision(scores, labels) == oracle_map(scores, labels)
    if len(set(labels.tolist())) == 1:
        with pytest.raises(ValueError):
            mean_auc(scores, labels)
    else:
        assert mean_auc(scores, labels) == oracle_mauc(scores, labels)


@given(tied_instances(), st.sampled_from([metrics.CHUNK_ELEMENTS, 1, 7, 60]))
def test_full_report_matches_oracles_under_heavy_ties(instance, chunk):
    # small chunks rank the classes in blocks of one, a few, or all of them
    scores, labels = instance
    with mock.patch.object(metrics, "CHUNK_ELEMENTS", chunk):
        if len(set(labels.tolist())) == 1:
            with pytest.raises(ValueError):
                full_report(scores, labels)
            return
        report = full_report(scores, labels)
    assert report.as_dict() == {
        "top1": oracle_topk(scores, labels, 1),
        "top5": oracle_topk(scores, labels, min(5, scores.shape[1])),
        "mca": oracle_mca(scores, labels),
        "map": oracle_map(scores, labels),
        "mauc": oracle_mauc(scores, labels),
    }


@st.composite
def tie_heavy_blocks(draw):
    # 1-3 rows of values rounded to a few decimals, with many exact and
    # signed zeros and subnormals, so long runs of equal scores are the rule
    rows = draw(st.integers(1, 3))
    n = draw(st.integers(1, 300))
    decimals = draw(st.integers(0, 9))
    rounded = st.floats(-2.0, 2.0).map(lambda v: round(v, decimals))
    special = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308])
    values = st.lists(st.one_of(rounded, special), min_size=rows * n, max_size=rows * n)
    return np.array(draw(values)).reshape(rows, n)


def one_tied_pair(n):
    # n distinct scores in shuffled order, but for one pair of equal ones
    row = np.random.default_rng(17).permutation(n) / n
    row[n // 3] = row[n // 2]
    return row[None, :]


@given(tie_heavy_blocks())
@example(one_tied_pair(5000))
# a run ends a row, and its value starts the next
@example(np.array([[1.0, 0.5, 0.5], [0.5, 0.5, 0.2]]))
@example(np.array([[0.3, 0.3, 0.3, 0.3]]))  # the whole row is one run
@example(np.array([[0.0, 1.0, -0.0, 0.0, -0.0]]))  # signed zeros tie
def test_class_order_is_the_stable_descending_sort(block):
    order, bounds = _class_order(block)
    stable = np.argsort(-block, axis=-1, kind="stable")
    assert np.array_equal(order, stable)
    ranked = np.take_along_axis(block, stable, axis=-1)
    starts = np.ones(block.shape, dtype=bool)
    starts[:, 1:] = ranked[:, 1:] != ranked[:, :-1]
    assert np.array_equal(bounds, np.append(np.flatnonzero(starts), block.size))


@st.composite
def tied_stacks(draw):
    # the fused points of a sweep chunk: values rounded to 0-2 decimals, with
    # signed zeros, so most rows hold runs of equal scores
    points = draw(st.integers(1, 4))
    n = draw(st.integers(1, 12))
    num_classes = draw(st.integers(2, 5))
    decimals = draw(st.integers(0, 2))
    rounded = st.floats(-1.0, 1.0).map(lambda v: round(v, decimals))
    size = points * n * num_classes
    values = draw(st.lists(st.one_of(rounded, st.sampled_from([0.0, -0.0, 5e-324])),
                           min_size=size, max_size=size))
    labels = draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n))
    return np.array(values).reshape(points, n, num_classes), np.array(labels)


@given(tied_stacks(), st.integers(1, 60))
def test_stacked_topk_and_class_accuracy_match_oracles_per_point(instance, chunk):
    # class-major blocks of chunk // C rows start and end inside points as
    # well as at their edges
    stack, labels = instance
    n, num_classes = stack.shape[1:]
    with mock.patch.object(metrics, "CHUNK_ELEMENTS", chunk):
        rank = _true_class_rank(stack, labels)
        mca = _class_accuracy(rank < 1, labels, num_classes)
    hits = {k: np.count_nonzero(rank < k, axis=-1) for k in range(1, num_classes + 1)}
    assert mca.shape == (len(stack),)
    for point, scores in enumerate(stack):
        for k, counts in hits.items():
            assert counts[point] / n == oracle_topk(scores, labels, k)
        assert mca[point] == oracle_mca(scores, labels)


@given(tied_stacks(), st.integers(1, 60))
def test_stacked_ranking_matches_oracles_per_point(instance, chunk):
    # blocks of chunk // n rows start and end inside points as well as at their edges
    stack, labels = instance
    with mock.patch.object(metrics, "CHUNK_ELEMENTS", chunk):
        if len(set(labels.tolist())) == 1:
            with pytest.raises(ValueError, match="mean_auc needs a class with both"):
                _ranking_means(stack, labels, "map", "mauc")
            (mean_ap,) = _ranking_means(stack, labels, "map")
            mean_roc_auc = None
        else:
            mean_ap, mean_roc_auc = _ranking_means(stack, labels, "map", "mauc")
    assert mean_ap.shape == (len(stack),)
    for point, scores in enumerate(stack):
        assert mean_ap[point] == oracle_map(scores, labels)
        if mean_roc_auc is not None:
            assert mean_roc_auc[point] == oracle_mauc(scores, labels)


@pytest.mark.parametrize("seed", [0, 2])
def test_full_report_bits_do_not_depend_on_the_python_sum(seed, monkeypatch):
    # Python 3.12's sum compensates; a mean added with it would change its
    # bits at these seeds, mAP's at seed 0 and mAUC's at seed 2
    rng = np.random.default_rng(seed)
    scores = rng.uniform(size=(2000, 10))
    labels = rng.integers(0, 10, size=2000)
    plain = full_report(scores, labels).as_dict()
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    assert full_report(scores, labels).as_dict() == plain


def test_map_heap_stays_linear_at_scale():
    rng = np.random.default_rng(16)
    scores = np.round(rng.uniform(size=(20_000, 10)), 3)  # ties included
    labels = rng.integers(0, 10, size=20_000)
    tracemalloc.start()
    try:
        mean_average_precision(scores, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


def test_full_report_heap_stays_linear_at_scale():
    rng = np.random.default_rng(16)
    scores = np.round(rng.uniform(size=(20_000, 10)), 3)  # ties included
    labels = rng.integers(0, 10, size=20_000)
    tracemalloc.start()
    try:
        full_report(scores, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.25 * 2**20


def test_mauc_heap_stays_linear_at_scale():
    rng = np.random.default_rng(16)
    scores = np.round(rng.uniform(size=(20_000, 10)), 3)  # ties included
    labels = rng.integers(0, 10, size=20_000)
    tracemalloc.start()
    try:
        mean_auc(scores, labels)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2 * 2**20


# -- hand-checked fixtures -----------------------------------------------

def test_perfect_predictions():
    scores = np.eye(4)[[0, 1, 2, 3, 0, 1]]
    labels = np.array([0, 1, 2, 3, 0, 1])
    rep = full_report(scores, labels)
    assert rep.as_dict() == {"top1": 1.0, "top5": 1.0, "mca": 1.0, "map": 1.0, "mauc": 1.0}


def test_ap_interleaved_ranking():
    # class-0 scores rank the samples pos, neg, pos, neg:
    # AP = (1/1 + 2/3) / 2 = 5/6
    scores = np.array([[0.9, 0.1], [0.8, 0.2], [0.7, 0.3], [0.6, 0.4]])
    labels = np.array([0, 1, 0, 1])
    order = np.argsort(-scores[:, 0])
    assert list(order) == [0, 1, 2, 3]
    ap_class0 = (1.0 + 2.0 / 3.0) / 2.0
    # class 1's own ranking interleaves the same way, so its AP matches
    expected = ap_class0
    assert mean_average_precision(scores, labels) == pytest.approx(expected, rel=1e-15)


def test_auc_pairwise_counts():
    # positives score {0.9, 0.4}, negatives {0.6, 0.2}: 3 wins of 4 pairs
    scores = np.array([[0.9, 0.1], [0.6, 0.4], [0.4, 0.6], [0.2, 0.8]])
    labels = np.array([0, 1, 0, 1])
    pos = scores[labels == 0, 0]
    neg = scores[labels == 1, 0]
    assert sorted(pos) == [0.4, 0.9] and sorted(neg) == [0.2, 0.6]
    # class 1 mirrors it exactly, so the macro mean is also 0.75
    assert mean_auc(scores, labels) == pytest.approx(0.75, rel=1e-15)


def test_auc_tie_counts_half():
    scores = np.array([[0.5, 0.5], [0.5, 0.5]])
    labels = np.array([0, 1])
    assert mean_auc(scores, labels) == 0.5


def test_mca_differs_from_top1_when_unbalanced():
    # 9 class-0 samples all right, 1 class-1 sample wrong:
    # top-1 = 0.9 but per-class recalls are 1.0 and 0.0
    scores = np.tile([0.8, 0.2], (10, 1))
    labels = np.array([0] * 9 + [1])
    assert topk_accuracy(scores, labels, 1) == 0.9
    assert mean_class_accuracy(scores, labels) == 0.5


def test_topk_tie_goes_to_lower_index():
    scores = np.array([[0.5, 0.5, 0.0]])
    assert topk_accuracy(scores, [0], 1) == 1.0  # rank 0
    assert topk_accuracy(scores, [1], 1) == 0.0  # rank 1, loses the tie
    assert topk_accuracy(scores, [1], 2) == 1.0


def test_topk_monotone_in_k():
    rng = np.random.default_rng(14)
    scores = rng.uniform(size=(50, 6))
    labels = rng.integers(0, 6, size=50)
    accs = [topk_accuracy(scores, labels, k) for k in range(1, 7)]
    assert accs == sorted(accs)
    assert accs[-1] == 1.0


def test_rank_metrics_invariant_to_increasing_transform():
    rng = np.random.default_rng(15)
    # spaced-out scores so an affine map cannot merge distinct values
    scores = np.round(rng.uniform(0.0, 1.0, size=(30, 4)), 2)
    labels = rng.integers(0, 4, size=30)
    transformed = 2.0 * scores + 1.0
    assert topk_accuracy(scores, labels, 2) == topk_accuracy(transformed, labels, 2)
    assert mean_class_accuracy(scores, labels) == mean_class_accuracy(transformed, labels)
    assert mean_average_precision(scores, labels) == mean_average_precision(
        transformed, labels
    )
    assert mean_auc(scores, labels) == mean_auc(transformed, labels)


def test_classes_without_samples_are_skipped():
    # class 2 never appears: mCA/mAP average over classes 0 and 1 only
    scores = np.array([[0.6, 0.3, 0.1], [0.2, 0.7, 0.1], [0.5, 0.4, 0.1]])
    labels = np.array([0, 1, 1])
    assert mean_class_accuracy(scores, labels) == (1.0 + 0.5) / 2.0
    assert mean_average_precision(scores, labels) == oracle_map(scores, labels)


def test_validation_errors():
    scores = np.array([[0.6, 0.4], [0.3, 0.7]])
    with pytest.raises(ValueError):
        topk_accuracy(scores, [0, 1], 0)
    with pytest.raises(ValueError):
        topk_accuracy(scores, [0, 1], 3)
    with pytest.raises(ValueError):
        topk_accuracy(scores, [0, 2], 1)  # label out of range
    with pytest.raises(ValueError):
        mean_auc(scores, [0, 0])  # no class has both positives and negatives


def test_full_report_top5_caps_at_class_count():
    scores = np.array([[0.6, 0.4], [0.3, 0.7]])
    rep = full_report(scores, [0, 1])
    assert rep.top5 == topk_accuracy(scores, [0, 1], 2)


# -- display -------------------------------------------------------------

def test_summary_row_format():
    rep = MetricReport(top1=0.5507, top5=0.8561, mca=0.2095, map=0.2620, mauc=0.859)
    assert rep.summary_row() == "55.07 / 85.61 / 20.95 / 26.20 / 0.859"


def test_table_format():
    rep = MetricReport(top1=1.0, top5=1.0, mca=0.5, map=5.0 / 6.0, mauc=0.75)
    lines = rep.table().splitlines()
    assert lines[0] == "top1   100.00"
    assert lines[2] == "mca     50.00"
    assert lines[4] == "mauc    0.750"


def test_as_dict_round_trip():
    rep = MetricReport(0.1, 0.2, 0.3, 0.4, 0.5)
    assert MetricReport(**rep.as_dict()) == rep

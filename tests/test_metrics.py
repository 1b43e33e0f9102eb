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
from oracles import compensated_sum, oracle_map, oracle_mauc, oracle_mca, oracle_topk

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
            for index in np.ndindex(3, 2):
                hits = np.count_nonzero(_true_class_rank(batch[index].T, labels) < k)
                assert hits / n == oracle_topk(batch[index], labels, k)


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
    assert np.array_equal(_class_order(block), np.argsort(-block, axis=-1, kind="stable"))


def planted_row(n, num_classes, seed, ties):
    """n samples, most of class 0 and a few of each other class, so the
    oracles' pair loops stay short at a few thousand samples.  Each class's
    scores are distinct (shuffled multiples of 1/n) except for the planted
    ties: per class, a positive takes the score of a negative before or after
    it in index order, a positive and a negative take 0.0 and -0.0, and a
    positive and a negative take 5e-324."""
    rng = np.random.default_rng(seed)
    labels = np.zeros(n, dtype=np.int64)
    for c in range(1, num_classes):
        labels[rng.choice(n, size=min(n, int(rng.integers(1, 30))), replace=False)] = c
    scores = np.stack([rng.permutation(n) / n for _ in range(num_classes)], axis=1)
    for c in range(num_classes):
        positives, negatives = np.flatnonzero(labels == c), np.flatnonzero(labels != c)
        if not positives.size or not negatives.size:
            continue
        for tie in ties:
            i, j = rng.choice(positives), rng.choice(negatives)
            if tie == "value":
                scores[i, c] = scores[j, c]
            elif tie == "zero":
                scores[i, c], scores[j, c] = rng.permutation([0.0, -0.0])
            else:
                scores[i, c] = scores[j, c] = 5e-324
    return scores, labels


@st.composite
def planted_ties(draw):
    n = draw(st.integers(2, 3000))
    num_classes = draw(st.integers(2, 4))
    ties = draw(st.lists(st.sampled_from(["value", "zero", "tiny"]), max_size=4))
    scores, labels = planted_row(n, num_classes, draw(st.integers(0, 2**32 - 1)), ties)
    return scores, labels, draw(st.sampled_from(["one row", "some rows", "all rows"]))


def block_chunk(shape, rows_per_block):
    n, num_classes = shape
    return {"one row": 1, "some rows": 2 * n, "all rows": n * num_classes}[rows_per_block]


def one_class_run(n):
    # every score of class 1 equal: the row is one run
    scores, labels = planted_row(n, 2, 5, [])
    scores[:, 1] = 0.25
    return scores, labels


def ties_among_positives(n):
    # two positives of class 1 share a score that no negative has
    scores, labels = planted_row(n, 2, 6, [])
    first, second = np.flatnonzero(labels == 1)[:2]
    scores[second, 1] = scores[first, 1]
    return scores, labels


def one_tied_pair_instance(n):
    # class 1's scores are distinct but for one positive tied with a negative
    labels = np.zeros(n, dtype=np.int64)
    labels[np.random.default_rng(18).choice(n, size=40, replace=False)] = 1
    labels[n // 3], labels[n // 2] = 1, 0
    row = one_tied_pair(n)[0]
    return np.stack([1.0 - row, row], axis=1), labels


@given(planted_ties())
@example((*one_tied_pair_instance(5000), "one row"))
@example((*one_tied_pair_instance(5000), "all rows"))
@example((*one_class_run(2000), "some rows"))
@example((*ties_among_positives(2000), "one row"))
def test_planted_ties_at_scale_match_oracles(instance):
    scores, labels, rows_per_block = instance
    with mock.patch.object(metrics, "CHUNK_ELEMENTS", block_chunk(scores.shape, rows_per_block)):
        (mean_ap,) = _ranking_means(scores.T, labels, "map")
        if len(set(labels.tolist())) == 1:
            with pytest.raises(ValueError):
                full_report(scores, labels)
            assert mean_ap == oracle_map(scores, labels)
            return
        mean_roc_auc, again = _ranking_means(scores.T, labels, "mauc", "map")
        report = full_report(scores, labels)
    assert mean_ap == again == report.map == oracle_map(scores, labels)
    assert mean_roc_auc == report.mauc == oracle_mauc(scores, labels)
    assert report.top1 == oracle_topk(scores, labels, 1)
    assert report.mca == oracle_mca(scores, labels)


@pytest.mark.parametrize(
    "instance, exact",
    [
        (planted_row(2000, 3, 7, ["value"]), True),
        (planted_row(2000, 3, 8, ["zero"]), True),
        (planted_row(2000, 3, 9, ["tiny"]), True),
        (ties_among_positives(2000), False),
        (one_class_run(2000), True),
        (
            (np.random.default_rng(19).uniform(size=(20_000, 10)),
             np.random.default_rng(20).integers(0, 10, size=20_000)),
            False,
        ),
    ],
    ids=["value", "signed-zeros", "subnormal", "positives-only", "one-run", "untied-20000x10"],
)
def test_only_a_positive_tied_with_a_negative_takes_the_stable_order(instance, exact):
    scores, labels = instance
    tied_classes = [
        c for c in range(scores.shape[1])
        if set(scores[labels == c, c].tolist()) & set(scores[labels != c, c].tolist())
    ]
    assert bool(tied_classes) == exact
    with mock.patch.object(metrics, "_class_order", wraps=_class_order) as stable_order:
        report = full_report(scores, labels)
    # one call per block with such a row, given those rows alone
    ranked = np.concatenate([call.args[0] for call in stable_order.call_args_list] or [[]])
    assert len(ranked) == len(tied_classes)
    for row, c in zip(ranked, tied_classes):
        assert np.array_equal(row, scores[:, c])
    if len(labels) <= 2000:
        assert report.map == oracle_map(scores, labels)


@pytest.mark.parametrize("rows_per_block", ["one row", "some rows", "all rows"])
def test_each_block_pads_positives_to_its_own_largest_class(rows_per_block):
    # class 0 holds most labels and class 4 none, so a block without class 0
    # gathers a few positive slots per row, not class 0's count
    scores, labels = planted_row(2000, 4, 21, ["value"])
    scores = np.hstack([scores, np.random.default_rng(22).permutation(2000)[:, None] / 2000])
    counts = np.bincount(labels, minlength=5)
    with mock.patch.object(metrics, "CHUNK_ELEMENTS", block_chunk(scores.shape, rows_per_block)), \
            mock.patch.object(metrics, "_block_ranking", wraps=metrics._block_ranking) as kernel:
        report = full_report(scores, labels)
    for call in kernel.call_args_list:
        _, cls, slots = call.args[:3]
        assert slots.shape == (len(cls), max(1, counts[cls].max()))
    assert report.map == oracle_map(scores, labels)
    assert report.mauc == oracle_mauc(scores, labels)


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
    # class-major blocks of chunk // C columns end inside a point as well as
    # at its edge
    stack, labels = instance
    n, num_classes = stack.shape[1:]
    with mock.patch.object(metrics, "CHUNK_ELEMENTS", chunk):
        rank = np.stack([_true_class_rank(scores.T, labels) for scores in stack])
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
    cols = stack.swapaxes(1, 2)
    with mock.patch.object(metrics, "CHUNK_ELEMENTS", chunk):
        if len(set(labels.tolist())) == 1:
            with pytest.raises(ValueError, match="mean_auc needs a class with both"):
                _ranking_means(cols, labels, "map", "mauc")
            (mean_ap,) = _ranking_means(cols, labels, "map")
            mean_roc_auc = None
        else:
            mean_ap, mean_roc_auc = _ranking_means(cols, labels, "map", "mauc")
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


def test_full_report_heap_stays_linear_without_ties():
    # distinct scores: every class row is ranked by the value sort and the
    # positives' search alone
    rng = np.random.default_rng(16)
    scores = rng.uniform(size=(20_000, 10))
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

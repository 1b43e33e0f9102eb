"""Fusion exactness properties and the simplex weight sweep."""

import builtins
import math
import tracemalloc
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import compensated_sum

from clskit import ensemble
from clskit.ensemble import (
    EnsembleManifest,
    EnsembleMember,
    _exact_sum,
    _filter_bounds,
    _grid_chunks,
    _settled_rows,
    _sweep_topk_rows,
    fuse,
    sweep_weights,
)
from clskit.metrics import (
    mean_auc,
    mean_average_precision,
    mean_class_accuracy,
    topk_accuracy,
)
from clskit.numerics import softmax


def random_members(rng, count, n=12, num_classes=4):
    return [
        np.stack([softmax(rng.normal(size=num_classes)) for _ in range(n)])
        for _ in range(count)
    ]


def bits(values):
    return np.asarray(values, dtype=float).view(np.uint64)


# -- exact-sum kernel --------------------------------------------------------

ADVERSARIAL = [
    1e16, -1e16, 1.0, -1.0, 2.0**-53, 2.0**-106, -(2.0**-53),  # cancellation, half-way
    0.0, -0.0, 5e-324, -5e-324, 2.0**-1022, -(2.0**-1022),  # signed zeros, subnormals
    1.7976931348623157e308, -1.7976931348623157e308, 0.1, 1.0 + 2.0**-52,
]
# few mantissa bits over a wide exponent range: exact sums often land on or
# next to rounding ties, with remainders spread across many magnitudes
sparse = st.builds(
    lambda sign, mantissa, exponent: sign * mantissa * 2.0**exponent,
    st.sampled_from([-1.0, 1.0]), st.integers(1, 7), st.integers(-160, 0),
)
values = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(ADVERSARIAL), sparse
)


@st.composite
def stacks(draw):
    """Summand columns of one length M; some end with the negation of their
    first values, so the exact sum is tiny against its terms."""
    m = draw(st.integers(1, 8))
    columns = draw(st.lists(st.lists(values, min_size=m, max_size=m), min_size=1, max_size=6))
    for column in columns:
        cancelled = draw(st.integers(0, m // 2))
        if cancelled:
            column[m - cancelled:] = [-v for v in column[:cancelled]]
    return columns


@given(stacks())
@example([[1.0, 2.0**-53, 2.0**-106], [1e16, 1.0, -1e16], [-0.0, -0.0, -0.0]])
@example([[  # the remainders past the last TwoSum push the sum across a tie
    8.271806125530277e-25, 6.887662211849341e-41, -0.0078125,
    -3.1554436208840472e-30, 0.0078125, 1.7219155529623352e-41,
]])
@example([[1.7976931348623157e308, 1.7976931348623157e308]])  # overflow
def test_exact_sum_matches_fsum_bitwise(columns):
    stack = np.array(columns).T
    try:
        want = [math.fsum(column) for column in columns]
    except OverflowError:
        with pytest.raises(OverflowError):
            _exact_sum(stack)
        return
    assert np.array_equal(bits(_exact_sum(stack)), bits(want))


@given(stacks(), st.data())
def test_weighted_exact_sum_matches_fsum_of_the_products(columns, data):
    m = len(columns[0])
    weights = np.array(data.draw(st.lists(st.floats(0.0, 1.0), min_size=m, max_size=m)))
    stack = np.array(columns).T
    products = weights[:, None] * stack
    try:
        want = [math.fsum(column) for column in products.T]
    except OverflowError:
        with pytest.raises(OverflowError):
            _exact_sum(stack, weights)
        return
    assert np.array_equal(bits(_exact_sum(stack, weights)), bits(want))


def test_exact_sum_falls_back_to_fsum_only_where_unproven(monkeypatch):
    calls = []
    real_fsum = math.fsum

    def counting_fsum(column):
        calls.append(list(column))
        return real_fsum(calls[-1])

    monkeypatch.setattr(math, "fsum", counting_fsum)
    stack = np.array([
        [1.0, 1e16, 0.5, -0.0],
        [2.0**-53, 1.0, 0.25, -0.0],
        [2.0**-106, -1e16, 0.25, -0.0],
    ])
    got = _exact_sum(stack)
    # the just-above-half-way column and the zero column take the fallback;
    # the cancelling and the exact columns are certified
    assert calls == [[1.0, 2.0**-53, 2.0**-106], [-0.0, -0.0, -0.0]]
    assert np.array_equal(bits(got), bits([1.0 + 2.0**-52, 1.0, 1.0, 0.0]))


# -- fuse ------------------------------------------------------------------

def test_fuse_matches_fsum_reference_bitwise():
    rng = np.random.default_rng(18)
    for count in range(2, 7):
        members = random_members(rng, count, n=30, num_classes=10)
        w = rng.dirichlet(np.ones(count))
        w[-1] = 1.0 - w[:-1].sum()
        products = [wk * m for wk, m in zip(w, members)]
        want = [[math.fsum(p[i, j] for p in products) for j in range(10)] for i in range(30)]
        assert np.array_equal(bits(fuse(members, w)), bits(want))


def test_fuse_matches_weighted_mean():
    rng = np.random.default_rng(20)
    members = random_members(rng, 3)
    w = [0.5, 0.3, 0.2]
    expected = sum(wk * m for wk, m in zip(w, members))
    got = fuse(members, w)
    assert np.allclose(got, expected, rtol=0, atol=1e-15)


def test_fuse_unit_vector_reproduces_member_exactly():
    rng = np.random.default_rng(21)
    members = random_members(rng, 4)
    for k in range(4):
        w = [0.0] * 4
        w[k] = 1.0
        assert np.array_equal(fuse(members, w), members[k])


def test_fuse_identical_members_is_identity():
    rng = np.random.default_rng(22)
    m = random_members(rng, 1)[0]
    out = fuse([m, m, m], [0.3, 0.3, 0.4])
    assert np.array_equal(out, m)
    assert out is not m  # a copy, not the caller's array


def test_fuse_permutation_invariant_bitwise():
    rng = np.random.default_rng(23)
    members = random_members(rng, 4)
    w = [0.1, 0.4, 0.25, 0.25]
    base = fuse(members, w)
    for perm in ([3, 2, 1, 0], [2, 0, 3, 1], [1, 3, 0, 2]):
        permuted = fuse([members[k] for k in perm], [w[k] for k in perm])
        assert np.array_equal(permuted, base)


def test_fuse_rows_stay_stochastic():
    rng = np.random.default_rng(24)
    members = random_members(rng, 4, n=50)
    out = fuse(members, [0.1, 0.4, 0.25, 0.25])
    assert np.all(out >= 0.0)
    assert np.max(np.abs(out.sum(axis=1) - 1.0)) <= 1e-9


def test_fuse_heap_stays_linear_at_scale():
    # the 1.5 MiB output and one chunk of weighted values, not M weighted copies
    rng = np.random.default_rng(16)
    members = [rng.dirichlet(np.ones(10), size=20_000) for _ in range(5)]
    weights = [0.3, 0.1, 0.2, 0.25, 0.15]
    tracemalloc.start()
    try:
        fuse(members, weights)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 3 * 2**20


def test_fuse_logit_inputs_softmax_first():
    rng = np.random.default_rng(25)
    logits = [rng.normal(size=(10, 3)) for _ in range(2)]
    probs = [np.stack([softmax(row) for row in m]) for m in logits]
    assert np.array_equal(
        fuse(logits, [0.6, 0.4], score_type="logit"), fuse(probs, [0.6, 0.4])
    )


def test_fuse_validation():
    rng = np.random.default_rng(26)
    members = random_members(rng, 2)
    with pytest.raises(ValueError):
        fuse(members, [0.6, 0.6])  # sum != 1
    with pytest.raises(ValueError):
        fuse(members, [1.5, -0.5])  # negative
    with pytest.raises(ValueError):
        fuse(members, [1.0])  # count mismatch
    with pytest.raises(ValueError):
        fuse([members[0], members[1][:5]], [0.5, 0.5])  # shape mismatch
    with pytest.raises(ValueError):
        fuse([np.full((4, 3), 0.5)] * 2, [0.5, 0.5])  # rows don't sum to 1
    with pytest.raises(ValueError):
        fuse(members, [0.5, 0.5], score_type="energy")
    # logit members are exempt from the row-sum check
    fuse([np.full((4, 3), 0.5)] * 2, [0.5, 0.5], score_type="logit")


def test_fuse_names_a_missing_member_or_weight():
    with pytest.raises(ValueError, match="^at least one prediction matrix is required$"):
        fuse([], [])
    x = np.full((2, 2), 0.5)
    with pytest.raises(ValueError, match="^weights must be a non-empty vector$"):
        fuse([x, x], [])


def test_weight_sum_tolerance_boundary():
    rng = np.random.default_rng(27)
    members = random_members(rng, 2)
    fuse(members, [0.5, 0.5 + 1e-10])  # inside the tolerance
    with pytest.raises(ValueError):
        fuse(members, [0.5, 0.5 + 1e-8])


# -- manifest ----------------------------------------------------------------

def test_manifest_validation():
    good = EnsembleManifest(
        members=(EnsembleMember("a.csv", 0.5), EnsembleMember("b.csv", 0.5))
    )
    assert good.paths() == ["a.csv", "b.csv"]
    assert np.array_equal(good.weights(), [0.5, 0.5])
    with pytest.raises(ValueError):
        EnsembleManifest(members=(EnsembleMember("a.csv", 1.0),))
    with pytest.raises(ValueError):
        EnsembleManifest(
            members=(EnsembleMember("a.csv", 0.6), EnsembleMember("b.csv", 0.6))
        )
    with pytest.raises(ValueError):
        EnsembleManifest(
            members=(EnsembleMember("a.csv", 0.5), EnsembleMember("b.csv", 0.5)),
            score_type="energy",
        )


# -- sweep ---------------------------------------------------------------

def _compositions(total, parts):
    # The recursive ascending-lex generator the sweep grid is checked against.
    if parts == 1:
        yield (total,)
        return
    for head in range(total + 1):
        for tail in _compositions(total - head, parts - 1):
            yield (head,) + tail


def reference_sweep(members, labels, resolution, objective, score_type="prob"):
    """Brute force: one fuse and one metric call per grid point."""
    num_classes = members[0].shape[1]
    metric = {
        "top1": lambda p, y: topk_accuracy(p, y, 1),
        "top5": lambda p, y: topk_accuracy(p, y, min(5, num_classes)),
        "mca": mean_class_accuracy,
        "map": mean_average_precision,
        "mauc": mean_auc,
    }[objective]
    best_weights, best_score = None, -math.inf
    for comp in _compositions(resolution, len(members)):
        w = np.array(comp, dtype=float) / resolution
        score = metric(fuse(members, w, score_type), labels)
        if score > best_score:
            best_weights, best_score = w, score
    return best_weights, best_score


def sweep_cases():
    rng = np.random.default_rng(34)
    labels = rng.integers(0, 4, size=12)
    # coarse probabilities tie within rows and across members and points
    coarse = [np.eye(4)[rng.integers(0, 4, size=12)] * 0.5 + 0.125 for _ in range(3)]
    one_hot = [np.eye(4)[rng.integers(0, 4, size=12)] for _ in range(2)]
    same = random_members(rng, 1)[0]
    # class 1 sits one ulp above class 0: a fused point whose weights sum
    # to just under 1 would tie them, so only fuse's exact fixed point keeps
    # every point's ranking
    a = 0.35
    ulp_apart = np.tile([a, np.nextafter(a, 1.0), 1.0 - a - np.nextafter(a, 1.0)], (12, 1))
    return {
        "random3": (random_members(rng, 3), labels, 6, "prob"),
        "random5": (random_members(rng, 5), labels, 3, "prob"),
        "ties": (coarse, labels, 4, "prob"),
        "one_hot": (one_hot, labels, 5, "prob"),
        "identical": ([same, same, same], labels, 4, "prob"),
        "identical_ulp_apart": ([ulp_apart] * 3, np.tile([0, 2], 6), 3, "prob"),
        "logit": ([rng.normal(size=(12, 4)) * 3 for _ in range(3)], labels, 5, "logit"),
    }


@pytest.mark.parametrize("objective", ["top1", "top5", "mca", "map", "mauc"])
@pytest.mark.parametrize("case", list(sweep_cases()))
@pytest.mark.parametrize("chunk", [ensemble.CHUNK_ELEMENTS, 50])
def test_sweep_matches_brute_force_reference(objective, case, chunk, monkeypatch):
    members, labels, resolution, score_type = sweep_cases()[case]
    monkeypatch.setattr(ensemble, "CHUNK_ELEMENTS", chunk)
    weights, score = sweep_weights(members, labels, resolution, objective, score_type)
    want_weights, want_score = reference_sweep(members, labels, resolution, objective,
                                               score_type)
    assert np.array_equal(bits(weights), bits(want_weights))
    assert type(score) is float and score == want_score


@pytest.mark.parametrize("parts", [2, 3, 4, 5])
def test_composition_grid_keeps_recursive_lex_order(parts):
    for total in range(1, 9):
        grid = np.concatenate(list(_grid_chunks(total, parts, 4)))
        assert grid.tolist() == [list(c) for c in _compositions(total, parts)]


MAX_POINTS = ensemble.MAX_GRID_POINTS


@pytest.mark.parametrize("total, parts, size", [
    (8, 2, 3), (8, 3, 1), (8, 3, 4), (8, 4, 7), (8, 5, 16), (20, 4, 13), (3, 5, 1000),
    (10, 2, 7),  # 7 rows of 2 parts exceed the 12 values: every step is one chunk
])
def test_grid_chunks_cut_the_grid_in_order(total, parts, size, monkeypatch):
    monkeypatch.setattr(ensemble, "CHUNK_ELEMENTS", 12)  # many small blocks
    chunks = list(_grid_chunks(total, parts, size))
    assert all(len(c) == size for c in chunks[:-1]) and 1 <= len(chunks[-1]) <= size
    assert np.concatenate(chunks).tolist() == [list(c) for c in _compositions(total, parts)]


def test_two_member_grid_near_the_cap_comes_in_full_blocks():
    total = MAX_POINTS - 1
    blocks = list(_grid_chunks(total, 2, 4096))
    assert all(len(block) == 4096 for block in blocks[:-1])
    assert np.array_equal(np.concatenate([block[:, 0] for block in blocks]),
                          np.arange(total + 1))
    assert all(np.all(block.sum(axis=1) == total) for block in blocks)


def test_capped_five_member_sweep_memory_is_per_chunk():
    # comb(66 + 4, 4) = 916 895 points; the whole grid alone would take 37 MB
    rng = np.random.default_rng(35)
    members = random_members(rng, 5, n=2, num_classes=3)
    labels = np.array([0, 2])
    assert math.comb(66 + 4, 4) <= MAX_POINTS
    tracemalloc.start()
    try:
        sweep_weights(members, labels, 66)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


# -- sweep filter ----------------------------------------------------------

@st.composite
def filter_cases(draw):
    """Members of adversarial finite values (subnormals, cancellation, up to
    1e300) and weight points of one grid."""
    m = draw(st.integers(2, 5))
    size = draw(st.integers(1, 12))
    entry = st.one_of(
        st.floats(-1e300, 1e300), st.sampled_from([v for v in ADVERSARIAL if abs(v) <= 1e300]),
        sparse,
        st.integers(0, 9).map(lambda k: k * 5e-324),
    )
    flat = np.array(draw(st.lists(st.lists(entry, min_size=size, max_size=size),
                                  min_size=m, max_size=m)))
    resolution = draw(st.integers(1, 12))
    grid = list(_compositions(resolution, m))
    rows = draw(st.lists(st.integers(0, len(grid) - 1), min_size=1, max_size=6))
    return np.array([grid[row] for row in rows]) / resolution, flat


@settings(max_examples=300)
@given(filter_cases())
def test_filter_bound_holds_fuses_value(case):
    # the members' values are the classes of one row, each the true class in turn
    weights, flat = case
    cols = flat[:, :, None]
    exact = _exact_sum(weights.T[:, :, None] * flat[:, None])
    f = weights @ flat
    for target in range(flat.shape[1]):
        pair = _filter_bounds(cols, np.array([target]))[:, 0]
        margins = f - f[:, [target]]
        for point, row in enumerate(margins):
            for c in range(len(row)):
                if c == target:  # apart from itself by definition
                    continue
                want = Fraction(exact[point, c]) - Fraction(exact[point, target])
                assert abs(Fraction(row[c]) - want) <= Fraction(pair[c])
                if abs(row[c]) > pair[c]:
                    assert want != 0 and (want > 0) == (row[c] > 0)


def exact_rows(stack, y, weights):
    """Whether the top-1 sweep at the one weight point ``weights`` fuses each
    row of ``stack`` exactly, the rows swept one at a time; and the hits."""
    went, hits = [], []
    for i in range(stack.shape[1]):
        row = stack[:, [i]].transpose(0, 2, 1)
        with counting_exact_sums() as calls:
            hit = _sweep_topk_rows(np.array([weights]), row, _filter_bounds(row, y[[i]]), y[[i]], 1)
        went.append(bool(calls))
        hits.append(bool(hit[0, 0]))
    return went, hits


@pytest.mark.filterwarnings("error")
def test_filter_proves_only_margins_beyond_the_bounds():
    # member 1 holds the values (all the weight); member 0's magnitudes set
    # the bounds: 2**47 gives 4 * 2 * 2**-53 * 2**47 = 0.125 and 2**46 0.0625
    values = np.array([[0.5, 0.75, 0.25], [0.75, 0.75, 0.25], [0.5, 0.75, 0.25]])
    scale = np.full_like(values, 2.0**47)
    scale[2, 0] = 2.0**46
    y = np.array([1, 1, 1])
    went, hits = exact_rows(np.stack([scale, values]), y, [0.0, 1.0])
    # row 0: margin 0.25 equals the bounds' sum; row 1: class 0 ties the
    # target; row 2: margins 0.25 and 0.5 exceed 0.1875 and 0.25
    assert went == [True, True, False]
    assert hits[2]
    narrow = scale.copy()
    narrow[0, :2] = np.nextafter(2.0**47, 0.0)  # bounds 0.125 - 2**-56, sum below 0.25
    assert exact_rows(np.stack([narrow, values]), y, [0.0, 1.0])[0] == [False, True, False]
    # a non-finite value, or one of 2**1020 or more, leaves its row to the
    # exact path: a 1.7e308 whose float bound was 1e300 used to be proven
    huge = np.array([[[np.inf, 1.0, 0.0], [np.nan, 1.0, 0.0], [1.7e308, 1.0, 0.0],
                      [2.0**1020, 1.0, 0.0], [np.nextafter(2.0**1020, 0.0), 1.0, 0.0]]])
    pair = _filter_bounds(huge.transpose(0, 2, 1), np.ones(5, dtype=int))
    assert not (pair[0, :4] < np.inf).any() and np.isfinite(pair[0, 4])  # inf or NaN
    assert (pair[1] == -np.inf).all() and np.isfinite(pair[2]).all()
    big = values.copy()
    big[2, 1] = 1.7e308
    went, hits = exact_rows(np.stack([np.zeros_like(big), big]), y, [0.0, 1.0])
    assert went == [False, True, True] and hits[2]


TINY = 5e-324


@st.composite
def tie_heavy_sweeps(draw):
    """A sweep whose fused rows often tie or nearly tie: coarse rows with
    exact ties, entries one ulp apart, members one ulp apart, rows shared by
    every member, subnormal columns, prob rows with huge opposite-sign
    entries, and logit members."""
    m = draw(st.integers(2, 5))
    n = draw(st.integers(1, 6))
    num_classes = draw(st.integers(2, 6))
    score_type = draw(st.sampled_from(["prob", "prob", "logit"]))
    resolution = draw(st.integers(1, {2: 8, 3: 5, 4: 3, 5: 2}[m]))

    def coarse(size):
        counts = draw(st.lists(st.integers(0, 3), min_size=size, max_size=size).filter(any))
        return np.array(counts, dtype=float) / sum(counts)

    def row():
        kind = draw(st.sampled_from(["coarse", "ulp", "subnormal", "huge"]))
        if kind == "huge" and num_classes >= 3:
            h = draw(st.sampled_from([1e300, -1e300, 2.0**1000, 1.7e308, -1.7e308]))
            return np.concatenate([[h, -h], coarse(num_classes - 2)])
        if kind == "subnormal":
            j = draw(st.integers(0, num_classes - 1))
            return np.insert(coarse(num_classes - 1), j, draw(st.integers(0, 7)) * TINY)
        values = coarse(num_classes)
        if kind == "ulp":
            j = draw(st.integers(0, num_classes - 1))
            values[j] = np.nextafter(values[j], draw(st.sampled_from([-1.0, 2.0])))
        return values

    shared = draw(st.lists(st.booleans(), min_size=n, max_size=n))
    base = [row() for _ in range(n)]
    members = []
    for k in range(m):
        if k and draw(st.booleans()):  # the first member, some entries one ulp off
            member = members[0].copy()
            for _ in range(draw(st.integers(1, 3))):
                i, j = draw(st.integers(0, n - 1)), draw(st.integers(0, num_classes - 1))
                if abs(member[i, j]) <= 1.0:  # a huge entry's ulp would break the row sum
                    member[i, j] = np.nextafter(member[i, j], draw(st.sampled_from([-1.0, 2.0])))
        else:
            member = np.stack([base[i] if shared[i] else row() for i in range(n)])
        members.append(member)
    labels = np.array(draw(st.lists(st.integers(0, num_classes - 1), min_size=n, max_size=n)))
    return members, labels, resolution, score_type


@contextmanager
def counting_exact_sums():
    calls = []
    real = ensemble._exact_sum

    def counting(products):
        calls.append(None)
        return real(products)

    with mock.patch.object(ensemble, "_exact_sum", counting):
        yield calls


FLOAT_MAX_ROW = [1.7e308, -1.7e308, 1.0]
FLOAT_MAX_MEMBERS = [np.array([FLOAT_MAX_ROW, [0.5, 0.25, 0.25]]),
                     np.array([[0.25, 0.5, 0.25], FLOAT_MAX_ROW])]


@pytest.mark.filterwarnings("error")  # float-max rows overflow the filter's floats
def test_filtered_sweep_matches_brute_force_on_near_ties():
    fell_back = []

    @settings(max_examples=150)
    @given(tie_heavy_sweeps(), st.sampled_from([ensemble.CHUNK_ELEMENTS, 50]))
    @example((FLOAT_MAX_MEMBERS, np.array([1, 0]), 4, "prob"), ensemble.CHUNK_ELEMENTS)
    @example((FLOAT_MAX_MEMBERS, np.array([0, 2]), 4, "logit"), ensemble.CHUNK_ELEMENTS)
    def check(case, chunk):
        members, labels, resolution, score_type = case
        for objective in ("top1", "top5", "mca"):
            want_weights, want_score = reference_sweep(
                members, labels, resolution, objective, score_type
            )
            with mock.patch.object(ensemble, "CHUNK_ELEMENTS", chunk), \
                    counting_exact_sums() as calls:
                weights, score = sweep_weights(
                    members, labels, resolution, objective, score_type
                )
            assert np.array_equal(bits(weights), bits(want_weights))
            assert type(score) is float and score == want_score
            fell_back.append(bool(calls))

    check()
    # the exact path ran on a fixed share of the sweeps, so it is tested too
    assert sum(fell_back) >= len(fell_back) // 3


def test_filter_decides_every_row_without_near_ties():
    rng = np.random.default_rng(36)
    members = random_members(rng, 4, n=50, num_classes=6)
    labels = rng.integers(0, 6, size=50)
    for objective in ("top1", "top5", "mca"):
        with counting_exact_sums() as calls:
            sweep_weights(members, labels, 6, objective)
        assert calls == []


def test_top1_sweep_of_random_probabilities_fuses_no_row_exactly():
    # a bound loose enough to send every row exact would leave every answer
    # right, so only this count shows it
    rng = np.random.default_rng(37)
    members = [rng.dirichlet(np.ones(4), size=300) for _ in range(4)]
    labels = rng.integers(0, 4, size=300)
    with counting_exact_sums() as calls:
        sweep_weights(members, labels, 20)
    assert calls == []


# -- rows settled once per sweep ---------------------------------------------

def exact_rank(row, target):
    """The rank of ``target`` in one row of values by the metrics' rule,
    compared as exact rationals."""
    value = Fraction(row[target])
    return sum(Fraction(v) > value or (Fraction(v) == value and c < target)
               for c, v in enumerate(row))


@settings(max_examples=300)
@given(filter_cases())
def test_settled_rows_rank_alike_at_every_point(case):
    # the members' values are the classes of one row, each the true class in turn
    weights, flat = case
    cols = flat[:, :, None]
    exact = _exact_sum(weights.T[:, :, None] * flat[:, None])
    for target in range(flat.shape[1]):
        y = np.array([target])
        pair = _filter_bounds(cols, y)
        ranks = [exact_rank(row, target) for row in exact]
        for k in range(1, flat.shape[1] + 1):
            hit, miss = _settled_rows(cols, pair, y, k)
            assert not (hit[0] and miss[0])
            if hit[0]:
                assert max(ranks) < k
            if miss[0]:
                assert min(ranks) >= k


@settings(max_examples=150)
@given(tie_heavy_sweeps())
@example((FLOAT_MAX_MEMBERS, np.array([1, 0]), 4, "prob"))
@example((FLOAT_MAX_MEMBERS, np.array([0, 2]), 4, "logit"))
def test_settled_rows_hit_alike_at_every_point_of_the_brute_force_fuse(case):
    members, labels, resolution, score_type = case
    cols = np.stack([mat.T for mat in ensemble._check_members(members, score_type)])
    m, num_classes, n = cols.shape
    pair = _filter_bounds(cols, labels)
    fused = [fuse(members, np.array(point) / resolution, score_type)
             for point in _compositions(resolution, m)]
    for k in range(1, num_classes + 1):
        hit, miss = _settled_rows(cols, pair, labels, k)
        for i in np.flatnonzero(hit | miss):
            assert all(topk_accuracy(f[[i]], labels[[i]], k) == hit[i] for f in fused)


def test_a_row_settles_only_beyond_twice_its_pair_bound():
    # two equal members hold 1 - j 2**-53 and 1: each element's bound is
    # 2**-50 times its value, so the pair bound is just under 2**-49, and the
    # margin j 2**-53 is beyond twice it from j = 32 on (beyond the bound
    # itself from j = 16 on)
    for j in range(24, 40):
        cols = np.array([[[1.0 - j * 2.0**-53], [1.0]]] * 2)
        for target in (0, 1):
            y = np.array([target])
            hit, miss = _settled_rows(cols, _filter_bounds(cols, y), y, 1)
            beyond = j >= 32
            assert (hit[0], miss[0]) == ((beyond, False) if target else (False, beyond))


def test_sweep_ranks_only_the_rows_its_root_leaves_open():
    # a settle rule that settles nothing changes no answer, so only a count
    # shows it: four members scattered around one Dirichlet row each, as
    # stages of one model are, with labels drawn from that row
    rng = np.random.default_rng(38)
    base = rng.dirichlet(np.ones(4), size=300)
    labels = np.array([rng.choice(4, p=p) for p in base])
    members = [np.stack([rng.dirichlet(10 * p + 0.1) for p in base]) for _ in range(4)]
    cols = np.stack([mat.T for mat in members])
    hit, miss = _settled_rows(cols, _filter_bounds(cols, labels), labels, 1)
    assert hit.any() and miss.any() and np.count_nonzero(hit | miss) >= 0.2 * 300
    ranked = []
    real = ensemble._sweep_topk_rows

    def recording(weights, cols, pair, y, k):
        ranked.append(y.size)
        return real(weights, cols, pair, y, k)

    with mock.patch.object(ensemble, "_sweep_topk_rows", recording):
        for objective in ("top1", "mca"):
            weights, score = sweep_weights(members, labels, 6, objective)
            want_weights, want_score = reference_sweep(members, labels, 6, objective)
            assert np.array_equal(bits(weights), bits(want_weights)) and score == want_score
    assert set(ranked) == {300 - np.count_nonzero(hit | miss)}


def test_sweep_prefers_strictly_dominant_member():
    # any positive weight on the reversed member flips both rows
    good = np.array([[0.51, 0.49], [0.49, 0.51]])
    bad = np.array([[0.0, 1.0], [1.0, 0.0]])
    labels = np.array([0, 1])
    weights, score = sweep_weights([good, bad], labels, resolution=10)
    assert np.array_equal(weights, [1.0, 0.0])
    assert score == 1.0


def test_sweep_tie_takes_lex_smallest_weights():
    # identical members tie everywhere; ascending-lex grid order means the
    # winner puts everything on the last member
    rng = np.random.default_rng(28)
    m = random_members(rng, 1)[0]
    labels = rng.integers(0, 4, size=m.shape[0])
    weights, _ = sweep_weights([m, m], labels, resolution=4)
    assert np.array_equal(weights, [0.0, 1.0])


def test_sweep_resolution_one_is_member_selection():
    rng = np.random.default_rng(29)
    members = random_members(rng, 3, n=30)
    labels = rng.integers(0, 4, size=30)
    weights, score = sweep_weights(members, labels, resolution=1)
    assert sorted(weights) == [0.0, 0.0, 1.0]
    from clskit.metrics import topk_accuracy

    best_single = max(topk_accuracy(m, labels, 1) for m in members)
    assert score == best_single


def test_sweep_beats_or_matches_every_member():
    rng = np.random.default_rng(30)
    members = random_members(rng, 3, n=40)
    labels = rng.integers(0, 4, size=40)
    from clskit.metrics import mean_average_precision

    _, score = sweep_weights(members, labels, resolution=4, objective="map")
    for m in members:
        assert score >= mean_average_precision(m, labels)


@pytest.mark.parametrize("objective", ["map", "mauc"])
def test_sweep_bits_do_not_depend_on_the_python_sum(objective, monkeypatch):
    # Python 3.12's sum compensates; means added with it would change both
    # answers at this seed
    rng = np.random.default_rng(44)
    members = random_members(rng, 3, n=60, num_classes=6)
    labels = rng.integers(0, 6, size=60)
    weights, score = sweep_weights(members, labels, 6, objective)
    monkeypatch.setattr(builtins, "sum", compensated_sum)
    patched_weights, patched_score = sweep_weights(members, labels, 6, objective)
    assert np.array_equal(bits(patched_weights), bits(weights))
    assert patched_score == score


def test_sweep_objectives_all_run():
    rng = np.random.default_rng(31)
    members = random_members(rng, 2, n=20)
    labels = rng.integers(0, 4, size=20)
    for objective in ("top1", "top5", "mca", "map", "mauc"):
        weights, score = sweep_weights(members, labels, 3, objective=objective)
        assert abs(weights.sum() - 1.0) < 1e-12
        assert 0.0 <= score <= 1.0


def test_sweep_guards():
    rng = np.random.default_rng(32)
    members = random_members(rng, 6, n=4)
    labels = rng.integers(0, 4, size=4)
    with pytest.raises(ValueError):
        sweep_weights(members, labels, 2)  # too many members
    with pytest.raises(ValueError):
        sweep_weights(members[:2], labels, 0)  # resolution < 1
    with pytest.raises(ValueError):
        sweep_weights(members[:1], labels, 2)  # one member
    with pytest.raises(ValueError):
        sweep_weights(members[:2], labels, 2, objective="accuracy")
    # comb(70 + 4, 4) exceeds the grid cap
    with pytest.raises(ValueError):
        sweep_weights(members[:5], labels, 70)
    assert math.comb(70 + 4, 4) > 1_000_000


def test_sweep_label_validation():
    rng = np.random.default_rng(33)
    members = random_members(rng, 2, n=6)
    with pytest.raises(ValueError):
        sweep_weights(members, np.zeros(5, dtype=int), 2)  # wrong length
    with pytest.raises(ValueError):
        sweep_weights(members, np.full(6, 9), 2)  # out of range

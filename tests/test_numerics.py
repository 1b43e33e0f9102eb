"""Softmax, seeded streams, and shape/validity checks."""

import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from clskit.numerics import (
    check_labels,
    check_prediction_matrix,
    check_probability_vector,
    make_rng,
    softmax,
    softmax_rows,
)


def test_softmax_known_values():
    p = softmax(np.array([1.0, 2.0, 3.0]))
    e = [math.exp(1.0), math.exp(2.0), math.exp(3.0)]
    total = sum(e)
    assert np.allclose(p, [v / total for v in e], rtol=1e-12)
    assert abs(p.sum() - 1.0) <= 1e-12


def test_softmax_shift_invariance():
    rng = np.random.default_rng(0)
    z = rng.normal(size=7)
    assert np.allclose(softmax(z), softmax(z + 123.456), rtol=0, atol=1e-12)


def test_softmax_extreme_logits_stay_finite():
    p = softmax(np.array([1000.0, 0.0, -1000.0]))
    assert np.all(np.isfinite(p))
    assert p[0] == pytest.approx(1.0)
    p = softmax(np.array([-1e8, -1e8 + 1.0]))
    assert np.all(np.isfinite(p))


def test_softmax_rejects_bad_input():
    with pytest.raises(ValueError):
        softmax(np.array([1.0]))
    with pytest.raises(ValueError):
        softmax(np.ones((2, 2)))
    # softmax_rows makes the finiteness check, with the same message
    with pytest.raises(ValueError, match="^logits must be finite$"):
        softmax(np.array([0.0, np.nan]))
    with pytest.raises(ValueError, match="^logits must be finite$"):
        softmax(np.array([0.0, np.inf]))


@given(
    hnp.arrays(
        float,
        st.tuples(st.integers(1, 12), st.integers(2, 40)),
        elements=st.one_of(
            st.floats(-1e6, 1e6),
            st.floats(allow_nan=False, allow_infinity=False),
            st.sampled_from([0.0, -0.0, 5e-324, 745.0, -745.0]),
        ),
    ),
    st.booleans(),
)
def test_softmax_rows_matches_softmax_bit_for_bit(logits, fortran_order):
    if fortran_order:
        logits = np.asfortranarray(logits)
    with np.errstate(over="ignore"):  # logits ~1e308 apart shift to -inf in both
        expected = np.stack([softmax(row) for row in logits])
        assert softmax_rows(logits).tobytes() == expected.tobytes()


def test_softmax_rows_matches_softmax_at_scale():
    rng = np.random.default_rng(1)
    logits = rng.normal(scale=4.0, size=(20_000, 10))
    expected = np.stack([softmax(row) for row in logits])
    assert softmax_rows(logits).tobytes() == expected.tobytes()


@pytest.mark.filterwarnings("error")
def test_softmax_rows_of_a_row_past_the_float_range_warns_nothing():
    # the shift -1.7e308 - 1.7e308 overflows to -inf, and exp(-inf) is 0
    p = softmax_rows(np.array([[1.7e308, -1.7e308, 1.0], [1.0, 2.0, 3.0]]))
    assert p[0].tolist() == [1.0, 0.0, 0.0]
    assert p[1].tobytes() == softmax(np.array([1.0, 2.0, 3.0])).tobytes()


def test_softmax_rows_rejects_bad_input():
    with pytest.raises(ValueError, match="logits must be finite"):
        softmax_rows(np.array([[0.0, np.inf], [1.0, 2.0]]))
    with pytest.raises(ValueError):
        softmax_rows(np.array([1.0, 2.0]))  # a vector, not a matrix
    with pytest.raises(ValueError):
        softmax_rows(np.ones((3, 1)))


def test_make_rng_reproducible():
    a = make_rng(42).standard_normal(5)
    b = make_rng(42).standard_normal(5)
    assert np.array_equal(a, b)


def test_make_rng_keys_give_distinct_streams():
    base = make_rng(7).standard_normal(8)
    assert not np.array_equal(base, make_rng(8).standard_normal(8))
    # multi-part keys do not collide with single-part ones
    assert not np.array_equal(base, make_rng(7, 0).standard_normal(8))
    assert not np.array_equal(
        make_rng(7, 1).standard_normal(8), make_rng(7, 2).standard_normal(8)
    )


def test_make_rng_rejects_bad_keys():
    with pytest.raises(ValueError):
        make_rng()
    with pytest.raises(ValueError):
        make_rng(-1)
    with pytest.raises(ValueError):
        make_rng(2**64)
    with pytest.raises(ValueError):
        make_rng(1.5)
    with pytest.raises(ValueError):
        make_rng(True)


def test_check_probability_vector():
    v = check_probability_vector([0.25, 0.5, 0.25])
    assert v.dtype == float
    # sum off by more than the tolerance
    with pytest.raises(ValueError):
        check_probability_vector([0.5, 0.5 + 1e-6])
    # off by less is fine
    check_probability_vector([0.5, 0.5 + 1e-12])
    with pytest.raises(ValueError):
        check_probability_vector([-0.1, 1.1])
    with pytest.raises(ValueError):
        check_probability_vector([1.0])


def test_check_prediction_matrix():
    m = check_prediction_matrix([[0.1, 0.9], [0.8, 0.2]])
    assert m.shape == (2, 2)
    with pytest.raises(ValueError):
        check_prediction_matrix(np.ones(3))
    with pytest.raises(ValueError):
        check_prediction_matrix(np.ones((3, 1)))
    with pytest.raises(ValueError):
        check_prediction_matrix(np.array([[0.1, np.nan]]))


def test_check_labels():
    y = check_labels([0, 2, 1], 3, 3)
    assert y.dtype.kind == "i"
    assert np.array_equal(check_labels(np.array([0.0, 1.0]), 2, 2), [0, 1])
    with pytest.raises(ValueError):
        check_labels([0, 1, 3], 3, 3)
    with pytest.raises(ValueError):
        check_labels([0, -1], 2, 3)
    with pytest.raises(ValueError):
        check_labels([0, 1], 3, 3)
    with pytest.raises(ValueError):
        check_labels([0.5, 1.0], 2, 3)

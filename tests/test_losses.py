"""Loss family: values against explicit formulas, analytic gradients
against finite differences."""

import math

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from clskit.losses import LOSS_FORMS, LossConfig, loss_grad, loss_rows, loss_value, smooth_labels
from clskit.numerics import softmax, softmax_rows


def random_prob(rng, num_classes):
    # softmax of modest logits keeps every entry well away from the clamp
    return softmax(rng.normal(scale=2.0, size=num_classes))


# -- config validation --------------------------------------------------

def test_config_validation():
    with pytest.raises(ValueError):
        LossConfig(epsilon=1.2)
    with pytest.raises(ValueError):
        LossConfig(epsilon=1.0)
    with pytest.raises(ValueError):
        LossConfig(epsilon=-0.1)
    with pytest.raises(ValueError):
        LossConfig(gamma=-0.5)
    with pytest.raises(ValueError):
        LossConfig(form="mean")
    with pytest.raises(ValueError):
        LossConfig(clamp_floor=0.0)
    with pytest.raises(ValueError):
        LossConfig(clamp_floor=1e-3)
    LossConfig(epsilon=0.06, gamma=0.3)  # the shipped run-config defaults


# -- smoothed labels ----------------------------------------------------

def test_smooth_labels_values():
    assert np.allclose(smooth_labels(0, 3, 0.06), [0.94, 0.03, 0.03], rtol=0, atol=1e-15)
    assert np.array_equal(smooth_labels(1, 4, 0.0), [0.0, 1.0, 0.0, 0.0])
    assert np.allclose(
        smooth_labels(2, 5, 0.5), [0.125, 0.125, 0.5, 0.125, 0.125], rtol=0, atol=1e-15
    )


def test_smooth_labels_sum_to_one():
    rng = np.random.default_rng(1)
    for _ in range(50):
        num_classes = int(rng.integers(2, 12))
        c = int(rng.integers(num_classes))
        eps = float(rng.uniform(0.0, 0.99))
        v = smooth_labels(c, num_classes, eps)
        assert abs(v.sum() - 1.0) <= 1e-12
        assert v[c] == pytest.approx(1.0 - eps)


def test_smooth_labels_validation():
    with pytest.raises(IndexError):
        smooth_labels(3, 3, 0.1)
    with pytest.raises(IndexError):
        smooth_labels(-1, 3, 0.1)
    with pytest.raises(ValueError):
        smooth_labels(0, 1, 0.1)
    with pytest.raises(ValueError):
        smooth_labels(0, 3, 1.0)


# -- loss values --------------------------------------------------------

P = np.array([0.5, 0.25, 0.25])


def test_plain_ce_per_class_sum():
    expected = -math.log(0.5) - 2.0 * math.log(0.75)
    assert loss_value(P, 0, LossConfig()) == pytest.approx(expected, rel=1e-12)


def test_plain_ce_target_only():
    cfg = LossConfig(form="target_only")
    assert loss_value(P, 0, cfg) == pytest.approx(-math.log(0.5), rel=1e-12)


def test_smoothed_ce():
    cfg = LossConfig(epsilon=0.06)
    expected = -0.94 * math.log(0.5) - 2.0 * 0.03 * math.log(0.75)
    assert loss_value(P, 0, cfg) == pytest.approx(expected, rel=1e-12)


def test_focal_smoothed_ce():
    cfg = LossConfig(epsilon=0.06, gamma=0.3)
    expected = -(0.5**0.3) * 0.94 * math.log(0.5) - 2.0 * (0.25**0.3) * 0.03 * math.log(0.75)
    assert loss_value(P, 0, cfg) == pytest.approx(expected, rel=1e-12)


def test_unsmoothed_identity_random():
    # eps = 0 keeps unit weight on every off-target term
    rng = np.random.default_rng(2)
    cfg = LossConfig()
    for _ in range(200):
        num_classes = int(rng.integers(2, 45))
        p = random_prob(rng, num_classes)
        c = int(rng.integers(num_classes))
        expected = -math.log(p[c]) - sum(
            math.log1p(-p[i]) for i in range(num_classes) if i != c
        )
        assert loss_value(p, c, cfg) == pytest.approx(expected, rel=1e-12)


def test_smoothed_identity_random():
    rng = np.random.default_rng(3)
    cfg = LossConfig(epsilon=0.06)
    for _ in range(200):
        num_classes = int(rng.integers(2, 45))
        p = random_prob(rng, num_classes)
        c = int(rng.integers(num_classes))
        off = 0.06 / (num_classes - 1)
        expected = -0.94 * math.log(p[c]) - off * sum(
            math.log1p(-p[i]) for i in range(num_classes) if i != c
        )
        assert loss_value(p, c, cfg) == pytest.approx(expected, rel=1e-12)


def test_gamma_zero_matches_unmodulated():
    rng = np.random.default_rng(4)
    for form in ("per_class_sum", "target_only"):
        for eps in (0.0, 0.06, 0.3):
            p = random_prob(rng, 6)
            a = loss_value(p, 2, LossConfig(epsilon=eps, gamma=0.0, form=form))
            b = loss_value(p, 2, LossConfig(epsilon=eps, form=form))
            assert a == b


def test_loss_nonnegative():
    rng = np.random.default_rng(5)
    for _ in range(100):
        num_classes = int(rng.integers(2, 10))
        p = random_prob(rng, num_classes)
        c = int(rng.integers(num_classes))
        eps = float(rng.choice([0.0, 0.06, 0.3]))
        gamma = float(rng.choice([0.0, 0.3, 2.0]))
        form = str(rng.choice(["per_class_sum", "target_only"]))
        assert loss_value(p, c, LossConfig(eps, gamma, form)) >= 0.0


def test_focal_modulation_shrinks_loss():
    # every modulation factor is < 1 for interior p, so loss drops as
    # gamma grows
    p = np.array([0.6, 0.3, 0.1])
    values = [
        loss_value(p, 0, LossConfig(epsilon=0.06, gamma=g)) for g in (0.0, 0.3, 2.0)
    ]
    assert values[0] > values[1] > values[2]


def test_clamp_keeps_loss_finite():
    p = np.array([1.0, 0.0, 0.0])
    for form in ("per_class_sum", "target_only"):
        assert math.isfinite(loss_value(p, 0, LossConfig(form=form)))
        assert math.isfinite(loss_value(p, 1, LossConfig(form=form)))


def test_loss_value_validation():
    with pytest.raises(IndexError):
        loss_value(P, 3, LossConfig())
    with pytest.raises(IndexError):
        loss_value(P, -1, LossConfig())
    with pytest.raises(ValueError):
        loss_value(np.array([0.7, 0.7]), 0, LossConfig())


# -- gradients ----------------------------------------------------------

def test_grad_zero_logits_plain_ce():
    # classical softmax-CE gradient: p - onehot
    g = loss_grad(np.zeros(3), 0, LossConfig(form="target_only"))
    assert np.allclose(g, [-2.0 / 3.0, 1.0 / 3.0, 1.0 / 3.0], rtol=1e-12)


def test_grad_sums_to_zero():
    # logit gradients live in the softmax tangent space
    rng = np.random.default_rng(6)
    for _ in range(20):
        z = rng.normal(scale=2.0, size=5)
        g = loss_grad(z, 1, LossConfig(epsilon=0.06, gamma=0.3))
        assert abs(g.sum()) < 1e-12


def finite_difference(z, c, cfg, h=1e-5):
    g = np.zeros_like(z)
    for j in range(z.size):
        zp, zm = z.copy(), z.copy()
        zp[j] += h
        zm[j] -= h
        g[j] = (loss_value(softmax(zp), c, cfg) - loss_value(softmax(zm), c, cfg)) / (2 * h)
    return g


def test_grad_matches_finite_differences():
    rng = np.random.default_rng(7)
    for eps in (0.0, 0.06, 0.3):
        for gamma in (0.0, 0.3, 2.0):
            for form in ("per_class_sum", "target_only"):
                cfg = LossConfig(eps, gamma, form)
                num_classes = int(rng.integers(3, 8))
                z = rng.normal(scale=1.5, size=num_classes)
                c = int(rng.integers(num_classes))
                analytic = loss_grad(z, c, cfg)
                numeric = finite_difference(z, c, cfg)
                denom = max(np.linalg.norm(analytic), 1e-8)
                assert np.linalg.norm(analytic - numeric) / denom < 1e-6


def test_grad_finite_at_extreme_logits():
    g = loss_grad(np.array([60.0, -60.0, 0.0]), 1, LossConfig(epsilon=0.06, gamma=0.3))
    assert np.all(np.isfinite(g))


def test_grad_validation():
    with pytest.raises(IndexError):
        loss_grad(np.zeros(3), 5, LossConfig())


# -- the batched kernel against the per-sample reference --------------------

@st.composite
def loss_batches(draw):
    num_classes = draw(st.integers(2, 12))
    rows = draw(st.integers(1, 6))
    logits = draw(hnp.arrays(float, (rows, num_classes), elements=st.floats(-60.0, 60.0)))
    labels = draw(hnp.arrays(int, rows, elements=st.integers(0, num_classes - 1)))
    config = LossConfig(
        epsilon=draw(st.just(0.0) | st.floats(0.0, 0.99)),
        gamma=draw(st.sampled_from([0.0, 0.5, 1.0, 2.0]) | st.floats(0.0, 4.0)),
        form=draw(st.sampled_from(LOSS_FORMS)),
        clamp_floor=draw(st.sampled_from([1e-12, 1e-6]) | st.floats(1e-15, 1e-6)),
    )
    return logits, labels, config


@settings(max_examples=300)
@given(loss_batches())
def test_kernel_rows_match_per_sample_reference(batch):
    logits, labels, config = batch
    values, grads = loss_rows(softmax_rows(logits), labels, config)
    for z, c, value, grad in zip(logits, labels, values, grads):
        assert value == pytest.approx(oracles.loss_value(softmax(z), int(c), config), rel=1e-12)
        expected = oracles.loss_grad(z, int(c), config)
        # Each gradient entry is p_j * (d_j - <d, p>) with d = dL/dp, so an
        # entry can cancel down to rounding noise of p_j * max|d|.  Because
        # d_c <= 0 <= d_i, max_j |d_j - <d, p>| >= max|d| / 2, which scales
        # the absolute part of the tolerance.
        p = softmax(z)
        scale = np.max(np.abs(expected / p))
        assert np.all(np.abs(grad - expected) <= 1e-12 * (np.abs(expected) + p * scale))


def test_one_row_calls_are_kernel_rows():
    rng = np.random.default_rng(8)
    logits = rng.normal(scale=3.0, size=(5, 4))
    labels = np.array([0, 3, 1, 1, 2])
    config = LossConfig(epsilon=0.06, gamma=0.3)
    values, grads = loss_rows(softmax_rows(logits), labels, config)
    for z, c, value, grad in zip(logits, labels, values, grads):
        assert loss_value(softmax(z), int(c), config) == value
        assert np.array_equal(loss_grad(z, int(c), config), grad)

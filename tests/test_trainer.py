"""Synthetic data, the fixed-backbone model, and the training loop."""

import numpy as np
import oracles
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clskit import trainer
from clskit.losses import LOSS_FORMS, LossConfig, loss_grad
from clskit.numerics import softmax
from clskit.schedule import FreezePolicy, StepDecaySchedule, default_schedule
from clskit.trainer import (
    BackboneHead,
    FeatureDataset,
    TrainConfig,
    TrainLog,
    forward,
    init_model,
    predict,
    synth_dataset,
    train,
)

STEP_SCHEDULE = StepDecaySchedule(1e-4, (0, 2, 4, 6, 8), (1.0, 0.7, 0.5, 0.3, 0.1))


def recipe_config(freeze=FreezePolicy.FROZEN, seed=5, **overrides):
    base = dict(
        epochs=10,
        batch_size=32,
        schedule=STEP_SCHEDULE,
        loss=LossConfig(epsilon=0.06, gamma=0.3),
        freeze=freeze,
        seed=seed,
    )
    base.update(overrides)
    return TrainConfig(**base)


# -- synthetic data -------------------------------------------------------

def test_synth_dataset_balanced_counts():
    ds = synth_dataset(0, 10, 4, 3, 1.0)
    assert sorted(np.bincount(ds.labels, minlength=3)) == [3, 3, 4]
    ds = synth_dataset(0, 300, 8, 4, 1.0)
    assert list(np.bincount(ds.labels)) == [75, 75, 75, 75]


def test_synth_dataset_deterministic():
    a = synth_dataset(9, 50, 6, 3, 2.0)
    b = synth_dataset(9, 50, 6, 3, 2.0)
    assert np.array_equal(a.features, b.features)
    assert np.array_equal(a.labels, b.labels)
    c = synth_dataset(10, 50, 6, 3, 2.0)
    assert not np.array_equal(a.features, c.features)


def test_synth_dataset_rows_are_shuffled():
    ds = synth_dataset(0, 60, 4, 3, 1.0)
    assert not np.array_equal(ds.labels, np.sort(ds.labels))


def test_synth_dataset_shared_geometry_across_seeds():
    # different seeds draw different noise around the same class means
    a = synth_dataset(1, 3000, 8, 3, 5.0)
    b = synth_dataset(2, 3000, 8, 3, 5.0)
    for c in range(3):
        mean_a = a.features[a.labels == c].mean(axis=0)
        mean_b = b.features[b.labels == c].mean(axis=0)
        assert np.linalg.norm(mean_a - mean_b) < 0.5
        assert np.linalg.norm(mean_a) == pytest.approx(5.0, abs=0.3)


def test_synth_dataset_validation():
    with pytest.raises(ValueError):
        synth_dataset(0, 2, 4, 3, 1.0)  # n < num_classes
    with pytest.raises(ValueError):
        synth_dataset(0, 10, 0, 3, 1.0)
    with pytest.raises(ValueError):
        synth_dataset(0, 10, 4, 1, 1.0)
    with pytest.raises(ValueError):
        synth_dataset(0, 10, 4, 3, -1.0)


def test_feature_dataset_validation():
    with pytest.raises(ValueError):
        FeatureDataset(np.ones((3, 2)), np.array([0, 1]), 2)
    with pytest.raises(ValueError):
        FeatureDataset(np.ones((3, 2)), np.array([0, 1, 2]), 2)
    with pytest.raises(ValueError):
        FeatureDataset(np.full((2, 2), np.nan), np.array([0, 1]), 2)


@pytest.mark.parametrize("labels, message", [
    ([0.0, 1.7, 2.9], "labels must be integers"),  # was truncated to [0, 1, 2]
    (np.array(["0", "1", "2"]), "labels must be integers"),  # was parsed to [0, 1, 2]
    (np.array(["a", "b", "c"]), "labels must be integers"),  # was numpy's int() parse error
    (np.array([0, 1, None], dtype=object), "labels must be integers"),  # was a TypeError
    (np.array([0, 1, 2**70], dtype=object), r"labels must lie in \[0, 3\)"),  # was OverflowError
    # floats past int64 and NaN were cast with a RuntimeWarning, then misnamed
    ([0.0, 1.0, 1e300], r"labels must lie in \[0, 3\)"),
    ([0.0, 1.0, 2.0**63], r"labels must lie in \[0, 3\)"),
    ([0.0, 1.0, -1e300], r"labels must lie in \[0, 3\)"),
    ([0.0, 1.0, np.nan], "labels must be integers"),
    ([0.0, 1.0, np.inf], "labels must be integers"),
])
@pytest.mark.filterwarnings("error")
def test_feature_dataset_rejects_labels_that_are_not_integers_in_range(labels, message):
    with pytest.raises(ValueError, match=f"^{message}$"):
        FeatureDataset(np.zeros((3, 2)), labels, 3)
    # integral floats are integers, as check_labels takes them
    assert FeatureDataset(np.zeros((3, 2)), [0.0, 1.0, 2.0], 3).labels.tolist() == [0, 1, 2]


# -- model ----------------------------------------------------------------

def test_init_model_zero_head_uniform_predictions():
    model = init_model(dims=6, num_classes=4, hidden_dim=16, seed=0)
    assert model.backbone.shape == (16, 6)
    assert not model.head_weights.any()
    assert not model.head_bias.any()
    p = forward(model, np.ones(6))
    assert np.allclose(p, 0.25, rtol=0, atol=1e-15)


def test_init_model_seed_changes_backbone():
    a = init_model(6, 3, 8, seed=0)
    b = init_model(6, 3, 8, seed=1)
    assert not np.array_equal(a.backbone, b.backbone)
    assert np.array_equal(a.backbone, init_model(6, 3, 8, seed=0).backbone)


def test_predict_rows_equal_forward():
    ds = synth_dataset(3, 20, 5, 3, 1.0)
    model = init_model(5, 3, 8, seed=1)
    preds = predict(model, ds)
    for i in range(ds.n):
        assert np.array_equal(preds[i], forward(model, ds.features[i]))
    # 600 rows at hidden_dim 64 span two full predict blocks and a remainder;
    # a trained-looking head makes every row's bits depend on the products.
    ds = synth_dataset(3, 600, 5, 3, 1.0)
    model = init_model(5, 3, 64, seed=1)
    rng = np.random.default_rng(2)
    model.head_weights = rng.normal(size=model.head_weights.shape)
    model.head_bias = rng.normal(size=model.head_bias.shape)
    preds = predict(model, ds)
    for i in range(ds.n):
        assert np.array_equal(preds[i], forward(model, ds.features[i]))


def test_forward_predict_validation():
    model = init_model(5, 3, 8, seed=1)
    with pytest.raises(ValueError):
        forward(model, np.ones(4))
    with pytest.raises(ValueError):
        predict(model, synth_dataset(0, 9, 4, 3, 1.0))
    with pytest.raises(ValueError):
        predict(model, synth_dataset(0, 9, 5, 4, 1.0))


# -- training loop --------------------------------------------------------

def small_problem(seed_pair=(1, 2), n=120):
    return synth_dataset(seed_pair[0], n, 8, 4, 1.0), synth_dataset(seed_pair[1], n, 8, 4, 1.0)


def test_train_is_deterministic():
    tr, va = small_problem()
    cfg = recipe_config(freeze=FreezePolicy.UNFROZEN, epochs=3)
    m1, log1 = train(tr, va, cfg)
    m2, log2 = train(tr, va, cfg)
    assert np.array_equal(m1.backbone, m2.backbone)
    assert np.array_equal(m1.head_weights, m2.head_weights)
    assert np.array_equal(m1.head_bias, m2.head_bias)
    assert log1 == log2


def test_divergence_names_epoch_and_batch(monkeypatch):
    # 120 rows in batches of 32: 4 batch calls and 1 predict call per epoch,
    # so the 8th call is epoch 1's batch 2
    real = trainer.softmax_rows
    calls = []

    def diverging(logits):
        calls.append(None)
        if len(calls) == 8:
            raise ValueError("logits must be finite")
        return real(logits)

    monkeypatch.setattr(trainer, "softmax_rows", diverging)
    tr, va = small_problem()
    with pytest.raises(ValueError) as info:
        train(tr, va, recipe_config(epochs=3))
    assert str(info.value) == "epoch 1 batch 2: logits must be finite"


def test_divergence_in_a_later_block_counts_batches_from_the_epoch_start(monkeypatch):
    # blocks of 2 batches of 32 rows (2 * 32 * 8 features); predict then takes
    # 512 // 32 = 16 rows a call.  An epoch makes 4 batch calls and 8 predict
    # calls, so the 16th call is epoch 1's batch 3, the second batch of the
    # epoch's second block.
    monkeypatch.setattr(trainer, "CHUNK_ELEMENTS", 2 * 32 * 8)
    real = trainer.softmax_rows
    calls = []

    def diverging(logits):
        calls.append(None)
        if len(calls) == 16:
            raise ValueError("logits must be finite")
        return real(logits)

    monkeypatch.setattr(trainer, "softmax_rows", diverging)
    tr, va = small_problem()
    with pytest.raises(ValueError) as info:
        train(tr, va, recipe_config(epochs=3))
    assert str(info.value) == "epoch 1 batch 3: logits must be finite"


@pytest.mark.parametrize("freeze", [FreezePolicy.FROZEN, FreezePolicy.UNFROZEN])
def test_log_keeps_the_last_validation_pass(freeze):
    # Epochs of 3000 rows of 16 features walk blocks of 1024 rows, and the
    # 2500 validation rows are predicted in blocks of 256 (CHUNK_ELEMENTS //
    # hidden 64): the kept pass has the bits of predicting the returned model.
    tr, va = synth_dataset(1, 3000, 16, 10, 2.0), synth_dataset(2, 2500, 16, 10, 2.0)
    cfg = recipe_config(freeze=freeze, epochs=2, hidden_dim=64,
                        schedule=StepDecaySchedule(0.05, (0, 1), (1.0, 0.5)))
    model, log = train(tr, va, cfg)
    assert log.val_probs.shape == (2500, 10)
    assert log.val_probs.tobytes() == predict(model, va).tobytes()
    # the kept pass is neither compared nor printed
    assert log == TrainLog(log.records) and "val_probs" not in repr(log)


def test_train_seed_matters():
    tr, va = small_problem()
    _, log1 = train(tr, va, recipe_config(seed=0, epochs=2))
    _, log2 = train(tr, va, recipe_config(seed=1, epochs=2))
    assert log1 != log2


def test_frozen_backbone_bitwise_unchanged():
    tr, va = small_problem()
    cfg = recipe_config(freeze=FreezePolicy.FROZEN)
    before = init_model(tr.dims, tr.num_classes, cfg.hidden_dim, cfg.seed).backbone
    model, _ = train(tr, va, cfg)
    assert np.array_equal(model.backbone, before)
    assert model.head_weights.any()  # the head did move


def test_unfrozen_backbone_changes():
    tr, va = small_problem()
    cfg = recipe_config(freeze=FreezePolicy.UNFROZEN)
    before = init_model(tr.dims, tr.num_classes, cfg.hidden_dim, cfg.seed).backbone
    model, _ = train(tr, va, cfg)
    assert not np.array_equal(model.backbone, before)


def test_one_batch_update_matches_analytic_gradient():
    # one epoch, one batch, frozen backbone: the head update must equal
    # -lr times the mean analytic gradient at the zero-init head
    tr = synth_dataset(4, 6, 5, 3, 1.0)
    cfg = TrainConfig(
        epochs=1,
        batch_size=6,
        schedule=StepDecaySchedule(0.5, (0,), (1.0,)),
        loss=LossConfig(epsilon=0.06, gamma=0.3),
        freeze=FreezePolicy.FROZEN,
        seed=7,
        hidden_dim=4,
    )
    start = init_model(tr.dims, tr.num_classes, cfg.hidden_dim, cfg.seed)
    grad_w = np.zeros_like(start.head_weights)
    grad_b = np.zeros_like(start.head_bias)
    for i in range(tr.n):
        hidden = np.maximum(start.backbone @ tr.features[i], 0.0)
        g = loss_grad(np.zeros(tr.num_classes), int(tr.labels[i]), cfg.loss)
        grad_w += np.outer(g, hidden)
        grad_b += g
    model, _ = train(tr, tr, cfg)
    assert np.allclose(model.head_weights, -0.5 * grad_w / tr.n, rtol=1e-12, atol=1e-15)
    assert np.allclose(model.head_bias, -0.5 * grad_b / tr.n, rtol=1e-12, atol=1e-15)


def test_log_records_follow_schedule():
    tr, va = small_problem(n=40)
    model, log = train(tr, va, recipe_config())
    assert [r.epoch for r in log.records] == list(range(10))
    assert [r.lr for r in log.records] == [
        1e-4 * m for m in (1.0, 1.0, 0.7, 0.7, 0.5, 0.5, 0.3, 0.3, 0.1, 0.1)
    ]
    for r in log.records:
        assert 0.0 <= r.val_top1 <= 1.0
        assert r.train_loss > 0.0


def test_loss_decreases_on_easy_problem():
    tr, va = small_problem(n=90)
    cfg = TrainConfig(
        epochs=20,
        batch_size=16,
        schedule=StepDecaySchedule(0.05, (0,), (1.0,)),
        loss=LossConfig(form="target_only"),
        freeze=FreezePolicy.UNFROZEN,
        seed=0,
    )
    _, log = train(tr, va, cfg)
    assert log.records[-1].train_loss < log.records[0].train_loss


def test_separable_data_is_learned():
    tr = synth_dataset(1, 150, 8, 3, 8.0)
    va = synth_dataset(2, 150, 8, 3, 8.0)
    _, log = train(tr, va, recipe_config())
    assert log.records[-1].val_top1 >= 0.95


def test_unseparated_data_stays_near_chance():
    tr = synth_dataset(1, 150, 8, 3, 0.0)
    va = synth_dataset(2, 150, 8, 3, 0.0)
    _, log = train(tr, va, recipe_config())
    assert log.records[-1].val_top1 < 0.5


def test_pinned_run_regression():
    # frozen numbers from the reference run of this exact configuration
    tr, va = small_problem()
    model, log = train(tr, va, recipe_config())
    assert log.records[0].train_loss == pytest.approx(1.2067405864943999, rel=1e-12)
    assert log.records[-1].train_loss == pytest.approx(1.2063305615027373, rel=1e-12)
    assert log.records[0].val_top1 == pytest.approx(0.4083333333333333, rel=1e-12)
    assert log.records[-1].val_top1 == pytest.approx(0.4166666666666667, rel=1e-12)
    p0 = forward(model, tr.features[0])
    assert np.allclose(
        p0,
        [0.24996949604930641, 0.24987324233257674, 0.25001460195306541, 0.2501426596650515],
        rtol=1e-12,
    )


def test_train_config_validation():
    with pytest.raises(ValueError):
        recipe_config(epochs=0)
    with pytest.raises(ValueError):
        recipe_config(batch_size=0)
    with pytest.raises(ValueError):
        recipe_config(hidden_dim=0)
    with pytest.raises(ValueError):
        recipe_config(freeze="half-frozen")
    assert recipe_config(freeze="frozen").freeze is FreezePolicy.FROZEN


def test_train_rejects_mismatched_splits():
    tr = synth_dataset(1, 30, 8, 3, 1.0)
    with pytest.raises(ValueError):
        train(tr, synth_dataset(2, 30, 7, 3, 1.0), recipe_config())
    with pytest.raises(ValueError):
        train(tr, synth_dataset(2, 30, 8, 4, 1.0), recipe_config())


# -- the batched trainer against the per-sample reference -------------------

@st.composite
def train_problems(draw):
    num_classes = draw(st.integers(2, 5))
    dims = draw(st.integers(1, 6))
    n = draw(st.integers(num_classes, 40))
    separation = draw(st.sampled_from([0.0, 1.0, 3.0]))
    seeds = draw(st.lists(st.integers(0, 1000), min_size=3, max_size=3))
    config = TrainConfig(
        epochs=draw(st.integers(1, 3)),
        batch_size=draw(st.integers(1, n + 3)),
        schedule=StepDecaySchedule(draw(st.sampled_from([1e-4, 0.05, 0.5])), (0, 1), (1.0, 0.5)),
        loss=LossConfig(
            epsilon=draw(st.sampled_from([0.0, 0.06, 0.3])),
            gamma=draw(st.sampled_from([0.0, 0.3, 2.0])),
            form=draw(st.sampled_from(LOSS_FORMS)),
        ),
        freeze=draw(st.sampled_from(list(FreezePolicy))),
        seed=seeds[2],
        hidden_dim=draw(st.integers(1, 10)),
    )
    return (synth_dataset(seeds[0], n, dims, num_classes, separation),
            synth_dataset(seeds[1], n, dims, num_classes, separation), config)


@settings(max_examples=60)
@given(train_problems())
def test_train_matches_per_sample_reference(problem):
    tr, va, cfg = problem
    assert_matches_per_sample_reference(*train(tr, va, cfg), tr, va, cfg)


def assert_matches_per_sample_reference(model, log, tr, va, cfg):
    ref_model, ref_log = oracles.train(tr, va, cfg)
    for name in ("backbone", "head_weights", "head_bias"):
        assert np.allclose(getattr(model, name), getattr(ref_model, name), rtol=1e-12, atol=1e-15)
    assert [r.lr for r in log.records] == [r.lr for r in ref_log.records]
    assert [r.val_top1 for r in log.records] == [r.val_top1 for r in ref_log.records]
    for record, ref in zip(log.records, ref_log.records):
        assert record.train_loss == pytest.approx(ref.train_loss, rel=1e-12)


# 120 rows in blocks of one, two and three whole batches.  With 8 features
# in batches of 32 (the last one 24 rows), the last block of two batches ends
# in the short batch and the last block of three is the short batch alone.
# With 5 features in batches of 7 (the last one 1 row), each batch's slice
# of a block starts 280 bytes after the one before, not on a 64-byte line.
@pytest.mark.parametrize("blocks", [1, 2, 3])
@pytest.mark.parametrize("dims, classes, batch_size", [(8, 4, 32), (5, 3, 7)])
@pytest.mark.parametrize("loss, freeze", [
    (LossConfig(epsilon=0.06, gamma=0.3), FreezePolicy.UNFROZEN),
    (LossConfig(epsilon=0.0, gamma=2.0, form="target_only"), FreezePolicy.FROZEN),
    (LossConfig(epsilon=0.3, gamma=0.0), FreezePolicy.UNFROZEN),
])
def test_epochs_of_several_blocks_train_as_one_block_does(
    monkeypatch, blocks, dims, classes, batch_size, loss, freeze
):
    tr, va = (synth_dataset(seed, 120, dims, classes, 1.0) for seed in (1, 2))
    cfg = recipe_config(freeze=freeze, epochs=3, loss=loss, batch_size=batch_size,
                        schedule=StepDecaySchedule(0.05, (0, 1), (1.0, 0.5)))
    model, log = train(tr, va, cfg)  # one block per epoch at the default size
    monkeypatch.setattr(trainer, "CHUNK_ELEMENTS", blocks * batch_size * max(dims, classes))
    blocked_model, blocked_log = train(tr, va, cfg)
    for name in ("backbone", "head_weights", "head_bias"):
        assert getattr(blocked_model, name).tobytes() == getattr(model, name).tobytes()
    assert blocked_log == log
    assert_matches_per_sample_reference(blocked_model, blocked_log, tr, va, cfg)

"""Step-decay schedule: breakpoint lookup, persistence, validation."""

import re

import pytest

from clskit.schedule import (
    DEFAULT_BASE_LR,
    FreezePolicy,
    StepDecaySchedule,
    default_schedule,
    lr_at,
    schedule_table,
)


def test_default_table_exact():
    sched = default_schedule()
    mults = [1.0, 1.0, 0.7, 0.7, 0.5, 0.5, 0.3, 0.3, 0.1, 0.1]
    for epoch, mult in enumerate(mults):
        assert lr_at(sched, epoch) == DEFAULT_BASE_LR * mult


def test_schedule_table_matches_lr_at():
    sched = default_schedule()
    table = schedule_table(sched, 10)
    assert table == [(e, lr_at(sched, e)) for e in range(10)]


def test_last_multiplier_persists():
    sched = default_schedule()
    assert lr_at(sched, 9) == lr_at(sched, 100)
    assert lr_at(sched, 100) == DEFAULT_BASE_LR * 0.1


def test_right_continuous_at_breakpoints():
    # a breakpoint epoch uses its own multiplier, not the previous one
    sched = default_schedule()
    assert lr_at(sched, 2) == DEFAULT_BASE_LR * 0.7
    assert lr_at(sched, 1) == DEFAULT_BASE_LR * 1.0
    assert lr_at(sched, 8) == DEFAULT_BASE_LR * 0.1


def test_constant_schedule():
    sched = StepDecaySchedule(0.001, (0,), (1.0,))
    assert all(lr_at(sched, e) == 0.001 for e in range(20))


def test_custom_breakpoints():
    sched = StepDecaySchedule(2.0, (0, 3), (1.0, 0.25))
    assert [lr_at(sched, e) for e in range(5)] == [2.0, 2.0, 2.0, 0.5, 0.5]


def test_validation():
    with pytest.raises(ValueError):
        StepDecaySchedule(0.0, (0,), (1.0,))
    with pytest.raises(ValueError):
        StepDecaySchedule(-1e-4, (0,), (1.0,))
    with pytest.raises(ValueError):
        StepDecaySchedule(1e-4, (1, 2), (1.0, 0.5))  # must start at 0
    with pytest.raises(ValueError):
        StepDecaySchedule(1e-4, (0, 2, 2), (1.0, 0.5, 0.1))  # not ascending
    with pytest.raises(ValueError):
        StepDecaySchedule(1e-4, (0, 2), (1.0,))  # length mismatch
    with pytest.raises(ValueError):
        StepDecaySchedule(1e-4, (0,), (0.0,))  # multiplier must be > 0
    with pytest.raises(ValueError):
        StepDecaySchedule(1e-4, (), ())


def test_step_epochs_of_a_fraction_rejected():
    with pytest.raises(ValueError, match="^step_epochs must be integers$"):
        StepDecaySchedule(1e-3, [0, 1.5], [1, 1])


@pytest.mark.parametrize("base_lr, mults, step", [
    (1e-300, (1.0, 1e-300), "step 1 (epoch 2)"),  # underflows to 0
    (1e308, (1e10, 1.0), "step 0 (epoch 0)"),  # overflows to inf
    (5e-324, (1.0, 0.5), "step 1 (epoch 2)"),  # the smallest subnormal halved
], ids=["underflow", "overflow", "half-subnormal"])
def test_a_step_rate_of_zero_or_inf_is_rejected(base_lr, mults, step):
    # each factor is a positive real on its own
    with pytest.raises(ValueError, match=rf"^{re.escape(step)}: base_lr \* multiplier = "):
        StepDecaySchedule(base_lr, (0, 2), mults)


def test_the_extreme_finite_step_rates_are_accepted():
    sched = StepDecaySchedule(5e-324, (0, 2), (1.0, 1.5))  # 1.5 subnormals rounds to 2
    assert [lr_at(sched, e) for e in (0, 2)] == [5e-324, 1e-323]
    assert lr_at(StepDecaySchedule(1e308, (0,), (1.7,)), 0) == 1.7e308


def test_negative_epoch_rejected():
    with pytest.raises(ValueError):
        lr_at(default_schedule(), -1)


def test_freeze_policy_round_trip():
    assert FreezePolicy("frozen") is FreezePolicy.FROZEN
    assert FreezePolicy("unfrozen") is FreezePolicy.UNFROZEN
    with pytest.raises(ValueError):
        FreezePolicy("half-frozen")

"""Step-decay learning-rate schedule and the backbone freeze policy."""

from __future__ import annotations

import math
from bisect import bisect_right
from dataclasses import dataclass
from enum import Enum
from typing import Iterator, Sequence

# Default fine-tuning schedule: base 1e-4 decayed by 0.7/0.5/0.3/0.1 at
# epochs 2/4/6/8.
DEFAULT_BASE_LR = 1e-4
DEFAULT_STEP_EPOCHS = (0, 2, 4, 6, 8)
DEFAULT_MULTIPLIERS = (1.0, 0.7, 0.5, 0.3, 0.1)


class FreezePolicy(str, Enum):
    """Whether the backbone receives updates during training."""

    FROZEN = "frozen"
    UNFROZEN = "unfrozen"


@dataclass(frozen=True)
class StepDecaySchedule:
    """Piecewise-constant schedule: ``base_lr * multipliers[i]`` holds from
    ``step_epochs[i]`` (inclusive) until the next step epoch (exclusive);
    the last multiplier persists beyond the final step.  Every step's
    product must be a positive finite float, so no epoch trains at a rate
    of 0 or infinity.
    """

    base_lr: float
    step_epochs: tuple[int, ...]
    multipliers: tuple[float, ...]

    def __init__(self, base_lr: float, step_epochs: Sequence[int], multipliers: Sequence[float]):
        if not (math.isfinite(base_lr) and base_lr > 0.0):
            raise ValueError(f"base_lr must be a positive real, got {base_lr}")
        steps = tuple(int(e) for e in step_epochs)
        mults = tuple(float(m) for m in multipliers)
        if any(e != orig for e, orig in zip(steps, step_epochs)):
            raise ValueError("step_epochs must be integers")
        if not steps:
            raise ValueError("step_epochs must be non-empty")
        if steps[0] != 0:
            raise ValueError(f"step_epochs must begin with 0, got {steps[0]}")
        if any(b <= a for a, b in zip(steps, steps[1:])):
            raise ValueError(f"step_epochs must be strictly ascending, got {list(steps)}")
        if len(mults) != len(steps):
            raise ValueError(
                f"multipliers length {len(mults)} must match step_epochs length {len(steps)}"
            )
        if any(not (math.isfinite(m) and m > 0.0) for m in mults):
            raise ValueError("multipliers must all be positive reals")
        for step, (epoch, m) in enumerate(zip(steps, mults)):
            lr = float(base_lr) * m
            if not (math.isfinite(lr) and lr > 0.0):
                raise ValueError(
                    f"step {step} (epoch {epoch}): base_lr * multiplier = {lr!r}"
                    " is not a positive finite float"
                )
        object.__setattr__(self, "base_lr", float(base_lr))
        object.__setattr__(self, "step_epochs", steps)
        object.__setattr__(self, "multipliers", mults)


def default_schedule(base_lr: float = DEFAULT_BASE_LR) -> StepDecaySchedule:
    return StepDecaySchedule(base_lr, DEFAULT_STEP_EPOCHS, DEFAULT_MULTIPLIERS)


def lr_at(schedule: StepDecaySchedule, epoch: int) -> float:
    """Learning rate in force at ``epoch``: base times the multiplier of the
    largest step epoch <= epoch."""
    if epoch < 0:
        raise ValueError(f"epoch must be >= 0, got {epoch}")
    i = bisect_right(schedule.step_epochs, epoch) - 1
    return schedule.base_lr * schedule.multipliers[i]


def schedule_rows(schedule: StepDecaySchedule, num_epochs: int) -> Iterator[tuple[int, float]]:
    """(epoch, lr) rows for epochs 0 .. num_epochs - 1, one at a time, so any
    number of epochs takes constant memory; ``num_epochs`` is checked at
    the call."""
    if num_epochs < 1:
        raise ValueError(f"num_epochs must be >= 1, got {num_epochs}")
    return ((epoch, lr_at(schedule, epoch)) for epoch in range(num_epochs))


def schedule_table(schedule: StepDecaySchedule, num_epochs: int) -> list[tuple[int, float]]:
    """(epoch, lr) rows for epochs 0 .. num_epochs - 1."""
    return list(schedule_rows(schedule, num_epochs))

"""The learning-rate schedule used for GPT training (warmup + cosine decay).

Large-model training (GPT-3, and the paper's runs) uses linear warmup
followed by cosine decay to a floor.  A schedule is a frozen value: the
rate is a function of the step, as in Megatron, so an optimizer reads
it at its own ``step_count`` and a checkpoint that restores the step
count restores the rate.  A plain float is the constant schedule.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


def lr_at(lr, step: int) -> float:
    """The rate of ``lr`` -- a float, or a schedule -- at 0-based ``step``."""
    return lr if isinstance(lr, (int, float)) else lr.lr_at(step)


@dataclass(frozen=True, kw_only=True)
class WarmupCosineSchedule:
    """Linear warmup to ``max_lr`` then cosine decay to ``min_lr``."""

    max_lr: float
    warmup_iters: int
    decay_iters: int
    min_lr: float = 0.0

    def __post_init__(self):
        if self.max_lr <= 0:
            raise ValueError("max_lr must be positive")
        if self.min_lr < 0 or self.min_lr > self.max_lr:
            raise ValueError("need 0 <= min_lr <= max_lr")
        if self.warmup_iters < 0 or self.decay_iters < 1:
            raise ValueError("warmup_iters must be >= 0, decay_iters >= 1")
        if self.warmup_iters > self.decay_iters:
            raise ValueError("warmup_iters must be <= decay_iters")

    def lr_at(self, step: int) -> float:
        """The learning rate of 0-based ``step``."""
        if self.warmup_iters > 0 and step < self.warmup_iters:
            return self.max_lr * (step + 1) / self.warmup_iters
        if step >= self.decay_iters:
            return self.min_lr
        progress = (step - self.warmup_iters) / max(
            1, self.decay_iters - self.warmup_iters
        )
        cos = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_lr + (self.max_lr - self.min_lr) * cos

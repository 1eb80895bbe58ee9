"""The learning-rate schedule used for GPT training (warmup + cosine decay).

Large-model training (GPT-3, and the paper's runs) uses linear warmup
followed by cosine decay to a floor.  Schedulers mutate ``optimizer.lr``
in place; call :meth:`step` once per training iteration.
"""

from __future__ import annotations

import math


class WarmupCosineSchedule:
    """Linear warmup to ``max_lr`` then cosine decay to ``min_lr``."""

    def __init__(
        self,
        optimizer,
        *,
        max_lr: float,
        warmup_iters: int,
        decay_iters: int,
        min_lr: float = 0.0,
    ):
        if max_lr <= 0:
            raise ValueError("max_lr must be positive")
        if min_lr < 0 or min_lr > max_lr:
            raise ValueError("need 0 <= min_lr <= max_lr")
        if warmup_iters < 0 or decay_iters < 1:
            raise ValueError("warmup_iters must be >= 0, decay_iters >= 1")
        if warmup_iters > decay_iters:
            raise ValueError("warmup_iters must be <= decay_iters")
        self.optimizer = optimizer
        self.max_lr = max_lr
        self.min_lr = min_lr
        self.warmup_iters = warmup_iters
        self.decay_iters = decay_iters
        self.iteration = 0
        self.optimizer.lr = self.lr_at(0)

    def lr_at(self, iteration: int) -> float:
        """The learning rate for a given iteration index."""
        if self.warmup_iters > 0 and iteration < self.warmup_iters:
            return self.max_lr * (iteration + 1) / self.warmup_iters
        if iteration >= self.decay_iters:
            return self.min_lr
        progress = (iteration - self.warmup_iters) / max(
            1, self.decay_iters - self.warmup_iters
        )
        cos = 0.5 * (1.0 + math.cos(math.pi * progress))
        return self.min_lr + (self.max_lr - self.min_lr) * cos

    def step(self) -> float:
        """Advance one iteration; returns the new learning rate."""
        self.iteration += 1
        lr = self.lr_at(self.iteration)
        self.optimizer.lr = lr
        return lr


"""Deterministic sharded batch loading for data-parallel training.

With data parallelism the input dataset is sharded so every replica
sees disjoint samples, but all replicas must agree on the global sample
order for strict synchronous semantics (§2.1).  The loader draws a
deterministic shuffled order per epoch from a seeded RNG shared by all
ranks, then hands each data-parallel rank its contiguous slice of every
global batch -- exactly the contract ``repro.parallel.trainer`` assumes
(``scatter_batch`` splits along axis 0).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from .dataset import TokenDataset


@dataclass
class ShardedBatchLoader:
    """Yields (ids, targets) global batches in a deterministic order.

    Attributes
    ----------
    dataset:
        The token dataset.
    global_batch_size:
        Sequences per global batch (the paper's ``B``).
    seed:
        Shuffle seed; identical across all ranks.
    drop_last:
        Drop the trailing partial batch of each epoch (always true for
        fixed-shape training -- kept explicit for clarity).
    """

    dataset: TokenDataset
    global_batch_size: int
    seed: int = 0
    drop_last: bool = True
    _epoch: int = field(default=0, init=False)

    def __post_init__(self) -> None:
        if self.global_batch_size < 1:
            raise ValueError("global_batch_size must be >= 1")
        if len(self.dataset) < self.global_batch_size:
            raise ValueError(
                f"dataset with {len(self.dataset)} samples cannot fill a "
                f"global batch of {self.global_batch_size}"
            )

    @property
    def batches_per_epoch(self) -> int:
        return len(self.dataset) // self.global_batch_size

    def epoch_order(self, epoch: int) -> np.ndarray:
        """The global sample permutation for ``epoch`` (same on all ranks)."""
        rng = np.random.default_rng(np.random.SeedSequence([self.seed, epoch]))
        return rng.permutation(len(self.dataset))

    def __iter__(self) -> Iterator[tuple[np.ndarray, np.ndarray]]:
        order = self.epoch_order(self._epoch)
        B = self.global_batch_size
        for i in range(self.batches_per_epoch):
            yield self.dataset.batch(order[i * B : (i + 1) * B])
        self._epoch += 1

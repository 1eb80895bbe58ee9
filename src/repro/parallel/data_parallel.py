"""Data parallelism (§2.1): each replica's slice of the global batch.

Each data-parallel rank holds a replica of (a shard of) the model and
processes its own slice of the global batch; after the local backward
passes the trainer runs the gradient ring over the data-parallel group
(once per batch -- the infrequency §3.3.2 credits data parallelism
with), its optimizer between the ring's two phases
(:mod:`repro.parallel.trainer`).
"""

from __future__ import annotations

import numpy as np


def scatter_batch(
    ids: np.ndarray, targets: np.ndarray, data_parallel_size: int
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Shard a global batch across data-parallel ranks (axis 0)."""
    if ids.shape[0] % data_parallel_size != 0:
        raise ValueError(
            f"global batch {ids.shape[0]} not divisible by d={data_parallel_size}"
        )
    return list(
        zip(
            np.split(ids, data_parallel_size),
            np.split(targets, data_parallel_size),
        )
    )

"""Data parallelism (§2.1): replicas + gradient all-reduce.

Each data-parallel rank holds a replica of (a shard of) the model and
processes its own slice of the global batch; after the local backward
passes, gradients are averaged with a ring all-reduce over the
data-parallel group (once per batch -- the infrequency §3.3.2 credits
data parallelism with).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.comm import TrafficKind, TrafficLog, ring_all_reduce
from repro.nn.module import Parameter


def all_reduce_gradients(
    replica_params: Sequence[Sequence[Parameter]],
    ranks: Sequence[int],
    log: TrafficLog | None = None,
    *,
    average: bool = True,
) -> None:
    """Average corresponding parameter gradients across replicas.

    ``replica_params[r]`` is the parameter list of data-parallel rank r;
    lists must be positionally aligned (same build order).  Gradients
    are replaced in place by the (averaged) sum, exactly what
    DistributedDataParallel's bucket all-reduce computes.
    """
    d = len(replica_params)
    if d != len(ranks):
        raise ValueError(f"{d} replicas but {len(ranks)} ranks")
    if d == 0:
        raise ValueError("no replicas")
    n_params = len(replica_params[0])
    for params in replica_params:
        if len(params) != n_params:
            raise ValueError("replica parameter lists are not aligned")
    if d == 1:
        return
    for i in range(n_params):
        grads = [replica_params[r][i].grad for r in range(d)]
        shapes = {g.shape for g in grads}
        if len(shapes) != 1:
            raise ValueError(f"parameter {i} has mismatched shapes across replicas")
        reduced = ring_all_reduce(
            grads, ranks, log, TrafficKind.DATA_PARALLEL, f"dp.grad.{i}"
        )
        for r in range(d):
            if average:
                np.divide(reduced[r], d, out=replica_params[r][i].grad)
            else:
                replica_params[r][i].grad[...] = reduced[r]


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


def data_parallel_comm_bytes(num_parameters: int, d: int, dtype_size: int = 2) -> float:
    """Per-rank bytes moved by one gradient all-reduce:
    ``2 (d-1)/d * P * dtype_size`` (§3.3.1's ring-scaling argument)."""
    if d < 1:
        raise ValueError("d must be >= 1")
    if d == 1:
        return 0.0
    return 2 * (d - 1) / d * num_parameters * dtype_size

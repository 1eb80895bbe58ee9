"""ZeRO-3 baseline (§5.2): fully-sharded data parallelism.

Implements the algorithm the paper compares against: parameters,
gradients and optimizer state are sharded across the ``d`` data-parallel
ranks; each rank

1. **all-gathers** the parameters it needs before the forward pass,
2. all-gathers them again for the backward pass (ZeRO-3 frees gathered
   weights after use),
3. **reduce-scatters** gradients so each rank keeps only its shard's sum,
4. runs the (sharded) Adam step on its own shard.

Numerically this is *exactly* vanilla data parallelism -- the tests
assert bit-equality with serial training -- but the communication volume
per rank rises from ``2 (d-1)/d P`` (one all-reduce) to ``3 (d-1)/d P``
(two all-gathers + one reduce-scatter), all of it crossing nodes when
``d`` spans servers.  That extra, unhideable cross-node communication is
the §5.2 performance story.

The single-process engine stores one canonical copy of each full
parameter (replicas are identical by construction) plus the true
per-rank shards; every gather/scatter runs the real ring primitives so
the traffic log carries the honest per-rank byte counts.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.comm import Backend, TrafficKind, TrafficLog, get_backend
from repro.nn import Adam
from repro.nn.module import Parameter


class ZeroShardedParameter:
    """One parameter sharded over ``d`` ranks (flattened, padded);
    ``backend`` (the coop oracle unless given) moves its collectives."""

    def __init__(self, param: Parameter, d: int,
                 backend: Backend | None = None):
        self.param = param
        self.d = d
        self.backend = get_backend(backend)
        flat = param.data.ravel()
        pad = (-flat.size) % d
        self.padded_size = flat.size + pad
        self.shard_size = self.padded_size // d
        padded = np.concatenate([flat, np.zeros(pad)])
        self.shards = [s.copy() for s in np.split(padded, d)]

    def gather(self, ranks: Sequence[int], log: TrafficLog | None,
               tag: str) -> None:
        """All-gather shards into the full parameter (phases 1 and 2)."""
        if self.d > 1:
            full = self.backend.all_gather(
                self.shards, ranks, log, TrafficKind.DATA_PARALLEL, tag
            )[0]
        else:
            full = self.shards[0]
        self.param.data[...] = full[: self.param.size].reshape(self.param.shape)

    def reduce_scatter_grads(
        self,
        replica_grads: Sequence[np.ndarray],
        ranks: Sequence[int],
        log: TrafficLog | None,
        *,
        average: bool = True,
    ) -> list[np.ndarray]:
        """Reduce-scatter per-replica gradients; returns per-rank shards."""
        padded = []
        for g in replica_grads:
            flat = g.ravel()
            pad = self.padded_size - flat.size
            padded.append(np.concatenate([flat, np.zeros(pad)]))
        stacked = [p.reshape(self.d, self.shard_size) for p in padded]
        shards = self.backend.reduce_scatter(
            stacked, ranks, log, TrafficKind.DATA_PARALLEL, "zero.rs"
        )
        out = [s.ravel() for s in shards]
        if average:
            out = [s / self.d for s in out]
        return out


class Zero3Engine:
    """ZeRO-3 training engine over one model's parameter list.

    The model replicas share the canonical parameter storage (their
    forward/backward read ``Parameter.data`` which :meth:`gather_params`
    refreshes from the shards), so any model built on the
    :mod:`repro.nn` substrate can be trained under ZeRO-3.
    """

    def __init__(
        self,
        params: list[Parameter],
        data_parallel_size: int,
        ranks: Sequence[int] | None = None,
        *,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        log: TrafficLog | None = None,
        backend: str | Backend | None = None,
    ):
        if data_parallel_size < 1:
            raise ValueError("data_parallel_size must be >= 1")
        #: Moves the gather/reduce-scatter collectives (the coop oracle
        #: unless "mp" or a live backend is given).  One resolved here
        #: is the engine's to release: ``close()`` it when done.
        self.backend = get_backend(backend)
        self._owns_backend = self.backend is not backend
        self.d = data_parallel_size
        self.ranks = list(ranks) if ranks is not None else list(range(self.d))
        if len(self.ranks) != self.d:
            raise ValueError("need one rank per data-parallel shard")
        self.log = log if log is not None else TrafficLog()
        self.sharded = [
            ZeroShardedParameter(p, self.d, self.backend) for p in params
        ]
        # Sharded Adam: one shard-sized optimizer per rank per parameter.
        # Parameter keeps a float64 array as is, so each one's data *is*
        # the shard and the step updates ``sp.shards`` in place.
        self._shard_params = [
            [Parameter(sp.shards[r]) for sp in self.sharded] for r in range(self.d)
        ]
        self._optimizers = [
            Adam([p for p in self._shard_params[r]], lr=lr, betas=betas, eps=eps)
            for r in range(self.d)
        ]

    def gather_params(self, phase: str) -> None:
        """Phase 1/2: materialize full parameters from the shards."""
        for sp in self.sharded:
            sp.gather(self.ranks, self.log, f"zero.gather.{phase}")

    def close(self) -> None:
        """Release the backend's worker processes if the engine made it."""
        if self._owns_backend:
            self.backend.close()

    def reduce_and_step(self, replica_grads: list[list[np.ndarray]]) -> None:
        """Phase 3+4: reduce-scatter grads, sharded Adam step.

        ``replica_grads[r][i]`` is rank r's gradient for parameter i
        (each rank computed grads from its own microbatches).
        """
        if len(replica_grads) != self.d:
            raise ValueError(f"expected {self.d} replicas of gradients")
        for i, sp in enumerate(self.sharded):
            grads = [replica_grads[r][i] for r in range(self.d)]
            shard_grads = sp.reduce_scatter_grads(grads, self.ranks, self.log)
            for r in range(self.d):
                self._shard_params[r][i].grad[...] = shard_grads[r]
        for r in range(self.d):
            self._optimizers[r].step()

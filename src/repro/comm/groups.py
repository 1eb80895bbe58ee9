"""Megatron's process-group layout over the (p, t, d) rank grid.

Global rank assignment follows Megatron-LM's ``initialize_model_parallel``:

    global_rank = pp_rank * (t * d) + dp_rank * t + tp_rank

i.e. tensor-parallel ranks are *contiguous* -- with t = 8 on 8-GPU nodes
they land on one server (Takeaway #1: tensor parallelism stays inside
the NVLink domain); consecutive pipeline stages land on different nodes
and communicate over InfiniBand.  Data-parallel peers share (pp, tp)
coordinates and sit at stride t.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import ParallelConfig


@dataclass(frozen=True)
class RankCoord:
    """Position of a global rank in the 3-D parallel grid."""

    pp: int
    dp: int
    tp: int


class ProcessGroups:
    """All tensor/data/pipeline groups for a :class:`ParallelConfig`."""

    def __init__(self, parallel: ParallelConfig):
        self.parallel = parallel
        self.p = parallel.pipeline_parallel_size
        self.t = parallel.tensor_parallel_size
        self.d = parallel.data_parallel_size
        self.world_size = parallel.world_size

    # -- coordinate transforms -------------------------------------------
    def rank_of(self, pp: int, dp: int, tp: int) -> int:
        self._check(pp, self.p, "pp")
        self._check(dp, self.d, "dp")
        self._check(tp, self.t, "tp")
        return pp * (self.t * self.d) + dp * self.t + tp

    def coord_of(self, rank: int) -> RankCoord:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range [0, {self.world_size})")
        pp, rem = divmod(rank, self.t * self.d)
        dp, tp = divmod(rem, self.t)
        return RankCoord(pp=pp, dp=dp, tp=tp)

    # -- groups ------------------------------------------------------------
    # A group is an arithmetic progression of global ranks (the inverse
    # of ``coord_of``): its two fixed coordinates are range-checked once
    # and the members follow from ``rank_of``'s formula.
    def tensor_group(self, pp: int, dp: int) -> list[int]:
        """The t ranks that jointly hold one layer's tensor shards."""
        first = self.rank_of(pp, dp, 0)
        return list(range(first, first + self.t))

    def data_group(self, pp: int, tp: int) -> list[int]:
        """The d ranks holding replicas of the same model shard."""
        first = self.rank_of(pp, 0, tp)
        return list(range(first, first + self.t * self.d, self.t))

    def pipeline_group(self, dp: int, tp: int) -> list[int]:
        """The p ranks forming one pipeline, first stage to last."""
        first = self.rank_of(0, dp, tp)
        return list(range(first, self.world_size, self.t * self.d))

    def all_tensor_groups(self) -> list[list[int]]:
        return [
            self.tensor_group(pp, dp)
            for pp in range(self.p)
            for dp in range(self.d)
        ]

    def all_data_groups(self) -> list[list[int]]:
        return [
            self.data_group(pp, tp)
            for pp in range(self.p)
            for tp in range(self.t)
        ]

    def all_pipeline_groups(self) -> list[list[int]]:
        return [
            self.pipeline_group(dp, tp)
            for dp in range(self.d)
            for tp in range(self.t)
        ]

    def pipeline_peer(self, rank: int, direction: int) -> int | None:
        """Next (+1) or previous (-1) pipeline-stage rank, or None at
        the pipeline's ends."""
        if direction not in (-1, 1):
            raise ValueError("direction must be +1 or -1")
        c = self.coord_of(rank)
        pp = c.pp + direction
        if not 0 <= pp < self.p:
            return None
        return self.rank_of(pp, c.dp, c.tp)

    @staticmethod
    def _check(value: int, bound: int, name: str) -> None:
        if not 0 <= value < bound:
            raise ValueError(f"{name} rank {value} out of range [0, {bound})")

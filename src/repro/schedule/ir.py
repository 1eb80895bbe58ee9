"""Schedule intermediate representation.

A *pipeline schedule* is, for each pipeline rank (device), an ordered
list of compute operations, each a forward or backward pass of one
microbatch through one model chunk.  This is the common currency between
the schedule generators (GPipe / 1F1B / interleaved), the dependency
validator, the discrete-event performance simulator, and the numerical
pipeline-parallel engine: all of them consume the same IR, so a schedule
proven correct by the validator is exactly the schedule that is timed
and exactly the schedule that is executed numerically.

Global stage numbering: with ``p`` pipeline ranks and ``v`` model chunks
per rank, there are ``p * v`` pipeline stages; chunk ``c`` on rank ``r``
is global stage ``c * p + r`` (Megatron's interleaved assignment, §2.2.2
-- e.g. device 1 has layers 1,2 and 9,10).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field


class OpKind(enum.Enum):
    """Forward or backward pass of one microbatch through one chunk."""

    FORWARD = "F"
    BACKWARD = "B"


@dataclass(frozen=True, order=True)
class ScheduleOp:
    """One unit of pipeline work.

    Attributes
    ----------
    kind:
        Forward or backward.
    microbatch:
        Microbatch index in ``[0, m)``.
    chunk:
        Model-chunk index in ``[0, v)`` on this device (0 for
        non-interleaved schedules).
    """

    kind: OpKind
    microbatch: int
    chunk: int = 0

    def __post_init__(self) -> None:
        if self.microbatch < 0:
            raise ValueError(f"microbatch must be >= 0, got {self.microbatch}")
        if self.chunk < 0:
            raise ValueError(f"chunk must be >= 0, got {self.chunk}")

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        suffix = f".{self.chunk}" if self.chunk else ""
        return f"{self.kind.value}{self.microbatch}{suffix}"


@dataclass(frozen=True)
class PipelineSchedule:
    """A complete schedule: per-rank ordered op lists.

    Attributes
    ----------
    name:
        Generator label ("gpipe", "1f1b", "interleaved").
    num_stages:
        Pipeline-parallel size ``p`` (number of devices).
    num_microbatches:
        ``m``, microbatches per pipeline per iteration.
    num_chunks:
        ``v``, model chunks per device.
    ops:
        ``ops[r]`` is the ordered op list of pipeline rank ``r``.
    """

    name: str
    num_stages: int
    num_microbatches: int
    num_chunks: int
    ops: tuple[tuple[ScheduleOp, ...], ...] = field(repr=False)

    def __post_init__(self) -> None:
        if self.num_stages < 1:
            raise ValueError("num_stages must be >= 1")
        if self.num_microbatches < 1:
            raise ValueError("num_microbatches must be >= 1")
        if self.num_chunks < 1:
            raise ValueError("num_chunks must be >= 1")
        if len(self.ops) != self.num_stages:
            raise ValueError(
                f"expected {self.num_stages} per-rank op lists, got {len(self.ops)}"
            )

    @property
    def total_stages(self) -> int:
        """Number of global pipeline stages ``p * v``."""
        return self.num_stages * self.num_chunks

    def global_stage(self, rank: int, chunk: int) -> int:
        """Global stage index of ``chunk`` on ``rank`` (Megatron layout)."""
        if not 0 <= rank < self.num_stages:
            raise ValueError(f"rank {rank} out of range")
        if not 0 <= chunk < self.num_chunks:
            raise ValueError(f"chunk {chunk} out of range")
        return chunk * self.num_stages + rank

    def counts_are_complete(self) -> bool:
        """Every rank runs exactly one F and one B per (microbatch, chunk)."""
        want = {
            (kind, mb, c)
            for kind in OpKind
            for mb in range(self.num_microbatches)
            for c in range(self.num_chunks)
        }
        for rank_ops in self.ops:
            got = {(op.kind, op.microbatch, op.chunk) for op in rank_ops}
            if got != want or len(rank_ops) != len(want):
                return False
        return True

    def max_in_flight_microbatches(self, rank: int) -> int:
        """Peak number of outstanding forward activations on ``rank``.

        This is the §2.2.1 memory argument: GPipe stashes up to ``m``
        microbatches, 1F1B at most ``p``.  Counted as forwards executed
        minus backwards completed, maximized over the op sequence.
        """
        in_flight = peak = 0
        for op in self.ops[rank]:
            if op.kind is OpKind.FORWARD:
                in_flight += 1
            else:
                in_flight -= 1
            peak = max(peak, in_flight)
        return peak

    def describe(self) -> str:
        return (
            f"{self.name}(p={self.num_stages}, m={self.num_microbatches}, "
            f"v={self.num_chunks})"
        )

"""Parallelization configuration: the (p, t, d) triple of §3.1.

Notation follows the paper exactly:

- ``p``: pipeline-model-parallel size
- ``t``: tensor-model-parallel size
- ``d``: data-parallel size
- ``n = p * t * d``: total number of GPUs
- ``B``: global batch size
- ``b``: microbatch size
- ``m = B / (d * b)``: microbatches per pipeline
- ``v``: number of interleaved model chunks per device (v=1 means the
  non-interleaved schedule)
"""

from __future__ import annotations

from dataclasses import dataclass

from .model_config import GPTConfig


@dataclass(frozen=True)
class ParallelConfig:
    """A complete PTD-P parallelization of a training job.

    Raises ``ValueError`` for any combination the paper's system would
    reject: non-divisible batch, microbatch count not a multiple of p for
    the interleaved schedule (§2.2.2), etc.
    """

    pipeline_parallel_size: int = 1
    tensor_parallel_size: int = 1
    data_parallel_size: int = 1
    microbatch_size: int = 1
    global_batch_size: int = 1
    num_model_chunks: int = 1  # v; >1 selects the interleaved schedule

    def __post_init__(self) -> None:
        p, t, d = (
            self.pipeline_parallel_size,
            self.tensor_parallel_size,
            self.data_parallel_size,
        )
        for nm, val in (("pipeline", p), ("tensor", t), ("data", d)):
            if val < 1:
                raise ValueError(f"{nm}-parallel size must be >= 1, got {val}")
        if self.microbatch_size < 1:
            raise ValueError(f"microbatch_size must be >= 1, got {self.microbatch_size}")
        if self.global_batch_size < 1:
            raise ValueError(
                f"global_batch_size must be >= 1, got {self.global_batch_size}"
            )
        if self.num_model_chunks < 1:
            raise ValueError(
                f"num_model_chunks must be >= 1, got {self.num_model_chunks}"
            )
        per_replica = self.microbatch_size * d
        if self.global_batch_size % per_replica != 0:
            raise ValueError(
                f"global batch size {self.global_batch_size} must be divisible by "
                f"microbatch_size * data_parallel_size = {per_replica}"
            )
        if self.num_model_chunks > 1:
            if p < 2:
                raise ValueError(
                    "interleaved schedule (num_model_chunks > 1) requires "
                    f"pipeline_parallel_size >= 2, got {p}"
                )
            if self.num_microbatches % p != 0:
                raise ValueError(
                    "interleaved schedule requires the number of microbatches "
                    f"({self.num_microbatches}) to be a multiple of the pipeline-"
                    f"parallel size ({p}) -- see paper §2.2.2"
                )

    # -- aliases matching the paper's notation ---------------------------
    @property
    def p(self) -> int:
        return self.pipeline_parallel_size

    @property
    def t(self) -> int:
        return self.tensor_parallel_size

    @property
    def d(self) -> int:
        return self.data_parallel_size

    @property
    def b(self) -> int:
        return self.microbatch_size

    @property
    def B(self) -> int:
        return self.global_batch_size

    @property
    def v(self) -> int:
        return self.num_model_chunks

    @property
    def world_size(self) -> int:
        """Total number of GPUs ``n = p * t * d``."""
        return self.p * self.t * self.d

    @property
    def num_microbatches(self) -> int:
        """``m = B / (d * b)`` -- microbatches per pipeline per iteration."""
        return self.global_batch_size // (self.data_parallel_size * self.microbatch_size)

    def validate_for_model(self, model: GPTConfig) -> None:
        """Check this configuration can partition ``model``.

        The paper assigns an equal number of transformer layers to each
        pipeline stage (and each model chunk for the interleaved
        schedule), and splits attention heads and MLP columns ``t`` ways.
        """
        stages = self.p * self.v
        if model.num_layers % stages != 0:
            raise ValueError(
                f"model with {model.num_layers} layers cannot be split into "
                f"p*v = {stages} equal pipeline stages"
            )
        if model.num_attention_heads % self.t != 0:
            raise ValueError(
                f"{model.num_attention_heads} attention heads not divisible by "
                f"tensor-parallel size {self.t}"
            )
        if model.ffn_hidden_size % self.t != 0:
            raise ValueError(
                f"ffn_hidden_size {model.ffn_hidden_size} not divisible by "
                f"tensor-parallel size {self.t}"
            )
        if model.vocab_size % self.t != 0:
            raise ValueError(
                f"vocab_size {model.vocab_size} not divisible by "
                f"tensor-parallel size {self.t}"
            )

    def describe(self) -> str:
        return (
            f"(p={self.p}, t={self.t}, d={self.d}), n={self.world_size}, "
            f"B={self.B}, b={self.b}, m={self.num_microbatches}, v={self.v}"
        )

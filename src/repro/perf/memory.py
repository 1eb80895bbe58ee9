"""GPU memory-footprint model (§3.3 Takeaway #2, §3.5, Figure 17).

Accounts, per GPU, for:

- **model state**: fp16 weights + fp32 master weights + fp32 Adam
  moments + gradients, for the parameters of this rank's model shard
  (``~P / (p t)`` of the model);
- **activations**: stashed per in-flight microbatch per layer.  Without
  recomputation a transformer layer stores
  ``s b h (10 + 24/t) + 5 a s^2 b / t`` bytes at fp16 (LayerNorm
  outputs, QKV, attention scores/probabilities, GeLU input, etc.);
  with full recomputation only the ``2 s b h`` stage-input bytes
  persist, at the cost of the extra forward pass;
- the in-flight microbatch count, which is a property of the pipeline
  schedule (``m`` for GPipe, ``min(p, m)`` for 1F1B, §2.2.1).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from repro.config import GPTConfig, ParallelConfig
from repro.hardware import DeviceSpec


#: bytes per parameter of optimizer+weight state with mixed precision,
#: split the way the ``mem.<part>.bytes`` counter series report it:
#: fp16 weight (2) + fp16 grad (2) + fp32 master (4) + Adam m, v (4+4).
MODEL_STATE_SPLIT = (("weights", 2), ("gradients", 2), ("optimizer", 12))
MODEL_STATE_BYTES_PER_PARAM = sum(n for _, n in MODEL_STATE_SPLIT)


def activation_bytes_per_layer(
    b: int, s: int, h: int, a: int, t: int = 1, *, dtype_size: int = 2,
) -> int:
    """Stashed activation bytes for one microbatch through one layer.

    The ``s b h (10 + 24/t) + 5 a s^2 b / t`` accounting (at fp16) from
    the Megatron line of work: input/LN outputs and residuals are
    replicated across tensor ranks (the ``10``), QKV/GeLU intermediates
    are sharded (the ``24/t``), attention score/probability matrices are
    sharded by head (the ``5 a s^2 b / t``, which contains dropout masks
    at 1 byte -- folded into the coefficient).
    """
    if min(b, s, h, a, t) < 1:
        raise ValueError("all dimensions must be >= 1")
    replicated = 10 * s * b * h
    sharded = 24 * s * b * h // t
    attention = 5 * a * s * s * b // t
    return (replicated + sharded + attention) * dtype_size // 2


def stage_input_bytes(b: int, s: int, h: int, *, dtype_size: int = 2) -> int:
    """Bytes of one stashed stage input (what recomputation keeps)."""
    return b * s * h * dtype_size


def in_flight_microbatches(schedule_name: str, p: int, m: int, v: int = 1) -> int:
    """Peak stashed microbatches for the named schedule (§2.2.1).

    Expressed in full-microbatch units; the interleaved schedule's
    warm-up overhead adds ``(p-1)/v`` chunk-activations' worth.
    """
    if p < 1 or m < 1 or v < 1:
        raise ValueError("p, m, v must be >= 1")
    if schedule_name in ("gpipe", "interleaved-gpipe"):
        return m
    if schedule_name == "1f1b":
        return min(p, m)
    if schedule_name == "interleaved":
        if m == p:
            return m  # warm-up covers everything
        chunks = min(p * v + p - 1, m * v)
        return math.ceil(chunks / v)
    raise ValueError(f"unknown schedule {schedule_name!r}")


@dataclass(frozen=True)
class MemoryFootprint:
    """Per-GPU memory breakdown, bytes."""

    model_state: int
    activations: int
    stage_inputs: int

    @property
    def total(self) -> int:
        return self.model_state + self.activations + self.stage_inputs


def parameters_per_rank(config: GPTConfig, parallel: ParallelConfig) -> int:
    """Trainable parameters held by one GPU.

    Transformer-layer parameters divide by ``p * t`` (sharded both
    ways); the first stage also holds the vocab-sharded embedding and
    the replicated position embedding.
    """
    h = config.hidden_size
    per_layer = 12 * h * h + 13 * h
    layer_share = config.num_layers * per_layer // (parallel.p * parallel.t)
    embedding = config.vocab_size * h // parallel.t + config.seq_length * h
    # The heaviest rank is a first-stage rank: layers + embeddings.
    return layer_share + embedding


def memory_footprint(
    config: GPTConfig,
    parallel: ParallelConfig,
    *,
    schedule_name: str = "1f1b",
    recompute: bool = False,
    dtype_size: int = 2,
) -> MemoryFootprint:
    """Peak per-GPU memory for training ``config`` under ``parallel``."""
    P_rank = parameters_per_rank(config, parallel)
    model_state = P_rank * MODEL_STATE_BYTES_PER_PARAM
    layers_per_stage = config.num_layers // (parallel.p * parallel.v)
    s, h, a = config.seq_length, config.hidden_size, config.num_attention_heads
    n_inflight = in_flight_microbatches(
        schedule_name, parallel.p, parallel.num_microbatches, parallel.v
    )
    inputs = n_inflight * parallel.v * stage_input_bytes(
        parallel.b, s, h, dtype_size=dtype_size
    )
    if recompute:
        # Only one layer's working set is live during recompute.
        working = activation_bytes_per_layer(
            parallel.b, s, h, a, parallel.t, dtype_size=dtype_size,
        )
        return MemoryFootprint(
            model_state=model_state, activations=working, stage_inputs=inputs
        )
    acts = (
        n_inflight
        * parallel.v
        * layers_per_stage
        * activation_bytes_per_layer(
            parallel.b, s, h, a, parallel.t, dtype_size=dtype_size,
        )
    )
    return MemoryFootprint(
        model_state=model_state, activations=acts, stage_inputs=inputs
    )


def fits_in_memory(
    config: GPTConfig,
    parallel: ParallelConfig,
    device: DeviceSpec,
    *,
    schedule_name: str = "1f1b",
    recompute: bool = False,
    reserve_fraction: float = 0.1,
) -> bool:
    """Whether training fits in device memory (with a CUDA/fragmentation
    reserve)."""
    if not 0 <= reserve_fraction < 1:
        raise ValueError("reserve_fraction must be in [0, 1)")
    fp = memory_footprint(
        config, parallel, schedule_name=schedule_name, recompute=recompute,
    )
    return fp.total <= device.memory_capacity * (1 - reserve_fraction)


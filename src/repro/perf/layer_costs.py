"""Kernel-level cost enumeration for one transformer layer.

Lists every GEMM and every memory-bound elementwise kernel one
tensor-parallel rank executes for one microbatch, in the paper's
sharding (§2.3), and prices them on a
:class:`~repro.hardware.roofline.ComputeModel`.  This is the compute
half of the performance simulator: stage forward/backward durations are
sums of these per-layer costs.

The ``fused`` flag reproduces §4.2's operator-fusion optimizations:

- bias + GeLU fused (one pass instead of two),
- bias + dropout + add fused (one pass instead of three),
- scale + mask + softmax fused (one pass instead of three).

Backward GEMM FLOPs are 2x forward (gradients w.r.t. both input and
weights -- paper appendix); elementwise backward traffic ~= forward.
Activation recomputation (§3.5) adds one extra forward before the
backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from repro.config import GPTConfig
from repro.hardware import ComputeModel, GemmShape


@dataclass(frozen=True)
class LayerCost:
    """Time breakdown (seconds) for one microbatch through one layer."""

    gemm_time: float
    elementwise_time: float
    gemm_flops: int

    @property
    def total(self) -> float:
        return self.gemm_time + self.elementwise_time


def transformer_layer_gemms(
    b: int, s: int, h: int, a: int, t: int = 1, ffn: int | None = None
) -> list[GemmShape]:
    """Per-rank forward GEMMs of one transformer layer under t-way
    tensor parallelism (§2.3 sharding: QKV/fc1 column-split, proj/fc2
    row-split, attention batched over the rank's a/t heads)."""
    if a % t or h % t:
        raise ValueError(f"h={h}, a={a} must be divisible by t={t}")
    ffn = ffn or 4 * h
    if ffn % t:
        raise ValueError(f"ffn={ffn} must be divisible by t={t}")
    dk = h // a
    heads = a // t
    return [
        GemmShape(m=b * s, k=h, n=3 * h // t),          # QKV projection
        GemmShape(m=s, k=dk, n=s, batch=b * heads),     # Q K^T
        GemmShape(m=s, k=s, n=dk, batch=b * heads),     # scores @ V
        GemmShape(m=b * s, k=h // t, n=h),              # attention output
        GemmShape(m=b * s, k=h, n=ffn // t),            # MLP fc1
        GemmShape(m=b * s, k=ffn // t, n=h),            # MLP fc2
    ]


def transformer_layer_elementwise(
    b: int, s: int, h: int, a: int, t: int = 1, ffn: int | None = None,
    fused: bool = True,
) -> list[tuple[int, float]]:
    """Per-rank forward elementwise kernels as (num_elements, passes).

    ``passes`` counts HBM traversals (read + write = 2 for a simple
    unary kernel); fusion reduces the pass count, which is the §5.8
    effect.
    """
    ffn = ffn or 4 * h
    bsh = b * s * h
    scores = b * (a // t) * s * s
    ops: list[tuple[int, float]] = []
    ops.append((bsh, 3.0))  # LayerNorm 1 (stats pass + normalize pass)
    ops.append((bsh, 3.0))  # LayerNorm 2
    if fused:
        ops.append((b * s * ffn // t, 2.0))  # bias+GeLU fused
        ops.append((scores, 2.0))            # scale+mask+softmax fused
        ops.append((scores, 2.0))            # attention dropout
        ops.append((bsh, 2.5))               # bias+dropout+add fused (attn)
        ops.append((bsh, 2.5))               # bias+dropout+add fused (MLP)
    else:
        # Unfused baseline: separate kernels materialize intermediates
        # in fp32 with up/down casts (the pre-fusion Megatron behavior),
        # doubling the traffic of each pass.
        ops.append((b * s * ffn // t, 4.0))  # bias add
        ops.append((b * s * ffn // t, 4.0))  # GeLU
        ops.append((scores, 4.0))            # scale
        ops.append((scores, 4.0))            # mask
        ops.append((scores, 6.0))            # softmax (max+sum+norm)
        ops.append((scores, 4.0))            # attention dropout
        for _ in range(2):                   # attn-out and MLP-out paths
            ops.append((bsh, 4.0))           # bias add
            ops.append((bsh, 4.0))           # dropout
            ops.append((bsh, 6.0))           # residual add (read x2 + write)
    return ops


# The three leaf costs below are pure functions of frozen, hashable
# arguments and return frozen values, so each is memoised in place: a
# configuration search prices hundreds of candidates that share a few
# dozen (b, t) between them (DESIGN.md, "Price by factor").  The memos
# are bounded, and a ``ComputeModel`` or ``DeviceSpec`` field is in the
# key by construction.
@lru_cache(maxsize=256)
def transformer_layer_cost(
    model: ComputeModel,
    b: int,
    s: int,
    h: int,
    a: int,
    t: int = 1,
    ffn: int | None = None,
    *,
    fused: bool = True,
) -> LayerCost:
    """Forward-pass cost of one layer for one microbatch on one rank."""
    gemms = transformer_layer_gemms(b, s, h, a, t, ffn)
    gemm_time = sum(model.gemm_time(g) for g in gemms)
    gemm_flops = sum(g.flops for g in gemms)
    ew = transformer_layer_elementwise(b, s, h, a, t, ffn, fused)
    ew_time = sum(model.elementwise_time(n, p) for n, p in ew)
    return LayerCost(gemm_time=gemm_time, elementwise_time=ew_time,
                     gemm_flops=gemm_flops)


@lru_cache(maxsize=256)
def logit_layer_cost(
    model: ComputeModel, b: int, s: int, h: int, vocab: int, t: int = 1
) -> LayerCost:
    """Output-head cost: final LayerNorm + the (b s, h, V/t) logit GEMM
    + vocab-parallel cross entropy (memory-bound over the logits)."""
    if vocab % t:
        raise ValueError(f"vocab={vocab} must be divisible by t={t}")
    g = GemmShape(m=b * s, k=h, n=vocab // t)
    gemm_time = model.gemm_time(g)
    ew = [
        (b * s * h, 3.0),            # final LayerNorm
        (b * s * (vocab // t), 3.0), # softmax statistics + loss
    ]
    ew_time = sum(model.elementwise_time(n, p) for n, p in ew)
    return LayerCost(gemm_time=gemm_time, elementwise_time=ew_time,
                     gemm_flops=g.flops)


@lru_cache(maxsize=256)
def embedding_cost(model: ComputeModel, b: int, s: int, h: int) -> LayerCost:
    """Embedding lookup + position add + dropout: pure memory traffic."""
    ew_time = model.elementwise_time(b * s * h, 4.0)
    return LayerCost(gemm_time=0.0, elementwise_time=ew_time, gemm_flops=0)


@dataclass(frozen=True)
class StageCost:
    """Per-microbatch forward/backward compute time of a pipeline stage."""

    forward: float
    backward: float
    forward_flops: int
    backward_flops: int

    @property
    def total(self) -> float:
        return self.forward + self.backward


def stage_compute_cost(
    model: ComputeModel,
    config: GPTConfig,
    layers_in_stage: int,
    b: int,
    t: int = 1,
    *,
    is_first: bool = False,
    is_last: bool = False,
    fused: bool = True,
    recompute: bool = True,
) -> StageCost:
    """Compute-only (no communication) cost of one stage, one microbatch.

    Backward = 2x forward GEMM work (+ the recomputation forward when
    enabled, §3.5); elementwise backward ~= forward's traffic.
    """
    if layers_in_stage < 0:
        raise ValueError("layers_in_stage must be >= 0")
    s, h, a = config.seq_length, config.hidden_size, config.num_attention_heads
    layer = transformer_layer_cost(
        model, b, s, h, a, t, config.ffn_hidden_size, fused=fused
    )
    fwd = layers_in_stage * layer.total
    fwd_flops = layers_in_stage * layer.gemm_flops
    bwd = layers_in_stage * (2 * layer.gemm_time + layer.elementwise_time)
    bwd_flops = 2 * fwd_flops
    if recompute:
        bwd += fwd
        bwd_flops += fwd_flops
    if is_first:
        emb = embedding_cost(model, b, s, h)
        fwd += emb.total
        bwd += emb.total  # scatter-add back into the embedding
    if is_last:
        logit = logit_layer_cost(model, b, s, h, config.vocab_size, t)
        fwd += logit.total
        bwd += 2 * logit.gemm_time + logit.elementwise_time
        fwd_flops += logit.gemm_flops
        bwd_flops += 2 * logit.gemm_flops
    return StageCost(
        forward=fwd, backward=bwd,
        forward_flops=fwd_flops, backward_flops=bwd_flops,
    )

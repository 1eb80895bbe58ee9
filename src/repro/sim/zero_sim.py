"""Timing model for ZeRO-3 training (§5.2, Table 2, Figure 10).

ZeRO-3 without model parallelism: ``d = n`` data-parallel ranks, each
holding 1/d of every parameter.  Per iteration each rank

- all-gathers parameters for the forward pass,
- all-gathers them again for the recomputation+backward pass,
- reduce-scatters gradients,

a per-rank volume of ``3 (d-1)/d * 2P`` bytes (fp16), essentially all of
it crossing nodes.  DeepSpeed overlaps prefetches with compute; we model
a fixed overlappable fraction.  The §5.2 dynamics follow: at the minimum
GPU count the compute time still hides most communication, but doubling
GPUs halves per-rank compute while the gather volume stays ~constant,
so ZeRO-3's throughput per GPU collapses while PTD-P's does not.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.comm import CommCostModel
from repro.config import GPTConfig
from repro.hardware import (
    ComputeModel,
    NodeSpec,
    cluster_for_gpus,
    dgx_a100,
)
from repro.perf.layer_costs import stage_compute_cost
from repro.perf.memory import MODEL_STATE_BYTES_PER_PARAM


@dataclass(frozen=True)
class ZeroSimResult:
    """Timing of one ZeRO-3 iteration."""

    iteration_time: float
    compute_time: float
    comm_time_exposed: float
    comm_time_total: float
    model_flops: int
    num_gpus: int
    global_batch_size: int
    seq_length: int
    peak_flops: float

    @property
    def tflops_per_gpu(self) -> float:
        return self.model_flops / self.num_gpus / self.iteration_time / 1e12


def simulate_zero3_iteration(
    config: GPTConfig,
    num_gpus: int,
    global_batch_size: int,
    microbatch_size: int,
    *,
    node: NodeSpec | None = None,
    param_dtype_size: int = 2,
    overlap_fraction: float = 0.3,
    fused: bool = True,
    recompute: bool = True,
) -> ZeroSimResult:
    """Simulate one ZeRO-3 iteration (no model parallelism, d = n)."""
    node = node or dgx_a100()
    if num_gpus < 1:
        raise ValueError("num_gpus must be >= 1")
    if global_batch_size % (num_gpus * microbatch_size) != 0:
        raise ValueError(
            f"batch {global_batch_size} not divisible by n*b = "
            f"{num_gpus * microbatch_size}"
        )
    if not 0 <= overlap_fraction < 1:
        raise ValueError("overlap_fraction must be in [0, 1)")
    topo = cluster_for_gpus(num_gpus, node)
    compute = ComputeModel(device=node.device)
    comm = CommCostModel(topo)

    d = num_gpus
    m = global_batch_size // (d * microbatch_size)
    # Compute: m microbatches through the whole model on each rank.
    per_mb = stage_compute_cost(
        compute, config, config.num_layers, microbatch_size, 1,
        is_first=True, is_last=True, fused=fused, recompute=recompute,
    )
    compute_time = m * per_mb.total

    # Communication: 2 all-gathers + 1 reduce-scatter of the fp16
    # parameters per iteration, executed layer-by-layer (one latency
    # term per layer per pass).
    P = config.num_parameters()
    param_bytes = P * param_dtype_size
    ranks = list(range(d))
    # Flat (non-hierarchical) rings: every rank ingests nearly the full
    # parameter set through its own single HCA -- the gather pattern of
    # the ZeRO-3 implementation the paper benchmarked, and the source of
    # its cross-node bottleneck.
    gather = comm.all_gather_time(ranks, param_bytes, channels=1)
    rs = comm.reduce_scatter_time(ranks, param_bytes, channels=1)
    per_layer_latency = 3 * config.num_layers * node.ib_latency * max(
        1, d // node.gpus_per_node
    )
    comm_total = 2 * gather + rs + per_layer_latency

    exposed = max(0.0, comm_total - overlap_fraction * compute_time)
    # Sharded optimizer step: memory pass over this rank's state shard.
    opt_time = compute.memory_time(P / d * MODEL_STATE_BYTES_PER_PARAM)
    iteration = compute_time + exposed + opt_time
    flops = config.flops_per_iteration(global_batch_size, with_recompute=recompute)
    return ZeroSimResult(
        iteration_time=iteration,
        compute_time=compute_time,
        comm_time_exposed=exposed,
        comm_time_total=comm_total,
        model_flops=flops,
        num_gpus=num_gpus,
        global_batch_size=global_batch_size,
        seq_length=config.seq_length,
        peak_flops=node.device.peak_flops,
    )

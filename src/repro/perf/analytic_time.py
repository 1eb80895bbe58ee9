"""Closed-form iteration-time estimator (no event simulation).

The paper's §3 analysis composes into a closed form for one iteration:

    t_pipeline = (m + (p-1)/v) * (t_f + t_b + t_comm_per_mb)
    t_iter     = t_pipeline + t_dp_allreduce + t_optimizer

where t_f/t_b are per-stage compute times (including serialized
tensor-parallel all-reduces) and t_comm_per_mb the per-microbatch p2p
cost charged on the critical path.  Every term is read from the pricing
the event simulator itself runs on (:func:`repro.sim.price_iteration`),
so the estimator costs that O(p * v) pricing and no O(p * v * m)
schedule walk, and its agreement with the simulator (within a few
percent across configurations; see tests) validates both: the simulator
has no hidden scheduling pathology, and the closed form captures the §3
structure.  The exact, non-uniform-stage form of the same formula is
:meth:`repro.sim.IterationPricing.critical_path_bound`.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import GPTConfig, ParallelConfig
from repro.hardware import NodeSpec, dgx_a100


@dataclass(frozen=True)
class AnalyticEstimate:
    """Closed-form timing of one training iteration."""

    iteration_time: float
    pipeline_time: float
    bubble_time: float
    per_microbatch_time: float
    data_parallel_time: float
    optimizer_time: float
    model_flops: int
    num_gpus: int

    @property
    def tflops_per_gpu(self) -> float:
        return self.model_flops / self.num_gpus / self.iteration_time / 1e12


def estimate_iteration(
    config: GPTConfig,
    parallel: ParallelConfig,
    *,
    node: NodeSpec | None = None,
    fused: bool = True,
    recompute: bool = True,
    scatter_gather: bool = True,
    tp_channels: int = 2,
    grad_dtype_size: int = 2,
    activation_dtype_size: int = 2,
) -> AnalyticEstimate:
    """Closed-form analogue of :func:`repro.sim.simulate_iteration`.

    Uses the mean per-stage compute time (stages differ only by the
    embedding/logit extras on the first/last stage, amortized here),
    the paper's bubble formula (1/v)(p-1) extra microbatch slots, and
    the same communication cost models as the simulator.
    """
    # repro.sim imports repro.perf.layer_costs; import it lazily to
    # avoid a package-initialization cycle.
    from repro.sim import SimOptions, price_iteration

    pricing = price_iteration(
        config, parallel,
        SimOptions(
            fused_kernels=fused, recompute_activations=recompute,
            scatter_gather=scatter_gather, tp_channels=tp_channels,
            grad_dtype_size=grad_dtype_size,
            activation_dtype_size=activation_dtype_size,
        ),
        node or dgx_a100(),
    )
    p, v, m = parallel.p, parallel.v, parallel.num_microbatches

    # Mean per-chunk time: the first/last stages' embedding and logit
    # extras amortized over all chunks, plus a chunk's TP all-reduces.
    costs = pricing.stage_costs
    chunk_time = sum(c.total for c in costs) / len(costs) + sum(pricing.tp_time)

    # Pipeline p2p charged per chunk boundary (send + recv, as the
    # simulator does); v chunks => v boundaries per direction per mb.
    # Stage 0 receives nothing, so its forward p2p time is one hop.
    hop = pricing.comm_time[0][0]
    p2p_per_mb = 2 * 2 * v * hop  # fwd+bwd, send+recv

    per_mb = v * chunk_time + p2p_per_mb  # all chunks of one microbatch
    slots = m + (p - 1) / v
    pipeline_time = slots * per_mb
    bubble_time = ((p - 1) / v) * per_mb

    dp_time = pricing.dp_time + pricing.embed_time
    opt_time = pricing.opt_time

    flops = config.flops_per_iteration(
        parallel.global_batch_size, with_recompute=recompute
    )
    return AnalyticEstimate(
        iteration_time=pipeline_time + dp_time + opt_time,
        pipeline_time=pipeline_time,
        bubble_time=bubble_time,
        per_microbatch_time=per_mb,
        data_parallel_time=dp_time,
        optimizer_time=opt_time,
        model_flops=flops,
        num_gpus=parallel.world_size,
    )

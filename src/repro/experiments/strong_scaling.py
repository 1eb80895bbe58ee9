"""Strong-scaling extension: fixed model + batch, growing GPU count.

The paper reports weak scaling (Table 1) and the fixed-batch GPU sweep
inside Table 2.  This extension completes the picture: GPT-3 (175B) at
its production batch size (1536) from 1 pipeline's worth of GPUs (96)
up to 1536 GPUs, reporting per-GPU throughput, aggregate throughput,
and strong-scaling efficiency (aggregate speedup / GPU-count ratio).

PTD-P's story: data parallelism carries strong scaling almost linearly
until the per-replica microbatch count m = B/(d b) shrinks enough for
the pipeline bubble (p-1)/m to bite -- the same (n-d)/b' tradeoff as
Figure 14, now at production scale.
"""

from __future__ import annotations

from repro.config import ParallelConfig, gpt3_175b
from repro.sim import SimOptions, simulate_iteration

from .report import ExperimentResult

GPU_COUNTS = (96, 192, 384, 768, 1536)
T, P, B = 8, 12, 1536


def run() -> ExperimentResult:
    model = gpt3_175b()
    result = ExperimentResult(
        experiment_id="strong_scaling",
        title="Strong scaling: GPT-175B, batch 1536 (extension)",
        columns=("gpus", "d", "m_per_replica", "tflops_gpu",
                 "aggregate_pflops", "efficiency"),
    )
    base = None
    for n in GPU_COUNTS:
        d = n // (T * P)
        par = ParallelConfig(
            pipeline_parallel_size=P, tensor_parallel_size=T,
            data_parallel_size=d, microbatch_size=1, global_batch_size=B,
        )
        res = simulate_iteration(model, par, options=SimOptions())
        if base is None:
            base = (n, res.aggregate_pflops)
        eff = (res.aggregate_pflops / base[1]) / (n / base[0])
        result.add(n, d, par.num_microbatches, round(res.tflops_per_gpu, 1),
                   round(res.aggregate_pflops, 1), round(eff, 3))
    result.notes = (
        "Shape target: near-linear aggregate scaling (efficiency > 0.85 "
        "through 16x more GPUs); per-GPU throughput decays gently as the "
        "bubble grows with shrinking m."
    )
    return result

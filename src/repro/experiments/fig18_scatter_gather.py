"""Figure 18: the scatter/gather communication optimization (§4.1).

GPT-3 (175B) on 96 GPUs with the interleaved schedule; with the
optimization each inter-node pipeline hop carries bsh/t bytes over
InfiniBand (plus a fast NVLink all-gather) instead of bsh on every
tensor-parallel rank pair.
"""

from __future__ import annotations

from repro.config import ParallelConfig, gpt3_175b
from repro.sim import SimOptions, simulate_iteration

from .report import ExperimentResult

BATCH_SIZES = (12, 24, 36, 48, 60)
T, P, V = 8, 12, 2


def run() -> ExperimentResult:
    model = gpt3_175b()
    result = ExperimentResult(
        experiment_id="fig18",
        title="Scatter/gather optimization (GPT-175B, 96 GPUs, interleaved)",
        columns=("batch", "unoptimized", "optimized", "gain_pct"),
    )
    for B in BATCH_SIZES:
        par = ParallelConfig(
            pipeline_parallel_size=P, tensor_parallel_size=T,
            data_parallel_size=1, microbatch_size=1, global_batch_size=B,
            num_model_chunks=V,
        )
        un = simulate_iteration(
            model, par,
            options=SimOptions(schedule_name="interleaved", scatter_gather=False),
        ).tflops_per_gpu
        opt = simulate_iteration(
            model, par,
            options=SimOptions(schedule_name="interleaved", scatter_gather=True),
        ).tflops_per_gpu
        result.add(B, round(un, 1), round(opt, 1),
                   round(100 * (opt / un - 1), 1))
    result.notes = (
        "Shape target: consistent throughput gain for the "
        "communication-intensive interleaved schedule (paper: up to 11%)."
    )
    return result

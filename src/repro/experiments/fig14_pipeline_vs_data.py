"""Figure 14: pipeline vs data parallelism tradeoff.

5.9B-parameter GPT (32 layers, hidden 3840, 32 heads) on 64 GPUs, t=1,
(p, d) from (2, 32) to (32, 2), microbatch 1, batches 32/128/512.
"""

from __future__ import annotations

from repro.config import ParallelConfig, fig14_model
from repro.sim import SimOptions, simulate_iteration

from .report import ExperimentResult

COMBOS = ((2, 32), (4, 16), (8, 8), (16, 4), (32, 2))
BATCH_SIZES = (32, 128, 512)


def run() -> ExperimentResult:
    model = fig14_model()
    result = ExperimentResult(
        experiment_id="fig14",
        title="Pipeline vs data parallelism (5.9B model, 64 GPUs, b=1)",
        columns=("batch", "p", "d", "tflops_gpu"),
    )
    for B in BATCH_SIZES:
        for p, d in COMBOS:
            if B % d:
                continue
            par = ParallelConfig(
                pipeline_parallel_size=p, tensor_parallel_size=1,
                data_parallel_size=d, microbatch_size=1, global_batch_size=B,
            )
            res = simulate_iteration(
                model, par, options=SimOptions(schedule_name="1f1b")
            )
            result.add(B, p, d, round(res.tflops_per_gpu, 1))
    result.notes = (
        "Shape target: throughput decreases as p grows at every batch "
        "size ((n-d)/b' bubble, §3.3.1); larger batches help."
    )
    return result

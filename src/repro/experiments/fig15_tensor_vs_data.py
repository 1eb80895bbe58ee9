"""Figure 15: tensor vs data parallelism tradeoff.

Same 5.9B model and 64 GPUs as Figure 14, p=1, (t, d) from (2, 32) to
(32, 2), microbatch 1.
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
        experiment_id="fig15",
        title="Tensor vs data parallelism (5.9B model, 64 GPUs, b=1)",
        columns=("batch", "t", "d", "tflops_gpu"),
    )
    for B in BATCH_SIZES:
        for t, d in COMBOS:
            if B % d:
                continue
            par = ParallelConfig(
                pipeline_parallel_size=1, tensor_parallel_size=t,
                data_parallel_size=d, microbatch_size=1, global_batch_size=B,
            )
            res = simulate_iteration(
                model, par, options=SimOptions(schedule_name="1f1b")
            )
            result.add(B, t, d, round(res.tflops_per_gpu, 1))
    result.notes = (
        "Shape target: throughput drops as t grows, with a cliff past the "
        "node boundary (t > 8); per-microbatch all-reduces dominate."
    )
    return result

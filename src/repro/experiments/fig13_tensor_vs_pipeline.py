"""Figure 13: tensor vs pipeline parallelism tradeoff.

162B-parameter GPT (32 layers, hidden 20480, 128 heads) on 64 GPUs,
(t, p) from (2, 32) to (32, 2), batch sizes 32 and 128, microbatch 1.
Peak throughput should land at t = 8 = GPUs per node (Takeaway #1).
"""

from __future__ import annotations

from repro.config import ParallelConfig, fig13_model
from repro.sim import SimOptions, simulate_iteration

from .report import ExperimentResult

COMBOS = ((2, 32), (4, 16), (8, 8), (16, 4), (32, 2))
BATCH_SIZES = (32, 128)


def run() -> ExperimentResult:
    model = fig13_model()
    result = ExperimentResult(
        experiment_id="fig13",
        title="Tensor vs pipeline parallelism (162B model, 64 GPUs)",
        columns=("batch", "t", "p", "tflops_gpu"),
    )
    for B in BATCH_SIZES:
        for t, p in COMBOS:
            par = ParallelConfig(
                pipeline_parallel_size=p, tensor_parallel_size=t,
                data_parallel_size=1, microbatch_size=1, global_batch_size=B,
            )
            res = simulate_iteration(
                model, par, options=SimOptions(schedule_name="1f1b")
            )
            result.add(B, t, p, round(res.tflops_per_gpu, 1))
    result.notes = (
        "Shape target: peak at t=8 (node size); both extremes lose up to "
        "~2x (cross-node all-reduce on one side, pipeline bubble on the other)."
    )
    return result

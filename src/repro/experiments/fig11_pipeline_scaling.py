"""Figure 11: weak scaling of pipeline parallelism in isolation.

Model: hidden 20480, 128 heads, 3 layers per pipeline stage (15B params
at p=1 to 121B at p=8), t=8, microbatch 1, batch sizes 8 and 128.
The pipeline bubble (p-1)/m makes the small batch scale poorly.
"""

from __future__ import annotations

from repro.config import ParallelConfig, fig11_model
from repro.sim import SimOptions, simulate_iteration

from .report import ExperimentResult

PIPELINE_SIZES = (1, 2, 4, 8)
BATCH_SIZES = (8, 128)


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig11",
        title="Pipeline-parallel weak scaling (t=8, b=1)",
        columns=("batch", "p", "gpus", "params_B", "tflops_gpu", "bubble"),
    )
    for B in BATCH_SIZES:
        for p in PIPELINE_SIZES:
            model = fig11_model(p)
            par = ParallelConfig(
                pipeline_parallel_size=p,
                tensor_parallel_size=8,
                data_parallel_size=1,
                microbatch_size=1,
                global_batch_size=B,
            )
            res = simulate_iteration(
                model, par, options=SimOptions(schedule_name="1f1b")
            )
            result.add(
                B, p, par.world_size,
                round(model.num_parameters() / 1e9, 1),
                round(res.tflops_per_gpu, 1),
                round((p - 1) / par.num_microbatches, 3),
            )
    result.notes = (
        "Shape target: batch 128 sustains throughput as p grows; batch 8 "
        "degrades steeply (bubble (p-1)/m)."
    )
    return result

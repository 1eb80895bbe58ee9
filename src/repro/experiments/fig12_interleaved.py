"""Figure 12: interleaved vs non-interleaved schedule, GPT-3 on 96 GPUs.

(t, p) = (8, 12), v = 2 model chunks for the interleaved schedule, with
the scatter/gather optimization enabled; batch sizes 12..60.
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
        experiment_id="fig12",
        title="Interleaved vs non-interleaved 1F1B (GPT-175B, 96 GPUs)",
        columns=("batch", "noninterleaved", "interleaved", "gain_pct"),
    )
    for B in BATCH_SIZES:
        base = simulate_iteration(
            model,
            ParallelConfig(
                pipeline_parallel_size=P, tensor_parallel_size=T,
                data_parallel_size=1, microbatch_size=1, global_batch_size=B,
            ),
            options=SimOptions(schedule_name="1f1b"),
        ).tflops_per_gpu
        inter = simulate_iteration(
            model,
            ParallelConfig(
                pipeline_parallel_size=P, tensor_parallel_size=T,
                data_parallel_size=1, microbatch_size=1, global_batch_size=B,
                num_model_chunks=V,
            ),
            options=SimOptions(schedule_name="interleaved", scatter_gather=True),
        ).tflops_per_gpu
        result.add(B, round(base, 1), round(inter, 1),
                   round(100 * (inter / base - 1), 1))
    result.notes = (
        "Shape target: interleaved wins (10+% at small batch); the gap "
        "closes as the batch grows."
    )
    return result

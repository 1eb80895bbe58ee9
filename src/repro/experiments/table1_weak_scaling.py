"""Table 1: weak-scaling throughput, 1.7B to 1T parameters.

Simulates every Table-1 configuration end to end (interleaved schedule
is used for p > 1 in the paper; per-row microbatch sizes are not
published, we use b = 1) and reports achieved Tflop/s per GPU, the
percentage of the 312 Tflop/s peak, and the aggregate Pflop/s, next to
the paper's measured values.
"""

from __future__ import annotations

from repro.config import TABLE1_ROWS
from repro.sim import SimOptions, simulate_iteration

from .report import ExperimentResult


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="table1",
        title="Weak-scaling throughput for GPT models (1B to 1T params)",
        columns=(
            "params_B", "heads", "hidden", "layers", "t", "p", "gpus",
            "batch", "tflops_gpu", "paper_tflops", "peak_frac",
            "paper_frac", "agg_pflops", "paper_agg",
        ),
    )
    for row in TABLE1_ROWS:
        res = simulate_iteration(
            row.model, row.parallel, options=SimOptions(schedule_name="1f1b")
        )
        result.add(
            row.reported_params_billion,
            row.model.num_attention_heads,
            row.model.hidden_size,
            row.model.num_layers,
            row.parallel.tensor_parallel_size,
            row.parallel.pipeline_parallel_size,
            row.parallel.world_size,
            row.parallel.global_batch_size,
            round(res.tflops_per_gpu, 1),
            row.reported_tflops_per_gpu,
            round(res.peak_fraction, 3),
            row.reported_peak_fraction,
            round(res.aggregate_pflops, 1),
            row.reported_aggregate_pflops,
        )
    result.notes = (
        "Shape target: utilization grows with model size (44% -> 52% in the "
        "paper); aggregate throughput ~= n x per-GPU."
    )
    return result

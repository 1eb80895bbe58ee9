"""Figure 16: microbatch size at scale.

91B-parameter GPT, (t, p) = (8, 8) on 64 GPUs, batch sizes 128 and 512,
microbatch sizes 1..8 -- full simulation (not just eq. (1)).
"""

from __future__ import annotations

from repro.config import ParallelConfig, fig16_model
from repro.sim import SimOptions, simulate_iteration

from .report import ExperimentResult

BATCH_SIZES = (128, 512)
MICROBATCHES = (1, 2, 4, 8)
T, P = 8, 8


def run() -> ExperimentResult:
    model = fig16_model()
    result = ExperimentResult(
        experiment_id="fig16",
        title="Microbatch size at scale (91B model, (t,p)=(8,8))",
        columns=("batch", "microbatch", "tflops_gpu", "is_best"),
    )
    for B in BATCH_SIZES:
        rows = []
        for b in MICROBATCHES:
            if B % b:
                continue
            par = ParallelConfig(
                pipeline_parallel_size=P, tensor_parallel_size=T,
                data_parallel_size=1, microbatch_size=b, global_batch_size=B,
            )
            res = simulate_iteration(
                model, par, options=SimOptions(schedule_name="1f1b")
            )
            rows.append((b, res.tflops_per_gpu))
        best_b = max(rows, key=lambda r: r[1])[0]
        for b, tf in rows:
            result.add(B, b, round(tf, 1), "*" if b == best_b else "")
    result.notes = (
        "Shape target: interior optimum (paper: b=2 for this model); "
        "B=512 dominates B=128 at every microbatch size."
    )
    return result

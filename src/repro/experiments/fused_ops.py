"""§5.8: performance impact of operator fusion.

Simulates GPT-3 (175B, 96 GPUs) and the 530B model (280 GPUs) with and
without the fused bias+GeLU / bias+dropout+add / scale+mask+softmax
kernels.  Paper: +19% (175B, 113 -> 135 Tflop/s) and +11% (530B,
133 -> 148).
"""

from __future__ import annotations

from repro.config import ParallelConfig, gpt3_175b, gpt_530b
from repro.sim import SimOptions, simulate_iteration

from .report import ExperimentResult

CASES = (
    ("175B", gpt3_175b, 8, 12, 1, 48, 19),
    ("530B", gpt_530b, 8, 35, 1, 70, 11),
)


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fused_ops",
        title="Operator fusion (§5.8)",
        columns=("model", "gpus", "unfused_tflops", "fused_tflops",
                 "gain_pct", "paper_gain_pct"),
    )
    for name, ctor, t, p, d, B, paper_gain in CASES:
        model = ctor()
        par = ParallelConfig(
            pipeline_parallel_size=p, tensor_parallel_size=t,
            data_parallel_size=d, microbatch_size=1, global_batch_size=B,
        )
        un = simulate_iteration(
            model, par, options=SimOptions(fused_kernels=False)
        ).tflops_per_gpu
        fu = simulate_iteration(
            model, par, options=SimOptions(fused_kernels=True)
        ).tflops_per_gpu
        result.add(name, par.world_size, round(un, 1), round(fu, 1),
                   round(100 * (fu / un - 1), 1), paper_gain)
    result.notes = (
        "Shape target: fusion helps both models, more for the smaller-h "
        "model (elementwise traffic is a larger share of its time)."
    )
    return result

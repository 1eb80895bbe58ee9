"""Figure 7: per-GPU throughput vs microbatch size on a single GPU.

The figure's model: ~1B parameters, 128 attention heads, hidden 4096,
4 transformer layers.  Throughput comes from the roofline kernel model
(no parallelism, no recompute): larger microbatches raise GEMM
arithmetic efficiency until saturation.
"""

from __future__ import annotations

from repro.config import fig7_model
from repro.hardware import ComputeModel, a100_80gb
from repro.perf import stage_compute_cost

from .report import ExperimentResult

MICROBATCH_SIZES = (1, 2, 4, 8, 16)


def run() -> ExperimentResult:
    cfg = fig7_model()
    cm = ComputeModel(device=a100_80gb())
    result = ExperimentResult(
        experiment_id="fig07",
        title="Single-GPU throughput vs microbatch size (1B model)",
        columns=("microbatch", "tflops_gpu", "seq_per_s", "speedup_vs_b1"),
    )
    base = None
    for b in MICROBATCH_SIZES:
        cost = stage_compute_cost(
            cm, cfg, cfg.num_layers, b, 1,
            is_first=True, is_last=True, recompute=False,
        )
        flops = cfg.flops_per_iteration(b, with_recompute=False)
        tflops = flops / cost.total / 1e12
        if base is None:
            base = tflops
        result.add(
            b, round(tflops, 1), round(b / cost.total, 2),
            round(tflops / base, 3),
        )
    result.notes = (
        "Shape target: throughput increases with b then saturates (paper: "
        "up to 1.3x; our roofline model reproduces the shape with a "
        "smaller amplitude, see EXPERIMENTS.md)."
    )
    return result

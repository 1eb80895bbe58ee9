"""Table 2 + Figure 10: PTD Parallelism vs. ZeRO-3 without model parallelism.

Reproduces both halves of Table 2 for the 175B GPT-3 and the 530B model:
ZeRO-3 at (n, b) = the paper's settings, PTD-P at the paper's
model-parallel sizes (t=8, p=12 -> M=96 for 175B; t=8, p=35 -> M=280 for
530B) with b=1, plus eq. (4) training times for 300B tokens.
"""

from __future__ import annotations

from repro.config import ParallelConfig, gpt3_175b, gpt_530b
from repro.perf import training_time_days
from repro.sim import SimOptions, simulate_iteration, simulate_zero3_iteration

from .report import ExperimentResult

#: (scheme, model name, batch, gpus, microbatch, paper tflops, paper days)
PAPER_ROWS = (
    ("zero3", "175B", 1536, 384, 4, 144, 90),
    ("zero3", "175B", 1536, 768, 2, 88, 74),
    ("zero3", "175B", 1536, 1536, 1, 44, 74),
    ("zero3", "530B", 2560, 640, 4, 138, 169),
    ("zero3", "530B", 2240, 1120, 2, 98, 137),
    ("zero3", "530B", 2240, 2240, 1, 48, 140),
    ("ptd", "175B", 1536, 384, 1, 153, 84),
    ("ptd", "175B", 1536, 768, 1, 149, 43),
    ("ptd", "175B", 1536, 1536, 1, 141, 23),
    ("ptd", "530B", 2240, 560, 1, 171, 156),
    ("ptd", "530B", 2240, 1120, 1, 167, 80),
    ("ptd", "530B", 2240, 2240, 1, 159, 42),
)

_MODELS = {"175B": gpt3_175b, "530B": gpt_530b}
_PTD_SHAPE = {"175B": (8, 12), "530B": (8, 35)}  # (t, p)


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="table2",
        title="PTD Parallelism vs ZeRO-3 (Table 2 / Figure 10)",
        columns=(
            "scheme", "model", "batch", "gpus", "b",
            "tflops_gpu", "paper_tflops", "days_300B", "paper_days",
        ),
    )
    for scheme, name, batch, gpus, b, paper_tf, paper_days in PAPER_ROWS:
        model = _MODELS[name]()
        if scheme == "zero3":
            res = simulate_zero3_iteration(model, gpus, batch, b)
            tflops = res.tflops_per_gpu
        else:
            t, p = _PTD_SHAPE[name]
            d = gpus // (t * p)
            par = ParallelConfig(
                pipeline_parallel_size=p,
                tensor_parallel_size=t,
                data_parallel_size=d,
                microbatch_size=b,
                global_batch_size=batch,
            )
            res = simulate_iteration(
                model, par, options=SimOptions(schedule_name="1f1b")
            )
            tflops = res.tflops_per_gpu
        days = training_time_days(
            model.num_parameters(), 300e9, gpus, tflops * 1e12
        )
        result.add(
            scheme, name, batch, gpus, b,
            round(tflops, 1), paper_tf, round(days, 1), paper_days,
        )
    result.notes = (
        "Shape target: PTD-P >= ZeRO-3 at the smallest GPU count; PTD-P "
        "scales near-linearly while ZeRO-3 collapses when GPUs double at "
        "fixed batch (the paper's ~70% gap)."
    )
    return result

"""Ablation: the four pipeline schedules' throughput/memory tradeoff.

DESIGN.md design choice: the 1F1B family trades nothing in throughput
against GPipe while bounding memory; the interleaved 1F1B gains
throughput at small batch for more communication; the rejected
interleaved-GPipe variant shows why memory matters.
"""

from repro.config import ParallelConfig, gpt3_175b
from repro.experiments.report import ExperimentResult
from repro.perf import in_flight_microbatches
from repro.sim import SimOptions, simulate_iteration


def run():
    model = gpt3_175b()
    B = 24
    result = ExperimentResult(
        experiment_id="ablation_schedules",
        title="Schedule ablation (GPT-175B, 96 GPUs, B=24)",
        columns=("schedule", "v", "tflops_gpu", "in_flight_microbatches"),
    )
    cases = (
        ("gpipe", 1),
        ("1f1b", 1),
        ("interleaved", 2),
        ("interleaved-gpipe", 2),
    )
    for name, v in cases:
        par = ParallelConfig(
            pipeline_parallel_size=12, tensor_parallel_size=8,
            data_parallel_size=1, microbatch_size=1, global_batch_size=B,
            num_model_chunks=v,
        )
        res = simulate_iteration(
            model, par, options=SimOptions(schedule_name=name)
        )
        stash = in_flight_microbatches(name, 12, par.num_microbatches, v)
        result.add(name, v, round(res.tflops_per_gpu, 1), stash)
    result.notes = (
        "GPipe == 1F1B in time but stashes m vs p microbatches; "
        "interleaving cuts the bubble by v; the GPipe-interleaved variant "
        "matches interleaved throughput at m-proportional memory (why the "
        "paper rejects it)."
    )
    return result


def test_schedule_ablation(show):
    result = run()
    show(result)
    by = {row[0]: row[2] for row in result.rows}
    assert by["interleaved"] > by["1f1b"]
    assert abs(by["gpipe"] - by["1f1b"]) < 1.0

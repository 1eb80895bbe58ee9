"""Ablation: communication-model design choices in the simulator.

Sensitivity of the headline results to (a) the NCCL-channel cap for
cross-node tensor-parallel collectives, and (b) p2p/compute overlap --
the two modelling choices DESIGN.md calls out beyond the roofline
calibration.
"""

from repro.config import ParallelConfig, fig13_model
from repro.experiments import ExperimentResult
from repro.sim import SimOptions, simulate_iteration


def run():
    model = fig13_model()
    result = ExperimentResult(
        experiment_id="ablation_comm",
        title="Comm-model ablation (162B, 64 GPUs, B=32)",
        columns=("variant", "t16_p4_tflops", "t8_p8_tflops", "t16_penalty"),
    )
    for label, channels, overlap in (
        ("tp_channels=1", 1, False),
        ("tp_channels=2 (default)", 2, False),
        ("tp_channels=8", 8, False),
        ("overlap p2p", 2, True),
    ):
        vals = {}
        for t, p in ((16, 4), (8, 8)):
            par = ParallelConfig(
                pipeline_parallel_size=p, tensor_parallel_size=t,
                data_parallel_size=1, microbatch_size=1, global_batch_size=32,
            )
            res = simulate_iteration(
                model, par,
                options=SimOptions(tp_channels=channels, overlap_p2p=overlap),
            )
            vals[(t, p)] = res.tflops_per_gpu
        result.add(
            label,
            round(vals[(16, 4)], 1),
            round(vals[(8, 8)], 1),
            round(1 - vals[(16, 4)] / vals[(8, 8)], 3),
        )
    result.notes = (
        "The Figure-13 crossover (t=8 beats t=16) holds for every channel "
        "cap; the cap only modulates how much cross-node tensor "
        "parallelism loses."
    )
    return result


def test_comm_ablation(show):
    result = run()
    show(result)
    for row in result.rows:
        assert row[3] > 0  # t=16 always worse than t=8

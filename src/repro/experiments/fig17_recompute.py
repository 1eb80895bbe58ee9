"""Figure 17: throughput with and without activation recomputation.

145B-parameter GPT (80 layers, hidden 12288, 96 heads), 128 GPUs,
(t, p) = (8, 16), microbatch 2, sweeping the batch size.  Without
recomputation the activation stash (up to min(p, m) in-flight
microbatches x 5 layers each) exhausts the 80 GB device beyond a batch
size; with recomputation memory stays flat and large batches amortize
the pipeline bubble to ~2x the best no-recompute throughput.
"""

from __future__ import annotations

from repro.config import ParallelConfig, fig17_model
from repro.hardware import a100_80gb
from repro.perf import fits_in_memory
from repro.sim import SimOptions, simulate_iteration

from .report import ExperimentResult

BATCH_SIZES = (2, 4, 8, 16, 32, 64, 128)
T, P, B_MICRO = 8, 16, 2


def run() -> ExperimentResult:
    model = fig17_model()
    device = a100_80gb()
    result = ExperimentResult(
        experiment_id="fig17",
        title="Activation recomputation (145B model, (t,p)=(8,16))",
        columns=("batch", "recompute", "fits", "seq_per_s"),
    )
    for rc in (False, True):
        for B in BATCH_SIZES:
            par = ParallelConfig(
                pipeline_parallel_size=P, tensor_parallel_size=T,
                data_parallel_size=1, microbatch_size=B_MICRO,
                global_batch_size=B,
            )
            fits = fits_in_memory(model, par, device, recompute=rc)
            if fits:
                res = simulate_iteration(
                    model, par,
                    options=SimOptions(
                        schedule_name="1f1b", recompute_activations=rc
                    ),
                )
                seq_s = round(res.sequences_per_second, 2)
            else:
                seq_s = float("nan")
            result.add(B, rc, fits, seq_s)
    result.notes = (
        "Shape target: without recomputation, higher throughput at small "
        "batches (~33% in the paper) but OOM beyond a batch size; with "
        "recomputation, large batches reach up to ~2x the best "
        "no-recompute throughput."
    )
    return result

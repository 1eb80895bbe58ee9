"""Figure 8: eq. (1) estimated throughput vs microbatch size.

Same 1B model as Figure 7, (p, t) = (8, 8), batch sizes 128 and 512:
time = (b'/b + p - 1)(t_f(b) + t_b(b)).  The optimum microbatch size
balances arithmetic intensity against pipeline-bubble growth.
"""

from __future__ import annotations

from repro.config import fig7_model
from repro.hardware import ComputeModel, a100_80gb
from repro.perf import sweep_microbatch_sizes

from .report import ExperimentResult

BATCH_SIZES = (128, 512)
P, T = 8, 8


def run() -> ExperimentResult:
    cfg = fig7_model()
    cm = ComputeModel(device=a100_80gb())
    result = ExperimentResult(
        experiment_id="fig08",
        title="Eq. (1) normalized throughput vs microbatch size, (p,t)=(8,8)",
        columns=("batch", "microbatch", "batch_time", "norm_throughput", "is_best"),
    )
    for B in BATCH_SIZES:
        points = sweep_microbatch_sizes(
            cm, cfg, p=P, t=T, b_prime=B, candidates=(1, 2, 4, 8, 16),
        )
        best = max(points, key=lambda p_: p_.throughput)
        peak = best.throughput
        for pt in points:
            result.add(
                B, pt.microbatch_size, round(pt.batch_time, 4),
                round(pt.throughput / peak, 3),
                "*" if pt is best else "",
            )
    result.notes = (
        "Shape target: interior optimum (paper: b = 4 for both batch "
        "sizes); throughput falls off on both sides."
    )
    return result

"""What-if extension: the paper's Table 1 on an H100-generation cluster.

The discussion section notes the ideas are accelerator-agnostic.  This
experiment re-runs the Table-1 weak-scaling configurations on a
DGX-H100-like node (989 Tflop/s fp16/bf16 dense peak, 3.35 TB/s HBM3,
NVLink4 at 450 GB/s/dir, 8x NDR 400 Gbps InfiniBand) and reports how the
utilization story changes: peak FLOP/s grew ~3.2x but HBM and network
bandwidth grew less, so the achieved *fraction* of peak drops even
though absolute Tflop/s rise -- the standard roofline consequence.
"""

from __future__ import annotations

from repro.config import TABLE1_ROWS
from repro.hardware import GB, TB, TFLOP, DeviceSpec, NodeSpec
from repro.sim import SimOptions, simulate_iteration

from .report import ExperimentResult


def h100_80gb() -> DeviceSpec:
    return DeviceSpec(
        name="H100-80GB",
        peak_flops=989 * TFLOP,
        memory_bandwidth=3.35 * TB,
        memory_capacity=80e9,
    )


def dgx_h100() -> NodeSpec:
    return NodeSpec(
        device=h100_80gb(),
        gpus_per_node=8,
        nvlink_bandwidth=450 * GB,
        ib_bandwidth_per_hca=50 * GB,  # NDR 400 Gbps
        num_ib_hcas=8,
    )


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="what_if_h100",
        title="Table 1 re-simulated on a DGX-H100 cluster (extension)",
        columns=("params_B", "gpus", "a100_tflops", "h100_tflops",
                 "speedup", "a100_frac", "h100_frac"),
    )
    node = dgx_h100()
    for row in TABLE1_ROWS[::3] + (TABLE1_ROWS[-1],):
        a100 = simulate_iteration(row.model, row.parallel,
                                  options=SimOptions())
        h100 = simulate_iteration(row.model, row.parallel,
                                  options=SimOptions(), node=node)
        result.add(
            row.reported_params_billion,
            row.parallel.world_size,
            round(a100.tflops_per_gpu, 1),
            round(h100.tflops_per_gpu, 1),
            round(h100.tflops_per_gpu / a100.tflops_per_gpu, 2),
            round(a100.peak_fraction, 3),
            round(h100.peak_fraction, 3),
        )
    result.notes = (
        "Shape target: large absolute speedups, lower fraction of peak "
        "(compute grew faster than memory/network bandwidth)."
    )
    return result

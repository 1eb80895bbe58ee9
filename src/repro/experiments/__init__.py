"""Experiment harness: one module per table/figure in the paper's §3/§5.

``REGISTRY`` maps experiment ids to their ``run`` callables.
Run ``python -m repro.experiments`` to print every table.
"""

from . import (
    bisection,
    interconnect,
    strong_scaling,
    what_if_h100,
    checkpoint_io,
    fig01_trend,
    fig03_fig04_schedules,
    fig06_bubble,
    fig07_microbatch_1gpu,
    fig08_microbatch_model,
    fig11_pipeline_scaling,
    fig12_interleaved,
    fig13_tensor_vs_pipeline,
    fig14_pipeline_vs_data,
    fig15_tensor_vs_data,
    fig16_microbatch,
    fig17_recompute,
    fig18_scatter_gather,
    fused_ops,
    goodput_interval,
    table1_weak_scaling,
    table2_zero3,
)
from .report import ExperimentResult

REGISTRY = {
    "fig01": fig01_trend.run,
    "fig03_fig04": fig03_fig04_schedules.run,
    "fig06": fig06_bubble.run,
    "fig07": fig07_microbatch_1gpu.run,
    "fig08": fig08_microbatch_model.run,
    "table1": table1_weak_scaling.run,
    "table2": table2_zero3.run,
    "fig11": fig11_pipeline_scaling.run,
    "fig12": fig12_interleaved.run,
    "fig13": fig13_tensor_vs_pipeline.run,
    "fig14": fig14_pipeline_vs_data.run,
    "fig15": fig15_tensor_vs_data.run,
    "fig16": fig16_microbatch.run,
    "fig17": fig17_recompute.run,
    "fig18": fig18_scatter_gather.run,
    "fused_ops": fused_ops.run,
    "bisection": bisection.run,
    "interconnect": interconnect.run,
    "strong_scaling": strong_scaling.run,
    "what_if_h100": what_if_h100.run,
    "checkpoint_io": checkpoint_io.run,
    "goodput_interval": goodput_interval.run,
}


__all__ = ["REGISTRY", "ExperimentResult"]

"""Pipeline-parallel schedules: IR, generators, execution, bubble models."""

from .bubble import (
    bubble_fraction,
    bubble_fraction_vs_data_parallel,
    bubble_overhead,
    bubble_time,
    ideal_time,
    throughput_factor,
)
from .execution import (
    CompletionOrder,
    DeadlockError,
    OpInstance,
    TimedOp,
    Timeline,
    completion_order,
    completion_order_is_serializable,
    dependencies,
    execute,
    resolve,
    simulate_times,
    validate,
)
from .generators import (
    gpipe_schedule,
    interleaved_gpipe_schedule,
    interleaved_schedule,
    make_schedule,
    one_f_one_b_schedule,
)
from .ir import OpKind, PipelineSchedule, ScheduleOp
from .visualize import render_schedule, render_timeline

__all__ = [
    "OpKind",
    "PipelineSchedule",
    "ScheduleOp",
    "gpipe_schedule",
    "one_f_one_b_schedule",
    "interleaved_schedule",
    "interleaved_gpipe_schedule",
    "make_schedule",
    "DeadlockError",
    "OpInstance",
    "TimedOp",
    "Timeline",
    "dependencies",
    "resolve",
    "CompletionOrder",
    "completion_order",
    "execute",
    "validate",
    "simulate_times",
    "completion_order_is_serializable",
    "bubble_time",
    "ideal_time",
    "bubble_fraction",
    "bubble_overhead",
    "throughput_factor",
    "bubble_fraction_vs_data_parallel",
    "render_schedule",
    "render_timeline",
]

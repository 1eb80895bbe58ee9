"""Figures 3 and 4: pipeline schedule timelines and bubbles.

Renders the GPipe, default 1F1B, and interleaved 1F1B timelines for the
figures' setting (p=4, m=8, backward = 2x forward) and reports measured
vs analytical bubble fractions and peak in-flight microbatches.
"""

from __future__ import annotations

from repro.schedule import (
    bubble_overhead,
    gpipe_schedule,
    interleaved_schedule,
    make_schedule,
    one_f_one_b_schedule,
    render_schedule,
    simulate_times,
)

from .report import ExperimentResult

P, M, V = 4, 8, 2


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig03_fig04",
        title="Pipeline schedules: GPipe vs 1F1B vs interleaved (p=4, m=8)",
        columns=(
            "schedule", "makespan", "bubble_measured", "bubble_analytic",
            "max_in_flight_rank0",
        ),
    )
    for name, sched in (
        ("gpipe", gpipe_schedule(P, M)),
        ("1f1b", one_f_one_b_schedule(P, M)),
        ("interleaved(v=2)", interleaved_schedule(P, M, V)),
    ):
        tl = simulate_times(sched)
        v = sched.num_chunks
        result.add(
            name,
            tl.makespan,
            round(tl.bubble_fraction(), 4),
            round(bubble_overhead(P, M, v), 4),
            sched.max_in_flight_microbatches(0),
        )
    result.notes = (
        "Interleaving shrinks the bubble by v and flushes sooner "
        "(smaller makespan); GPipe stashes m=8 microbatches vs p=4 for 1F1B."
    )
    return result


def render_all() -> str:
    """The actual Figure 3/4 timelines as text."""
    parts = []
    for name, v in (("gpipe", 1), ("1f1b", 1), ("interleaved", V)):
        parts.append(render_schedule(make_schedule(name, P, M, v)))
    return "\n\n".join(parts)

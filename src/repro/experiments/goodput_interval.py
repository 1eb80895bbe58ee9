"""Goodput vs checkpoint interval for the 1T run (§5.10 + resilience).

Sweeps the checkpoint interval for the trillion-parameter preset on its
384-node deployment, using the §5.10 filesystem model for save/load
costs and the expected-goodput overhead decomposition
(``save/c + (c/2 + detect + load) / MTBF``).  The curve is U-shaped in
overhead (too-frequent saves vs too much lost work) and its argmax
agrees with the Young/Daly interval ``sqrt(2 * save * MTBF)`` within
one sweep step.
"""

from __future__ import annotations

from repro.resilience import (
    RestartPolicy,
    goodput_scenarios,
    log_spaced_intervals,
    sweep_checkpoint_interval,
)

from .report import ExperimentResult

SWEEP_POINTS = 21


def run() -> ExperimentResult:
    scenario = goodput_scenarios()["1t"]
    policy = RestartPolicy.from_io_model(
        scenario.model, scenario.parallel, scenario.num_nodes
    )
    mtbf = scenario.cluster_mtbf_seconds
    intervals = log_spaced_intervals(
        2.0 * policy.save_seconds, mtbf, SWEEP_POINTS
    )
    sweep = sweep_checkpoint_interval(
        intervals,
        mtbf_seconds=mtbf,
        save_seconds=policy.save_seconds,
        load_seconds=policy.load_seconds,
        detection_seconds=policy.detector.expected_latency(),
    )
    result = ExperimentResult(
        experiment_id="goodput_interval",
        title="Goodput vs checkpoint interval, 1T model (§5.10)",
        columns=("interval_s", "goodput", "overhead", "optimum"),
    )
    for i, point in enumerate(sweep.points):
        result.add(
            round(point.interval_seconds, 1),
            round(point.goodput, 4),
            round(1.0 / point.goodput - 1.0, 4),
            "<--" if i == sweep.best_index else "",
        )
    analytic = sweep.analytic_interval_seconds
    result.notes = (
        f"save={policy.save_seconds:.1f}s load={policy.load_seconds:.1f}s "
        f"cluster MTBF={mtbf:.0f}s ({scenario.num_nodes} nodes); "
        f"Young/Daly optimum {analytic:.1f}s, sweep argmax within one "
        f"step: {sweep.agrees_within_one_step}"
    )
    if not sweep.is_interior:
        result.notes += " [WARNING: optimum on sweep boundary]"
    return result

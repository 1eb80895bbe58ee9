"""Resilience: checkpoint-interval sweep and goodput replay (§5.10).

Runs the `goodput_interval` experiment (analytic sweep over
log-spaced checkpoint intervals for the 1T preset) and a deterministic
failure-trace replay, asserting the sweep's optimum is interior and
agrees with the Young/Daly interval within one sweep step.
"""

from repro.experiments import GOODPUT_SWEEP_POINTS, goodput_interval
from repro.resilience import (
    Kill,
    log_spaced_intervals,
    simulate_goodput,
    sweep_checkpoint_interval,
    young_daly_interval,
)


def test_goodput_interval_sweep(show, goodput_1t):
    scenario, policy = goodput_1t
    result = goodput_interval()
    show(result)
    mtbf = scenario.cluster_mtbf_seconds
    sweep = sweep_checkpoint_interval(
        log_spaced_intervals(2.0 * policy.save_seconds, mtbf,
                             GOODPUT_SWEEP_POINTS),
        mtbf_seconds=mtbf,
        save_seconds=policy.save_seconds,
        load_seconds=policy.load_seconds,
        detection_seconds=policy.detector.expected_latency(),
    )
    # Interior optimum: the sweep brackets the U-shaped overhead curve.
    assert sweep.is_interior
    assert sweep.agrees_within_one_step
    optimum = result.columns.index("optimum")
    assert [row[optimum] for row in result.rows].count("<--") == 1


def test_goodput_replay(goodput_1t):
    scenario, policy = goodput_1t
    interval = max(1, round(young_daly_interval(
        scenario.cluster_mtbf_seconds, policy.save_seconds) / 108.0))
    kills = (Kill(at_iteration=150), Kill(at_iteration=400))
    report = simulate_goodput(108.0, 500, interval, policy, kills)
    assert report.num_failures == 2
    assert 0.0 < report.goodput < 1.0
    assert report.wall_clock_seconds == (
        report.useful_seconds + report.checkpoint_seconds
        + report.detection_seconds + report.load_seconds
        + report.lost_work_seconds
    )

"""Tests for the fault-injection / recovery / goodput subsystem."""

import math

import pytest

from repro.obs import chrome_trace, trace, validate_chrome_trace
from repro.resilience import (
    GoodputScenario,
    HeartbeatDetector,
    Kill,
    RestartPolicy,
    cluster_mtbf,
    expected_goodput,
    goodput_scenarios,
    log_spaced_intervals,
    simulate_goodput,
    sweep_checkpoint_interval,
    young_daly_interval,
)


class TestDetector:
    def test_expected_latency(self):
        d = HeartbeatDetector(heartbeat_interval=10.0, missed_heartbeats=3,
                              notification_latency=1.0)
        assert d.expected_latency() == 26.0

    def test_validation(self):
        with pytest.raises(ValueError, match="heartbeat_interval"):
            HeartbeatDetector(heartbeat_interval=0)
        with pytest.raises(ValueError, match="missed_heartbeats"):
            HeartbeatDetector(missed_heartbeats=0)
        with pytest.raises(ValueError, match="notification_latency"):
            HeartbeatDetector(notification_latency=-1)


class TestRecovery:
    def test_cluster_mtbf(self):
        assert cluster_mtbf(3600.0, 1) == 3600.0
        assert cluster_mtbf(3600.0, 360) == 10.0
        with pytest.raises(ValueError):
            cluster_mtbf(0.0, 4)
        with pytest.raises(ValueError):
            cluster_mtbf(3600.0, 0)

    def test_young_daly(self):
        # c* = sqrt(2 * save * MTBF): save=50s, MTBF=10000s -> 1000s.
        assert young_daly_interval(10_000.0, 50.0) == 1000.0
        with pytest.raises(ValueError):
            young_daly_interval(-1.0, 50.0)
        with pytest.raises(ValueError):
            young_daly_interval(10.0, 0.0)

    def test_young_daly_minimizes_expected_overhead(self):
        mtbf, save = 46_875.0, 51.7
        c_star = young_daly_interval(mtbf, save)
        best = expected_goodput(
            c_star, mtbf_seconds=mtbf, save_seconds=save, load_seconds=80.0
        )
        for c in (c_star * 0.7, c_star * 1.4):
            other = expected_goodput(
                c, mtbf_seconds=mtbf, save_seconds=save, load_seconds=80.0
            )
            assert best.goodput > other.goodput

    def test_policy_validation_and_io_pricing(self):
        with pytest.raises(ValueError, match="save_seconds"):
            RestartPolicy(save_seconds=0.0, load_seconds=1.0)
        with pytest.raises(ValueError, match="load_seconds"):
            RestartPolicy(save_seconds=1.0, load_seconds=-1.0)
        scenario = goodput_scenarios()["1t"]
        policy = RestartPolicy.from_io_model(
            scenario.model, scenario.parallel, scenario.num_nodes
        )
        # §5.10: 13.8 TB / 273 GB/s write ~ 50 s; all-replica load at
        # the 1 TB/s read peak ~ 83 s.
        assert policy.save_seconds == pytest.approx(50.6, rel=0.05)
        assert policy.load_seconds == pytest.approx(83.0, rel=0.05)
        assert young_daly_interval(46_875.0, policy.save_seconds) == (
            pytest.approx(math.sqrt(2 * policy.save_seconds * 46_875.0))
        )


class TestGoodputSimulation:
    def test_healthy_run(self):
        report = simulate_goodput(
            2.0, 10, 4, RestartPolicy(save_seconds=3.0, load_seconds=5.0)
        )
        assert report.useful_seconds == 20.0
        assert report.num_checkpoints == 2  # at 4 and 8; none at the end
        assert report.checkpoint_seconds == 6.0
        assert report.detection_seconds == 0.0
        assert report.load_seconds == 0.0
        assert report.lost_work_seconds == 0.0
        assert report.wall_clock_seconds == 26.0
        assert report.goodput == pytest.approx(20.0 / 26.0)
        assert report.num_failures == 0

    def test_two_failure_scenario_exact(self):
        """Hand-computed wall-clock: train + detect + load + recompute.

        10 iterations of 2 s, checkpoints every 4 (saves of 3 s at
        iterations 4 and 8), detector (6 s interval, 2 missed, 1 s
        notify) -> expected latency (2 - 0.5)*6 + 1 = 10 s exactly;
        load 5 s.  Failure at 6 loses iterations 5-6 (4 s); failure at
        9 loses iteration 9 (2 s).
        """
        detector = HeartbeatDetector(heartbeat_interval=6.0,
                                     missed_heartbeats=2,
                                     notification_latency=1.0)
        policy = RestartPolicy(save_seconds=3.0, load_seconds=5.0,
                               detector=detector)
        kills = (
            Kill(at_iteration=6, rank=3),
            Kill(at_iteration=9, rank=7),
        )
        report = simulate_goodput(2.0, 10, 4, policy, kills)
        assert report.useful_seconds == 20.0  # 10 iterations, once each
        assert report.checkpoint_seconds == 6.0  # saves at 4 and 8
        assert report.detection_seconds == 20.0  # 2 failures x 10 s
        assert report.load_seconds == 10.0  # 2 x 5 s
        assert report.lost_work_seconds == 6.0  # 4 s + 2 s re-run
        assert report.wall_clock_seconds == 62.0
        assert report.goodput == pytest.approx(20.0 / 62.0)
        e1, e2 = report.events
        assert (e1.at_iteration, e1.rank, e1.lost_iterations) == (6, 3, 2)
        assert e1.lost_work_seconds == 4.0
        assert e1.total_overhead_seconds == 19.0
        assert (e2.at_iteration, e2.rank, e2.lost_iterations) == (9, 7, 1)
        assert e2.lost_work_seconds == 2.0

    def test_failure_at_checkpoint_boundary_loses_nothing(self):
        policy = RestartPolicy(
            save_seconds=3.0, load_seconds=5.0,
            detector=HeartbeatDetector(heartbeat_interval=2.0,
                                       missed_heartbeats=1,
                                       notification_latency=0.0),
        )
        kills = (Kill(at_iteration=4),)
        report = simulate_goodput(2.0, 10, 4, policy, kills)
        # Checkpoint at 4 is written before the failure strikes.
        assert report.lost_work_seconds == 0.0
        assert report.events[0].lost_iterations == 0

    def test_failure_past_end_never_strikes(self):
        policy = RestartPolicy(save_seconds=3.0, load_seconds=5.0)
        kills = (Kill(at_iteration=10),)
        report = simulate_goodput(2.0, 10, 4, policy, kills)
        assert report.num_failures == 0

    def test_kills_strike_in_progress_order(self):
        policy = RestartPolicy(save_seconds=3.0, load_seconds=5.0)
        report = simulate_goodput(
            2.0, 10, 4, policy,
            (Kill(at_iteration=9, rank=7), Kill(at_iteration=6, rank=3)),
        )
        assert [(e.at_iteration, e.rank) for e in report.events] == [
            (6, 3), (9, 7)]

    def test_permanent_kill_is_rejected(self):
        """The model prices restarts, not reshards."""
        policy = RestartPolicy(save_seconds=1.0, load_seconds=1.0)
        with pytest.raises(ValueError, match="permanent"):
            simulate_goodput(1.0, 5, 1, policy,
                             (Kill(at_iteration=2, permanent=True),))

    def test_validation(self):
        policy = RestartPolicy(save_seconds=1.0, load_seconds=1.0)
        with pytest.raises(ValueError, match="total_iterations"):
            simulate_goodput(1.0, 0, 1, policy)
        with pytest.raises(ValueError, match="checkpoint_interval"):
            simulate_goodput(1.0, 5, 0, policy)
        with pytest.raises(ValueError, match="iteration_seconds"):
            simulate_goodput(0.0, 5, 1, policy)

    def test_traced_run_spans_match_report_exactly(self):
        detector = HeartbeatDetector(heartbeat_interval=6.0,
                                     missed_heartbeats=2,
                                     notification_latency=1.0)
        policy = RestartPolicy(save_seconds=3.0, load_seconds=5.0,
                               detector=detector)
        kills = (
            Kill(at_iteration=6), Kill(at_iteration=9),
        )
        # Awkward float iteration time so exactness is a real claim.
        with trace() as tracer:
            report = simulate_goodput(1.0 / 3.0, 10, 4, policy, kills)
        for phase, want in (
            ("resilience.checkpoint", report.checkpoint_seconds),
            ("resilience.detect", report.detection_seconds),
            ("resilience.load", report.load_seconds),
            ("resilience.lost-work", report.lost_work_seconds),
        ):
            assert tracer.counter_total("seconds", phase=phase) == want
        # Span geometry tiles the wall clock (up to float rounding).
        (run,) = [s for s in tracer.spans if s.phase == "resilience.run"]
        assert run.duration == pytest.approx(report.wall_clock_seconds)
        # The remaining spans tile the wall clock (lost-work spans
        # annotate re-run windows the train spans already cover).
        total_spanned = sum(
            s.duration for s in tracer.spans
            if s.phase not in ("resilience.run", "resilience.lost-work")
        )
        assert total_spanned == pytest.approx(report.wall_clock_seconds)
        # Metrics mirror the report.
        assert tracer.metrics.counter("resilience.failures").value == 2
        assert tracer.metrics.counter("resilience.checkpoints").value == 2
        assert tracer.metrics.gauge("resilience.goodput").value == \
            report.goodput
        validate_chrome_trace(chrome_trace(tracer))

    def test_untraced_equals_traced(self):
        policy = RestartPolicy(save_seconds=3.0, load_seconds=5.0)
        kills = (Kill(at_iteration=6),)
        bare = simulate_goodput(2.0, 10, 4, policy, kills)
        with trace():
            traced = simulate_goodput(2.0, 10, 4, policy, kills)
        assert bare == traced


class TestExpectedGoodputSweep:
    def test_sweep_agrees_with_young_daly(self):
        mtbf, save = 46_875.0, 51.7
        sweep = sweep_checkpoint_interval(
            log_spaced_intervals(2 * save, mtbf, 25),
            mtbf_seconds=mtbf, save_seconds=save, load_seconds=84.7,
            detection_seconds=26.0,
        )
        assert sweep.analytic_interval_seconds == pytest.approx(
            young_daly_interval(mtbf, save)
        )
        assert sweep.agrees_within_one_step
        assert sweep.is_interior

    def test_detect_load_do_not_shift_argmin(self):
        # The detect+load term is interval-independent: same argmax
        # index with or without it.
        mtbf, save = 10_000.0, 20.0
        grid = log_spaced_intervals(2 * save, mtbf, 31)
        with_io = sweep_checkpoint_interval(
            grid, mtbf_seconds=mtbf, save_seconds=save,
            load_seconds=500.0, detection_seconds=100.0,
        )
        without = sweep_checkpoint_interval(
            grid, mtbf_seconds=mtbf, save_seconds=save, load_seconds=0.0
        )
        assert with_io.best_index == without.best_index
        assert with_io.best.goodput < without.best.goodput

    def test_log_spaced_intervals(self):
        grid = log_spaced_intervals(10.0, 1000.0, 3)
        assert grid[0] == pytest.approx(10.0)
        assert grid[1] == pytest.approx(100.0)
        assert grid[2] == pytest.approx(1000.0)
        with pytest.raises(ValueError):
            log_spaced_intervals(10.0, 5.0, 3)
        with pytest.raises(ValueError):
            log_spaced_intervals(10.0, 100.0, 1)

    def test_scenarios(self):
        scenarios = goodput_scenarios()
        assert set(scenarios) == {"1t", "530b", "175b"}
        one_t = scenarios["1t"]
        assert one_t.num_nodes == 384
        assert one_t.parallel.world_size == 3072
        assert one_t.cluster_mtbf_seconds == pytest.approx(
            5000.0 * 3600.0 / 384
        )
        with pytest.raises(ValueError, match="num_nodes"):
            GoodputScenario(name="bad", num_nodes=0)
        with pytest.raises(ValueError, match="node_mtbf_hours"):
            GoodputScenario(name="bad", node_mtbf_hours=0.0)

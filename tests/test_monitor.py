"""Tests for repro.obs.monitor: the anomaly detectors, the monitor,
the ground-truth scoreboard, and the acceptance grid against the chaos
harness (every injected fault caught, no false alarms on a clean run).
"""

import io

import pytest

from repro.obs.metrics import MetricsRegistry
from repro.obs.monitor import (
    Alert,
    CheckpointHealthDetector,
    HeartbeatGapDetector,
    LossSpikeDetector,
    Monitor,
    QueueGrowthDetector,
    StragglerDetector,
    ThroughputCollapseDetector,
    render_dashboard,
    run_monitor,
    score_run,
    sparkline,
)
from repro.obs.runlog import RunLogger, parse_events, run_logging


def score_of(board, name):
    """One detector's row of a scoreboard."""
    (score,) = [s for s in board.scores if s.name == name]
    return score


def perfect(board):
    """Every detector caught every fault and raised nothing else."""
    return all(s.precision == 1.0 and s.recall == 1.0 for s in board.scores)


class Stream:
    """Builds synthetic event streams with auto seq numbers."""

    def __init__(self):
        self.seq = 0

    def ev(self, type, **fields):
        event = {"v": 1, "seq": self.seq, "t": float(self.seq),
                 "type": type}
        event.update(fields)
        self.seq += 1
        return event

    def iteration(self, iteration, **fields):
        return self.ev("iteration", iteration=iteration, **fields)


class TestLossSpikeDetector:
    def _feed(self, detector, losses):
        s = Stream()
        alerts = []
        for n, loss in enumerate(losses):
            alerts += detector.observe(s.iteration(n, loss=loss))
        return alerts

    def test_flat_training_is_quiet(self):
        alerts = self._feed(
            LossSpikeDetector(),
            [3.5 - 0.01 * n + 0.02 * (n % 3) for n in range(30)],
        )
        assert alerts == []

    def test_blowup_fires_critical(self):
        alerts = self._feed(LossSpikeDetector(), [2.0] * 8 + [200.0])
        (alert,) = alerts
        assert alert.detector == "loss-spike"
        assert alert.severity == "critical"
        assert alert.iteration == 8
        assert alert.evidence["z"] > 8.0

    def test_spike_kept_out_of_baseline(self):
        # Two consecutive blow-ups: the first must not widen the window
        # enough to mask the second.
        alerts = self._feed(LossSpikeDetector(), [2.0] * 8 + [200.0, 190.0])
        assert len(alerts) == 2

    def test_needs_min_points(self):
        assert LossSpikeDetector.MIN_POINTS == 4
        alerts = self._feed(LossSpikeDetector(), [2.0, 2.0, 2.0, 200.0])
        assert alerts == []  # window has 3 points, below the floor

    def test_missing_loss_ignored(self):
        detector = LossSpikeDetector()
        s = Stream()
        assert detector.observe(s.iteration(0, loss=None)) == []
        assert len(detector.window) == 0

    @pytest.mark.parametrize("kwargs", [
        {"window": 1}, {"z_threshold": 0.0},
    ])
    def test_validation(self, kwargs):
        # The thresholds are class constants inside the range the old
        # constructor enforced; none can be passed in.
        assert LossSpikeDetector.WINDOW >= 2
        assert LossSpikeDetector.Z_THRESHOLD > 0
        with pytest.raises(TypeError):
            LossSpikeDetector(**kwargs)


class TestThroughputCollapseDetector:
    def test_manifest_pins_expected_rate(self):
        detector = ThroughputCollapseDetector()
        s = Stream()
        detector.observe(s.ev("run-start", expected_tokens_per_s=1000.0))
        # One slow record is jitter, two consecutive are a collapse.
        assert detector.observe(s.iteration(0, tokens_per_s=400.0)) == []
        (alert,) = detector.observe(s.iteration(1, tokens_per_s=400.0))
        assert alert.severity == "critical"
        assert alert.evidence["expected"] == 1000.0

    def test_once_per_episode_then_rearms(self):
        detector = ThroughputCollapseDetector()
        s = Stream()
        detector.observe(s.ev("run-start", expected_tokens_per_s=1000.0))
        alerts = []
        for n, rate in enumerate([100.0, 100.0, 100.0,   # episode 1
                                  1000.0,                # recovery
                                  100.0, 100.0]):        # episode 2
            alerts += detector.observe(s.iteration(n, tokens_per_s=rate))
        assert len(alerts) == 2

    def test_self_calibrates_without_manifest(self):
        detector = ThroughputCollapseDetector()
        s = Stream()
        alerts = []
        for n, rate in enumerate([1000.0, 990.0, 1010.0, 100.0, 100.0]):
            alerts += detector.observe(s.iteration(n, tokens_per_s=rate))
        (alert,) = alerts
        assert alert.iteration == 4

    def test_slow_records_do_not_poison_baseline(self):
        detector = ThroughputCollapseDetector()
        s = Stream()
        for n, rate in enumerate([1000.0, 990.0, 1010.0, 100.0, 100.0]):
            detector.observe(s.iteration(n, tokens_per_s=rate))
        # Collapsed samples never enter the calibration window.
        assert all(v > 900 for v in detector.window)

    @pytest.mark.parametrize("kwargs", [
        {"collapse_fraction": 0.0}, {"collapse_fraction": 1.0},
        {"min_consecutive": 0},
    ])
    def test_validation(self, kwargs):
        assert 0 < ThroughputCollapseDetector.COLLAPSE_FRACTION < 1
        assert ThroughputCollapseDetector.CONSECUTIVE >= 1
        with pytest.raises(TypeError):
            ThroughputCollapseDetector(**kwargs)


class TestStragglerDetector:
    def _busy(self, slow_rank=None, factor=10.0):
        busy = {"0": 1.0, "1": 1.0, "2": 1.0, "3": 1.0}
        if slow_rank is not None:
            busy[str(slow_rank)] = factor
        return busy

    def test_persistent_skew_fires_once(self):
        detector = StragglerDetector()
        s = Stream()
        alerts = []
        for n in range(4):
            alerts += detector.observe(
                s.iteration(n, rank_busy=self._busy(slow_rank=2))
            )
        (alert,) = alerts  # fires on the 2nd record, then stays quiet
        assert alert.detector == "straggler"
        assert alert.severity == "warning"
        assert alert.evidence["rank"] == 2
        assert detector.stragglers == {2}

    def test_single_jittery_record_is_quiet(self):
        detector = StragglerDetector()
        s = Stream()
        assert detector.observe(
            s.iteration(0, rank_busy=self._busy(slow_rank=1))
        ) == []
        assert detector.observe(
            s.iteration(1, rank_busy=self._busy())
        ) == []
        assert detector.stragglers == set()

    def test_recovered_rank_rearms(self):
        detector = StragglerDetector()
        s = Stream()
        alerts = []
        pattern = [3, 3, None, 3, 3]  # skewed, healthy gap, skewed again
        for n, slow in enumerate(pattern):
            alerts += detector.observe(
                s.iteration(n, rank_busy=self._busy(slow_rank=slow))
            )
        assert len(alerts) == 2

    def test_needs_min_ranks(self):
        detector = StragglerDetector()
        s = Stream()
        assert detector.observe(
            s.iteration(0, rank_busy={"0": 99.0})
        ) == []

    @pytest.mark.parametrize("kwargs", [
        {"skew_threshold": 1.0}, {"min_consecutive": 0},
    ])
    def test_validation(self, kwargs):
        assert StragglerDetector.SKEW_THRESHOLD > 1
        assert StragglerDetector.CONSECUTIVE >= 1
        with pytest.raises(TypeError):
            StragglerDetector(**kwargs)


class TestHeartbeatGapDetector:
    def test_two_missed_rounds_declare_dead(self):
        detector = HeartbeatGapDetector()
        s = Stream()
        assert detector.observe(
            s.ev("heartbeat", ranks=[0, 1, 2, 3], iteration=0)
        ) == []
        assert detector.observe(
            s.ev("heartbeat", ranks=[1, 2, 3], iteration=1)
        ) == []  # one miss is not yet a death
        (alert,) = detector.observe(
            s.ev("heartbeat", ranks=[1, 2, 3], iteration=2)
        )
        assert alert.detector == "heartbeat-gap"
        assert alert.severity == "critical"
        assert alert.evidence["rank"] == 0
        # Declared once: further silent rounds stay quiet.
        assert detector.observe(
            s.ev("heartbeat", ranks=[1, 2, 3], iteration=3)
        ) == []

    def test_returning_rank_clears_the_count(self):
        detector = HeartbeatGapDetector()
        s = Stream()
        detector.observe(s.ev("heartbeat", ranks=[0, 1], iteration=0))
        detector.observe(s.ev("heartbeat", ranks=[1], iteration=1))
        detector.observe(s.ev("heartbeat", ranks=[0, 1], iteration=2))
        assert detector.observe(
            s.ev("heartbeat", ranks=[1], iteration=3)
        ) == []  # the count restarted; one miss again

    def test_recovery_resets_roster(self):
        detector = HeartbeatGapDetector()
        s = Stream()
        detector.observe(s.ev("heartbeat", ranks=[0, 1], iteration=0))
        detector.observe(s.ev("recovery", kind="reshard", iteration=0))
        # After a reshard the world legitimately shrinks: rank 0 gone
        # from the roster, no gap alert.
        assert detector.observe(
            s.ev("heartbeat", ranks=[1], iteration=1)
        ) == []
        assert detector.observe(
            s.ev("heartbeat", ranks=[1], iteration=2)
        ) == []

    def test_validation(self):
        assert HeartbeatGapDetector.CONSECUTIVE >= 1
        with pytest.raises(TypeError):
            HeartbeatGapDetector(missed_threshold=0)


class TestCheckpointHealthDetector:
    def test_save_retry_warns_once(self):
        detector = CheckpointHealthDetector()
        s = Stream()
        (alert,) = detector.observe(
            s.ev("recovery", kind="save-retry", iteration=2)
        )
        assert alert.severity == "warning"
        assert detector.observe(
            s.ev("recovery", kind="save-retry", iteration=2)
        ) == []  # deduped per (kind, iteration)

    def test_corrupted_skip_is_critical(self):
        detector = CheckpointHealthDetector()
        s = Stream()
        (alert,) = detector.observe(
            s.ev("recovery", kind="checkpoint-skipped", iteration=4)
        )
        assert alert.severity == "critical"
        assert "corrupted" in alert.message

    def test_other_recoveries_ignored(self):
        detector = CheckpointHealthDetector()
        s = Stream()
        assert detector.observe(
            s.ev("recovery", kind="restore", iteration=4)
        ) == []


class TestQueueGrowthDetector:
    def _feed(self, depths):
        detector = QueueGrowthDetector()
        s = Stream()
        alerts = []
        for n, waiting in enumerate(depths):
            alerts += detector.observe(s.iteration(n, waiting=waiting))
        return alerts

    def test_deep_non_decreasing_queue_fires_once(self):
        (alert,) = self._feed([6, 6, 7, 8, 8, 9])
        assert alert.iteration == 3  # the third non-decreasing tick
        assert alert.evidence == {"waiting": 8, "consecutive": 3}

    def test_shrinking_but_deep_queue_keeps_its_episode(self):
        # 9 -> 7 breaks the run but the queue never drained below
        # MIN_DEPTH: the same episode, no second alert.
        assert len(self._feed([6, 7, 8, 9, 7, 8, 9, 9, 9])) == 1

    def test_dip_below_min_depth_ends_the_episode(self):
        assert len(self._feed([6, 7, 8, 9, 2, 6, 7, 8, 9])) == 2


class TestAlert:
    def test_severity_validated(self):
        with pytest.raises(ValueError, match="severity"):
            Alert(detector="x", severity="mild", iteration=0, seq=0,
                  message="m")

    def test_describe_flags_criticals(self):
        critical = Alert(detector="x", severity="critical", iteration=3,
                         seq=9, message="boom")
        assert critical.describe().startswith("!!")
        warning = Alert(detector="x", severity="warning", iteration=3,
                        seq=9, message="meh")
        assert warning.describe().startswith(" !")


class TestMonitor:
    def test_histories_and_counters(self):
        s = Stream()
        monitor = run_monitor([
            s.ev("run-start", run_id="r", source="engine"),
            s.iteration(0, loss=2.0, tokens_per_s=100.0, mfu=0.4),
            s.iteration(1, loss=1.9, tokens_per_s=110.0, mfu=0.41),
            s.ev("checkpoint", iteration=1),
            s.ev("run-end", status="completed"),
        ])
        assert monitor.losses == [2.0, 1.9]
        assert monitor.tokens_per_s == [100.0, 110.0]
        assert monitor.iterations == 2
        assert monitor.checkpoints == 1
        assert monitor.status == "completed"
        assert monitor.manifest["run_id"] == "r"

    def _kill_stream(self):
        s = Stream()
        return [
            s.ev("run-start", run_id="r", source="chaos"),
            s.ev("heartbeat", ranks=[0, 1], iteration=0),
            s.ev("heartbeat", ranks=[1], iteration=1),
            s.ev("heartbeat", ranks=[1], iteration=2),
        ], s

    def test_ack_event_after_alert_acknowledges(self):
        events, s = self._kill_stream()
        events.append(s.ev("ack", detector="heartbeat-gap"))
        monitor = run_monitor(events)
        assert len(monitor.alerts) == 1
        assert monitor.unacknowledged_critical() == []

    def test_ack_event_before_alert_does_not(self):
        s = Stream()
        events = [
            s.ev("run-start", run_id="r", source="chaos"),
            s.ev("ack", detector="heartbeat-gap"),  # pre-emptive: void
            s.ev("heartbeat", ranks=[0, 1], iteration=0),
            s.ev("heartbeat", ranks=[1], iteration=1),
            s.ev("heartbeat", ranks=[1], iteration=2),
        ]
        monitor = run_monitor(events)
        assert len(monitor.unacknowledged_critical()) == 1

    def test_cli_side_extra_acks(self):
        events, _ = self._kill_stream()
        monitor = run_monitor(events)
        assert len(monitor.unacknowledged_critical()) == 1
        assert monitor.unacknowledged_critical({"heartbeat-gap"}) == []

    def test_rank_health_silent_then_ok(self):
        events, s = self._kill_stream()
        monitor = run_monitor(events)
        assert monitor.ranks[0].status == "silent"
        monitor.observe(s.ev("heartbeat", ranks=[0, 1], iteration=3))
        assert monitor.ranks[0].status == "ok"

    def test_live_observer_wiring(self):
        # The monitor works attached to a logger, seeing events as they
        # are written.
        monitor = Monitor()
        logger = RunLogger(io.StringIO(), "live", clock=lambda: 0.0,
                           observers=[monitor.observe])
        logger.start("engine")
        logger.iteration(0, 2.0, 0.5, tokens_per_s=50.0)
        assert monitor.events_seen == 2
        assert monitor.losses == [2.0]


class TestScoreRun:
    def _fault(self, s, kind, expect, iteration):
        return s.ev("fault", kind=kind, expect=expect,
                    iteration=iteration)

    def test_match_fault_to_later_alert(self):
        s = Stream()
        events = [
            s.ev("run-start", run_id="r", source="chaos"),
            self._fault(s, "kill", "heartbeat-gap", 3),
        ]
        alert = Alert(detector="heartbeat-gap", severity="critical",
                      iteration=4, seq=5, message="m",
                      evidence={"rank": 0})
        board = score_run(events, [alert])
        (score,) = board.scores
        assert (score.tp, score.fp, score.fn) == (1, 0, 0)
        assert score.latency_events == 5 - events[-1]["seq"]
        assert score.latency_iterations == 1
        assert perfect(board)

    def test_unmatched_alert_is_false_positive(self):
        s = Stream()
        events = [s.ev("run-start", run_id="r", source="chaos")]
        alert = Alert(detector="straggler", severity="warning",
                      iteration=2, seq=3, message="m")
        board = score_run(events, [alert])
        (score,) = board.scores
        assert (score.tp, score.fp, score.fn) == (0, 1, 0)
        assert score.precision == 0.0 and not perfect(board)

    def test_unmatched_fault_is_false_negative(self):
        s = Stream()
        events = [
            s.ev("run-start", run_id="r", source="chaos"),
            self._fault(s, "loss-spike", "loss-spike", 5),
        ]
        board = score_run(events, [])
        (score,) = board.scores
        assert (score.tp, score.fp, score.fn) == (0, 0, 1)
        assert score.recall == 0.0

    def test_alert_before_fault_cannot_match(self):
        s = Stream()
        alert = Alert(detector="loss-spike", severity="critical",
                      iteration=1, seq=1, message="early")
        events = [
            s.ev("run-start", run_id="r", source="chaos"),
            s.ev("iteration", iteration=1),
            self._fault(s, "loss-spike", "loss-spike", 5),
        ]
        board = score_run(events, [alert])
        (score,) = board.scores
        assert (score.tp, score.fp, score.fn) == (0, 1, 1)

    def test_greedy_matching_consumes_each_alert_once(self):
        s = Stream()
        events = [
            s.ev("run-start", run_id="r", source="chaos"),
            self._fault(s, "save-failure", "checkpoint", 2),
            self._fault(s, "corrupt-checkpoint", "checkpoint", 4),
        ]
        alerts = [
            Alert(detector="checkpoint", severity="warning", iteration=2,
                  seq=4, message="a"),
            Alert(detector="checkpoint", severity="critical", iteration=5,
                  seq=8, message="b"),
        ]
        board = score_run(events, alerts)
        (score,) = board.scores
        assert (score.tp, score.fp, score.fn) == (2, 0, 0)

    def test_publish_exports_metrics_schema(self):
        s = Stream()
        events = [
            s.ev("run-start", run_id="r", source="chaos"),
            self._fault(s, "kill", "heartbeat-gap", 3),
        ]
        alert = Alert(detector="heartbeat-gap", severity="critical",
                      iteration=4, seq=5, message="m")
        board = score_run(events, [alert])
        metrics = MetricsRegistry()
        board.publish(metrics)
        assert metrics.gauge("monitor.heartbeat-gap.recall").value == 1.0
        assert metrics.gauge("monitor.faults").value == 1
        assert "monitor.heartbeat-gap.precision" in metrics.as_dict()["gauges"]


class TestDashboard:
    def test_sparkline_shapes(self):
        assert sparkline([]) == "(no data)"
        assert sparkline([1.0, 1.0, 1.0]) == "▁▁▁"
        ramp = sparkline([float(n) for n in range(8)])
        assert ramp[0] == "▁" and ramp[-1] == "█"

    def test_sparkline_windows_to_width(self):
        assert len(sparkline([float(n) for n in range(100)], width=48)) == 48

    def test_render_mentions_run_and_alerts(self):
        s = Stream()
        monitor = run_monitor([
            s.ev("run-start", run_id="my-run", source="engine",
                 model={"layers": 2}, parallel={"p": 2}),
            s.iteration(0, loss=2.0, tokens_per_s=100.0, mfu=0.4,
                        rank_busy={"0": 0.1, "1": 0.1}),
        ])
        text = render_dashboard(monitor)
        assert "my-run" in text
        assert "layers=2" in text
        assert "loss" in text and "tokens/s" in text
        assert "r0:ok" in text
        assert "0 critical unacknowledged" in text


# ---------------------------------------------------------------------------
# acceptance: the seeded grid against the real chaos harness
# ---------------------------------------------------------------------------


from repro.config import ParallelConfig, tiny_test_model  # noqa: E402
from repro.resilience import (  # noqa: E402
    ChaosHarness,
    ChaosPlan,
    CorruptCheckpoint,
    Kill,
    LossSpike,
    SaveFailure,
    Stall,
)

GRID_CFG = tiny_test_model(num_layers=2, hidden_size=16,
                           num_attention_heads=4, vocab_size=32,
                           seq_length=8)

#: One fault per family, each mapping to exactly one expected alert.
#: The corruption hits the *newest* checkpoint before the kill so the
#: restore path must skip it (that is what makes bit-rot observable).
GRID_PLAN = ChaosPlan(
    kills=(Kill(at_iteration=5, rank=0),),
    corruptions=(CorruptCheckpoint(at_iteration=4),),
    save_failures=(SaveFailure(at_iteration=2),),
    loss_spikes=(LossSpike(at_iteration=7),),
    stalls=(Stall(at_iteration=6, seconds=5.0),
            Stall(at_iteration=2, seconds=5.0, rank=1)),
)


def run_chaos_with_log(tmp_path, plan, iterations=10):
    parallel = ParallelConfig(data_parallel_size=2, microbatch_size=1,
                              global_batch_size=4)
    harness = ChaosHarness(
        GRID_CFG, parallel, str(tmp_path), plan=plan,
        total_iterations=iterations, checkpoint_every=2, seed=0,
        sleep=lambda s: None,
    )
    buf = io.StringIO()
    logger = RunLogger(buf, "grid")
    logger.start("chaos")
    with run_logging(logger):
        harness.run()
    logger.end()
    return list(parse_events(buf.getvalue().splitlines()))


class TestAcceptanceGrid:
    def test_every_injected_fault_is_detected(self, tmp_path):
        events = run_chaos_with_log(tmp_path, GRID_PLAN)
        board = score_run(events)
        assert board.faults == 6
        by_kind = {e["kind"] for e in events if e["type"] == "fault"}
        assert by_kind == {"kill", "corrupt-checkpoint", "save-failure",
                           "loss-spike", "stall", "rank-stall"}
        # The acceptance bar: recall 1.0 for every detector.
        for score in board.scores:
            assert score.recall == 1.0, (
                f"{score.name} missed {score.fn} faults:\n"
                + board.describe()
            )
        assert sum(s.fn for s in board.scores) == 0
        # The injection-driven detectors must not mis-fire either; the
        # wall-clock ones (straggler, throughput) are debounced and
        # covered by the clean-run test below.
        for name in ("heartbeat-gap", "checkpoint", "loss-spike"):
            assert score_of(board, name).fp == 0, board.describe()

    def test_detection_is_online_and_prompt(self, tmp_path):
        events = run_chaos_with_log(tmp_path, GRID_PLAN)
        board = score_run(events)
        # Every detector fires within the same run, a bounded number of
        # events after its fault (a kill leaves two silent heartbeat
        # rounds; nothing should take more than one recovery
        # cycle worth of events).
        for score in board.scores:
            assert 0 <= score.latency_events <= 40, board.describe()

    def test_clean_run_raises_no_alerts(self, tmp_path):
        events = run_chaos_with_log(tmp_path, ChaosPlan(), iterations=8)
        monitor = run_monitor(events)
        assert monitor.alerts == [], [a.describe() for a in monitor.alerts]
        assert monitor.iterations == 8
        assert monitor.faults_injected == 0
        board = score_run(events, monitor.alerts)
        assert perfect(board) and board.faults == 0

    def test_detectors_never_read_ground_truth(self, tmp_path):
        # Scrubbing the fault events from the log must not change what
        # the detectors fire: they see only telemetry.
        events = run_chaos_with_log(tmp_path, GRID_PLAN)
        scrubbed = [e for e in events if e["type"] != "fault"]
        full = run_monitor(events)
        blind = run_monitor(scrubbed)
        assert full.alerts == blind.alerts

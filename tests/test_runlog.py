"""Tests for repro.obs.runlog: the event log, the registry, the
active-logger stack, and the trainer/simulator emitters."""

import io
import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.obs.monitor import run_monitor, score_run
from repro.obs.runlog import (
    EVENT_TYPES,
    RUNLOG_SCHEMA_VERSION,
    RunLogError,
    RunLogger,
    RunRegistry,
    current_run_logger,
    manifest_of,
    parse_events,
    read_events,
    run_logging,
)


def make_logger(clock=None):
    buf = io.StringIO()
    ticks = iter(range(10_000))
    return RunLogger(
        buf, "run-x", clock=clock or (lambda: float(next(ticks)))
    ), buf


class TestRunLogger:
    def test_events_carry_schema_seq_and_time(self):
        logger, buf = make_logger()
        logger.start("engine")
        logger.iteration(0, 1.5, 0.25, tokens_per_s=100.0)
        logger.end()
        events = list(parse_events(buf.getvalue().splitlines()))
        assert [e["type"] for e in events] == [
            "run-start", "iteration", "run-end"
        ]
        assert [e["seq"] for e in events] == [0, 1, 2]
        assert all(e["v"] == RUNLOG_SCHEMA_VERSION for e in events)
        assert events[0]["t"] == 0.0 and events[2]["t"] == 2.0

    def test_manifest_must_come_first(self):
        logger, _ = make_logger()
        logger.heartbeat([0, 1], 0)
        with pytest.raises(RunLogError, match="first event"):
            logger.start("engine")

    def test_unknown_event_type_rejected(self):
        logger, _ = make_logger()
        assert "explosion" not in EVENT_TYPES
        with pytest.raises(RunLogError, match="unknown"):
            logger.emit("explosion")

    def test_log_is_sealed_after_end(self):
        logger, _ = make_logger()
        logger.start("engine")
        logger.end()
        with pytest.raises(RunLogError, match="sealed"):
            logger.heartbeat([0], 0)

    def test_iteration_accepts_missing_loss(self):
        logger, buf = make_logger()
        logger.start("sim")
        logger.iteration(0, None, 0.5)
        (event,) = [e for e in parse_events(buf.getvalue().splitlines())
                    if e["type"] == "iteration"]
        assert event["loss"] is None

    def test_rank_busy_keys_stringified_for_json(self):
        logger, buf = make_logger()
        logger.start("engine")
        logger.iteration(0, 1.0, 0.5, rank_busy={3: 0.25, 1: 0.5})
        (event,) = [e for e in parse_events(buf.getvalue().splitlines())
                    if e["type"] == "iteration"]
        assert event["rank_busy"] == {"3": 0.25, "1": 0.5}

    def test_observers_see_every_event(self):
        logger, _ = make_logger()
        seen = []
        logger.observers.append(seen.append)
        logger.start("engine")
        logger.heartbeat([0], 0)
        assert [e["type"] for e in seen] == ["run-start", "heartbeat"]

    def test_every_event_flushed_per_line(self):
        logger, buf = make_logger()
        logger.start("engine")
        logger.heartbeat([0, 1], 0)
        # Tail-ability: both events already parse mid-run, no end needed.
        assert len(list(parse_events(buf.getvalue().splitlines()))) == 2

    def test_fault_records_expected_detector(self):
        logger, buf = make_logger()
        logger.start("chaos")
        logger.fault("kill", 3, expect="heartbeat-gap", rank=1)
        (event,) = [e for e in parse_events(buf.getvalue().splitlines())
                    if e["type"] == "fault"]
        assert event["expect"] == "heartbeat-gap" and event["rank"] == 1


class TestParseEvents:
    def test_tolerates_trailing_partial_line(self):
        logger, buf = make_logger()
        logger.start("engine")
        logger.heartbeat([0], 0)
        text = buf.getvalue() + '{"v": 1, "seq": 2, "type": "iterat'
        events = list(parse_events(text.splitlines()))
        assert [e["type"] for e in events] == ["run-start", "heartbeat"]

    def test_midstream_corruption_raises(self):
        logger, buf = make_logger()
        logger.start("engine")
        lines = buf.getvalue().splitlines() + ["{garbage"]
        logger.heartbeat([0], 0)
        lines += buf.getvalue().splitlines()[-1:]
        with pytest.raises(RunLogError, match="corrupt"):
            list(parse_events(lines))

    def test_wrong_schema_version_refused(self):
        line = json.dumps({"v": 999, "seq": 0, "t": 0.0,
                           "type": "run-start"})
        with pytest.raises(RunLogError, match="version"):
            list(parse_events([line]))

    def test_non_object_event_raises(self):
        with pytest.raises(RunLogError, match="objects"):
            list(parse_events(['[1, 2, 3]']))

    def test_manifest_of_headerless_log_is_empty(self):
        assert manifest_of([{"type": "heartbeat"}]) == {}

    def test_unknown_type_refused_by_seq(self):
        line = json.dumps({"v": 1, "seq": 7, "t": 0.0, "type": "nope"})
        with pytest.raises(RunLogError, match="seq 7: unknown type 'nope'"):
            list(parse_events([line]))

    def test_heartbeat_without_ranks_names_seq_and_field(self):
        line = json.dumps({"v": 1, "seq": 3, "t": 0.0, "type": "heartbeat",
                           "iteration": 0})
        with pytest.raises(RunLogError, match="seq 3: heartbeat lacks field "
                                              "'ranks'"):
            list(parse_events([line]))

    def test_iteration_without_iteration_names_seq_and_field(self):
        line = json.dumps({"v": 1, "seq": 4, "t": 0.0, "type": "iteration",
                           "loss": 1.0})
        with pytest.raises(RunLogError, match="seq 4: iteration lacks field "
                                              "'iteration'"):
            list(parse_events([line]))

    def test_wrong_value_names_seq_and_field(self):
        line = json.dumps({"v": 1, "seq": 5, "t": 0.0, "type": "iteration",
                           "iteration": 0, "rank_busy": {"r0": 1.0}})
        with pytest.raises(RunLogError, match="seq 5: iteration field "
                                              "'rank_busy'"):
            list(parse_events([line]))


#: Any JSON value, nested a little.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats()
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=6,
)

#: Values shaped like the ones a real log holds, so that events often
#: get past the first check and reach the detectors.
PLAUSIBLE = (st.integers(-2, 40) | st.floats(-1e3, 1e3) | st.none()
             | st.sampled_from(["r0", "r1", "arrive", "first-token",
                                "preempt", "timeout", "restore",
                                "save-retry", "checkpoint-skipped",
                                "heartbeat-gap"])
             | st.lists(st.integers(0, 4), max_size=4)
             | st.dictionaries(st.sampled_from(["0", "1", "2", "x"]),
                               st.floats(0, 10) | st.text(max_size=2),
                               max_size=3))

FIELD_NAMES = ["iteration", "loss", "tokens_per_s", "mfu", "rank_busy",
               "waiting", "ranks", "kind", "expect", "detail", "phase",
               "request_id", "step", "detector", "status", "model",
               "parallel", "expected_tokens_per_s", "t"]

EVENTS = st.builds(
    lambda head, body: {**body, **head},
    st.fixed_dictionaries({
        "v": st.just(RUNLOG_SCHEMA_VERSION) | JSON_VALUES,
        "seq": st.integers(0, 50) | JSON_VALUES,
        "type": st.sampled_from(EVENT_TYPES) | JSON_VALUES,
    }),
    st.dictionaries(st.sampled_from(FIELD_NAMES), PLAUSIBLE | JSON_VALUES,
                    max_size=6),
) | JSON_VALUES


class TestReaderProperty:
    """Whatever JSON a run log holds, reading and monitoring it either
    works or raises RunLogError -- never a KeyError or a TypeError from
    inside a detector."""

    @settings(max_examples=400, deadline=None)
    @given(events=st.lists(EVENTS, max_size=12))
    def test_any_json_monitors_or_raises_a_run_log_error(self, events):
        lines = [json.dumps(e) for e in events]
        try:
            parsed = list(parse_events(lines))
        except RunLogError:
            return
        monitor = run_monitor(parsed)
        score_run(parsed, monitor.alerts)


class TestRunRegistry:
    def test_create_advances_latest_and_lists(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        ticks = iter(range(100))
        for n in range(3):
            logger, fh = registry.create(
                "engine", run_id=f"run-{n}",
                clock=lambda: float(next(ticks)),
            )
            with fh:
                logger.start("engine")
                logger.end()
        assert registry.latest() == "run-2"
        infos = registry.list()
        assert [i.run_id for i in infos] == ["run-0", "run-1", "run-2"]
        assert all(i.status == "completed" for i in infos)
        assert all(i.source == "engine" for i in infos)

    def test_unfinished_run_listed_as_running(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        logger, fh = registry.create("chaos", run_id="live")
        with fh:
            logger.start("chaos")
        (info,) = registry.list()
        assert info.status == "running"

    def test_events_path_missing_run_raises(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        with pytest.raises(RunLogError, match="no run"):
            registry.events_path("ghost")

    def test_gc_keeps_newest_and_latest(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        ticks = iter(range(100))
        for n in range(4):
            logger, fh = registry.create(
                "engine", run_id=f"run-{n}",
                clock=lambda: float(next(ticks)),
            )
            with fh:
                logger.start("engine")
                logger.end()
        dropped = registry.gc(keep_last=2)
        assert dropped == ["run-0", "run-1"]
        assert [i.run_id for i in registry.list()] == ["run-2", "run-3"]
        assert registry.latest() == "run-3"

    def test_gc_validates_keep_last(self, tmp_path):
        with pytest.raises(ValueError, match="keep_last"):
            RunRegistry(str(tmp_path)).gc(0)

    def test_read_events_roundtrip_on_disk(self, tmp_path):
        registry = RunRegistry(str(tmp_path))
        logger, fh = registry.create("engine", run_id="disk")
        with fh:
            logger.start("engine")
            logger.iteration(0, 2.0, 0.1)
            logger.end()
        events = read_events(registry.events_path("disk"))
        assert [e["type"] for e in events] == [
            "run-start", "iteration", "run-end"
        ]


class TestActiveStack:
    def test_no_logger_by_default(self):
        assert current_run_logger() is None

    def test_nesting_and_pop_by_identity(self):
        a, _ = make_logger()
        b, _ = make_logger()
        with run_logging(a):
            assert current_run_logger() is a
            with run_logging(b):
                assert current_run_logger() is b
            assert current_run_logger() is a
        assert current_run_logger() is None

    def test_exception_safe(self):
        a, _ = make_logger()
        with pytest.raises(RuntimeError):
            with run_logging(a):
                raise RuntimeError("boom")
        assert current_run_logger() is None


class TestTrainerEmitter:
    def _run(self, iterations=2):
        from repro.config import ParallelConfig, tiny_test_model
        from repro.parallel import PTDTrainer

        config = tiny_test_model()
        parallel = ParallelConfig(
            pipeline_parallel_size=1, data_parallel_size=2,
            microbatch_size=1, global_batch_size=4,
        )
        trainer = PTDTrainer(config, parallel)
        rng = np.random.default_rng(0)
        shape = (4, config.seq_length)
        logger, buf = make_logger()
        logger.start("engine")
        with run_logging(logger):
            for _ in range(iterations):
                trainer.train_step(
                    rng.integers(0, config.vocab_size, size=shape),
                    rng.integers(0, config.vocab_size, size=shape),
                )
        return list(parse_events(buf.getvalue().splitlines())), parallel

    def test_one_heartbeat_and_iteration_per_step(self):
        events, parallel = self._run(iterations=3)
        beats = [e for e in events if e["type"] == "heartbeat"]
        iters = [e for e in events if e["type"] == "iteration"]
        assert len(beats) == 3 and len(iters) == 3
        assert [e["iteration"] for e in iters] == [0, 1, 2]
        assert beats[0]["ranks"] == list(range(parallel.world_size))

    def test_iteration_record_fields(self):
        events, parallel = self._run(iterations=1)
        (it,) = [e for e in events if e["type"] == "iteration"]
        assert it["loss"] > 0 and it["seconds"] > 0
        assert it["tokens_per_s"] > 0 and 0 < it["mfu"] < 1
        # One busy-time sample per data-parallel replica.
        assert sorted(it["rank_busy"]) == [
            str(r) for r in range(parallel.data_parallel_size)
        ]

    def test_no_logger_means_no_emission(self):
        # The hot path without a logger must not touch any stream.
        from repro.config import ParallelConfig, tiny_test_model
        from repro.parallel import PTDTrainer

        config = tiny_test_model()
        parallel = ParallelConfig(microbatch_size=1, global_batch_size=2)
        trainer = PTDTrainer(config, parallel)
        rng = np.random.default_rng(0)
        shape = (2, config.seq_length)
        assert current_run_logger() is None
        trainer.train_step(
            rng.integers(0, config.vocab_size, size=shape),
            rng.integers(0, config.vocab_size, size=shape),
        )  # simply must not raise


class TestSimulatorEmitter:
    def test_sim_emits_iteration_with_per_stage_busy(self):
        from repro.config import ParallelConfig, tiny_test_model
        from repro.sim import simulate_iteration

        config = tiny_test_model()
        parallel = ParallelConfig(
            pipeline_parallel_size=2, microbatch_size=1,
            global_batch_size=4,
        )
        logger, buf = make_logger()
        logger.start("sim")
        with run_logging(logger):
            res = simulate_iteration(config, parallel)
        events = list(parse_events(buf.getvalue().splitlines()))
        (it,) = [e for e in events if e["type"] == "iteration"]
        assert it["loss"] is None
        assert it["seconds"] == res.iteration_time
        assert len(it["rank_busy"]) == parallel.pipeline_parallel_size
        beats = [e for e in events if e["type"] == "heartbeat"]
        assert beats and beats[0]["ranks"] == list(
            range(parallel.world_size)
        )

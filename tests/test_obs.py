"""Tests for the unified observability subsystem (repro.obs).

Covers the span nesting invariants, the zero-overhead no-op path, the
Chrome-trace exporter's schema, the metrics registry, the adapter
shims, and the headline guarantee: an end-to-end trace of a
(p=2, t=2, d=2) iteration whose byte and FLOP totals equal the
TrafficLog / FlopMeter ground truth exactly.
"""

import itertools
import json

import numpy as np
import pytest

from repro.comm import TrafficKind, TrafficLog
from repro.config import ParallelConfig, tiny_test_model
from repro.nn.profiler import count_flops, record_gemm_flops
from repro.obs import (
    GLOBAL_RANK,
    MetricsRegistry,
    Tracer,
    chrome_trace,
    current_tracer,
    metrics_json,
    phase_summary,
    span,
    trace,
    validate_chrome_trace,
    write_chrome_trace,
)


def by_phase(tracer, phase):
    """The tracer's spans of one phase, in recording order."""
    return [s for s in tracer.spans if s.phase == phase]


def ticker():
    """Deterministic clock: 0, 1, 2, ..."""
    return itertools.count().__next__


class TestSpanNesting:
    def test_depth_and_lifo(self):
        t = Tracer(clock=ticker())
        with t.span("outer", phase="a") as outer:
            assert outer.depth == 0
            with t.span("inner", phase="b") as inner:
                assert inner.depth == 1
        assert outer.start <= inner.start <= inner.end <= outer.end

    def test_out_of_order_close_raises(self):
        t = Tracer(clock=ticker())
        a = t.begin("a")
        t.begin("b")
        with pytest.raises(RuntimeError, match="innermost"):
            t.end(a)

    def test_exception_closes_span(self):
        t = Tracer(clock=ticker())
        with pytest.raises(ValueError):
            with t.span("doomed"):
                raise ValueError("boom")
        assert t.spans[0].closed

    def test_explicit_times(self):
        t = Tracer()
        s = t.add_span("op", phase="forward", rank=3, start=1.5, end=2.5,
                       stage=1)
        assert s.duration == 1.0 and s.rank == 3
        assert s.counters["stage"] == 1
        with pytest.raises(ValueError, match="end"):
            t.add_span("bad", phase="x", rank=0, start=2.0, end=1.0)

    def test_counters_accumulate(self):
        t = Tracer(clock=ticker())
        with t.span("s", bytes=10) as s:
            s.add_counter("bytes", 5)
        assert s.counters["bytes"] == 15

    def test_first_event_is_time_zero(self):
        t = Tracer(clock=iter([100.0, 101.0]).__next__)
        with t.span("s") as s:
            pass
        assert s.start == 0.0 and s.end == 1.0


class TestActiveTracerStack:
    def test_no_tracer_is_noop(self):
        assert current_tracer() is None
        with span("anything", phase="x") as s:
            assert s is None

    def test_no_tracer_builds_no_context_manager(self):
        """Off, every ``span()`` is one shared object, and it nests."""
        outer = span("a")
        assert span("b", phase="y", rank=3, bytes=8) is outer
        with outer as a, span("c") as c:
            assert a is None and c is None

    def test_trace_activates_and_pops(self):
        with trace(clock=ticker()) as t:
            assert current_tracer() is t
            with span("op", phase="forward", rank=1):
                pass
        assert current_tracer() is None
        assert len(t) == 1
        assert t.spans[0].rank == 1

    def test_nested_tracers_both_record(self):
        with trace(clock=ticker()) as outer:
            with trace(clock=ticker()) as inner:
                log = TrafficLog()
                log.add(0, 1, 64, TrafficKind.DATA_PARALLEL)
        for t in (outer, inner):
            assert t.metrics.counter_value("comm.bytes.dp") == 64

    def test_traffic_log_untraced_still_works(self):
        log = TrafficLog()
        log.add(0, 1, 128, TrafficKind.TENSOR_PARALLEL)
        assert log.total_bytes() == 128


class TestMetrics:
    def test_counter_monotonic(self):
        reg = MetricsRegistry()
        reg.counter("a").inc(3)
        reg.counter("a").inc()
        assert reg.counter_value("a") == 4
        with pytest.raises(ValueError):
            reg.counter("a").inc(-1)

    def test_gauge_and_histogram(self):
        reg = MetricsRegistry()
        reg.gauge("g").set(2.5)
        for v in [1.0, 2.0, 3.0, 4.0]:
            reg.histogram("h").observe(v)
        h = reg.histogram("h")
        assert h.count == 4 and h.mean == 2.5
        assert h.min == 1.0 and h.max == 4.0
        assert h.percentile(0) == 1.0 and h.percentile(100) == 4.0
        d = reg.as_dict()
        assert d["gauges"]["g"] == 2.5
        assert d["histograms"]["h"]["count"] == 4

    def test_missing_counter_reads_zero(self):
        assert MetricsRegistry().counter_value("nope") == 0.0

    def test_json_round_trip(self):
        with trace(clock=ticker()) as t:
            t.metrics.counter("x").inc(5)
        assert json.loads(metrics_json(t))["counters"]["x"] == 5


class TestAdapters:
    def test_flop_adapter_feeds_spans_and_metrics(self):
        with trace(clock=ticker()) as t:
            with span("op", phase="forward"):
                record_gemm_flops("attention", 1000)
        assert t.metrics.counter_value("flops.attention") == 1000
        assert t.counter_total("flops", phase="forward") == 1000

    def test_flops_outside_spans_hit_metrics_only(self):
        with trace(clock=ticker()) as t:
            record_gemm_flops("linear", 42)
        assert t.metrics.counter_value("flops.total") == 42
        assert t.counter_total("flops") == 0

    def test_adapter_does_not_leak_after_trace(self):
        with trace(clock=ticker()):
            pass
        with count_flops() as meter:
            record_gemm_flops("linear", 10)
        assert meter.total_flops == 10


class TestChromeTraceExport:
    def _traced(self):
        with trace(clock=ticker()) as t:
            with span("iteration", phase="iteration"):
                with span("F0", phase="forward", rank=0, bytes=10):
                    pass
                with span("B0", phase="backward", rank=1):
                    pass
        return t

    def test_schema_valid(self):
        obj = chrome_trace(self._traced())
        validate_chrome_trace(obj)
        json.dumps(obj)  # serializable

    def test_sorted_complete_events(self):
        events = chrome_trace(self._traced())["traceEvents"]
        xs = [e for e in events if e["ph"] == "X"]
        assert xs == sorted(xs, key=lambda e: e["ts"])
        assert all(e["dur"] >= 0 for e in xs)

    def test_one_track_per_rank_plus_global(self):
        events = chrome_trace(self._traced())["traceEvents"]
        names = {e["args"]["name"] for e in events
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names == {"global", "rank 0", "rank 1"}

    def test_counters_in_args(self):
        events = chrome_trace(self._traced())["traceEvents"]
        f0 = next(e for e in events if e.get("name") == "F0")
        assert f0["args"]["bytes"] == 10
        assert f0["args"]["phase"] == "forward"

    def test_open_span_rejected(self):
        t = Tracer(clock=ticker())
        t.begin("never-closed")
        with pytest.raises(ValueError, match="open"):
            chrome_trace(t)

    def test_write_file(self, tmp_path):
        path = tmp_path / "trace.json"
        write_chrome_trace(self._traced(), str(path))
        validate_chrome_trace(json.loads(path.read_text()))

    def test_phase_summary_totals(self):
        out = phase_summary(self._traced())
        assert "forward" in out and "backward" in out
        assert "10" in out  # the bytes column


CFG = tiny_test_model(num_layers=4, hidden_size=16, num_attention_heads=4,
                      vocab_size=32, seq_length=8)
PTD = ParallelConfig(
    pipeline_parallel_size=2,
    tensor_parallel_size=2,
    data_parallel_size=2,
    microbatch_size=1,
    global_batch_size=4,
)


def batch(B, seed=0):
    r = np.random.default_rng(seed)
    return (
        r.integers(0, CFG.vocab_size, size=(B, CFG.seq_length)),
        r.integers(0, CFG.vocab_size, size=(B, CFG.seq_length)),
    )


class TestEndToEndEngineTrace:
    """The acceptance trace: one (p=2, t=2, d=2) numeric iteration."""

    @pytest.fixture(scope="class")
    def traced_run(self):
        from repro.parallel import PTDTrainer

        ids, targets = batch(PTD.global_batch_size)
        with trace() as tracer, count_flops() as meter:
            trainer = PTDTrainer(CFG, PTD)
            trainer.train_step(ids, targets)
        return tracer, meter, trainer

    def test_span_bytes_equal_traffic_log(self, traced_run):
        tracer, _, trainer = traced_run
        assert tracer.counter_total("bytes") == trainer.log.total_bytes()

    def test_per_kind_bytes_equal_traffic_log(self, traced_run):
        tracer, _, trainer = traced_run
        for kind in TrafficKind:
            assert (
                tracer.metrics.counter_value(f"comm.bytes.{kind.value}")
                == trainer.log.total_bytes(kind)
            ), kind

    def test_span_flops_equal_flop_meter(self, traced_run):
        tracer, meter, _ = traced_run
        assert tracer.counter_total("flops") == meter.total_flops > 0

    def test_every_op_traced(self, traced_run):
        tracer, _, _ = traced_run
        d, m = PTD.d, PTD.num_microbatches
        p, v = PTD.p, PTD.v
        assert len(by_phase(tracer, "forward")) == d * p * v * m
        assert len(by_phase(tracer, "backward")) == d * p * v * m
        assert len(by_phase(tracer, "optimizer")) == 1
        # one per phase of the gradient ring, the optimizer between them
        assert len(by_phase(tracer, "grad-allreduce")) == (2 if d > 1 else 0)

    def test_chrome_export_valid(self, traced_run):
        tracer, _, _ = traced_run
        validate_chrome_trace(chrome_trace(tracer))

    def test_op_spans_on_pipeline_rank_tracks(self, traced_run):
        tracer, _, trainer = traced_run
        op_ranks = {s.rank for s in by_phase(tracer, "forward")}
        want = {
            r
            for replica in trainer.replicas
            for r in replica.pipeline_ranks
        }
        assert op_ranks == want

    def test_op_spans_carry_identity(self, traced_run):
        tracer, _, _ = traced_run
        for s in by_phase(tracer, "forward"):
            assert {"microbatch", "chunk", "stage"} <= set(s.counters)

    def test_phase_spans_nest_ops(self, traced_run):
        tracer, _, _ = traced_run
        (it,) = by_phase(tracer, "iteration")
        assert it.rank == GLOBAL_RANK
        for s in tracer.spans:
            if s is not it:
                assert it.start <= s.start and s.end <= it.end


class TestSimulatorTrace:
    def test_sim_spans_match_result(self):
        from repro.sim import SimOptions, simulate_iteration

        model = tiny_test_model(num_layers=4, hidden_size=64,
                                num_attention_heads=4, vocab_size=128,
                                seq_length=32)
        par = ParallelConfig(
            pipeline_parallel_size=2, tensor_parallel_size=1,
            data_parallel_size=2, microbatch_size=1, global_batch_size=8,
        )
        with trace() as tracer:
            res = simulate_iteration(model, par,
                                     options=SimOptions(schedule_name="1f1b"))
        m = par.num_microbatches
        fwd = by_phase(tracer, "forward")
        bwd = by_phase(tracer, "backward")
        assert len(fwd) == len(bwd) == par.p * par.v * m
        pipeline_end = max(s.end for s in fwd + bwd)
        assert pipeline_end == pytest.approx(res.pipeline_time)
        (it,) = by_phase(tracer, "iteration")
        assert it.end == pytest.approx(res.iteration_time)
        validate_chrome_trace(chrome_trace(tracer))

    def test_sim_without_tracer_collects_nothing(self):
        from repro.sim import simulate_iteration

        model = tiny_test_model(num_layers=2, hidden_size=64,
                                num_attention_heads=4, vocab_size=128,
                                seq_length=32)
        par = ParallelConfig(
            pipeline_parallel_size=2, tensor_parallel_size=1,
            data_parallel_size=1, microbatch_size=1, global_batch_size=4,
        )
        res = simulate_iteration(model, par)
        assert res.extras["timeline"] is None


class TestSimTimedOp:
    def test_timeline_windows_carry_identity(self):
        from repro.schedule import OpKind, resolve
        from repro.sim import SimOptions, SimTimedOp, simulate_iteration

        model = tiny_test_model(num_layers=4, hidden_size=64,
                                num_attention_heads=4, vocab_size=128,
                                seq_length=32)
        par = ParallelConfig(
            pipeline_parallel_size=2, tensor_parallel_size=1,
            data_parallel_size=1, microbatch_size=1, global_batch_size=4,
        )
        res = simulate_iteration(
            model, par, options=SimOptions(collect_timeline=True)
        )
        windows = res.extras["timeline"]
        sched = res.extras["pipeline_schedule"]
        assert windows and all(isinstance(w, SimTimedOp) for w in windows)
        for w in windows:
            assert w.kind in (OpKind.FORWARD, OpKind.BACKWARD)
            assert w.stage == resolve(sched, w.rank, w.op).stage
            assert 0 <= w.microbatch < par.num_microbatches
            assert w.comm_time >= 0
            assert w.end > w.start


class TestScheduleExecutorTrace:
    def test_simulate_times_emits_simulated_spans(self):
        from repro.schedule import make_schedule, simulate_times

        sched = make_schedule("1f1b", 2, 4, 1)
        with trace() as tracer:
            tl = simulate_times(sched)
        assert len(tracer) == 2 * 2 * 4  # F+B per rank per microbatch
        assert max(s.end for s in tracer.spans) == tl.makespan

    def test_execute_spans_use_span_ranks(self):
        from repro.schedule import make_schedule
        from repro.schedule.execution import execute

        sched = make_schedule("1f1b", 2, 2, 1)
        with trace(clock=ticker()) as tracer:
            execute(sched, lambda rank, op: None, span_ranks=[10, 20])
        assert {s.rank for s in tracer.spans} == {10, 20}

    def test_validate_does_not_emit_spans(self):
        from repro.schedule import make_schedule
        from repro.schedule.execution import execute

        sched = make_schedule("1f1b", 2, 2, 1)
        with trace(clock=ticker()) as tracer:
            execute(sched)  # no handler: dependency validation only
        assert len(tracer) == 0


class TestHistogramContract:
    def test_empty_percentile_raises(self):
        h = MetricsRegistry().histogram("h")
        with pytest.raises(ValueError, match="empty histogram"):
            h.percentile(50)

    def test_empty_summary_has_no_order_statistics(self):
        h = MetricsRegistry().histogram("h")
        assert h.summary() == {"count": 0, "sum": 0.0}

    def test_summary_order_statistics(self):
        h = MetricsRegistry().histogram("h")
        for v in range(1, 11):
            h.observe(float(v))
        s = h.summary()
        assert s["min"] == 1.0 and s["max"] == 10.0
        assert s["p10"] == 2.0 and s["p90"] == 10.0
        assert s["p50"] == 6.0
        assert s["mean"] == 5.5

    def test_bad_quantile_rejected(self):
        h = MetricsRegistry().histogram("h")
        h.observe(1.0)
        with pytest.raises(ValueError, match="0, 100"):
            h.percentile(101)


class TestCounterSamples:
    def test_explicit_time_series(self):
        t = Tracer()
        t.sample("mem.bytes", 10.0, rank=0, t=0.0)
        t.sample("mem.bytes", 20.0, rank=0, t=1.0)
        t.sample("mem.bytes", 5.0, rank=1, t=0.5)
        series = [s for s in t.samples if s.rank == 0]
        assert [(s.t, s.value) for s in series] == [(0.0, 10.0), (1.0, 20.0)]
        assert len(t.samples) == 3
        # Last value mirrors into the gauge for point queries.
        assert t.metrics.gauge("mem.bytes").value == 5.0

    def test_live_samples_share_span_epoch(self):
        with trace(clock=ticker()) as t:
            with span("iteration"):
                t.sample("mfu", 0.5)
        (s,) = t.samples
        it = t.spans[0]
        assert it.start <= s.t <= it.end


class TestCounterEventExport:
    def _traced(self):
        with trace(clock=ticker()) as t:
            with span("iteration", phase="iteration", rank=0):
                pass
            t.sample("mem.bytes", 7.0, rank=0, t=0.5)
            t.sample("mfu", 0.4, t=2.0)
        return t

    def test_counter_events_time_ordered(self):
        from repro.obs import counter_events
        t = Tracer()
        t.sample("a", 1.0, t=2.0)
        t.sample("a", 2.0, t=1.0)
        t.sample("b", 3.0, t=1.0)
        events = counter_events(t)
        assert [e["ts"] for e in events] == [1e6, 1e6, 2e6]
        assert all(e["ph"] == "C" for e in events)
        assert events[0]["args"] == {"value": 2.0}

    def test_chrome_trace_merges_spans_and_counters(self):
        obj = chrome_trace(self._traced())
        validate_chrome_trace(obj)
        events = obj["traceEvents"]
        phs = {e["ph"] for e in events}
        assert phs == {"M", "X", "C"}
        timed = [e for e in events if e["ph"] in ("X", "C")]
        assert timed == sorted(timed, key=lambda e: e["ts"])
        # The sample on rank 0 shares the rank-0 track (tid).
        mem = next(e for e in events if e.get("name") == "mem.bytes")
        it = next(e for e in events if e.get("name") == "iteration")
        assert mem["tid"] == it["tid"]

    def test_sample_only_rank_gets_a_track(self):
        t = Tracer()
        t.sample("mem", 1.0, rank=5, t=0.0)
        obj = chrome_trace(t)
        validate_chrome_trace(obj)
        names = {e["args"]["name"] for e in obj["traceEvents"]
                 if e["ph"] == "M" and e["name"] == "thread_name"}
        assert names == {"rank 5"}

    def test_validator_rejects_bad_counter_events(self):
        base = chrome_trace(self._traced())

        def with_extra(extra):
            obj = json.loads(json.dumps(base))
            obj["traceEvents"].append(extra)
            return obj

        tid = next(e["tid"] for e in base["traceEvents"]
                   if e["ph"] == "M" and e["name"] == "thread_name")
        ts = base["traceEvents"][-1]["ts"] + 1
        ok = {"name": "c", "ph": "C", "pid": 0, "tid": tid, "ts": ts,
              "args": {"value": 1.0}}
        validate_chrome_trace(with_extra(ok))
        with pytest.raises(ValueError, match="non-empty dict"):
            validate_chrome_trace(with_extra({**ok, "args": {}}))
        with pytest.raises(ValueError, match="must be numeric"):
            validate_chrome_trace(with_extra({**ok, "args": {"v": True}}))
        with pytest.raises(ValueError, match="must be numeric"):
            validate_chrome_trace(with_extra({**ok, "args": {"v": "hi"}}))
        with pytest.raises(ValueError, match="not sorted"):
            validate_chrome_trace(with_extra({**ok, "ts": -1.0}))
        with pytest.raises(ValueError, match="unexpected event phase"):
            validate_chrome_trace(with_extra({**ok, "ph": "Q"}))

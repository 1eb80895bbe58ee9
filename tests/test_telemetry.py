"""Tests for the Table-1 accounting (repro.obs.metrics.report_iteration).

The acceptance bar: the MFU the trainer and the simulator publish
agrees with the analytic eq. (3) FLOP model — the same
``config.flops_per_iteration`` integer the repro.verify conservation
check pins — and the tracer and the run log carry the very same
numbers, so Table-1 style numbers are derived from one source of truth.
"""

import io

import numpy as np
import pytest

from repro.config import ParallelConfig, tiny_test_model
from repro.config.presets import TABLE1_ROWS
from repro.hardware import a100_80gb
from repro.obs import GLOBAL_RANK, Tracer, report_iteration, trace
from repro.obs.runlog import RunLogger, parse_events, run_logging
from repro.parallel import PTDTrainer
from repro.perf.memory import (
    MODEL_STATE_BYTES_PER_PARAM,
    MODEL_STATE_SPLIT,
    parameters_per_rank,
)
from repro.sim import SimOptions, simulate_iteration

CONFIG = tiny_test_model()
PARALLEL = ParallelConfig(
    pipeline_parallel_size=1, tensor_parallel_size=1,
    data_parallel_size=2, microbatch_size=1, global_batch_size=4,
)


def _traced(seconds=2.0, peak=312e12, with_recompute=True):
    tracer = Tracer()
    report_iteration(tracer, None, CONFIG, PARALLEL, seconds,
                     peak_flops=peak, with_recompute=with_recompute,
                     iteration=0, t=1.0)
    return tracer


class TestThroughputReport:
    def test_table1_arithmetic(self):
        g = _traced().metrics.as_dict()["gauges"]
        flops = CONFIG.flops_per_iteration(4, with_recompute=True)
        assert g["throughput.tokens_per_s"] == 4 * CONFIG.seq_length / 2.0
        assert g["throughput.tflops_per_gpu"] == flops / 2 / 2.0 / 1e12
        assert g["throughput.mfu"] == (flops / 2 / 2.0) / 312e12

    def test_validation(self):
        with pytest.raises(ValueError, match="seconds"):
            _traced(seconds=0.0)
        with pytest.raises(ValueError, match="peak_flops"):
            _traced(peak=-1.0)

    def test_publish_gauges(self):
        tracer = _traced()
        assert list(tracer.metrics.gauges) == [
            "throughput.iteration_seconds", "throughput.tokens_per_s",
            "throughput.tflops_per_gpu", "throughput.mfu",
            "throughput.model_flops", "throughput.num_gpus",
            "throughput.peak_flops",
        ]
        g = tracer.metrics.as_dict()["gauges"]
        assert g["throughput.iteration_seconds"] == 2.0
        assert g["throughput.num_gpus"] == 2.0
        assert g["throughput.peak_flops"] == 312e12

    def test_throughput_report_uses_eq3_flops(self):
        for recompute in (True, False):
            g = _traced(with_recompute=recompute).metrics.as_dict()["gauges"]
            assert g["throughput.model_flops"] == float(
                CONFIG.flops_per_iteration(4, with_recompute=recompute)
            )

    def test_sample_throughput_emits_counter_series(self):
        tracer = _traced()
        assert [(s.name, s.rank, s.t) for s in tracer.samples] == [
            ("throughput.mfu", GLOBAL_RANK, 1.0),
            ("throughput.tflops_per_gpu", GLOBAL_RANK, 1.0),
            ("throughput.tokens_per_s", GLOBAL_RANK, 1.0),
        ]
        g = tracer.metrics.as_dict()["gauges"]
        assert tracer.samples[0].value == g["throughput.mfu"]

    def test_run_log_only(self):
        buf = io.StringIO()
        logger = RunLogger(buf, "run-x", clock=lambda: 0.0)
        report_iteration(None, logger, CONFIG, PARALLEL, 2.0,
                         peak_flops=312e12, with_recompute=True,
                         iteration=3, loss=1.5, grad_norm=0.5,
                         rank_busy={0: 1.0, 1: 1.5})
        beat, record = parse_events(buf.getvalue().splitlines())
        assert beat["ranks"] == [0, 1] and beat["iteration"] == 3
        g = _traced().metrics.as_dict()["gauges"]
        assert record["tokens_per_s"] == g["throughput.tokens_per_s"]
        assert record["mfu"] == g["throughput.mfu"]
        assert (record["iteration"], record["loss"], record["seconds"],
                record["grad_norm"]) == (3, 1.5, 2.0, 0.5)
        assert record["rank_busy"] == {"0": 1.0, "1": 1.5}


class TestTrainerTelemetry:
    def test_trainer_mfu_agrees_with_analytic_model(self):
        config = tiny_test_model(num_layers=4, hidden_size=32,
                                 num_attention_heads=4, vocab_size=64,
                                 seq_length=16)
        parallel = ParallelConfig(
            pipeline_parallel_size=2, tensor_parallel_size=1,
            data_parallel_size=2, microbatch_size=1, global_batch_size=4,
        )
        rng = np.random.default_rng(0)
        shape = (4, config.seq_length)
        ids = rng.integers(0, 64, size=shape)
        targets = rng.integers(0, 64, size=shape)
        trainer = PTDTrainer(config, parallel)
        with trace() as tracer:
            trainer.train_step(ids, targets)
        g = tracer.metrics.as_dict()["gauges"]
        flops = config.flops_per_iteration(
            4, with_recompute=trainer.recompute_activations
        )
        seconds = g["throughput.iteration_seconds"]
        assert seconds > 0
        # MFU and TFLOP/s re-derive exactly from the published pieces.
        expected_tflops = flops / parallel.world_size / seconds / 1e12
        assert g["throughput.model_flops"] == float(flops)
        assert g["throughput.tflops_per_gpu"] == pytest.approx(
            expected_tflops, rel=1e-12
        )
        assert g["throughput.mfu"] == pytest.approx(
            expected_tflops * 1e12 / a100_80gb().peak_flops, rel=1e-12
        )
        # ...and the memory gauges carry the 16-bytes/param split.
        assert g["mem.weights.bytes"] == g["mem.gradients.bytes"]
        assert g["mem.optimizer.bytes"] == 6 * g["mem.weights.bytes"]

    def test_no_tracer_no_telemetry_cost(self):
        config = tiny_test_model()
        parallel = ParallelConfig(
            pipeline_parallel_size=1, tensor_parallel_size=1,
            data_parallel_size=1, microbatch_size=1, global_batch_size=1,
        )
        trainer = PTDTrainer(config, parallel)
        rng = np.random.default_rng(0)
        shape = (1, config.seq_length)
        ids = rng.integers(0, config.vocab_size, size=shape)
        targets = rng.integers(0, config.vocab_size, size=shape)
        # Just runs: the telemetry hook must be inert without a tracer.
        trainer.train_step(ids, targets)


class TestSimTelemetry:
    def test_sim_mfu_matches_result_exactly(self):
        row = TABLE1_ROWS[6]  # the 145.6B configuration
        with trace() as tracer:
            res = simulate_iteration(row.model, row.parallel,
                                     options=SimOptions(schedule_name="1f1b"))
        g = tracer.metrics.as_dict()["gauges"]
        assert g["throughput.mfu"] == res.peak_fraction
        assert g["throughput.tflops_per_gpu"] == res.tflops_per_gpu
        assert g["throughput.iteration_seconds"] == res.iteration_time
        # Table 1 cross-check: within 10% of the paper's reported value.
        assert res.tflops_per_gpu == pytest.approx(
            row.reported_tflops_per_gpu, rel=0.10
        )

    def test_sim_memory_sawtooth_returns_to_zero(self):
        row = TABLE1_ROWS[0]
        with trace() as tracer:
            simulate_iteration(row.model, row.parallel,
                               options=SimOptions(schedule_name="1f1b"))
        ranks = {s.rank for s in tracer.samples
                 if s.name == "mem.activations.bytes"}
        assert ranks, "no activation-memory samples emitted"
        for r in sorted(ranks):
            series = [s for s in tracer.samples
                      if s.name == "mem.activations.bytes" and s.rank == r]
            values = [s.value for s in series]
            assert values[0] == 0.0          # before the first forward
            assert max(values) > 0.0         # stashes grow mid-iteration
            assert values[-1] == 0.0         # all freed by the last backward
            # Samples are time-ordered (end-of-window timestamps).
            times = [s.t for s in series]
            assert times == sorted(times)

    def test_sim_model_state_gauges_constant(self):
        row = TABLE1_ROWS[0]
        with trace() as tracer:
            simulate_iteration(row.model, row.parallel,
                               options=SimOptions(schedule_name="1f1b"))
        for name in ("mem.weights.bytes", "mem.gradients.bytes",
                     "mem.optimizer.bytes"):
            values = {s.value for s in tracer.samples if s.name == name}
            assert len(values) == 1  # model state doesn't sawtooth


class TestMemoryBreakdown:
    def test_sixteen_bytes_per_parameter(self):
        assert MODEL_STATE_SPLIT == (
            ("weights", 2), ("gradients", 2), ("optimizer", 12)
        )
        assert MODEL_STATE_BYTES_PER_PARAM == 16

    def test_sample_memory_series(self):
        row = TABLE1_ROWS[0]
        with trace() as tracer:
            simulate_iteration(row.model, row.parallel,
                               options=SimOptions(schedule_name="1f1b"))
        params = parameters_per_rank(row.model, row.parallel)
        first = [s for s in tracer.samples
                 if s.name.startswith("mem.") and s.t == 0.0]
        ranks = sorted({s.rank for s in first})
        assert ranks and GLOBAL_RANK not in ranks
        for r in ranks:
            by_name = {s.name: s.value for s in first if s.rank == r}
            assert by_name == {
                "mem.weights.bytes": 2.0 * params,
                "mem.gradients.bytes": 2.0 * params,
                "mem.optimizer.bytes": 12.0 * params,
                "mem.activations.bytes": 0.0,
            }


def _run_logged(run):
    """Run ``run()`` traced and run-logged; the tracer and the one
    ``iteration`` record it logged."""
    buf = io.StringIO()
    with trace() as tracer, run_logging(RunLogger(buf, "run-x")):
        run()
    (record,) = [e for e in parse_events(buf.getvalue().splitlines())
                 if e["type"] == "iteration"]
    return tracer, record


class TestOneReport:
    """The run log's ``iteration`` record and the tracer's gauges carry
    the same tokens/s and MFU, bit for bit."""

    def _assert_same(self, tracer, record):
        g = tracer.metrics.as_dict()["gauges"]
        assert record["tokens_per_s"] == g["throughput.tokens_per_s"]
        assert record["mfu"] == g["throughput.mfu"]
        assert record["seconds"] == g["throughput.iteration_seconds"]

    @pytest.mark.parametrize("backend", ["coop", "mp"])
    def test_trainer_step(self, backend):
        config = tiny_test_model(num_layers=4, hidden_size=32,
                                 num_attention_heads=4, vocab_size=64,
                                 seq_length=16)
        parallel = ParallelConfig(
            pipeline_parallel_size=2, tensor_parallel_size=1,
            data_parallel_size=2, microbatch_size=1, global_batch_size=4,
        )
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 64, size=(4, 16))
        targets = rng.integers(0, 64, size=(4, 16))
        with PTDTrainer(config, parallel, backend=backend) as trainer:
            tracer, record = _run_logged(
                lambda: trainer.train_step(ids, targets)
            )
        self._assert_same(tracer, record)
        assert record["grad_norm"] == trainer.last_grad_norm

    def test_simulated_iteration(self):
        row = TABLE1_ROWS[0]
        tracer, record = _run_logged(lambda: simulate_iteration(
            row.model, row.parallel, options=SimOptions(schedule_name="1f1b")
        ))
        self._assert_same(tracer, record)

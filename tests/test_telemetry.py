"""Tests for throughput/MFU telemetry (repro.obs.telemetry).

The acceptance bar: the MFU the trainer and the simulator publish
agrees with the analytic eq. (3) FLOP model — the same
``config.flops_per_iteration`` integer the repro.verify conservation
check pins — so Table-1 style numbers are derived from one source of
truth.
"""

import numpy as np
import pytest

from repro.config import ParallelConfig, tiny_test_model
from repro.config.presets import TABLE1_ROWS
from repro.hardware import a100_80gb
from repro.obs import MetricsRegistry, Tracer, trace
from repro.obs.telemetry import (
    MemoryBreakdown,
    ThroughputReport,
    sample_memory,
    sample_throughput,
    throughput_report,
)
from repro.parallel import PTDTrainer
from repro.sim import SimOptions, simulate_iteration


def _report(seconds=2.0, flops=4_000_000_000_000, num_gpus=4,
            batch=8, seq=1024, peak=312e12):
    return ThroughputReport(seconds=seconds, flops=flops, num_gpus=num_gpus,
                            global_batch_size=batch, seq_length=seq,
                            peak_flops=peak)


class TestThroughputReport:
    def test_table1_arithmetic(self):
        rep = _report()
        assert rep.tokens_per_second == 8 * 1024 / 2.0
        assert rep.tflops_per_gpu == 4e12 / 4 / 2.0 / 1e12  # 0.5 TFLOP/s
        assert rep.mfu == (4e12 / 4 / 2.0) / 312e12

    def test_validation(self):
        with pytest.raises(ValueError, match="seconds"):
            _report(seconds=0.0)
        with pytest.raises(ValueError, match="num_gpus"):
            _report(num_gpus=0)
        with pytest.raises(ValueError, match="peak_flops"):
            _report(peak=-1.0)

    def test_publish_gauges(self):
        reg = MetricsRegistry()
        rep = _report()
        rep.publish(reg)
        d = reg.as_dict()["gauges"]
        assert d["throughput.mfu"] == rep.mfu
        assert d["throughput.tflops_per_gpu"] == rep.tflops_per_gpu
        assert d["throughput.tokens_per_s"] == rep.tokens_per_second
        assert d["throughput.model_flops"] == float(rep.flops)

    def test_throughput_report_uses_eq3_flops(self):
        config = tiny_test_model()
        parallel = ParallelConfig(
            pipeline_parallel_size=1, tensor_parallel_size=1,
            data_parallel_size=2, microbatch_size=1, global_batch_size=4,
        )
        rep = throughput_report(config, parallel, 1.5,
                                peak_flops=a100_80gb().peak_flops)
        assert rep.flops == config.flops_per_iteration(4, with_recompute=True)
        assert rep.num_gpus == parallel.world_size

    def test_sample_throughput_emits_counter_series(self):
        tracer = Tracer()
        sample_throughput(tracer, _report(), t=1.0)
        names = {s.name for s in tracer.samples}
        assert names == {"throughput.mfu", "throughput.tflops_per_gpu",
                         "throughput.tokens_per_s"}
        assert tracer.metrics.gauge("throughput.mfu").value == _report().mfu


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
        b = MemoryBreakdown(parameters=1000)
        assert b.weight_bytes == 2000
        assert b.gradient_bytes == 2000
        assert b.optimizer_bytes == 12000
        assert b.weight_bytes + b.gradient_bytes + b.optimizer_bytes == 16000

    def test_sample_memory_series(self):
        tracer = Tracer()
        sample_memory(tracer, MemoryBreakdown(parameters=10),
                      activation_bytes=7, rank=2, t=0.5)
        by_name = {s.name: s for s in tracer.samples if s.rank == 2}
        assert by_name["mem.activations.bytes"].value == 7.0
        assert by_name["mem.weights.bytes"].t == 0.5

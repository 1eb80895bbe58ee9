"""First-class throughput telemetry: tokens/s, TFLOP/s-per-GPU, MFU.

The paper's Table 1 reports achieved teraFLOP/s per GPU and the
fraction of the A100's 312 teraFLOP/s peak — 52% for the 1T-parameter
configuration.  This module computes exactly that accounting from any
measured or simulated iteration time:

    tflops_per_gpu = flops_per_iteration / n / seconds / 1e12
    mfu            = achieved_flops_per_gpu / peak_flops

``flops_per_iteration`` is the eq. (3) closed form from
:meth:`repro.config.GPTConfig.flops_per_iteration` — the same integer
the ``repro.verify`` FLOP-conservation check validates against the
FlopMeter, so trainer MFU, simulator MFU, and the analytic model are
all derived from one number.

Both :class:`~repro.parallel.trainer.PTDTrainer` and
:func:`~repro.sim.trainer_sim.simulate_iteration` publish a
:class:`ThroughputReport` into the active tracer's
:class:`~repro.obs.metrics.MetricsRegistry` under ``throughput.*``
gauges and as counter samples (Chrome ``ph: "C"``), so MFU renders as
a timeline next to the spans in Perfetto.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import GPTConfig, ParallelConfig

from .metrics import MetricsRegistry
from .tracer import GLOBAL_RANK, Tracer


@dataclass(frozen=True)
class ThroughputReport:
    """One iteration's throughput accounting (Table 1 metrics)."""

    seconds: float
    flops: int           # eq. (3) model FLOPs for the global batch
    num_gpus: int
    global_batch_size: int
    seq_length: int
    peak_flops: float    # per-GPU hardware peak (flop/s)

    def __post_init__(self) -> None:
        if self.seconds <= 0:
            raise ValueError(f"seconds must be > 0, got {self.seconds}")
        if self.num_gpus < 1:
            raise ValueError(f"num_gpus must be >= 1, got {self.num_gpus}")
        if self.peak_flops <= 0:
            raise ValueError(f"peak_flops must be > 0, got {self.peak_flops}")

    @property
    def tokens_per_second(self) -> float:
        return self.global_batch_size * self.seq_length / self.seconds

    @property
    def flops_per_second_per_gpu(self) -> float:
        return self.flops / self.num_gpus / self.seconds

    @property
    def tflops_per_gpu(self) -> float:
        """Achieved model TFLOP/s per GPU — the paper's Table 1 column."""
        return self.flops_per_second_per_gpu / 1e12

    @property
    def mfu(self) -> float:
        """Model FLOPs utilization: achieved / peak, in [0, ...)."""
        return self.flops_per_second_per_gpu / self.peak_flops

    def publish(self, metrics: MetricsRegistry) -> None:
        """Export the report as ``throughput.*`` gauges."""
        metrics.gauge("throughput.iteration_seconds").set(self.seconds)
        metrics.gauge("throughput.tokens_per_s").set(self.tokens_per_second)
        metrics.gauge("throughput.tflops_per_gpu").set(self.tflops_per_gpu)
        metrics.gauge("throughput.mfu").set(self.mfu)
        metrics.gauge("throughput.model_flops").set(float(self.flops))
        metrics.gauge("throughput.num_gpus").set(float(self.num_gpus))
        metrics.gauge("throughput.peak_flops").set(self.peak_flops)


def throughput_report(
    config: GPTConfig,
    parallel: ParallelConfig,
    seconds: float,
    *,
    peak_flops: float,
    with_recompute: bool = True,
) -> ThroughputReport:
    """Build the Table-1 accounting for one iteration of ``config``."""
    return ThroughputReport(
        seconds=seconds,
        flops=config.flops_per_iteration(
            parallel.global_batch_size, with_recompute=with_recompute
        ),
        num_gpus=parallel.world_size,
        global_batch_size=parallel.global_batch_size,
        seq_length=config.seq_length,
        peak_flops=peak_flops,
    )


def sample_throughput(tracer: Tracer, report: ThroughputReport,
                      t: float | None = None) -> None:
    """Publish gauges *and* drop timeline counter samples at ``t``."""
    report.publish(tracer.metrics)
    for name, value in (
        ("throughput.mfu", report.mfu),
        ("throughput.tflops_per_gpu", report.tflops_per_gpu),
        ("throughput.tokens_per_s", report.tokens_per_second),
    ):
        tracer.sample(name, value, rank=GLOBAL_RANK, t=t)


@dataclass(frozen=True)
class MemoryBreakdown:
    """Per-GPU model-state bytes split the way dashboards want them.

    Derived from the §3.3 mixed-precision accounting (16 bytes per
    parameter): fp16 weights (2) + fp16 gradients (2) + fp32 master
    weights and Adam moments (12).
    """

    parameters: int

    @property
    def weight_bytes(self) -> int:
        return 2 * self.parameters

    @property
    def gradient_bytes(self) -> int:
        return 2 * self.parameters

    @property
    def optimizer_bytes(self) -> int:
        return 12 * self.parameters


def sample_memory(tracer: Tracer, breakdown: MemoryBreakdown,
                  activation_bytes: int, rank: int = GLOBAL_RANK,
                  t: float | None = None) -> None:
    """Drop one set of ``mem.*`` counter samples (bytes) at time
    ``t``."""
    tracer.sample("mem.weights.bytes", breakdown.weight_bytes,
                  rank=rank, t=t)
    tracer.sample("mem.gradients.bytes", breakdown.gradient_bytes,
                  rank=rank, t=t)
    tracer.sample("mem.optimizer.bytes", breakdown.optimizer_bytes,
                  rank=rank, t=t)
    tracer.sample("mem.activations.bytes", activation_bytes,
                  rank=rank, t=t)

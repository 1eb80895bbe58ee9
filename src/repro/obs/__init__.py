"""Unified observability: tracing, metrics, and exporters.

``repro.obs`` is the single place where the system's three measurement
streams meet:

- **spans** — structured, nestable ``(rank, phase, name, start, end)``
  intervals from the schedule executor, the comm primitives, the
  trainers, and the simulator (:mod:`repro.obs.tracer`);
- **metrics** — counters/gauges/histograms in a
  :class:`~repro.obs.metrics.MetricsRegistry`, fed by the
  :class:`~repro.nn.profiler.FlopMeter` and
  :class:`~repro.comm.traffic.TrafficLog` adapters
  (:mod:`repro.obs.adapters`, which :func:`trace` installs; it is the
  package's one path to :mod:`repro.nn` and numpy, so it is not
  imported here);
- **exports** — Chrome ``trace_event`` JSON (Perfetto /
  chrome://tracing), a flat phase-summary table, and a metrics dump
  (:mod:`repro.obs.export`), surfaced by ``python -m repro trace``.

Activate with ``with trace() as tracer: ...``; when no tracer is
active every instrumentation hook short-circuits on an empty list.
"""

from .monitor import (
    Alert,
    CheckpointHealthDetector,
    Detector,
    DetectorScore,
    HeartbeatGapDetector,
    LossSpikeDetector,
    Monitor,
    PreemptionStormDetector,
    QueueGrowthDetector,
    Scoreboard,
    StragglerDetector,
    ThroughputCollapseDetector,
    TtftSloDetector,
    render_dashboard,
    run_monitor,
    score_run,
    sparkline,
)
from .runlog import (
    RUNLOG_SCHEMA_VERSION,
    RunInfo,
    RunLogError,
    RunLogger,
    RunRegistry,
    current_run_logger,
    manifest_of,
    parse_events,
    read_events,
    run_logging,
)
from .export import (
    chrome_trace,
    chrome_trace_events,
    counter_events,
    metrics_json,
    phase_summary,
    validate_chrome_trace,
    write_chrome_trace,
    write_metrics,
)
from .metrics import Counter, Gauge, Histogram, MetricsRegistry
from .profile import (
    ProfileReport,
    RankProfile,
    SpanStat,
    folded_stacks,
    profile_tracer,
    write_folded,
)
from .telemetry import (
    MemoryBreakdown,
    ThroughputReport,
    sample_memory,
    sample_throughput,
    throughput_report,
)
from .tracer import (
    GLOBAL_RANK,
    CounterSample,
    Span,
    Tracer,
    current_tracer,
    record_transfer,
    span,
    trace,
)

__all__ = [
    "GLOBAL_RANK",
    "CounterSample",
    "Span",
    "Tracer",
    "trace",
    "span",
    "current_tracer",
    "record_transfer",
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "chrome_trace",
    "chrome_trace_events",
    "counter_events",
    "write_chrome_trace",
    "phase_summary",
    "metrics_json",
    "write_metrics",
    "validate_chrome_trace",
    "ProfileReport",
    "RankProfile",
    "SpanStat",
    "profile_tracer",
    "folded_stacks",
    "write_folded",
    "ThroughputReport",
    "MemoryBreakdown",
    "throughput_report",
    "sample_throughput",
    "sample_memory",
    "RUNLOG_SCHEMA_VERSION",
    "RunLogger",
    "RunLogError",
    "RunRegistry",
    "RunInfo",
    "current_run_logger",
    "run_logging",
    "read_events",
    "parse_events",
    "manifest_of",
    "Alert",
    "Detector",
    "LossSpikeDetector",
    "ThroughputCollapseDetector",
    "StragglerDetector",
    "HeartbeatGapDetector",
    "CheckpointHealthDetector",
    "QueueGrowthDetector",
    "TtftSloDetector",
    "PreemptionStormDetector",
    "Monitor",
    "run_monitor",
    "Scoreboard",
    "DetectorScore",
    "score_run",
    "render_dashboard",
    "sparkline",
]

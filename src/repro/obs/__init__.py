"""Unified observability: tracing, metrics, and exporters.

``repro.obs`` is the single place where the system's three measurement
streams meet:

- **spans** — structured, nestable ``(rank, phase, name, start, end)``
  intervals from the schedule executor, the comm primitives, the
  trainers, and the simulator (:mod:`repro.obs.tracer`);
- **metrics** — counters/gauges/histograms in a
  :class:`~repro.obs.metrics.MetricsRegistry`, fed by the running byte
  and FLOP totals that :class:`~repro.comm.traffic.TrafficLog` and
  :func:`~repro.nn.profiler.record_gemm_flops` add into (read by
  difference when a trace exits), and by
  :func:`~repro.obs.metrics.report_iteration`,
  an iteration's one Table-1 accounting (tokens/s, Tflop/s per GPU,
  MFU), which the run log's ``iteration`` record shares;
- **exports** — Chrome ``trace_event`` JSON (Perfetto /
  chrome://tracing), a flat phase-summary table, and a metrics dump
  (:mod:`repro.obs.export`), surfaced by ``python -m repro trace``.

Activate with ``with trace() as tracer: ...``; when no tracer is
active every ``span()`` short-circuits on an empty list.

The names below resolve on first use (:func:`repro.lazy_exports`):
``from repro.obs.tracer import span``, which every instrumented module
runs, loads the tracer and the metrics registry, not the monitor, the
run log, the exporters or the profiler.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "tracer": "GLOBAL_RANK CounterSample Span Tracer trace span "
              "current_tracer",
    "metrics": "Counter Gauge Histogram MetricsRegistry report_iteration",
    "export": "chrome_trace chrome_trace_events counter_events "
              "write_chrome_trace phase_summary metrics_json write_metrics "
              "validate_chrome_trace",
    "profile": "ProfileReport RankProfile SpanStat profile_tracer "
               "folded_stacks write_folded",
    "runlog": "RUNLOG_SCHEMA_VERSION RunLogger RunLogError RunRegistry "
              "RunInfo current_run_logger run_logging read_events "
              "parse_events manifest_of",
    "monitor": "Alert Detector LossSpikeDetector ThroughputCollapseDetector "
               "StragglerDetector HeartbeatGapDetector "
               "CheckpointHealthDetector QueueGrowthDetector "
               "TtftSloDetector PreemptionStormDetector Monitor run_monitor "
               "Scoreboard DetectorScore score_run render_dashboard "
               "sparkline",
})

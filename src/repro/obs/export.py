"""Trace and metrics exporters.

Three output formats, all derived from one :class:`~repro.obs.tracer.Tracer`:

- **Chrome trace** (:func:`chrome_trace`, :func:`write_chrome_trace`):
  the ``trace_event`` JSON format loadable in Perfetto or
  chrome://tracing.  Every span becomes one complete (``"ph": "X"``)
  event; virtual ranks map to one track (tid) each, cluster-wide phases
  (:data:`~repro.obs.tracer.GLOBAL_RANK`) to a dedicated ``global``
  track.  Timestamps are microseconds, sorted ascending as the format
  requires.
- **Phase summary** (:func:`phase_summary`): a flat-text table
  aggregating span count, total time, bytes, and FLOPs per phase — the
  paper's §3 time decomposition (compute vs. pipeline bubble vs.
  communication) at a glance.
- **Metrics JSON** (:func:`metrics_json`): the tracer's registry as a
  machine-readable dump.
"""

from __future__ import annotations

import json

from .tracer import GLOBAL_RANK, Span, Tracer

#: tid used for GLOBAL_RANK spans; picked above any realistic rank
#: count so the global track sorts last in the viewer.
_GLOBAL_TID = 1 << 20


def _tid(rank: int) -> int:
    return _GLOBAL_TID if rank == GLOBAL_RANK else rank


def counter_events(tracer: Tracer, time_scale: float = 1e6) -> list[dict]:
    """Counter samples as Chrome ``ph: "C"`` events (time-ordered).

    Each :class:`~repro.obs.tracer.CounterSample` series becomes one
    counter track in Perfetto (memory bytes, MFU, tokens/s, ...),
    rendered alongside the rank's spans.
    """
    ordered = sorted(
        enumerate(tracer.samples), key=lambda kv: (kv[1].t, kv[0])
    )
    return [
        {
            "name": s.name,
            "cat": "counter",
            "ph": "C",
            "pid": 0,
            "tid": _tid(s.rank),
            "ts": s.t * time_scale,
            "args": {"value": s.value},
        }
        for _, s in ordered
    ]


def chrome_trace_events(tracer: Tracer, time_scale: float = 1e6) -> list[dict]:
    """Spans + counter samples as Chrome ``trace_event`` dicts.

    Metadata events name each rank's track; every span becomes one
    complete (``"ph": "X"``) event and every counter sample one
    ``"ph": "C"`` event, merged into one ascending-timestamp stream.
    ``time_scale`` converts span times (seconds by default) to the
    format's microseconds.
    """
    events: list[dict] = [
        {
            "name": "process_name",
            "ph": "M",
            "pid": 0,
            "tid": 0,
            "args": {"name": "repro"},
        }
    ]
    ranks = sorted(
        {s.rank for s in tracer.spans} | {s.rank for s in tracer.samples}
    )
    for rank in ranks:
        label = "global" if rank == GLOBAL_RANK else f"rank {rank}"
        events.append(
            {
                "name": "thread_name",
                "ph": "M",
                "pid": 0,
                "tid": _tid(rank),
                "args": {"name": label},
            }
        )
    timed: list[dict] = []
    spans = sorted(tracer.spans, key=lambda s: (s.start, s.index))
    for s in spans:
        if not s.closed:
            raise ValueError(f"span {s.name!r} is still open; cannot export")
        args: dict = {"phase": s.phase, "depth": s.depth}
        args.update(s.counters)
        timed.append(
            {
                "name": s.name,
                "cat": s.phase or "span",
                "ph": "X",
                "pid": 0,
                "tid": _tid(s.rank),
                "ts": s.start * time_scale,
                "dur": s.duration * time_scale,
                "args": args,
            }
        )
    timed.extend(counter_events(tracer, time_scale))
    # One ascending-ts stream, as the format requires; the sort is
    # stable so same-timestamp spans keep creation order and counter
    # samples land after the span that produced them.
    timed.sort(key=lambda e: e["ts"])
    events.extend(timed)
    return events


def chrome_trace(tracer: Tracer, time_scale: float = 1e6) -> dict:
    """The full Chrome-trace JSON object."""
    return {
        "traceEvents": chrome_trace_events(tracer, time_scale),
        "displayTimeUnit": "ms",
        "otherData": {"generator": "repro.obs"},
    }


def write_chrome_trace(tracer: Tracer, path: str,
                       time_scale: float = 1e6) -> None:
    with open(path, "w") as f:
        json.dump(chrome_trace(tracer, time_scale), f)


def phase_summary(tracer: Tracer) -> str:
    """Flat-text per-phase aggregation of span time, bytes, and FLOPs.

    Span *self* counters sum to the logs' ground truth (each byte/FLOP
    is attributed to exactly one span), so the bytes column per comm
    phase equals ``TrafficLog.total_bytes`` for that kind.
    """
    phases: dict[str, dict] = {}
    for s in tracer.spans:
        agg = phases.setdefault(
            s.phase or "(none)",
            {"spans": 0, "time": 0.0, "bytes": 0, "flops": 0},
        )
        agg["spans"] += 1
        agg["time"] += s.duration
        agg["bytes"] += s.counters.get("bytes", 0)
        agg["flops"] += s.counters.get("flops", 0)
    header = f"{'phase':<18} {'spans':>6} {'time':>12} {'bytes':>14} {'flops':>16}"
    lines = [header, "-" * len(header)]
    for phase in sorted(phases):
        a = phases[phase]
        lines.append(
            f"{phase:<18} {a['spans']:>6} {a['time']:>12.6f} "
            f"{int(a['bytes']):>14} {int(a['flops']):>16}"
        )
    total_b = sum(a["bytes"] for a in phases.values())
    total_f = sum(a["flops"] for a in phases.values())
    total_n = sum(a["spans"] for a in phases.values())
    lines.append("-" * len(header))
    lines.append(
        f"{'total':<18} {total_n:>6} {'':>12} {int(total_b):>14} {int(total_f):>16}"
    )
    return "\n".join(lines)


def metrics_json(tracer: Tracer, indent: int = 2) -> str:
    return tracer.metrics.to_json(indent=indent)


def write_metrics(tracer: Tracer, path: str) -> None:
    with open(path, "w") as f:
        f.write(metrics_json(tracer))


def validate_chrome_trace(obj: dict) -> None:
    """Raise ValueError if ``obj`` violates the trace_event schema
    subset we emit: complete ``X`` events with non-negative durations,
    counter ``C`` events with numeric args series, timestamps sorted
    ascending across both, every tid introduced by a ``thread_name``
    metadata event."""
    events = obj.get("traceEvents")
    if not isinstance(events, list):
        raise ValueError("traceEvents must be a list")
    named_tids = set()
    last_ts = float("-inf")
    for e in events:
        ph = e.get("ph")
        if ph == "M":
            if e.get("name") == "thread_name":
                named_tids.add(e["tid"])
            continue
        if ph == "C":
            for key in ("name", "ts", "pid", "tid", "args"):
                if key not in e:
                    raise ValueError(f"C event missing {key!r}: {e}")
            args = e["args"]
            if not isinstance(args, dict) or not args:
                raise ValueError(f"C event args must be a non-empty dict: {e}")
            for series, value in args.items():
                if isinstance(value, bool) or not isinstance(
                    value, (int, float)
                ):
                    raise ValueError(
                        f"C event series {series!r} must be numeric: {e}"
                    )
        elif ph == "X":
            for key in ("name", "ts", "dur", "pid", "tid"):
                if key not in e:
                    raise ValueError(f"X event missing {key!r}: {e}")
            if e["dur"] < 0:
                raise ValueError(f"negative duration: {e}")
        else:
            raise ValueError(f"unexpected event phase {ph!r}")
        if e["ts"] < last_ts:
            raise ValueError("event timestamps are not sorted")
        last_ts = e["ts"]
        if e["tid"] not in named_tids:
            raise ValueError(f"tid {e['tid']} has no thread_name metadata")

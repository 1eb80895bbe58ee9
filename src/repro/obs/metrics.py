"""Metrics primitives: counters, gauges, histograms, and their registry.

One queryable store for everything the instrumentation layer measures.
The conventions mirror Prometheus:

- a :class:`Counter` only goes up (bytes moved, FLOPs executed, spans
  opened);
- a :class:`Gauge` is a point-in-time value (last iteration time,
  in-flight microbatches);
- a :class:`Histogram` summarizes a distribution (span durations,
  per-transfer sizes).

Metric names are dotted paths (``comm.bytes.tp``, ``flops.attention``);
the registry creates metrics on first touch so instrumentation sites
never need registration boilerplate.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field


@dataclass
class Counter:
    """Monotonically increasing accumulator."""

    value: float = 0.0

    def inc(self, amount: float = 1.0) -> None:
        if amount < 0:
            raise ValueError("counters only go up; use a Gauge instead")
        self.value += amount


@dataclass
class Gauge:
    """Last-write-wins point-in-time value."""

    value: float = 0.0

    def set(self, value: float) -> None:
        self.value = float(value)


@dataclass
class Histogram:
    """Streaming distribution summary (count/sum/min/max + samples)."""

    count: int = 0
    total: float = 0.0
    min: float = float("inf")
    max: float = float("-inf")
    samples: list[float] = field(default_factory=list)

    def observe(self, value: float) -> None:
        value = float(value)
        self.count += 1
        self.total += value
        self.min = min(self.min, value)
        self.max = max(self.max, value)
        self.samples.append(value)

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def percentile(self, q: float) -> float:
        """Nearest-rank percentile of the observed samples, q in [0, 100].

        Raises :class:`ValueError` on an empty histogram: a percentile
        of nothing has no value, and silently returning 0 would make a
        missing measurement indistinguishable from a zero-duration one.
        """
        if not 0 <= q <= 100:
            raise ValueError("q must be in [0, 100]")
        if not self.samples:
            raise ValueError(
                "empty histogram has no percentiles; observe() at least "
                "one sample first (check .count before querying)"
            )
        ordered = sorted(self.samples)
        rank = min(len(ordered) - 1, int(q / 100 * len(ordered)))
        return ordered[rank]

    def summary(self) -> dict:
        """Distribution summary dict.

        An empty histogram summarizes to ``{"count": 0, "sum": 0.0}``
        and nothing else — no NaN/zero placeholders for order
        statistics that do not exist (the same contract as
        :meth:`percentile`, which raises when empty).
        """
        if self.count == 0:
            return {"count": 0, "sum": 0.0}
        return {
            "count": self.count,
            "sum": self.total,
            "min": self.min,
            "max": self.max,
            "mean": self.mean,
            "p10": self.percentile(10),
            "p50": self.percentile(50),
            "p90": self.percentile(90),
            "p99": self.percentile(99),
        }


@dataclass
class MetricsRegistry:
    """Get-or-create store of named metrics."""

    counters: dict[str, Counter] = field(default_factory=dict)
    gauges: dict[str, Gauge] = field(default_factory=dict)
    histograms: dict[str, Histogram] = field(default_factory=dict)

    def counter(self, name: str) -> Counter:
        return self.counters.setdefault(name, Counter())

    def gauge(self, name: str) -> Gauge:
        return self.gauges.setdefault(name, Gauge())

    def histogram(self, name: str) -> Histogram:
        return self.histograms.setdefault(name, Histogram())

    def counter_value(self, name: str) -> float:
        """Value of ``name`` without creating it (0 when absent)."""
        c = self.counters.get(name)
        return c.value if c is not None else 0.0

    def as_dict(self) -> dict:
        return {
            "counters": {k: c.value for k, c in sorted(self.counters.items())},
            "gauges": {k: g.value for k, g in sorted(self.gauges.items())},
            "histograms": {
                k: h.summary() for k, h in sorted(self.histograms.items())
            },
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent)

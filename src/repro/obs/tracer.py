"""Structured span tracing with a process-global active-tracer stack.

The tracing twin of :func:`repro.nn.profiler.count_flops`: activating a
:class:`Tracer` (``with trace() as tracer:``) makes every instrumented
site in the codebase — the schedule executor's per-op forward/backward
work, each collective in :mod:`repro.comm.primitives`, the trainer's
iteration phases, the discrete-event simulator's timed ops — emit
:class:`Span` records into it.  When no tracer is active every hook is
a single ``if`` on an empty list, so the instrumented hot paths stay
effectively free (see ``benchmarks/bench_trace_overhead.py``).

A span carries ``(rank, phase, name, start, end)`` plus attached
counters (``bytes``, ``flops``, ``stage``, ...).  Ranks are *virtual
device* ranks — one Chrome-trace track each; :data:`GLOBAL_RANK` marks
whole-cluster phases (gradient all-reduce, optimizer step) that do not
belong to a single device.

Two clock regimes coexist:

- **live spans** (``tracer.span(...)`` context manager) read the
  tracer's clock — wall time by default, or any injected callable such
  as a deterministic tick counter;
- **simulated spans** (``tracer.add_span(...)``) carry explicit
  start/end from a modelled timeline, e.g. the §2.2 list scheduler.

Byte and FLOP accounting feed in through adapters: every
:class:`~repro.comm.traffic.TrafficLog` transfer and every
:func:`~repro.nn.profiler.record_gemm_flops` call is attributed to the
innermost open span *and* to the tracer's
:class:`~repro.obs.metrics.MetricsRegistry` (``comm.bytes.<kind>``,
``flops.<category>``), so span totals match the logs exactly.
"""

from __future__ import annotations

import contextlib
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .metrics import MetricsRegistry

#: Track id for spans that describe the whole virtual cluster rather
#: than one device (iteration, gradient all-reduce, optimizer).
GLOBAL_RANK = -1


@dataclass(frozen=True)
class CounterSample:
    """One timestamped value of a named counter series on one rank.

    The time-series twin of a :class:`~repro.obs.metrics.Gauge`: gauges
    keep only the last value, samples keep ``(t, value)`` pairs so
    memory/throughput timelines can be rendered as Chrome-trace counter
    (``ph: "C"``) tracks next to the spans.
    """

    name: str
    rank: int
    t: float
    value: float


@dataclass
class Span:
    """One traced interval on one virtual rank's timeline."""

    name: str
    phase: str
    rank: int
    start: float
    end: float | None = None
    depth: int = 0
    index: int = 0  # creation order; stable tie-break for equal starts
    counters: dict[str, float] = field(default_factory=dict)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None

    def add_counter(self, name: str, amount: float) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount


class Tracer:
    """Collects spans and metrics for one traced window.

    Parameters
    ----------
    clock:
        Zero-argument callable returning the current time for live
        spans.  Defaults to :func:`time.perf_counter`.  Simulated spans
        bypass the clock via :meth:`add_span`.
    """

    def __init__(self, clock: Callable[[], float] | None = None):
        self.clock = clock if clock is not None else time.perf_counter
        self.spans: list[Span] = []
        self.samples: list[CounterSample] = []
        self.metrics = MetricsRegistry()
        self._stack: list[Span] = []
        self._epoch: float | None = None

    # -- live (clocked) spans ------------------------------------------------
    def begin(self, name: str, phase: str = "", rank: int = GLOBAL_RANK,
              **counters: float) -> Span:
        """Open a span at the current clock time (normalized so the
        first event of the trace is t=0)."""
        now = self.clock()
        if self._epoch is None:
            self._epoch = now
        span = Span(
            name=name,
            phase=phase,
            rank=rank,
            start=now - self._epoch,
            depth=len(self._stack),
            index=len(self.spans),
            counters=dict(counters),
        )
        self.spans.append(span)
        self._stack.append(span)
        return span

    def end(self, span: Span) -> Span:
        """Close ``span``; it must be the innermost open span (strict
        nesting — the invariant the Chrome-trace format requires)."""
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} is not the innermost open span; "
                "spans must close in LIFO order"
            )
        self._stack.pop()
        assert self._epoch is not None
        span.end = self.clock() - self._epoch
        return span

    @contextlib.contextmanager
    def span(self, name: str, phase: str = "", rank: int = GLOBAL_RANK,
             **counters: float) -> Iterator[Span]:
        """Context manager opening a nested live span (exception-safe)."""
        s = self.begin(name, phase, rank, **counters)
        try:
            yield s
        finally:
            self.end(s)

    # -- simulated (explicitly timed) spans ---------------------------------
    def add_span(self, name: str, phase: str, rank: int, start: float,
                 end: float, **counters: float) -> Span:
        """Record a complete span with explicit simulated-clock times."""
        if end < start:
            raise ValueError(f"span {name!r}: end {end} < start {start}")
        span = Span(
            name=name,
            phase=phase,
            rank=rank,
            start=start,
            end=end,
            depth=len(self._stack),
            index=len(self.spans),
            counters=dict(counters),
        )
        self.spans.append(span)
        return span

    # -- counter time series -------------------------------------------------
    def sample(self, name: str, value: float, rank: int = GLOBAL_RANK,
               t: float | None = None) -> CounterSample:
        """Record one point of a counter time series.

        ``t`` follows the two clock regimes of spans: omitted, it reads
        the tracer's clock (live, epoch-normalized like :meth:`begin`);
        explicit, it is a simulated-timeline timestamp.  The last value
        per series is mirrored into the metrics registry as a gauge so
        point-in-time queries don't have to scan the series.
        """
        if t is None:
            now = self.clock()
            if self._epoch is None:
                self._epoch = now
            t = now - self._epoch
        s = CounterSample(name=name, rank=rank, t=t, value=float(value))
        self.samples.append(s)
        self.metrics.gauge(name).set(value)
        return s

    # -- attribution hooks ---------------------------------------------------
    def on_transfer(self, nbytes: int, kind: str) -> None:
        """Attribute one logged transfer (called by the TrafficLog hook)."""
        self.metrics.counter(f"comm.bytes.{kind}").inc(nbytes)
        self.metrics.counter("comm.bytes.total").inc(nbytes)
        self.metrics.counter("comm.transfers").inc()
        if self._stack:
            self._stack[-1].add_counter("bytes", nbytes)

    def on_flops(self, category: str, flops: int) -> None:
        """Attribute GEMM work (called by the FlopMeter adapter)."""
        self.metrics.counter(f"flops.{category}").inc(flops)
        self.metrics.counter("flops.total").inc(flops)
        if self._stack:
            self._stack[-1].add_counter("flops", flops)

    # -- queries -------------------------------------------------------------
    def counter_total(self, counter: str, phase: str | None = None) -> float:
        """Sum a span counter over (optionally phase-filtered) spans.

        Each transfer/FLOP lands on exactly one span, so the unfiltered
        total equals the corresponding log's ground truth.
        """
        return sum(
            s.counters.get(counter, 0)
            for s in self.spans
            if phase is None or s.phase == phase
        )

    def __len__(self) -> int:
        return len(self.spans)


_ACTIVE: list[Tracer] = []


def current_tracer() -> Tracer | None:
    """Innermost active tracer (None when tracing is off)."""
    return _ACTIVE[-1] if _ACTIVE else None


def record_transfer(nbytes: int, kind: str) -> None:
    """Report one transfer to every active tracer (no-op when none).

    This is the :class:`~repro.comm.traffic.TrafficLog` adapter entry
    point; it is called from ``TrafficLog.add`` so *every* byte the
    comm substrate accounts for is also attributed to the trace.
    """
    for tracer in _ACTIVE:
        tracer.on_transfer(nbytes, kind)


#: What :func:`span` returns when tracing is off: one shared context
#: manager entering to None, so the null path builds nothing.
_NO_SPAN = contextlib.nullcontext()


def span(name: str, phase: str = "", rank: int = GLOBAL_RANK,
         **counters: float) -> contextlib.AbstractContextManager[Span | None]:
    """Open a span on the current tracer, or do nothing if tracing is
    off.  The null path is a single truthiness check — instrumentation
    sites can use this unconditionally."""
    if not _ACTIVE:
        return _NO_SPAN
    return _ACTIVE[-1].span(name, phase, rank, **counters)


@contextlib.contextmanager
def trace(clock: Callable[[], float] | None = None) -> Iterator[Tracer]:
    """Activate a fresh :class:`Tracer` (nestable, exception-safe).

    Also installs the FLOP adapter so GEMM work recorded via
    :func:`repro.nn.profiler.record_gemm_flops` lands in the tracer's
    metrics and on the innermost open span.
    """
    from .adapters import flop_adapter  # deferred: adapters import Tracer

    tracer = Tracer(clock=clock)
    _ACTIVE.append(tracer)
    try:
        with flop_adapter(tracer):
            yield tracer
    finally:
        # Pop by identity: a second tracer created while this one is
        # active must not be confused with it (same fix as the
        # count_flops() nesting bug).
        for i in range(len(_ACTIVE) - 1, -1, -1):
            if _ACTIVE[i] is tracer:
                del _ACTIVE[i]
                break

"""Structured span tracing with a process-global active-tracer stack.

Activating a :class:`Tracer` (``with trace() as tracer:``) makes every
instrumented site in the codebase — the schedule executor's per-op
forward/backward work, each collective in :mod:`repro.comm.primitives`,
the trainer's iteration phases, the discrete-event simulator's timed
ops — emit :class:`Span` records into it.  When no tracer is active
:func:`span` is one truthiness check returning a shared null context,
so the instrumented hot paths stay effectively free (see
``benchmarks/bench_trace_overhead.py``).

A span carries ``(rank, phase, name, start, end)`` plus attached
counters (``bytes``, ``flops``, ``stage``, ...).  Ranks are *virtual
device* ranks — one Chrome-trace track each; :data:`GLOBAL_RANK` marks
whole-cluster phases (gradient all-reduce, optimizer step) that do not
belong to a single device.

Two clock regimes coexist:

- **live spans** (``with tracer.span(...)``) read the tracer's clock —
  wall time by default, or any injected callable such as a
  deterministic tick counter;
- **simulated spans** (``tracer.add_span(...)``) carry explicit
  start/end from a modelled timeline, e.g. the §2.2 list scheduler.

Bytes and FLOPs reach a tracer by difference, never per record: each
:class:`~repro.comm.traffic.TrafficLog` entry and each
:func:`~repro.nn.profiler.record_gemm_flops` call adds into the running
totals below, traced or not.  A live span's ``bytes`` / ``flops`` are
what they gained while it was the innermost open span (its inclusive
delta minus its children's), so each lands on exactly one span and span
totals match the logs exactly; :func:`trace` fills the tracer's
registry from their gain over its window.
"""

from __future__ import annotations

import contextlib
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Callable, Iterator

from .metrics import MetricsRegistry

#: Track id for spans that describe the whole virtual cluster rather
#: than one device (iteration, gradient all-reduce, optimizer).
GLOBAL_RANK = -1

#: The process's running totals, read only by difference: bytes and
#: hops per ``TrafficKind`` value, GEMM FLOPs per category, and
#: ``TOTALS`` = [bytes, transfers, FLOPs].  Mutated in place, never
#: rebound: ``TrafficLog`` and ``record_gemm_flops`` bind them.
BYTES: defaultdict[str, int] = defaultdict(int)
TRANSFERS: defaultdict[str, int] = defaultdict(int)
FLOPS: defaultdict[str, int] = defaultdict(int)
TOTALS = [0, 0, 0]


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


@dataclass(slots=True)
class Span:
    """One traced interval on one virtual rank's timeline.

    A live span is its own context manager: ``with tracer.span(...)``
    closes it on exit, exceptions included."""

    name: str
    phase: str
    rank: int
    start: float
    end: float | None = None
    depth: int = 0
    index: int = 0  # creation order; stable tie-break for equal starts
    counters: dict[str, float] = field(default_factory=dict)
    #: the tracer a live span closes on; None for a simulated span
    tracer: Tracer | None = field(default=None, repr=False, compare=False)

    @property
    def duration(self) -> float:
        return (self.end if self.end is not None else self.start) - self.start

    @property
    def closed(self) -> bool:
        return self.end is not None

    def __enter__(self) -> Span:
        return self

    def __exit__(self, *exc) -> None:
        self.tracer.end(self)


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
        self._mark = tuple(TOTALS)  # the totals at the last open or close

    # -- live (clocked) spans ------------------------------------------------
    def _settle(self) -> None:
        """Credit what the totals gained since the last open or close to
        the innermost open span: it was innermost all that time, so this
        is its self share (inclusive minus its children's)."""
        nbytes, transfers, flops = TOTALS
        mark_bytes, mark_transfers, mark_flops = self._mark
        if transfers == mark_transfers and flops == mark_flops:
            return
        self._mark = nbytes, transfers, flops
        if self._stack:
            counters = self._stack[-1].counters
            if transfers != mark_transfers:
                counters["bytes"] = (counters.get("bytes", 0)
                                     + nbytes - mark_bytes)
            if flops != mark_flops:
                counters["flops"] = counters.get("flops", 0) + flops - mark_flops

    def begin(self, name: str, phase: str = "", rank: int = GLOBAL_RANK,
              **counters: float) -> Span:
        """Open a span at the current clock time (normalized so the
        first event of the trace is t=0).  ``span`` is this method: the
        :class:`Span` it returns closes itself as a context manager."""
        now = self.clock()
        if self._epoch is None:
            self._epoch = now
        self._settle()
        span = Span(name, phase, rank, now - self._epoch,
                    depth=len(self._stack), index=len(self.spans),
                    counters=counters, tracer=self)
        self.spans.append(span)
        self._stack.append(span)
        return span

    span = begin

    def end(self, span: Span) -> Span:
        """Close ``span``; it must be the innermost open span (strict
        nesting — the invariant the Chrome-trace format requires)."""
        if not self._stack or self._stack[-1] is not span:
            raise RuntimeError(
                f"span {span.name!r} is not the innermost open span; "
                "spans must close in LIFO order"
            )
        self._settle()
        self._stack.pop()
        span.end = self.clock() - self._epoch
        return span

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
            counters=counters,
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
    return _ACTIVE[-1].begin(name, phase, rank, **counters)


@contextlib.contextmanager
def trace(clock: Callable[[], float] | None = None) -> Iterator[Tracer]:
    """Activate a fresh :class:`Tracer` (nestable, exception-safe).

    On exit its registry gets what the running totals gained in the
    window: ``comm.bytes.<kind>`` for each kind that logged a transfer
    (0-byte ones included), ``comm.bytes.total`` and ``comm.transfers``
    once any did, and ``flops.<category>`` and ``flops.total`` for the
    GEMM work."""
    tracer = Tracer(clock=clock)
    bytes0, transfers0, flops0 = dict(BYTES), dict(TRANSFERS), dict(FLOPS)
    totals0 = TOTALS.copy()
    _ACTIVE.append(tracer)
    try:
        yield tracer
    finally:
        _ACTIVE.remove(tracer)  # a Tracer equals only itself
        count = tracer.metrics.counter
        for kind, transfers in TRANSFERS.items():
            if transfers != transfers0.get(kind, 0):
                count(f"comm.bytes.{kind}").inc(
                    BYTES[kind] - bytes0.get(kind, 0))
        if TOTALS[1] != totals0[1]:
            count("comm.bytes.total").inc(TOTALS[0] - totals0[0])
            count("comm.transfers").inc(TOTALS[1] - totals0[1])
        for category, flops in FLOPS.items():
            if flops != flops0.get(category, 0):
                count(f"flops.{category}").inc(flops - flops0.get(category, 0))
        if TOTALS[2] != totals0[2]:
            count("flops.total").inc(TOTALS[2] - totals0[2])

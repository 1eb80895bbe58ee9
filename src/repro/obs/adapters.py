"""Adapter shims feeding the existing meters into the tracing layer.

The repository grew three disconnected instrumentation islands —
:class:`~repro.nn.profiler.FlopMeter` (GEMM FLOPs),
:class:`~repro.comm.traffic.TrafficLog` (per-transfer bytes), and the
simulator's timeline windows.  These shims route the first two into a
:class:`~repro.obs.tracer.Tracer` so FLOPs, bytes, and span timings
land in one queryable store:

- :class:`TracerFlopMeter` is a :class:`FlopMeter` that forwards every
  ``add`` to the tracer; :func:`flop_adapter` installs one on the
  profiler's active-meter stack for the duration of a trace (this is
  done automatically by :func:`repro.obs.trace`).
- ``TrafficLog`` needs no subclass: its ``add`` already reports to
  every active tracer via :func:`repro.obs.tracer.record_transfer`.
"""

from __future__ import annotations

import contextlib
from typing import Iterator

from repro.nn import profiler

from .tracer import Tracer


class TracerFlopMeter(profiler.FlopMeter):
    """A FlopMeter whose additions are mirrored into a tracer."""

    def __init__(self, tracer: Tracer):
        super().__init__()
        self.tracer = tracer

    def add(self, category: str, flops: int) -> None:
        super().add(category, flops)
        self.tracer.on_flops(category, flops)


@contextlib.contextmanager
def flop_adapter(tracer: Tracer) -> Iterator[TracerFlopMeter]:
    """Install a :class:`TracerFlopMeter` on the profiler's active stack
    so ``record_gemm_flops`` reaches ``tracer`` for the duration."""
    meter = TracerFlopMeter(tracer)
    profiler._ACTIVE.append(meter)
    try:
        yield meter
    finally:
        for i in range(len(profiler._ACTIVE) - 1, -1, -1):
            if profiler._ACTIVE[i] is meter:
                del profiler._ACTIVE[i]
                break

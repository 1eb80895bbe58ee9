"""FLOP accounting for the numeric engine.

A process-global meter that the numeric modules report their matrix-
multiplication work to.  This closes the loop between the two halves of
the reproduction: the FLOPs *actually executed* by the numpy engine for
one training iteration must equal the paper's closed-form eq. (3)
(tested in ``tests/test_profiler.py``), so the analytical model and the
running system count the same work.

Usage::

    with count_flops() as meter:
        model.loss_backward(caches)
    print(meter.total_flops)

Every active :class:`~repro.obs.tracer.Tracer` is reported to as
well, the way ``TrafficLog.add`` reaches
:func:`~repro.obs.tracer.record_transfer`: the work lands in its metrics
and on its innermost open span.

Only GEMM work is counted (the paper's convention: "The majority of
floating-point operations in the model are performed in the matrix
multiplications (GEMMs) in the transformer and logit layers"); a
multiply-add counts as 2 FLOPs.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

# The tracer stack itself: it is mutated in place, never rebound, so
# the untraced path below is one empty-list check with no call.
from repro.obs.tracer import _ACTIVE as _TRACERS


@dataclass
class FlopMeter:
    """Accumulates GEMM FLOPs by category."""

    by_category: dict[str, int] = field(default_factory=dict)

    def add(self, category: str, flops: int) -> None:
        if flops < 0:
            raise ValueError("flops must be >= 0")
        self.by_category[category] = self.by_category.get(category, 0) + flops

    @property
    def total_flops(self) -> int:
        return sum(self.by_category.values())


_ACTIVE: list[FlopMeter] = []


def record_gemm_flops(category: str, flops: int) -> None:
    """Report GEMM work to every active meter and tracer (no-op when
    none)."""
    for meter in _ACTIVE:
        meter.add(category, flops)
    for tracer in _TRACERS:
        tracer.on_flops(category, flops)


def matmul_flops(*shape: int) -> int:
    """2 * prod(dims): FLOPs of a GEMM with the given m, k, n (, batch)."""
    out = 2
    for d in shape:
        out *= d
    return out


@contextlib.contextmanager
def count_flops():
    """Context manager activating a fresh :class:`FlopMeter`."""
    meter = FlopMeter()
    _ACTIVE.append(meter)
    try:
        yield meter
    finally:
        # Pop by identity, not equality: FlopMeter is a dataclass, so
        # two meters with identical contents (e.g. nested empty meters)
        # compare equal and list.remove would deactivate the wrong one.
        for i in range(len(_ACTIVE) - 1, -1, -1):
            if _ACTIVE[i] is meter:
                del _ACTIVE[i]
                break

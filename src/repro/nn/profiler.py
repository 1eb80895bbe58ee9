"""FLOP accounting for the numeric engine.

The numeric modules report their matrix-multiplication work through
:func:`record_gemm_flops`.  This closes the loop between the two halves
of the reproduction: the FLOPs *actually executed* by the numpy engine
for one training iteration must equal the paper's closed-form eq. (3)
(tested in ``tests/test_profiler.py``), so the analytical model and the
running system count the same work.

Usage::

    with count_flops() as meter:
        model.loss_backward(caches)
    print(meter.total_flops)

Each call is one add into the process's running FLOP totals
(:data:`repro.obs.tracer.FLOPS`), traced or not, the way
``TrafficLog.write`` adds bytes.  A :func:`count_flops` meter, a span and
a trace all read those totals by difference, so FLOPs take one path.

Only GEMM work is counted (the paper's convention: "The majority of
floating-point operations in the model are performed in the matrix
multiplications (GEMMs) in the transformer and logit layers"); a
multiply-add counts as 2 FLOPs.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field
from typing import Iterator

# The running totals: mutated in place, never rebound, so binding them
# here keeps each GEMM's accounting to two in-place adds.
from repro.obs.tracer import FLOPS as _FLOPS, TOTALS as _TOTALS


@dataclass
class FlopMeter:
    """GEMM FLOPs by category."""

    by_category: dict[str, int] = field(default_factory=dict)

    def add(self, category: str, flops: int) -> None:
        if flops < 0:
            raise ValueError("flops must be >= 0")
        self.by_category[category] = self.by_category.get(category, 0) + flops

    @property
    def total_flops(self) -> int:
        return sum(self.by_category.values())


def record_gemm_flops(category: str, flops: int) -> None:
    """Add GEMM work to the running totals."""
    _FLOPS[category] += flops
    _TOTALS[2] += flops


def matmul_flops(*shape: int) -> int:
    """2 * prod(dims): FLOPs of a GEMM with the given m, k, n (, batch)."""
    out = 2
    for d in shape:
        out *= d
    return out


@contextlib.contextmanager
def count_flops() -> Iterator[FlopMeter]:
    """Yield a :class:`FlopMeter` that, once the block exits, holds the
    GEMM work recorded inside it (each category that gained any)."""
    meter = FlopMeter()
    start = dict(_FLOPS)
    try:
        yield meter
    finally:
        for category, flops in _FLOPS.items():
            if flops != start.get(category, 0):
                meter.add(category, flops - start.get(category, 0))

"""Byte-accurate communication traffic accounting.

Every primitive in :mod:`repro.comm.primitives` logs each point-to-point
transfer it performs (ring steps included) to a :class:`TrafficLog`.
The log is the ground truth for the paper's §3.2 communication-volume
formulas (tensor parallelism moves ``8 b s h (t-1)/t`` bytes-worth of
elements per layer per device; pipeline p2p moves ``b s h``).

Every logged transfer also adds its bytes and a count into the
process's running totals (:data:`repro.obs.tracer.BYTES`,
:data:`~repro.obs.tracer.TRANSFERS`, :data:`~repro.obs.tracer.TOTALS`),
traced or not; spans and traces read them by difference.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field

# The running totals: mutated in place, never rebound.
from repro.obs.tracer import (
    BYTES as _BYTES,
    TOTALS as _TOTALS,
    TRANSFERS as _TRANSFERS,
)


class TrafficKind(enum.Enum):
    """What parallelism dimension a transfer belongs to."""

    TENSOR_PARALLEL = "tp"
    PIPELINE_P2P = "pp"
    DATA_PARALLEL = "dp"
    OTHER = "other"


@dataclass(frozen=True, slots=True)
class TransferRecord:
    """One point-to-point transfer of ``nbytes`` from src to dst rank.

    Slotted: a training run keeps tens of thousands of these."""

    src: int
    dst: int
    nbytes: int
    kind: TrafficKind = TrafficKind.OTHER
    tag: str = ""

    def __post_init__(self) -> None:
        if self.nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if self.src < 0 or self.dst < 0:
            raise ValueError("ranks must be >= 0")


@dataclass
class TrafficLog:
    """Accumulates :class:`TransferRecord` entries."""

    records: list[TransferRecord] = field(default_factory=list)

    def add(
        self,
        src: int,
        dst: int,
        nbytes: int,
        kind: TrafficKind = TrafficKind.OTHER,
        tag: str = "",
    ) -> None:
        nbytes = int(nbytes)
        self.records.append(TransferRecord(src, dst, nbytes, kind, tag))
        # ``_value_`` is the member's plain attribute; ``.value`` is a
        # descriptor call, ten times slower on this path.
        key = kind._value_
        _BYTES[key] += nbytes
        _TRANSFERS[key] += 1
        _TOTALS[0] += nbytes
        _TOTALS[1] += 1

    def total_bytes(self, kind: TrafficKind | None = None) -> int:
        return sum(r.nbytes for r in self.records if kind is None or r.kind is kind)

    def by_tag(self, kind: TrafficKind | None = None) -> dict[str, int]:
        """Total bytes per tag (optionally restricted to one kind)."""
        out: dict[str, int] = defaultdict(int)
        for r in self.records:
            if kind is None or r.kind is kind:
                out[r.tag] += r.nbytes
        return dict(out)

    def clear(self) -> None:
        self.records.clear()

"""Byte-accurate communication traffic accounting.

Every primitive in :mod:`repro.comm.primitives` writes one entry per
call to a :class:`TrafficLog`: op, global ranks, size, kind, tag, and
the bytes and hop count of the op's hop plan.  The log is the ground
truth for the paper's §3.2 communication-volume formulas (tensor
parallelism moves ``8 b s h (t-1)/t`` bytes-worth of elements per layer
per device; pipeline p2p moves ``b s h``).  Its per-hop records, ring
steps included, are derived from the entries when read.

Every written entry also adds its bytes and hops into the process's
running totals (:data:`repro.obs.tracer.BYTES`,
:data:`~repro.obs.tracer.TRANSFERS`, :data:`~repro.obs.tracer.TOTALS`),
traced or not; spans and traces read them by difference.
"""

from __future__ import annotations

import enum
from collections import defaultdict
from dataclasses import dataclass, field
from typing import NamedTuple

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
    """One point-to-point transfer of ``nbytes`` from src to dst rank."""

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


class TrafficEntry(NamedTuple):
    """One collective call, and the bytes and hops its plan makes."""

    op: str
    ranks: tuple[int, ...]
    size: int | tuple[int, ...]
    kind: TrafficKind
    tag: str
    nbytes: int
    hops: int


@dataclass
class TrafficLog:
    """One :class:`TrafficEntry` per collective call."""

    entries: list[TrafficEntry] = field(default_factory=list)

    def write(self, entry: TrafficEntry) -> None:
        self.entries.append(entry)
        # ``_value_`` is the member's plain attribute; ``.value`` is a
        # descriptor call, ten times slower on this path.
        key = entry.kind._value_
        _BYTES[key] += entry.nbytes
        _TRANSFERS[key] += entry.hops
        _TOTALS[0] += entry.nbytes
        _TOTALS[1] += entry.hops

    def add(self, src: int, dst: int, nbytes: int,
            kind: TrafficKind = TrafficKind.OTHER, tag: str = "") -> None:
        """One point-to-point transfer: a ``send`` entry."""
        nbytes = int(nbytes)
        self.write(TrafficEntry("send", (src, dst), nbytes, kind, tag,
                                nbytes, 1))

    @property
    def records(self) -> list[TransferRecord]:
        """Every hop of every entry through its op's plan, in order."""
        from .primitives import HOP_PLANS

        return [TransferRecord(ranks[src], ranks[dst], nbytes, kind, tag)
                for op, ranks, size, kind, tag, _, _ in self.entries
                for src, dst, nbytes in HOP_PLANS[op][0](len(ranks), size)]

    def total_bytes(self, kind: TrafficKind | None = None) -> int:
        return sum(self.by_tag(kind).values())

    def by_tag(self, kind: TrafficKind | None = None) -> dict[str, int]:
        """Total bytes per tag (optionally restricted to one kind)."""
        out: dict[str, int] = defaultdict(int)
        for e in self.entries:
            if kind is None or e.kind is kind:
                out[e.tag] += e.nbytes
        return dict(out)

    def clear(self) -> None:
        self.entries.clear()

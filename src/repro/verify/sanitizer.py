"""Collective sanitizer: cross-rank consistency checking for comm ops.

MegaScale (Jiang et al., 2024) reports that silently mismatched
collectives -- two ranks disagreeing on which collective comes next, or
on its shape/dtype -- are among the costliest failures to debug at
scale, because NCCL either deadlocks or corrupts data without naming
the offending call site.  This module is the executable form of that
lesson for the virtual-rank engine: while a :class:`CollectiveSanitizer`
is active, every primitive in :mod:`repro.comm.primitives` records one
event per participating rank (op name, process group, buffer shape,
dtype), and :meth:`CollectiveSanitizer.check` replays the per-rank
timelines against each other.

The core invariant (the one real NCCL requires for progress) is
*pairwise order consistency*: for any two ranks a and b, the
subsequence of operations whose group contains both a and b must be
identical -- same ops, same groups, same shapes, same dtypes, in the
same order -- on a's timeline and on b's.  A divergence means a would
post a collective b never matches: a deadlock (order/op mismatch) or
silent corruption (shape/dtype mismatch) on real ranks.

The hook follows the :mod:`repro.obs.tracer` pattern: a process-global
stack of active sanitizers, a module-level :func:`record_collective`
entry point that is a no-op (one truthiness check) when no sanitizer is
active, so the instrumented primitives stay effectively free.

This module intentionally imports nothing from the rest of ``repro`` so
the comm substrate can depend on it without cycles.
"""

from __future__ import annotations

from dataclasses import dataclass, field


@dataclass(frozen=True)
class CollectiveEvent:
    """One rank's view of one collective (or p2p) call."""

    op: str
    group: tuple[int, ...]
    shape: tuple[int, ...]
    dtype: str
    tag: str = ""

    def describe(self) -> str:
        return (
            f"{self.op}(group={list(self.group)}, shape={self.shape}, "
            f"dtype={self.dtype}{', tag=' + self.tag if self.tag else ''})"
        )


@dataclass(frozen=True)
class CollectiveMismatch:
    """A cross-rank disagreement found by :meth:`CollectiveSanitizer.check`.

    ``position`` is the index into the *projected* (common-group)
    subsequence of the two ranks at which they first diverge.
    """

    rank_a: int
    rank_b: int
    position: int
    event_a: CollectiveEvent | None
    event_b: CollectiveEvent | None
    reason: str

    def describe(self) -> str:
        a = self.event_a.describe() if self.event_a else "<nothing>"
        b = self.event_b.describe() if self.event_b else "<nothing>"
        return (
            f"ranks {self.rank_a}/{self.rank_b} diverge at shared call "
            f"#{self.position} ({self.reason}):\n"
            f"    rank {self.rank_a} posts {a}\n"
            f"    rank {self.rank_b} posts {b}"
        )


class SanitizerError(RuntimeError):
    """Raised by :meth:`CollectiveSanitizer.assert_clean` on mismatches."""


@dataclass
class CollectiveSanitizer:
    """Records per-rank collective timelines and checks consistency.

    Use as a context manager::

        with CollectiveSanitizer() as san:
            trainer.train_step(ids, targets)
        san.assert_clean()

    While active, the engine's group-invoked collectives record one
    identical event per participating rank.  Tests (and the mutation
    injector in ``python -m repro verify``) can additionally call
    :meth:`record_rank_event` to model a *single* rank going out of
    step, which is exactly the failure mode the checker must flag.
    """

    timelines: dict[int, list[CollectiveEvent]] = field(default_factory=dict)

    # -- recording ----------------------------------------------------------
    def record(self, op: str, ranks, shape, dtype, tag: str = "") -> None:
        """Record one group-wide call: every rank sees the same event."""
        event = CollectiveEvent(
            op=op,
            group=tuple(int(r) for r in ranks),
            shape=tuple(int(s) for s in shape),
            dtype=str(dtype),
            tag=tag,
        )
        for r in event.group:
            self.timelines.setdefault(r, []).append(event)

    def record_rank_event(
        self, rank: int, op: str, ranks, shape, dtype, tag: str = ""
    ) -> None:
        """Record one *single-rank* view of a call (fault injection)."""
        event = CollectiveEvent(
            op=op,
            group=tuple(int(r) for r in ranks),
            shape=tuple(int(s) for s in shape),
            dtype=str(dtype),
            tag=tag,
        )
        self.timelines.setdefault(int(rank), []).append(event)

    # -- checking -----------------------------------------------------------
    def check(self) -> list[CollectiveMismatch]:
        """Pairwise order/shape/dtype consistency over all rank pairs."""
        mismatches: list[CollectiveMismatch] = []
        ranks = sorted(self.timelines)
        for i, a in enumerate(ranks):
            for b in ranks[i + 1 :]:
                mm = self._check_pair(a, b)
                if mm is not None:
                    mismatches.append(mm)
        return mismatches

    def _projected(self, rank: int, other: int) -> list[CollectiveEvent]:
        """``rank``'s timeline restricted to calls whose group contains
        ``other`` too -- the calls the pair must agree on."""
        return [e for e in self.timelines.get(rank, []) if other in e.group]

    def _check_pair(self, a: int, b: int) -> CollectiveMismatch | None:
        seq_a = self._projected(a, b)
        seq_b = self._projected(b, a)
        for pos, (ea, eb) in enumerate(zip(seq_a, seq_b)):
            if ea == eb:
                continue
            if ea.op != eb.op or ea.group != eb.group:
                reason = "op/group order mismatch (deadlock on real ranks)"
            elif ea.shape != eb.shape:
                reason = "shape mismatch (silent corruption on real ranks)"
            elif ea.dtype != eb.dtype:
                reason = "dtype mismatch (silent corruption on real ranks)"
            else:
                reason = "tag mismatch"
            return CollectiveMismatch(a, b, pos, ea, eb, reason)
        if len(seq_a) != len(seq_b):
            pos = min(len(seq_a), len(seq_b))
            ea = seq_a[pos] if pos < len(seq_a) else None
            eb = seq_b[pos] if pos < len(seq_b) else None
            return CollectiveMismatch(
                a, b, pos, ea, eb,
                "unmatched collective (one rank blocks forever)",
            )
        return None

    def assert_clean(self) -> None:
        mismatches = self.check()
        if mismatches:
            raise SanitizerError(
                "collective sanitizer found cross-rank mismatches:\n  "
                + "\n  ".join(m.describe() for m in mismatches)
            )

    @property
    def num_events(self) -> int:
        return sum(len(t) for t in self.timelines.values())

    # -- activation ---------------------------------------------------------
    def __enter__(self) -> "CollectiveSanitizer":
        _ACTIVE.append(self)
        return self

    def __exit__(self, *exc) -> None:
        # Pop by identity (same rationale as the tracer stack: two empty
        # sanitizers compare equal as dataclasses).
        for i in range(len(_ACTIVE) - 1, -1, -1):
            if _ACTIVE[i] is self:
                del _ACTIVE[i]
                break


_ACTIVE: list[CollectiveSanitizer] = []


def record_collective(op: str, ranks, shape, dtype, tag: str = "") -> None:
    """Report one group collective to every active sanitizer.

    This is the hook :mod:`repro.comm.primitives` calls; a single
    truthiness check when no sanitizer is active.
    """
    if not _ACTIVE:
        return
    for san in _ACTIVE:
        san.record(op, ranks, shape, dtype, tag)

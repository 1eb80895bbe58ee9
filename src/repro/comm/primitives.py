"""Collective and point-to-point primitives over virtual ranks.

These are the NCCL substitutes: each primitive takes the per-rank
buffers of one process group (a sequence of numpy arrays, index i
belonging to global rank ``ranks[i]``), really computes the collective
with the standard ring algorithm, and logs every hop's bytes to a
:class:`~repro.comm.traffic.TrafficLog`.

:class:`Backend` is the one front door: its five public methods own
everything about a collective that is not byte movement (validation,
the sanitizer record, the comm span, the float64 flatten -- an
all-reduce's one copy of its payload -- and ``astype`` back, the
single-rank shortcut) and hand validated arrays plus a
``hop(src_index, dst_index, nbytes)`` callable to the *mover*, five
hooks a backend plugs in.  :class:`CoopBackend` is the single-process
mover -- the in-process ring loops, logging each hop where it moves it;
the bit-exact oracle, whose methods the module-level functions
(:func:`ring_all_reduce`, :func:`all_gather`, ...) are.  The
real-process mover is :class:`repro.comm.backend.MpBackend`.

The ring all-reduce is its two phases run back to back, and each phase
has a front door of its own (:meth:`Backend.reduce_scatter_phase`,
:meth:`Backend.all_gather_phase`) for the distributed optimizer, which
steps each rank's :func:`owned_chunk` between them.  A phase works in
place on vectors this process holds; the replica workers run the same
halves over their shared segments (:mod:`repro.comm.shm_ring`).

Because the parallel-training engine is single-process and synchronous
(see DESIGN.md), collectives are invoked once per group rather than once
per rank; the data movement and byte accounting are identical to the
per-rank formulation.

Byte-volume identities implemented (and tested against) §3.3.1/§3.2:

- ring all-reduce moves ``2 (k-1)/k * size`` bytes per rank,
- ring all-gather / reduce-scatter move ``(k-1)/k * size`` per rank,
- p2p send moves ``size``.
"""

from __future__ import annotations

from abc import abstractmethod
from contextlib import AbstractContextManager
from functools import lru_cache
from typing import Callable, Iterable, Sequence

import numpy as np

from repro.obs.tracer import span as _obs_span
from repro.verify.sanitizer import record_collective as _sanitize

from .traffic import TrafficKind, TrafficLog

#: ``hop(src_index, dst_index, nbytes)``: one transfer between two
#: members of the group, by position in ``ranks``.
Hop = Callable[[int, int, int], None]


def _comm_span(name: str, ranks: Sequence[int], kind: TrafficKind, tag: str):
    """One span per collective, on the group-leader rank's track.

    Bytes are attached by the TrafficLog->tracer adapter, which credits
    every logged hop to the innermost open span -- i.e. exactly this
    one, so span byte totals equal the log's ground truth.  When no
    tracer is active this is a no-op context manager.
    """
    return _obs_span(
        name,
        phase=f"comm.{kind.value}",
        rank=ranks[0] if len(ranks) else 0,
        group=len(ranks),
        tag=tag,
    )


def _hop_logger(ranks: Sequence[int], log: TrafficLog | None,
                kind: TrafficKind, tag: str) -> Hop:
    """The ``hop`` a mover reports to: group positions become global
    ranks and the transfer lands in ``log`` (nowhere without one)."""
    if log is None:
        return lambda src, dst, nbytes: None
    return lambda src, dst, nbytes: log.add(
        ranks[src], ranks[dst], nbytes, kind, tag
    )


@lru_cache(maxsize=4096)
def ring_chunk_bounds(n: int, k: int) -> tuple[int, ...]:
    """The ``k + 1`` boundaries that cut ``n`` elements into the ring's
    ``k`` chunks: the one definition the coop mover, the hop plans and
    the shared-memory ring step (:mod:`repro.comm.shm_ring`) share, so
    their chunks agree byte for byte.  Memoised, and Python ints in a
    tuple: a caller cannot change what the next one gets.
    """
    return tuple(np.linspace(0, n, k + 1).astype(int).tolist())


def owned_chunk(n: int, k: int, index: int) -> tuple[int, int]:
    """``(lo, hi)`` of the ring chunk group position ``index`` holds
    fully reduced after the reduce-scatter phase: chunk
    ``(index + 1) mod k``, the one its distributed optimizer steps."""
    bounds = ring_chunk_bounds(n, k)
    j = (index + 1) % k
    return bounds[j], bounds[j + 1]


def replay(hop: Hop, plan: Iterable[tuple[int, int, int]]) -> None:
    """Report a whole hop plan (``ring_*_hops``): how a mover whose
    bytes travel in other processes accounts for them."""
    for src, dst, nbytes in plan:
        hop(src, dst, nbytes)


def _check_ranks(ranks: Sequence[int]) -> None:
    """The group checks every collective shares: non-empty, no dups."""
    if len(ranks) == 0:
        raise ValueError("empty process group")
    if len(set(ranks)) != len(ranks):
        raise ValueError(f"duplicate ranks in group: {ranks}")


def _check_group(buffers: Sequence[np.ndarray], ranks: Sequence[int]) -> None:
    """Group check for same-shape collectives (all_reduce/reduce_scatter):
    one buffer per rank, identical shape and dtype — validated up front
    with per-buffer diagnostics, the same contract
    :func:`_check_group_like` gives all_gather."""
    if len(buffers) != len(ranks):
        raise ValueError(
            f"{len(buffers)} buffers for {len(ranks)} ranks -- must match"
        )
    _check_ranks(ranks)
    first = np.asarray(buffers[0])
    for i, b in enumerate(buffers[1:], start=1):
        b = np.asarray(b)
        if b.dtype != first.dtype:
            raise ValueError(
                f"all group buffers must share dtype: buffer 0 is "
                f"{first.dtype}, buffer {i} is {b.dtype}"
            )
        if b.shape != first.shape:
            raise ValueError(
                f"all group buffers must share shape: buffer 0 has "
                f"{first.shape}, buffer {i} has {b.shape}"
            )


def _check_group_like(
    shards: Sequence[np.ndarray], ranks: Sequence[int], axis: int = 0
) -> None:
    """Group check for shard collectives (all_gather): shards may
    differ along the concatenation ``axis`` but must agree on rank,
    every other dimension, and dtype — validated up front so a bad
    group fails with the same style of ValueError as ``_check_group``
    instead of an opaque numpy concatenate error."""
    if len(shards) != len(ranks):
        raise ValueError(
            f"{len(shards)} shards for {len(ranks)} ranks -- must match"
        )
    _check_ranks(ranks)
    first = np.asarray(shards[0])
    if not -first.ndim <= axis < first.ndim:
        raise ValueError(
            f"axis {axis} out of bounds for shards of rank {first.ndim}"
        )
    ax = axis % first.ndim if first.ndim else 0
    ref = list(first.shape)
    for i, s in enumerate(shards[1:], start=1):
        s = np.asarray(s)
        if s.dtype != first.dtype:
            raise ValueError(
                f"all shards must share dtype: shard 0 is {first.dtype}, "
                f"shard {i} is {s.dtype}"
            )
        if s.ndim != first.ndim:
            raise ValueError(
                f"all shards must share rank: shard 0 has {first.ndim} "
                f"dims, shard {i} has {s.ndim}"
            )
        got = list(s.shape)
        if ref[:ax] + ref[ax + 1:] != got[:ax] + got[ax + 1:]:
            raise ValueError(
                "shards must match on every non-concatenation axis: "
                f"shard 0 has shape {tuple(ref)}, shard {i} has "
                f"{tuple(got)} (concat axis {axis})"
            )


class Backend(AbstractContextManager):
    """The five primitives and the all-reduce's two phases: one front
    door, five mover hooks plus the phases' in-process rings."""

    name: str = "abstract"

    # -- the front door ----------------------------------------------------
    def all_reduce(
        self,
        buffers: Sequence[np.ndarray],
        ranks: Sequence[int],
        log: TrafficLog | None = None,
        kind: TrafficKind = TrafficKind.OTHER,
        tag: str = "",
    ) -> list[np.ndarray]:
        """Sum-all-reduce via reduce-scatter + all-gather rings.

        Returns new arrays (one per rank), all equal to the element-wise
        sum.  Each rank sends ``2 (k-1)/k`` of the buffer size, the
        classic bandwidth-optimal ring volume the paper's §3.3.1
        ``(d-1)/d`` scaling argument refers to.
        """
        _check_group(buffers, ranks)
        first = np.asarray(buffers[0])
        _sanitize("all_reduce", ranks, first.shape, first.dtype, tag)
        with _comm_span("all_reduce", ranks, kind, tag):
            if len(ranks) == 1:
                return [first.copy()]
            # The payload's one copy: the mover reduces into these.
            flat = [
                np.array(b, dtype=np.float64, order="C").reshape(-1)
                for b in buffers
            ]
            reduced = self._all_reduce(
                flat, _hop_logger(ranks, log, kind, tag)
            )
            return [
                f.reshape(first.shape).astype(first.dtype, copy=False)
                for f in reduced
            ]

    def all_gather(
        self,
        shards: Sequence[np.ndarray],
        ranks: Sequence[int],
        log: TrafficLog | None = None,
        kind: TrafficKind = TrafficKind.OTHER,
        tag: str = "",
        axis: int = 0,
    ) -> list[np.ndarray]:
        """Ring all-gather: every rank ends with the concatenation (along
        ``axis``) of all shards, in group-rank order."""
        _check_group_like(shards, ranks, axis)
        arrs = [np.asarray(s) for s in shards]
        ax = axis % arrs[0].ndim
        full_shape = list(arrs[0].shape)
        full_shape[ax] = sum(a.shape[ax] for a in arrs)
        _sanitize("all_gather", ranks, tuple(full_shape), arrs[0].dtype, tag)
        with _comm_span("all_gather", ranks, kind, tag):
            if len(ranks) == 1:
                return [arrs[0].copy()]
            return self._all_gather(
                arrs, ax, _hop_logger(ranks, log, kind, tag)
            )

    def reduce_scatter(
        self,
        buffers: Sequence[np.ndarray],
        ranks: Sequence[int],
        log: TrafficLog | None = None,
        kind: TrafficKind = TrafficKind.OTHER,
        tag: str = "",
    ) -> list[np.ndarray]:
        """Ring reduce-scatter along axis 0: rank i receives the i-th
        equal slab of the element-wise sum.  Requires axis-0 divisibility."""
        _check_group(buffers, ranks)
        k = len(ranks)
        first = np.asarray(buffers[0])
        if first.ndim < 1:
            raise ValueError(
                "reduce_scatter needs buffers with at least 1 dimension to "
                "scatter along axis 0"
            )
        if first.shape[0] % k != 0:
            raise ValueError(
                f"reduce_scatter needs axis-0 ({first.shape[0]}) divisible "
                f"by group size ({k})"
            )
        _sanitize("reduce_scatter", ranks, first.shape, first.dtype, tag)
        with _comm_span("reduce_scatter", ranks, kind, tag):
            wide = [np.asarray(b).astype(np.float64) for b in buffers]
            if k == 1:
                slabs = wide
            else:
                slabs = self._reduce_scatter(
                    wide, first.nbytes, _hop_logger(ranks, log, kind, tag)
                )
            return [s.astype(first.dtype) for s in slabs]

    def broadcast(
        self,
        buffer: np.ndarray,
        root: int,
        ranks: Sequence[int],
        log: TrafficLog | None = None,
        kind: TrafficKind = TrafficKind.OTHER,
        tag: str = "",
    ) -> list[np.ndarray]:
        """Broadcast from ``root`` (a global rank in ``ranks``) to the group."""
        _check_ranks(ranks)
        if root not in ranks:
            raise ValueError(f"root {root} not in group {ranks}")
        buffer = np.asarray(buffer)
        _sanitize("broadcast", ranks, buffer.shape, buffer.dtype,
                  tag or f"root={root}")
        with _comm_span("broadcast", ranks, kind, tag):
            if len(ranks) == 1:
                return [buffer.copy()]
            return self._broadcast(
                buffer, list(ranks).index(root), len(ranks),
                _hop_logger(ranks, log, kind, tag),
            )

    def send(
        self,
        buffer: np.ndarray,
        src: int,
        dst: int,
        log: TrafficLog | None = None,
        kind: TrafficKind = TrafficKind.PIPELINE_P2P,
        tag: str = "",
    ) -> np.ndarray:
        """Point-to-point transfer; returns the received array."""
        if src == dst:
            raise ValueError("p2p send requires distinct src and dst ranks")
        buffer = np.asarray(buffer)
        _sanitize("send", (src, dst), buffer.shape, buffer.dtype, tag)
        with _obs_span(
            "send", phase=f"comm.{kind.value}", rank=src, dst=dst, tag=tag
        ):
            return self._send(
                buffer, _hop_logger((src, dst), log, kind, tag)
            )

    def reduce_scatter_phase(
        self,
        flat: Sequence[np.ndarray],
        ranks: Sequence[int],
        log: TrafficLog | None = None,
        kind: TrafficKind = TrafficKind.OTHER,
        tag: str = "",
    ) -> None:
        """Phase one of :meth:`all_reduce`, in place on ``flat`` (one
        flat float64 vector per rank, the caller's to overwrite):
        position ``i`` ends holding chunk :func:`owned_chunk` of the sum,
        the rest of its vector partial sums."""
        self._phase("reduce_scatter", self._reduce_scatter_phase,
                    flat, ranks, log, kind, tag)

    def all_gather_phase(
        self,
        flat: Sequence[np.ndarray],
        ranks: Sequence[int],
        log: TrafficLog | None = None,
        kind: TrafficKind = TrafficKind.OTHER,
        tag: str = "",
    ) -> None:
        """Phase two of :meth:`all_reduce`, in place: position ``i``'s
        :func:`owned_chunk` travels the ring, so every vector ends
        holding every position's."""
        self._phase("all_gather", self._all_gather_phase,
                    flat, ranks, log, kind, tag)

    def _phase(self, op, mover, flat, ranks, log, kind, tag) -> None:
        _check_group(flat, ranks)
        first = flat[0]
        if first.dtype != np.float64 or first.ndim != 1:
            raise ValueError(
                f"a ring phase works in place on flat float64 vectors, "
                f"not {first.dtype} of shape {first.shape}"
            )
        _sanitize(op, ranks, first.shape, first.dtype, tag)
        with _comm_span(op, ranks, kind, tag):
            if len(ranks) > 1:
                mover(flat, _hop_logger(ranks, log, kind, tag))

    # -- the mover (groups of two or more).  Inputs are not to be mutated,
    # -- except ``_all_reduce``'s (the front door's own copy) and the
    # -- phases' (the caller's, to be reduced or gathered in place). --------
    def _reduce_scatter_phase(self, flat: list[np.ndarray], hop: Hop) -> None:
        """Ring phase one in this process.  Step ``s``: position ``i``
        sends chunk ``i - s`` to ``i + 1``, which accumulates it."""
        k = len(flat)
        bounds = ring_chunk_bounds(flat[0].size, k)
        for step in range(k - 1):
            for i in range(k):
                j = (i - step) % k
                sl = slice(bounds[j], bounds[j + 1])
                flat[(i + 1) % k][sl] += flat[i][sl]
                hop(i, (i + 1) % k, (sl.stop - sl.start) * 8)

    def _all_gather_phase(self, flat: list[np.ndarray], hop: Hop) -> None:
        """Ring phase two in this process.  Step ``s``: position ``i``
        forwards chunk ``i + 1 - s``, which it owns or was just sent."""
        k = len(flat)
        bounds = ring_chunk_bounds(flat[0].size, k)
        for step in range(k - 1):
            for i in range(k):
                j = (i + 1 - step) % k
                sl = slice(bounds[j], bounds[j + 1])
                flat[(i + 1) % k][sl] = flat[i][sl]
                hop(i, (i + 1) % k, (sl.stop - sl.start) * 8)

    @abstractmethod
    def _all_reduce(self, flat: list[np.ndarray], hop: Hop) -> list[np.ndarray]:
        """Ring-sum ``k`` equal-length float64 vectors, the mover's to
        overwrite; ``k`` results, which may be those vectors."""

    @abstractmethod
    def _all_gather(self, shards: list[np.ndarray], ax: int,
                    hop: Hop) -> list[np.ndarray]:
        """``k`` copies of the shards concatenated along ``ax``."""

    @abstractmethod
    def _reduce_scatter(self, wide: list[np.ndarray], nbytes: int,
                        hop: Hop) -> list[np.ndarray]:
        """The ``k`` axis-0 slabs of the float64 sum; ``nbytes`` is one
        buffer's size on the wire (its original dtype)."""

    @abstractmethod
    def _broadcast(self, buffer: np.ndarray, root_index: int, k: int,
                   hop: Hop) -> list[np.ndarray]:
        """``k`` copies of ``buffer``, fanned out from ``root_index``."""

    @abstractmethod
    def _send(self, buffer: np.ndarray, hop: Hop) -> np.ndarray:
        """A copy of ``buffer`` moved from position 0 to position 1."""

    # -- lifetime ------------------------------------------------------------
    def close(self) -> None:
        """Release any real-process resources (no-op for coop)."""

    def __exit__(self, *exc):
        self.close()
        return False


class CoopBackend(Backend):
    """The single-process cooperative mover — the bit-exact oracle."""

    name = "coop"

    def _all_reduce(self, flat, hop):
        self._reduce_scatter_phase(flat, hop)
        self._all_gather_phase(flat, hop)
        return flat

    def _all_gather(self, shards, ax, hop):
        k = len(shards)
        full = np.concatenate(shards, axis=ax)
        # Ring: each rank forwards each of the other k-1 shards once.
        for step in range(k - 1):
            for i in range(k):
                hop(i, (i + 1) % k, shards[(i - step) % k].nbytes)
        return [full.copy() for _ in range(k)]

    def _reduce_scatter(self, wide, nbytes, hop):
        k = len(wide)
        total = np.sum(wide, axis=0)
        for step in range(k - 1):
            for i in range(k):
                hop(i, (i + 1) % k, nbytes // k)
        return np.split(total, k, axis=0)

    def _broadcast(self, buffer, root_index, k, hop):
        out = []
        for i in range(k):
            out.append(buffer.copy())
            if i != root_index:
                hop(root_index, i, buffer.nbytes)
        return out

    def _send(self, buffer, hop):
        hop(0, 1, buffer.nbytes)
        return buffer.copy()


#: The shared oracle object: what ``get_backend(None | "coop")`` returns
#: and what the module-level primitives below are methods of.
COOP = CoopBackend()
ring_all_reduce = COOP.all_reduce
all_gather = COOP.all_gather
reduce_scatter = COOP.reduce_scatter
broadcast = COOP.broadcast
send = COOP.send


def ring_all_reduce_hops(
    n: int, itemsize: int, k: int
) -> list[tuple[int, int, int]]:
    """The exact ``(src_index, dst_index, nbytes)`` hop sequence
    :func:`ring_all_reduce` logs for a k-rank ring over ``n`` elements.

    Pure function of the ring geometry — the mp backend replays this
    plan into the parent's :class:`TrafficLog` while real processes move
    the bytes, and the conformance tests assert the coop log matches it
    record for record.  Its first half is the reduce-scatter phase's,
    its second the all-gather phase's.
    """
    bounds = ring_chunk_bounds(n, k)
    chunks = [(hi - lo) * itemsize for lo, hi in zip(bounds, bounds[1:])]
    # Reduce-scatter walks the chunks as an all-gather of them would;
    # the all-gather phase starts one chunk further round the ring.
    return ring_all_gather_hops(chunks) + ring_all_gather_hops(
        chunks[1:] + chunks[:1]
    )


def ring_all_gather_hops(shard_nbytes: Sequence[int]) -> list[tuple[int, int, int]]:
    """Hop plan :func:`all_gather` logs: each rank forwards each of the
    other ``k-1`` shards once around the ring."""
    k = len(shard_nbytes)
    if k < 2:
        return []
    hops = []
    for step in range(k - 1):
        for i in range(k):
            hops.append((i, (i + 1) % k, int(shard_nbytes[(i - step) % k])))
    return hops


def ring_reduce_scatter_hops(
    buffer_nbytes: int, k: int
) -> list[tuple[int, int, int]]:
    """Hop plan :func:`reduce_scatter` logs: ``(k-1)`` steps of one
    slab (``nbytes/k``) per rank -- an all-gather of ``k`` such slabs."""
    return ring_all_gather_hops([buffer_nbytes // k] * k) if k > 1 else []

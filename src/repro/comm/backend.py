"""Execution backends: who moves the bytes of a collective.

A :class:`~repro.comm.primitives.Backend` is the five primitives behind
one front door (validation, sanitizer record, span, float64 flatten,
single-rank shortcut, traffic entry -- all in
:mod:`repro.comm.primitives`) plus the
*mover* that front door calls:

- :class:`~repro.comm.primitives.CoopBackend` — the single-process
  cooperative loops, the bit-exact oracle.
- :class:`MpBackend` — every virtual rank of a group is a real OS
  process (a :class:`~repro.comm.shm_ring.WorkerPool` serving
  :func:`ring_ops`) moving bytes between ``multiprocessing.shared_memory``
  segments with the standard ring algorithms.

A mover only moves bytes; the front door logs the call after it
returns.  Only the mover differs, so the contract holds by construction,
and is still asserted (``repro verify --only backend``,
``tests/test_backend.py``, ``tests/test_front_door.py``): for identical
inputs both backends return bit-identical arrays, raise the same
validation errors, record the same sanitizer events, and log the exact
same §3.3.1 hop sequence.

Engines resolve a backend once with :func:`get_backend` and hold the
object; the coop oracle is the default object, never ``None``.
"""

from __future__ import annotations

import numpy as np

from .primitives import COOP, Backend, CoopBackend
from .shm_ring import (
    POOL_TIMEOUT,
    WorkerPool,
    attached,
    ring_all_reduce_step,
    scratch_segments,
    segment_view,
)

__all__ = ["BACKENDS", "Backend", "CoopBackend", "MpBackend", "get_backend"]

BACKENDS = ("coop", "mp")


def ring_ops(rank: int, k: int, barrier_wait, _segments) -> dict:
    """Op table of an :class:`MpBackend` worker: virtual rank ``rank``
    of a ``k``-rank group, moving bytes between the segments the mover
    of the same name (below) lays out and names in the payload."""

    def all_reduce(payload):
        names, n = payload
        with attached(names[rank], names[(rank - 1) % k]) as (mine, prev):
            ring_all_reduce_step(
                n, rank, k, segment_view(mine, (n,)),
                segment_view(prev, (n,)), barrier_wait,
            )

    def all_gather(payload):
        names, offsets, shape, dtype = payload
        with attached(names[rank], names[(rank - 1) % k]) as (mine, prev):
            mine = segment_view(mine, shape, dtype)
            prev = segment_view(prev, shape, dtype)
            for step in range(k - 1):
                j = (rank - 1 - step) % k
                mine[offsets[j]:offsets[j + 1]] = prev[offsets[j]:offsets[j + 1]]
                barrier_wait()

    def reduce_scatter(payload):
        # Each rank pulls its own slab rows from every peer's full
        # buffer (real cross-process reads) and reduces them with the
        # same axis-0 ``np.sum`` tree the coop reference applies to the
        # full stack — elementwise the reduction order depends only on
        # k, so slab-local summation is bit-identical.  No inter-worker
        # writes, hence no barriers.
        in_names, out_names, shape = payload
        rows = shape[0] // k
        with attached(out_names[rank], *in_names) as (out, *ins):
            slabs = [
                segment_view(seg, shape)[rank * rows:(rank + 1) * rows]
                for seg in ins
            ]
            segment_view(out, (rows,) + shape[1:])[...] = np.sum(
                np.stack(slabs), axis=0
            )

    def copy(payload):  # broadcast fan-out / p2p courier
        src_name, out_name, nbytes = payload
        with attached(src_name, out_name) as (src, out):
            out.buf[:nbytes] = src.buf[:nbytes]

    return {"all_reduce": all_reduce, "all_gather": all_gather,
            "reduce_scatter": reduce_scatter, "copy": copy}


class MpBackend(Backend):
    """Real multi-process mover over shared-memory ring transfers.

    Keeps one persistent :class:`WorkerPool` per distinct group size
    (created lazily, reused across collectives).  ``close()`` tears the
    pools down; segments are per-call and always unlinked on the way out.
    ``timeout`` bounds the parent's wait for replies and the workers'
    waits on their ring barrier.
    """

    name = "mp"

    def __init__(self, *, timeout: float = POOL_TIMEOUT):
        self.timeout = timeout
        self._pools: dict[int, WorkerPool] = {}
        self._closed = False

    def _pool(self, size: int) -> WorkerPool:
        if self._closed:
            raise RuntimeError("mp backend is closed")
        pool = self._pools.get(size)
        if pool is None:
            pool = self._pools[size] = WorkerPool(
                size, ring_ops, timeout=self.timeout, name=f"repro-shm-{size}"
            )
        return pool

    def close(self) -> None:
        self._closed = True
        for pool in self._pools.values():
            pool.close()
        self._pools.clear()

    # -- the mover -----------------------------------------------------------
    def _all_reduce(self, flat):
        k, n = len(flat), flat[0].size
        with scratch_segments([n * 8] * k) as segs:
            views = [segment_view(seg, (n,)) for seg in segs]
            for view, f in zip(views, flat):
                view[...] = f
            names = [seg.name for seg in segs]
            self._pool(k).run("all_reduce", [(names, n)] * k)
            for view, f in zip(views, flat):
                f[...] = view
        return flat

    def _all_gather(self, shards, ax):
        # Each rank's segment holds the whole (moveaxis'd) concatenation
        # with only its own row-slot filled in; the ring fills the rest.
        k = len(shards)
        moved = [np.moveaxis(s, ax, 0) for s in shards]
        offsets = [0]
        for m in moved:
            offsets.append(offsets[-1] + m.shape[0])
        shape = (offsets[-1],) + moved[0].shape[1:]
        dtype = shards[0].dtype
        with scratch_segments([sum(s.nbytes for s in shards)] * k) as segs:
            views = [segment_view(seg, shape, dtype) for seg in segs]
            for j, view in enumerate(views):
                view[offsets[j]:offsets[j + 1]] = moved[j]
            names = [seg.name for seg in segs]
            self._pool(k).run(
                "all_gather", [(names, offsets, shape, dtype)] * k
            )
            return [np.ascontiguousarray(np.moveaxis(view.copy(), 0, ax))
                    for view in views]

    def _reduce_scatter(self, wide):
        k, shape = len(wide), wide[0].shape
        slab_shape = (shape[0] // k,) + shape[1:]
        with scratch_segments([wide[0].nbytes] * k) as ins, \
                scratch_segments([wide[0].nbytes // k] * k) as outs:
            for seg, w in zip(ins, wide):
                segment_view(seg, shape)[...] = w
            payload = ([s.name for s in ins], [s.name for s in outs], shape)
            self._pool(k).run("reduce_scatter", [payload] * k)
            return [segment_view(seg, slab_shape).copy() for seg in outs]

    def _broadcast(self, buffer, root_index, k):
        shape, dtype, nbytes = buffer.shape, buffer.dtype, buffer.nbytes
        with scratch_segments([nbytes] * k) as segs:
            views = [segment_view(seg, shape, dtype) for seg in segs]
            views[root_index][...] = buffer
            self._pool(k).request([
                None if i == root_index else
                ("copy", (segs[root_index].name, segs[i].name, nbytes))
                for i in range(k)
            ])
            return [view.copy() for view in views]

    def _send(self, buffer):
        return self._broadcast(buffer, 0, 2)[1]  # a fan-out of one


def get_backend(spec: str | Backend | None = None) -> Backend:
    """Resolve a backend spec (``"coop"``, ``"mp"``, a :class:`Backend`
    instance, or ``None`` for the coop default).

    ``"mp"`` returns a *fresh* :class:`MpBackend` — the caller owns its
    lifetime and should ``close()`` it (or use it as a context manager).
    A caller can tell what it owns by ``get_backend(spec) is not spec``.
    """
    if spec is None or spec == "coop":
        return COOP
    if isinstance(spec, Backend):
        return spec
    if spec == "mp":
        return MpBackend()
    raise ValueError(f"unknown backend {spec!r}; expected one of {BACKENDS}")

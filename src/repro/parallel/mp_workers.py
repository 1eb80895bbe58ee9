"""Real-process data-parallel replica workers for the mp backend.

Under ``PTDTrainer(backend="mp")`` each **data-parallel replica** is its
own OS process: a :class:`~repro.comm.shm_ring.WorkerPool` serving
:func:`replica_ops`.  Each worker builds one full pipeline/tensor-
parallel replica from the trainer's
:class:`~repro.parallel.trainer.ReplicaSpec` (its ``p·t`` virtual ranks
execute cooperatively inside the worker, exactly as in the oracle) and
the optimizer over the ring chunk of each parameter it owns.  A
``"step"`` is the trainer's own ``forward_backward`` and
``apply_update`` with the §3.3.1 gradient ring split around the update,
run jointly over the pool's float64 segments:
:func:`~repro.comm.shm_ring.ring_reduce_scatter_step` leaves each worker
its owned chunk of every summed gradient, the worker steps that chunk,
and :func:`~repro.comm.shm_ring.ring_all_gather_step` carries the
updated parameters round.  One barrier per ring step for all
parameters, one before each phase: 2(d-1)+2 per training step, one more
with clipping, whose partial sums of squares every worker reads from
every segment's last slot.

Bit-exactness (asserted by ``repro verify --only backend``): each phase
performs the cooperative ring's float64 operation sequence per element,
and a chunk's owner computes the same ``/d`` average and update the
oracle's owner does.  Traffic accounting stays in the parent: workers
return their replica's :class:`~repro.comm.traffic.TrafficLog` records
for the step, keeping none, and the parent puts both phases of the
gradient ring through the collective front door (:data:`WORKER_RING`).
"""

from __future__ import annotations

import time
from multiprocessing import shared_memory

import numpy as np

from repro.comm.primitives import CoopBackend, replay, ring_all_reduce_hops
from repro.comm.shm_ring import ring_all_gather_step, ring_reduce_scatter_step
from repro.comm.traffic import TrafficLog

from .trainer import (
    ReplicaSpec,
    apply_update,
    export_state,
    forward_backward,
    load_state,
)


class WorkerRing(CoopBackend):
    """The parent's front door onto the workers' gradient ring: each
    phase leaves the sanitizer record, span and hop records of the coop
    ring for bytes the workers moved between their segments."""

    name = "mp"

    def _reduce_scatter_phase(self, flat, hop):
        plan = ring_all_reduce_hops(flat[0].size, 8, len(flat))
        replay(hop, plan[:len(plan) // 2])

    def _all_gather_phase(self, flat, hop):
        plan = ring_all_reduce_hops(flat[0].size, 8, len(flat))
        replay(hop, plan[len(plan) // 2:])


WORKER_RING = WorkerRing()


def replica_ops(dp: int, d: int, barrier_wait, segment_names,
                spec: ReplicaSpec) -> dict:
    """Op table of one replica worker: build replica ``dp`` of ``d`` and
    its optimizer, then serve ``step`` / ``get_state`` / ``set_state``."""
    log = TrafficLog()
    replica, optimizer = spec.build(dp, log)
    params = replica.parameters()
    sizes = [p.size for p in params]
    offsets = np.cumsum([0] + sizes)
    n = int(offsets[-1])
    # Every segment: the parameters end to end, then its worker's
    # partial sum of squares.
    segments = [shared_memory.SharedMemory(name=name) for name in segment_names]
    owned = [(int(offset) + lo, int(offset) + hi)
             for offset, (lo, hi) in zip(offsets, optimizer.owned)]

    def view(rank: int) -> np.ndarray:
        return np.ndarray((n + 1,), dtype=np.float64,
                          buffer=segments[rank].buf)

    def gather(partials):
        """Every worker's partial sum of squares, in rank order."""
        if d == 1:
            return partials
        view(dp)[n] = partials[0]
        barrier_wait()
        return [float(view(rank)[n]) for rank in range(d)]

    def reduce_scatter_gradients():
        """Leave this worker its owned chunk of every averaged gradient."""
        mine, prev = view(dp), view((dp - 1) % d)
        for p, lo, hi in zip(params, offsets, offsets[1:]):
            mine[lo:hi] = p.grad.ravel()
        barrier_wait()  # all copy-ins visible
        ring_reduce_scatter_step(sizes, dp, d, mine, prev, barrier_wait)
        for g, (lo, hi) in zip(optimizer.owned_grads, owned):
            np.divide(mine[lo:hi], d, out=g)

    def all_gather_parameters():
        """Hand every worker the chunks the others just updated."""
        mine, prev = view(dp), view((dp - 1) % d)
        for x, (lo, hi) in zip(optimizer.owned_data, owned):
            mine[lo:hi] = x
        barrier_wait()  # every owner's update visible
        ring_all_gather_step(sizes, dp, d, mine, prev, barrier_wait)
        for p, lo, hi in zip(params, offsets, offsets[1:]):
            p.data[...] = mine[lo:hi].reshape(p.shape)

    def step(shard):
        start = time.perf_counter()
        try:
            loss = forward_backward(replica, *shard, spec)
            if d > 1:
                reduce_scatter_gradients()
            norm = apply_update([replica], [optimizer], spec, gather)
            if d > 1:
                all_gather_parameters()
            records = [
                (r.src, r.dst, r.nbytes, r.kind, r.tag) for r in log.records
            ]
        finally:
            # The parent keeps every record it is sent; kept here too,
            # they would grow for the life of the worker.
            log.clear()
        return loss, records, norm, time.perf_counter() - start

    return {
        "step": step,
        "get_state": lambda moments_only: export_state(
            optimizer, None if moments_only else replica
        ),
        "set_state": lambda state: load_state(replica, optimizer, state),
    }

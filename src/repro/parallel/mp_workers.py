"""Real-process data-parallel replica workers for the mp backend.

Under ``PTDTrainer(backend="mp")`` each **data-parallel replica** is its
own OS process: a :class:`~repro.comm.shm_ring.WorkerPool` serving
:func:`replica_ops`.  Each worker builds one full pipeline/tensor-
parallel replica from the trainer's
:class:`~repro.parallel.trainer.ReplicaSpec` (its ``p·t`` virtual ranks
execute cooperatively inside the worker, exactly as in the oracle),
laid flat in its own pool segment: ``[grads | params | norm slot]``,
2P + 1 float64, every ``Parameter.grad`` and ``.data`` a view of it.
A ``"step"`` is the trainer's own ``forward_backward`` and
``apply_update`` with the §3.3.1 gradient ring split around the update,
run in place over the segments:
:func:`~repro.comm.shm_ring.ring_reduce_scatter_step` leaves each worker
its owned range of the summed gradient vector, the worker steps that
range, and :func:`~repro.comm.shm_ring.ring_all_gather_step` carries the
updated parameters round -- no copy into or out of a segment.  One
barrier per ring step, one before each phase: 2(d-1)+2 per training
step, one more with clipping, whose partial sums of squares every worker
reads from every segment's last slot.  Under ZeRO stage 3 the step opens
with one more all-gather of the parameters, d more barriers.  A step's
payload carries its shard and the parent optimizer's rate, betas, eps
and weight decay, which the worker's optimizer takes before it steps.

Bit-exactness (asserted by ``repro verify --only backend``): each phase
performs the cooperative ring's float64 operation sequence per element,
and a range's owner computes the same ``/d`` average and update the
oracle's owner does.  Traffic accounting stays in the parent: workers
return their replica's :class:`~repro.comm.traffic.TrafficLog` entries
for the step (one per collective call), keeping none, and the parent
puts both phases of the gradient ring through the collective front door
(:data:`WORKER_RING`), whose movers move nothing.
"""

from __future__ import annotations

import time

import numpy as np

from repro.comm.primitives import CoopBackend, owned_chunk
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
    phase leaves the sanitizer record, span and traffic entry of the
    coop ring for bytes the workers moved between their segments, so
    its movers move nothing."""

    name = "mp"

    def _reduce_scatter_phase(self, flat):
        pass

    def _all_gather_phase(self, flat):
        pass


WORKER_RING = WorkerRing()


def replica_ops(dp: int, d: int, barrier_wait, segments,
                spec: ReplicaSpec) -> dict:
    """Op table of one replica worker: build replica ``dp`` of ``d`` and
    its optimizer, then serve ``step`` / ``get_state`` / ``set_state``."""
    log = TrafficLog()
    # Every segment: its worker's gradients, then its parameters, then
    # its partial sum of squares -- 2P + 1 float64.  This worker's
    # replica lives in its own segment, so both ring phases run in place.
    views = [np.ndarray((seg.size // 8,), dtype=np.float64, buffer=seg.buf)
             for seg in segments]
    replica, optimizer = spec.build(dp, log, views[dp] if views else None)
    n = replica.flat_data.size
    lo, hi = owned_chunk(n, d, dp)
    grads = [view[:n] for view in views]
    params = [view[n:2 * n] for view in views]

    def gather(partials):
        """Every worker's partial sum of squares, in rank order."""
        if d == 1:
            return partials
        views[dp][2 * n] = partials[0]
        barrier_wait()
        return [float(view[2 * n]) for view in views]

    def reduce_scatter_gradients():
        """Leave this worker its owned range of the averaged gradients."""
        barrier_wait()  # every worker's gradients in place
        ring_reduce_scatter_step(n, dp, d, grads[dp], grads[dp - 1],
                                 barrier_wait)
        grads[dp][lo:hi] /= d

    def all_gather_parameters():
        """Hand every worker the ranges the others just updated."""
        barrier_wait()  # every owner's update visible
        ring_all_gather_step(n, dp, d, params[dp], params[dp - 1],
                             barrier_wait)

    def step(work):
        (ids, targets, optimizer.lr, optimizer.betas, optimizer.eps,
         optimizer.weight_decay) = work
        start = time.perf_counter()
        try:
            if d > 1 and spec.zero_stage == 3:
                all_gather_parameters()
            loss = forward_backward(replica, ids, targets, spec)
            if d > 1:
                reduce_scatter_gradients()
            norm = apply_update([replica], [optimizer], spec, gather)
            if d > 1:
                all_gather_parameters()
            entries = list(log.entries)
        finally:
            # The parent keeps every entry it is sent; kept here too,
            # they would grow for the life of the worker.
            log.clear()
        return loss, entries, norm, time.perf_counter() - start

    return {
        "step": step,
        "get_state": lambda moments_only: export_state(
            optimizer, None if moments_only else replica
        ),
        "set_state": lambda state: load_state(replica, optimizer, state),
    }

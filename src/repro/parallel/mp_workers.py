"""Real-process data-parallel replica workers for the mp backend.

Under ``PTDTrainer(backend="mp")`` each **data-parallel replica** is its
own OS process: a :class:`~repro.comm.shm_ring.WorkerPool` serving
:func:`replica_ops`.  Each worker builds one full pipeline/tensor-
parallel replica from the trainer's
:class:`~repro.parallel.trainer.ReplicaSpec` (its ``p·t`` virtual ranks
execute cooperatively inside the worker, exactly as in the oracle), and
a ``"step"`` is the trainer's own ``forward_backward`` and
``apply_update`` with the §3.3.1 gradient ring between them, run jointly
over the pool's float64 segments by
:func:`~repro.comm.shm_ring.ring_all_reduce_step` — one barrier per
ring step for all parameters, 2(d-1)+2 per training step.

Bit-exactness (asserted by ``repro verify --only backend``): the ring
step performs the cooperative ring's float64 operation sequence per
element, and every worker then computes the same ``/d`` average and
update from identical averaged gradients.  Traffic accounting stays in
the parent: workers return their replica's
:class:`~repro.comm.traffic.TrafficLog` records for the step, keeping
none, and the parent puts the gradient ring through the collective
front door.
"""

from __future__ import annotations

import time
from multiprocessing import shared_memory

import numpy as np

from repro.comm.shm_ring import ring_all_reduce_step
from repro.comm.traffic import TrafficLog

from .trainer import (
    ReplicaSpec,
    apply_update,
    export_state,
    forward_backward,
    load_state,
)


def replica_ops(dp: int, d: int, barrier_wait, segment_names,
                spec: ReplicaSpec) -> dict:
    """Op table of one replica worker: build replica ``dp`` of ``d`` and
    its optimizer, then serve ``step`` / ``get_state`` / ``set_state``."""
    log = TrafficLog()
    replica, optimizer = spec.build(dp, log)
    params = replica.parameters()
    sizes = [p.size for p in params]
    offsets = np.cumsum([0] + sizes)
    segments = [
        shared_memory.SharedMemory(name=segment_names[r])
        for r in ((dp, (dp - 1) % d) if d > 1 else ())
    ]

    def all_reduce_gradients() -> None:
        """Average every parameter's gradient over the ``d`` workers."""
        mine, prev = (
            np.ndarray((offsets[-1],), dtype=np.float64, buffer=seg.buf)
            for seg in segments
        )
        for p, lo, hi in zip(params, offsets, offsets[1:]):
            mine[lo:hi] = p.grad.ravel()
        barrier_wait()  # all copy-ins visible
        ring_all_reduce_step(sizes, dp, d, mine, prev, barrier_wait)
        for p, lo, hi in zip(params, offsets, offsets[1:]):
            np.divide(mine[lo:hi].reshape(p.grad.shape), d, out=p.grad)
        barrier_wait()  # all reads done before the next copy-in

    def step(shard):
        start = time.perf_counter()
        try:
            loss = forward_backward(replica, *shard, spec)
            if d > 1:
                all_reduce_gradients()
            norm = apply_update([replica], [optimizer], spec)
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
        "get_state": lambda _: export_state(replica, optimizer),
        "set_state": lambda state: load_state([replica], [optimizer], state),
    }

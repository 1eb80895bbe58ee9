"""Shared-memory substrate for the multi-process ("mp") backend.

1. **Segment bookkeeping** — every ``multiprocessing.shared_memory``
   segment the backend creates is registered in a module-level table and
   unlinked on :func:`destroy_segment`, :func:`cleanup_all_segments`
   (also wired to ``atexit``), or abnormal teardown.  Segments carry a
   recognisable ``reproshm_`` name prefix so tests (and the chaos
   harness) can assert nothing leaked into ``/dev/shm``.

2. :class:`WorkerPool` — the one place real OS processes are spawned,
   asked, collected from, failed and closed.  What its workers *do* is
   an op table the owner supplies: :func:`repro.comm.backend.ring_ops`
   for ``MpBackend``'s collectives,
   :func:`repro.parallel.mp_workers.replica_ops` for the trainer's
   data-parallel replicas.

3. :func:`ring_reduce_scatter_step` and :func:`ring_all_gather_step` —
   the per-rank bodies of the ring all-reduce's two phases over one
   shared float64 buffer, *bit-identical* to the cooperative reference
   in :mod:`repro.comm.primitives`.  :func:`ring_all_reduce_step` runs
   them back to back; a replica worker runs its optimizer between them.

Validation, sanitizer records, spans and traffic accounting stay in the
parent (the front door in :mod:`repro.comm.primitives`); the processes
here only move bytes.
"""

from __future__ import annotations

import atexit
import contextlib
import itertools
import multiprocessing as mp
import os
import time
import traceback
import uuid
from multiprocessing import shared_memory
from multiprocessing.connection import wait as wait_ready
from typing import Callable, Sequence

import numpy as np

from repro.nn.heap import release_freed_heap

from .primitives import ring_chunk_bounds

SEGMENT_PREFIX = "reproshm"

#: Default seconds a pool waits on a worker reply, and a worker on a
#: ring barrier, before declaring the pool broken.  Generous: CI
#: machines can be slow.
POOL_TIMEOUT = 120.0

_LIVE_SEGMENTS: dict[str, shared_memory.SharedMemory] = {}
_seg_counter = itertools.count()


def _start_method() -> str:
    """Prefer fork (cheap, inherits the parent's modules); fall back."""
    methods = mp.get_all_start_methods()
    return "fork" if "fork" in methods else methods[0]


def create_segment(nbytes: int) -> shared_memory.SharedMemory:
    """Create a tracked shared-memory segment with our name prefix."""
    name = (
        f"{SEGMENT_PREFIX}_{os.getpid()}_{next(_seg_counter)}_"
        f"{uuid.uuid4().hex[:8]}"
    )
    seg = shared_memory.SharedMemory(name=name, create=True, size=max(1, nbytes))
    _LIVE_SEGMENTS[seg.name] = seg
    return seg


def destroy_segment(seg: shared_memory.SharedMemory) -> None:
    """Close and unlink a tracked segment (idempotent, tolerant)."""
    _LIVE_SEGMENTS.pop(seg.name, None)
    try:
        seg.close()
    except OSError:
        pass
    try:
        seg.unlink()
    except FileNotFoundError:
        pass


@contextlib.contextmanager
def scratch_segments(sizes: Sequence[int]):
    """Segments of ``sizes`` bytes for one collective call, unlinked on
    the way out whatever happened inside."""
    segs: list[shared_memory.SharedMemory] = []
    try:
        for nbytes in sizes:
            segs.append(create_segment(nbytes))
        yield segs
    finally:
        for seg in segs:
            destroy_segment(seg)


def cleanup_all_segments() -> None:
    """Unlink every live segment this process created (atexit hook)."""
    for seg in list(_LIVE_SEGMENTS.values()):
        destroy_segment(seg)


def live_segment_names() -> list[str]:
    """Names of segments created here and not yet destroyed."""
    return sorted(_LIVE_SEGMENTS)


def leaked_dev_shm_segments() -> list[str]:
    """``/dev/shm`` entries carrying our prefix (should be empty when
    no backend is live) — the ground truth the leak tests assert on."""
    try:
        entries = os.listdir("/dev/shm")
    except (FileNotFoundError, NotADirectoryError, PermissionError):
        return []
    return sorted(e for e in entries if e.startswith(SEGMENT_PREFIX))


atexit.register(cleanup_all_segments)


def disable_child_shm_tracking() -> None:
    """Stop ``resource_tracker`` registration of shared memory in a
    *worker* process.

    Python 3.11's resource tracker registers a segment on every attach
    and unlinks it when the attaching process exits — which would tear
    segments out from under the parent (the well-known CPython
    gh-82300 behaviour; 3.13 grew ``track=False`` for this).  The
    parent owns segment lifetime here, so workers must not track.
    """
    from multiprocessing import resource_tracker

    orig = resource_tracker.register

    def register(name, rtype):  # pragma: no cover - runs in children
        if rtype == "shared_memory":
            return None
        return orig(name, rtype)

    resource_tracker.register = register


def ring_reduce_scatter_step(n: int, rank: int, k: int,
                             mine: np.ndarray, prev: np.ndarray,
                             barrier_wait: Callable[[], None]) -> None:
    """Rank ``rank``'s part of a k-rank ring reduce-scatter phase over
    the first ``n`` elements of ``mine`` / ``prev`` (float64 views of
    this rank's and the previous rank's segment).  Step ``s``
    accumulates chunk ``rank - 1 - s``; afterwards ``mine`` holds its
    :func:`~repro.comm.primitives.owned_chunk` of the sum.

    Transcribes the cooperative ring per rank.  The coop loops only ever
    read chunk slices disjoint from the slices written in the same ring
    step, so running the per-rank bodies concurrently with a barrier
    between steps performs the same float64 operation sequence per
    element.  The caller makes every rank's buffer visible before.
    """
    bounds = ring_chunk_bounds(n, k)
    for step in range(k - 1):
        j = (rank - 1 - step) % k
        mine[bounds[j]:bounds[j + 1]] += prev[bounds[j]:bounds[j + 1]]
        barrier_wait()


def ring_all_gather_step(n: int, rank: int, k: int,
                         mine: np.ndarray, prev: np.ndarray,
                         barrier_wait: Callable[[], None]) -> None:
    """The all-gather phase, laid out as :func:`ring_reduce_scatter_step`:
    step ``s`` copies chunk ``rank - s`` from the previous rank, so each
    rank's owned chunk reaches every other.  The caller makes the owned
    chunks visible before."""
    bounds = ring_chunk_bounds(n, k)
    for step in range(k - 1):
        j = (rank - step) % k
        mine[bounds[j]:bounds[j + 1]] = prev[bounds[j]:bounds[j + 1]]
        barrier_wait()


def ring_all_reduce_step(n: int, rank: int, k: int,
                         mine: np.ndarray, prev: np.ndarray,
                         barrier_wait: Callable[[], None]) -> None:
    """Rank ``rank``'s part of a k-rank ring all-reduce: the two phases
    back to back, *bit-identical* to the cooperative reference."""
    ring_reduce_scatter_step(n, rank, k, mine, prev, barrier_wait)
    ring_all_gather_step(n, rank, k, mine, prev, barrier_wait)


@contextlib.contextmanager
def attached(*names: str):
    """Attach, in a worker, to the parent's segments for one op."""
    segs: list[shared_memory.SharedMemory] = []
    try:
        for name in names:
            segs.append(shared_memory.SharedMemory(name=name))
        yield segs
    finally:
        for seg in segs:
            try:
                seg.close()
            except OSError:
                pass


def _worker_main(rank: int, size: int, conn, barrier, timeout: float,
                 segment_names: tuple[str, ...], make_ops, args) -> None:
    """Event loop of one pool worker (real OS process).

    Attaches the pool's segments for its whole life (an op table may
    keep views of them), builds its op table once, acknowledges, then
    serves ``(op, payload)`` requests with ``("ok", result)`` or
    ``("err", traceback)``.  On error the barrier is aborted so peers
    fail fast instead of deadlocking.
    """
    disable_child_shm_tracking()
    try:
        segments = [shared_memory.SharedMemory(name=name)
                    for name in segment_names]
        ops = make_ops(
            rank, size, lambda: barrier.wait(timeout), segments, *args
        )
    except Exception:  # reported to the parent, which raises it
        conn.send(("err", traceback.format_exc()))
        return
    conn.send(("ok", None))
    while True:
        try:
            op, payload = conn.recv()
        except (EOFError, OSError):  # parent died
            return
        try:
            reply = ("ok", ops[op](payload))
        except Exception:  # reported to the parent, which raises it
            barrier.abort()
            reply = ("err", traceback.format_exc())
        conn.send(reply)


class WorkerPool:
    """``size`` persistent worker processes serving one op table.

    ``make_ops(rank, size, barrier_wait, segments, *args)`` runs once
    inside each worker (after the fork, so what it builds lives there)
    and returns ``{op: callable(payload) -> result}``;
    ``barrier_wait()`` waits on the pool barrier for at most ``timeout``.
    With ``segment_bytes`` the pool owns one shared segment of that size
    per worker, unlinked by :meth:`close`; ``segments`` are those,
    attached in the worker, in rank order.

    Under the fork start method a worker starts as a copy of its
    creator, and every page of the creator's heap and ordinary mappings
    counts in the worker's resident set for its whole life, read or
    not.  The pool hands the creator's freed heap back to the kernel
    before it forks (:func:`~repro.nn.heap.release_freed_heap`), and a
    trainer keeps its replicas and moments in mappings no fork copies
    (:func:`~repro.nn.heap.unforked_zeros`), so neither reaches a
    worker.  Anything else large the creator holds does: build large
    state in ``make_ops``, where only the worker that owns it holds it.

    A worker that raises leaves the pool usable: one ``RuntimeError``
    carries every traceback.  A worker that *died*, or a pool silent
    for ``timeout`` seconds, is fatal: the error names the rank and the
    pool closes itself.
    """

    def __init__(self, size: int, make_ops: Callable, args: tuple = (), *,
                 name: str, segment_bytes: int = 0,
                 timeout: float = POOL_TIMEOUT):
        if size < 1:
            raise ValueError("pool size must be >= 1")
        self.size = size
        self.timeout = timeout
        self.name = name
        ctx = mp.get_context(_start_method())
        release_freed_heap()  # no worker starts with a copy of it
        self._barrier = ctx.Barrier(size)
        self._segments = (
            [create_segment(segment_bytes) for _ in range(size)]
            if segment_bytes else []
        )
        names = tuple(seg.name for seg in self._segments)
        self._conns = []
        self._procs = []
        self._closed = False
        for rank in range(size):
            parent_conn, child_conn = ctx.Pipe()
            proc = ctx.Process(
                target=_worker_main,
                args=(rank, size, child_conn, self._barrier, timeout,
                      names, make_ops, args),
                daemon=True,
                name=f"{name}-{rank}",
            )
            proc.start()
            child_conn.close()
            self._conns.append(parent_conn)
            self._procs.append(proc)
        try:
            self._collect(range(size))  # every op table is built
        except RuntimeError:
            self.close()
            raise

    def request(self, messages: Sequence[tuple | None]) -> list:
        """Send ``messages[rank]`` (an ``(op, payload)`` pair, or None
        to leave that worker idle) and return the results by rank."""
        if self._closed:
            raise RuntimeError(f"{self.name} pool is closed")
        if len(messages) != self.size:
            raise ValueError(f"{len(messages)} messages for pool of {self.size}")
        asked = [r for r, msg in enumerate(messages) if msg is not None]
        for rank in asked:
            try:
                self._conns[rank].send(messages[rank])
            except OSError:  # its end of the pipe closed with it
                self._fail(f"worker {rank} died before the request")
        results = self._collect(asked)
        return [results.get(rank) for rank in range(self.size)]

    def run(self, op: str, payloads: Sequence) -> list:
        """Issue ``op`` to every worker with its per-rank payload."""
        return self.request([(op, payload) for payload in payloads])

    def _collect(self, ranks: Sequence[int]) -> dict:
        """One result from each of ``ranks``, by rank.  Watches the
        process sentinels next to the pipes, so a death is seen when it
        happens and blamed on the worker that died."""
        pending = set(ranks)
        replies = {}
        deadline = time.monotonic() + self.timeout
        while pending:
            ready = wait_ready(
                [self._conns[r] for r in pending]
                + [self._procs[r].sentinel for r in pending],
                timeout=max(0.0, deadline - time.monotonic()),
            )
            if not ready:
                self._fail(
                    f"no reply from workers {sorted(pending)} within "
                    f"{self.timeout} s"
                )
            for rank in sorted(pending):
                conn, proc = self._conns[rank], self._procs[rank]
                if conn not in ready and proc.sentinel not in ready:
                    continue
                try:
                    if not conn.poll():  # exited and left nothing to read
                        raise EOFError
                    replies[rank] = conn.recv()
                except (EOFError, OSError):
                    proc.join(1.0)
                    self._fail(
                        f"worker {rank} died mid-request "
                        f"(exit code {proc.exitcode})"
                    )
                pending.discard(rank)
        errors = [
            f"worker {rank}:\n{payload}"
            for rank, (status, payload) in sorted(replies.items())
            if status != "ok"
        ]
        if errors:
            self._barrier.reset()
            raise RuntimeError(
                f"{self.name} pool: worker failure\n" + "\n".join(errors)
            )
        return {rank: result for rank, (_, result) in replies.items()}

    def _fail(self, message: str):
        """A worker is gone or silent: the pool is over."""
        self.close()
        raise RuntimeError(f"{self.name} pool: {message}")

    def close(self) -> None:
        """Kill the workers and unlink the pool's own segments.

        Killed, not asked to leave or released through the barrier: a
        worker owns nothing (the parent unlinks every segment), and
        ``Barrier.abort`` -- like the wait of the last peer to arrive --
        blocks for ever once a process died while waiting in it.
        """
        if self._closed:
            return
        self._closed = True
        for proc in self._procs:
            proc.kill()
        for proc, conn in zip(self._procs, self._conns):
            proc.join(timeout=2.0)
            conn.close()
        for seg in self._segments:
            destroy_segment(seg)
        self._segments = []

    def __del__(self):  # pragma: no cover - GC safety net
        try:
            self.close()
        except Exception:
            pass

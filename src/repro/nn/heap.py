"""The process's heap policy for numpy temporaries, and where long-lived
replica state lives.

A training step and a serving tick each free and re-allocate the same
numpy temporaries every iteration.  :func:`keep_heap_resident` keeps
what they free in the process, so a warm iteration reuses those pages
instead of faulting them in again.  A trainer's long-lived vectors live
outside that heap, in mappings a fork does not copy
(:func:`unforked_zeros`), and a build hands its freed temporaries back
(:func:`release_freed_heap`), so a replica worker forked later carries
neither (DESIGN.md, "Heap policy").
"""

import ctypes
import functools
import mmap
import os
import weakref

import numpy as np

#: glibc ``mallopt`` parameters (``<malloc.h>``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3

#: Every live mapping :func:`unforked_zeros` made in this process.
_LIVE = weakref.WeakSet()
#: In a forked child, the mappings its parent made: the child does not
#: have them, so it keeps their objects, whose release would unmap
#: whatever the child has since mapped at the same addresses.
_INHERITED = []


def _keep_inherited() -> None:
    _INHERITED.extend(_LIVE)
    _LIVE.clear()


if hasattr(os, "register_at_fork"):
    os.register_at_fork(after_in_child=_keep_inherited)


@functools.cache
def _libc(name: str):
    """libc's function ``name``, or None where there is none."""
    try:
        return getattr(ctypes.CDLL(None), name)
    except (AttributeError, OSError, TypeError):
        return None


@functools.cache
def keep_heap_resident() -> None:
    """Keep freed heap in the process: once per process, inherited by
    the workers it forks.

    glibc hands freed memory at the top of the heap back to the kernel
    past ``M_TRIM_THRESHOLD`` and serves blocks past ``M_MMAP_THRESHOLD``
    from fresh mappings, so every step faults its numpy temporaries in
    again (18k minor faults a coop step at ``train_ptd``'s shapes, 25-27k
    a single-worker step, 7.9k in each mp worker; 175k a
    ``serve_prefill`` pass).  Both thresholds are set together, because
    setting either one freezes glibc's dynamic tuning of both; the values
    are where that tuning tops out on 64-bit glibc (mmap 32 MiB, trim
    twice that).  Where libc has no ``mallopt`` this does nothing.
    """
    mallopt = _libc("mallopt")
    if mallopt is None:
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # 32-bit glibc refuses this mmap threshold; trim alone would be worse
    # than glibc's tuning, so it is set only with it.
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)


def unforked_zeros(n: int) -> np.ndarray:
    """``n`` float64 zeros in a private anonymous mapping of their own,
    marked ``MADV_DONTFORK``: a process forked later does not get it.

    For state a trainer keeps for its life and rewrites every step (a
    replica's flat vectors, Adam's moments).  In the heap, a worker
    forked after the trainer exists would carry a copy of every page of
    it, resident for the worker's life and read by nothing.  The
    mapping's pages cost nothing until written.

    After a fork the child has no such mapping: no child may read an
    array from here that its parent made, because the read faults.
    Where the platform has no ``MADV_DONTFORK`` the mapping is copied
    like any other.
    """
    mapping = mmap.mmap(-1, max(8 * n, 1), flags=mmap.MAP_PRIVATE)
    if hasattr(mmap, "MADV_DONTFORK"):
        mapping.madvise(mmap.MADV_DONTFORK)
    _LIVE.add(mapping)
    return np.frombuffer(mapping, dtype=np.float64, count=n)


def release_freed_heap() -> None:
    """Hand the heap's free pages back to the kernel (glibc
    ``malloc_trim(0)``), whatever :func:`keep_heap_resident` keeps.

    For the end of a build, whose temporaries (a serial model to cut
    shards from, the shard arrays copied into a flat vector) are freed
    and never needed again, and for just before a fork, so that no
    worker starts with a copy of them.  Where libc has no
    ``malloc_trim`` this does nothing.
    """
    malloc_trim = _libc("malloc_trim")
    if malloc_trim is not None:
        malloc_trim.argtypes = (ctypes.c_size_t,)
        malloc_trim.restype = ctypes.c_int
        malloc_trim(0)

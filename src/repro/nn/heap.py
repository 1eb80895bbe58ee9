"""The process's heap policy for numpy temporaries.

A training step and a serving tick each free and re-allocate the same
numpy temporaries every iteration.  :func:`keep_heap_resident` keeps
what they free in the process, so a warm iteration reuses those pages
instead of faulting them in again (DESIGN.md, "Heap policy").
"""

import ctypes
import functools

#: glibc ``mallopt`` parameters (``<malloc.h>``).
_M_TRIM_THRESHOLD = -1
_M_MMAP_THRESHOLD = -3


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
    try:
        mallopt = ctypes.CDLL(None).mallopt
    except (AttributeError, OSError, TypeError):
        return
    mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
    mallopt.restype = ctypes.c_int
    # 32-bit glibc refuses this mmap threshold; trim alone would be worse
    # than glibc's tuning, so it is set only with it.
    if mallopt(_M_MMAP_THRESHOLD, 32 << 20):
        mallopt(_M_TRIM_THRESHOLD, 64 << 20)

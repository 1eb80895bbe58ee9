"""The coop movers as they logged traffic before the log kept one entry
per collective call: each loop reported every hop to a ``hop(src_index,
dst_index, nbytes)`` callable as it moved the chunk.  The loops below
are those movers verbatim; the oracle that ``TrafficLog.records`` --
each entry expanded through its op's plan in
:data:`repro.comm.primitives.HOP_PLANS` -- and the plan functions
themselves are held to (``tests/test_backend.py``).

:func:`reference_records` runs one call the way the front door called
the movers then: the same argument preparation, group positions mapped
to global ranks, nothing for a group of one.
"""

from __future__ import annotations

from typing import Callable

import numpy as np

from repro.comm.primitives import ring_chunk_bounds

#: ``hop(src_index, dst_index, nbytes)``: one transfer between two
#: members of the group, by position in ``ranks``.
Hop = Callable[[int, int, int], None]


class ReferenceCoop:
    """The per-hop coop loops: the arithmetic and every ``hop`` call."""

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


REFERENCE = ReferenceCoop()


def reference_hops(op: str, buffers, ranks, *, root=None, axis=0
                   ) -> list[tuple[int, int, int]]:
    """``(src_index, dst_index, nbytes)`` of every hop the per-hop loops
    report for one valid call of the front door's ``op`` (a method name
    of :class:`repro.comm.primitives.Backend`; ``buffers`` its one
    buffer for ``broadcast`` and ``send``)."""
    hops = []

    def hop(src, dst, nbytes):
        hops.append((src, dst, nbytes))

    k = len(ranks)
    if op == "send":
        REFERENCE._send(np.asarray(buffers), hop)
        return hops
    if k == 1:
        return hops
    if op == "broadcast":
        REFERENCE._broadcast(np.asarray(buffers), list(ranks).index(root), k,
                             hop)
    elif op == "all_reduce":
        REFERENCE._all_reduce([np.array(b, dtype=np.float64).reshape(-1)
                               for b in buffers], hop)
    elif op == "all_gather":
        arrs = [np.asarray(s) for s in buffers]
        REFERENCE._all_gather(arrs, axis % arrs[0].ndim, hop)
    elif op == "reduce_scatter":
        REFERENCE._reduce_scatter(
            [np.asarray(b).astype(np.float64) for b in buffers],
            np.asarray(buffers[0]).nbytes, hop)
    else:  # reduce_scatter_phase / all_gather_phase, on copies
        getattr(REFERENCE, f"_{op}")([np.array(b) for b in buffers], hop)
    return hops


def reference_records(op: str, buffers, ranks, kind, tag, *, root=None,
                      axis=0) -> list[tuple]:
    """The same hops as ``(src, dst, nbytes, kind, tag)`` with global
    ranks, as the log kept them."""
    return [(ranks[src], ranks[dst], nbytes, kind, tag)
            for src, dst, nbytes in reference_hops(op, buffers, ranks,
                                                   root=root, axis=axis)]

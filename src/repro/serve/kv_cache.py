"""Paged key/value cache for incremental GPT decode.

vLLM-style block allocation (arXiv 2309.06180, the natural serving
counterpart of the source paper's training stack): the continuous-
batching engine (:mod:`repro.serve.engine`) admits, preempts and
finishes requests by allocating and releasing fixed-size *blocks* of
positions from a shared pool, in O(block_size) granules.

Two layers:

- :class:`BlockAllocator` — bookkeeping only: a free list plus a live
  set, with double-free detection and an all-or-nothing ``alloc_many``
  so a failed extension never leaks partial allocations.  Property
  tests (``tests/test_serve.py``) drive random alloc/free sequences
  against its invariants: no double-assignment, never above capacity,
  zero live blocks once every request finished (mirroring the
  ``/dev/shm`` zero-leak check of the mp backend).
- :class:`PagedKVCache` — the tensors, in a *slot store*
  (vAttention, arXiv 2405.04437, with CPU pages in place of CUDA
  virtual memory): every handle holding K/V owns one slot, a run of
  positions laid out position-major as ``(slot, position, 2, layer,
  head, head_dim)`` in one private anonymous mapping whose pages the
  OS commits on first write.  Block ``j`` of a handle's table names
  positions ``[j*block_size, (j+1)*block_size)`` of its slot: one
  contiguous run, so its CRC is one zero-copy ``crc32``.  ``append``
  writes the new tokens' keys/values returned by
  :meth:`repro.nn.transformer.GPTModel.forward_step`; ``gather`` hands
  back views of the slots as its ``past_kvs``, and a batched forward
  writes its new token into them in place, leaving ``append`` only the
  bookkeeping.  Nothing is copied to be read.  Positions past a
  handle's length read zeros.
"""

from __future__ import annotations

import heapq
import mmap
import os
import sys
import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.nn.heap import keep_heap_resident
from repro.obs.tracer import span


# Reserve no swap for the store: under heuristic overcommit its virtual
# size is not charged to the commit limit.  Python names the flag from
# 3.13; 0x4000 is its value on Linux for x86-64 and arm64.
_MAP_NORESERVE = getattr(mmap, "MAP_NORESERVE", (
    0x4000 if sys.platform == "linux"
    and os.uname().machine in ("x86_64", "aarch64") else 0))


class CacheFull(RuntimeError):
    """The block pool has no free block for a requested allocation."""


class DecodeCrashError(RuntimeError):
    """An injected decode-step crash
    (:class:`~repro.resilience.serve_chaos.DecodeCrash`).  It fires
    before sampling, so a recompute-restart retry reproduces the oracle
    stream; the engine retries it like a :class:`KVCorruptionError`."""

    def __init__(self, step: int, request_id: str):
        super().__init__(
            f"injected decode crash at step {step} on {request_id}"
        )
        self.step = step
        self.request_id = request_id


class KVCorruptionError(RuntimeError):
    """A block's stored K/V no longer matches its recorded checksum.

    Raised by :meth:`PagedKVCache.gather` (checksummed caches only)
    before the corrupted values can feed a forward pass -- the engine
    treats it like a decode-step crash and recompute-restarts the
    request.
    """

    def __init__(self, block: int):
        super().__init__(
            f"KV cache block {block} failed its checksum "
            f"(stored data was corrupted in place)"
        )
        self.block = block


class BlockAllocator:
    """Free-list allocator over ``num_blocks`` equally-sized blocks."""

    def __init__(self, num_blocks: int):
        if num_blocks < 1:
            raise ValueError(f"num_blocks must be >= 1, got {num_blocks}")
        self.num_blocks = num_blocks
        # LIFO free list: block 0 is handed out first (stable, testable).
        self._free = list(range(num_blocks - 1, -1, -1))
        self._live: set[int] = set()

    @property
    def capacity(self) -> int:
        return self.num_blocks

    @property
    def live(self) -> int:
        return len(self._live)

    @property
    def free_blocks(self) -> int:
        return len(self._free)

    def alloc(self) -> int:
        if not self._free:
            raise CacheFull(
                f"all {self.num_blocks} cache blocks are live"
            )
        block = self._free.pop()
        self._live.add(block)
        return block

    def alloc_many(self, n: int) -> list[int]:
        """Allocate ``n`` blocks atomically: all of them or none.

        A failed extension must leave the caller's block table unchanged
        so a preempted-and-retried request sees consistent state.
        """
        if n < 0:
            raise ValueError(f"cannot allocate {n} blocks")
        if n > len(self._free):
            raise CacheFull(
                f"need {n} blocks, only {len(self._free)} of "
                f"{self.num_blocks} free"
            )
        return [self.alloc() for _ in range(n)]

    def free(self, block: int) -> None:
        if block not in self._live:
            raise ValueError(
                f"double free (or foreign block): {block} is not live"
            )
        self._live.remove(block)
        self._free.append(block)

    def assert_empty(self) -> None:
        """Zero live blocks -- the serving analogue of 'no leaked
        /dev/shm segments'."""
        if self._live:
            raise AssertionError(
                f"leaked cache blocks: {sorted(self._live)}"
            )


@dataclass
class KVHandle:
    """One request's share of the pool: its block table, its length and
    the slot its positions live in (``None`` until it holds any)."""

    block_table: list[int] = field(default_factory=list)
    length: int = 0  # cached token positions
    freed: bool = False
    slot: int | None = None

    @property
    def live_blocks(self) -> int:
        return len(self.block_table)


class PagedKVCache:
    """Block-accounted K/V storage shared by every request of one model.

    The store is ``num_blocks`` slots of ``max_length`` positions each
    (rounded up to whole blocks, and at most the pool's) -- as many as
    one handle can hold; :meth:`for_model` passes the model's window,
    past which decode never caches.  They sit in one private anonymous
    mapping that reserves nothing: virtual, linear in ``num_blocks``,
    ``max_length / block_size`` times the pool's bytes at most.  What
    is resident is bounded by the pool's bytes: a freed slot stays
    warm, with what its occupant wrote zeroed, until the warm total
    would pass that budget; then the coldest slots' pages go back to
    the OS (``MADV_DONTNEED``), which reads them as zeros again.
    """

    def __init__(
        self,
        num_layers: int,
        num_heads: int,
        head_dim: int,
        *,
        num_blocks: int,
        block_size: int,
        max_length: int,
        checksums: bool = False,
    ):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        # The store is mapped outside malloc; without the policy glibc
        # hands a tick's freed temporaries back and faults them in again.
        keep_heap_resident()
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.block_size = block_size
        self.checksums = checksums
        self.allocator = BlockAllocator(num_blocks)
        positions = num_blocks * block_size
        held = min(num_blocks, self.blocks_for(max_length)) * block_size
        self._position_bytes = 2 * num_layers * num_heads * head_dim * 8
        # Slots start on page boundaries, so one can be returned whole.
        self._slot_bytes = -(-held * self._position_bytes
                             // mmap.PAGESIZE) * mmap.PAGESIZE
        self._map = mmap.mmap(-1, num_blocks * self._slot_bytes,
                              flags=mmap.MAP_PRIVATE | _MAP_NORESERVE)
        item = 8 * head_dim
        self.store = np.ndarray(
            (num_blocks, held, 2, num_layers, num_heads, head_dim),
            buffer=self._map,
            strides=(self._slot_bytes, self._position_bytes,
                     num_layers * num_heads * item, num_heads * item,
                     item, 8),
        )
        self._free_slots = list(range(num_blocks))  # a heap: lowest first
        self._owner: dict[int, KVHandle] = {}  # live slot -> its handle
        # Positions per slot that may be resident, and their sum, held
        # at or under the pool's positions.
        self._warm = [0] * num_blocks
        self._warm_total = 0
        self._budget = positions
        # block -> CRC32 over the block's run of its slot; entries exist
        # only for live blocks of checksummed caches.
        self._crcs: dict[int, int] = {}

    @classmethod
    def for_model(cls, model, *, num_blocks: int, block_size: int,
                  checksums: bool = False):
        """Pool sized for a :class:`repro.nn.transformer.GPTModel`."""
        config = model.config
        return cls(
            config.num_layers,
            config.num_attention_heads,
            config.hidden_size // config.num_attention_heads,
            num_blocks=num_blocks,
            block_size=block_size,
            max_length=config.seq_length,
            checksums=checksums,
        )

    def _run(self, slot: int, index: int) -> np.ndarray:
        """Block ``index`` of ``slot``: one contiguous run of positions."""
        first = index * self.block_size
        return self.store[slot, first:first + self.block_size]

    # -- capacity -----------------------------------------------------------
    @property
    def capacity(self) -> int:
        return self.allocator.capacity

    @property
    def free_blocks(self) -> int:
        return self.allocator.free_blocks

    @property
    def live_blocks(self) -> int:
        return self.allocator.live

    def blocks_for(self, num_positions: int) -> int:
        """Blocks a sequence of ``num_positions`` cached tokens occupies."""
        return -(-num_positions // self.block_size)

    # -- per-request handles ------------------------------------------------
    def create(self) -> KVHandle:
        return KVHandle()

    def _check(self, handles) -> list[KVHandle]:
        """``handles`` as a list (one handle is a batch of one)."""
        handles = [handles] if isinstance(handles, KVHandle) else handles
        if any(handle.freed for handle in handles):
            raise ValueError("handle already freed")
        return handles

    def append(self, handles, new_kvs=None) -> None:
        """Record new tokens' K/V: one ``(k, v)`` pair per layer, each
        ``(B, a, s_new, dk)`` as ``forward_step`` returns them, row ``i``
        going to ``handles[i]`` (one handle stands for a batch of one).
        Without ``new_kvs``, the batched forward already wrote one
        position per row in place, through the views :meth:`gather`
        handed out, and only the bookkeeping is left.

        Needed blocks are allocated atomically *before* anything is
        recorded, so an append past the pool's free blocks, or past the
        positions a slot holds, raises :class:`CacheFull` and leaves
        every handle unchanged (a position written in place reads zero
        again).  Checksummed caches refresh the CRC of every block
        written.
        """
        handles = self._check(handles)
        s_new = 1
        if new_kvs is not None:
            if len(new_kvs) != self.num_layers:
                raise ValueError(f"expected {self.num_layers} layers of "
                                 f"K/V, got {len(new_kvs)}")
            s_new = new_kvs[0][0].shape[2]
            want = (len(handles), self.num_heads, s_new, self.head_dim)
            for k, v in new_kvs:
                if k.shape != want or v.shape != want:
                    raise ValueError(
                        f"K/V shape {k.shape} != expected {want}")
        if not s_new:
            return
        extra = [self.blocks_for(h.length + s_new) - len(h.block_table)
                 for h in handles]
        try:
            held = self.store.shape[1]
            if max(h.length for h in handles) + s_new > held:
                raise CacheFull(f"a handle holds at most {held} positions")
            fresh = iter(self.allocator.alloc_many(sum(extra)))
        except CacheFull:
            if new_kvs is None:  # undo the forward's writes
                for h in handles:
                    if h.slot is not None:
                        self.store[h.slot, h.length:h.length + 1] = 0.0
            raise
        for row, (handle, n) in enumerate(zip(handles, extra)):
            if handle.slot is None:
                # Free slots cannot run out: each live one holds a block.
                handle.slot = heapq.heappop(self._free_slots)
                self._owner[handle.slot] = handle
            handle.block_table.extend(next(fresh) for _ in range(n))
            first, slot = handle.length, handle.slot
            if new_kvs is not None:
                # (a, s_new, dk) -> the slot's (s_new, a, dk) positions.
                dst = self.store[slot, first:first + s_new]
                for layer, (k, v) in enumerate(new_kvs):
                    dst[:, 0, layer] = k[row].transpose(1, 0, 2)
                    dst[:, 1, layer] = v[row].transpose(1, 0, 2)
            handle.length += s_new
            if handle.length > self._warm[slot]:
                self._warm_total += handle.length - self._warm[slot]
                self._warm[slot] = handle.length
            if self.checksums:
                for index in range(first // self.block_size,
                                   len(handle.block_table)):
                    self._crcs[handle.block_table[index]] = zlib.crc32(
                        self._run(slot, index))
        if self._warm_total > self._budget:
            self._trim()

    def gather(self, handles):
        """Past K/V as :meth:`GPTModel.forward_step` takes it, as views
        of the store.  A single handle gets the list of its exact
        ``(1, a, length, dk)`` ``(k, v)`` pairs, one per layer.  A batch
        gets a generator yielding, layer by layer, a list of runs
        ``(rows, k, v)``: ``rows`` indexes the batch rows whose slots
        are consecutive, and ``k``, ``v`` are ``(len(rows), a, S, dk)``
        views of those slots, ``S`` one past the run's longest context
        -- the position the decoded token goes to.  A row reads zeros
        past its length.  Views alias the store: they hold a handle's
        K/V only until its next :meth:`append` or :meth:`free`.

        Checksummed caches verify every block of every handle first and
        raise :class:`KVCorruptionError` on a mismatch, so corrupted
        state can never silently feed a forward pass.
        """
        batch = not isinstance(handles, KVHandle)
        handles = self._check(handles)
        if self.checksums:
            # Hot path (every block, every decode step): one crc32 per
            # block, in batch order.
            crcs, run, crc32 = self._crcs, self._run, zlib.crc32
            for handle in handles:
                for index, block in enumerate(handle.block_table):
                    if crcs.get(block) != crc32(run(handle.slot, index)):
                        raise KVCorruptionError(block)
        if not batch:
            (handle,) = handles
            slot = handle.slot or 0  # nothing cached: an empty view
            kv = self.store[slot:slot + 1, :handle.length]
            return [(kv[:, :, 0, layer].transpose(0, 2, 1, 3),
                     kv[:, :, 1, layer].transpose(0, 2, 1, 3))
                    for layer in range(self.num_layers)]
        slots = [handle.slot for handle in handles]
        if None in slots:
            raise ValueError("a batched gather reads cached K/V: every "
                             "handle must hold some")
        order = sorted(range(len(slots)), key=slots.__getitem__)
        runs, first = [], 0
        for end in range(1, len(order) + 1):
            if (end < len(order)
                    and slots[order[end]] == slots[order[end - 1]] + 1):
                continue
            rows = order[first:end]
            top, first = slots[rows[0]], end
            past = max(handles[row].length for row in rows)
            runs.append((np.array(rows),
                         self.store[top:top + len(rows), :past + 1]))
        # A generator: each layer's views are made as that layer asks.
        return (self._views(runs, layer) for layer in range(self.num_layers))

    def _views(self, runs, layer: int):
        with span("kv-read", phase="serve"):
            return [(rows, kv[:, :, 0, layer].transpose(0, 2, 1, 3),
                     kv[:, :, 1, layer].transpose(0, 2, 1, 3))
                    for rows, kv in runs]

    def corrupt_block(self, block: int) -> None:
        """Flip one bit of a stored value *without* refreshing its
        checksum.

        Chaos/test hook modelling in-place memory corruption: the next
        checksummed :meth:`gather` touching ``block`` raises
        :class:`KVCorruptionError`.  A flipped bit changes any value,
        inf and NaN included, so the flip never no-ops.
        """
        for slot, handle in self._owner.items():
            if block in handle.block_table:
                run = self._run(slot, handle.block_table.index(block))
                run.view(np.uint64).flat[0] ^= 1
                return
        raise ValueError(f"block {block} is in no handle's table")

    def free(self, handle: KVHandle) -> None:
        self._check(handle)
        for block in handle.block_table:
            self.allocator.free(block)
            self._crcs.pop(block, None)
        if handle.slot is not None:  # zero what it wrote; the slot stays warm
            self.store[handle.slot, :handle.length] = 0.0
            del self._owner[handle.slot]
            heapq.heappush(self._free_slots, handle.slot)
            handle.slot = None
        handle.block_table = []
        handle.length = 0
        handle.freed = True

    def _trim(self) -> None:
        """Bring the warm total back to the budget: return whole free
        slots first, the last handed out first, then live slots' pages
        past their lengths."""
        for slot in sorted(self._free_slots, reverse=True):
            if self._warm[slot]:
                self._release(slot, 0)
                if self._warm_total <= self._budget:
                    return
        for slot, handle in self._owner.items():
            if self._warm[slot] > handle.length:
                self._release(slot, handle.length)

    def _release(self, slot: int, keep: int) -> None:
        """Return the pages of ``slot`` past its first ``keep`` positions
        (a page ``keep`` ends inside stays; it holds zeros past it)."""
        page = mmap.PAGESIZE
        start = (slot * self._slot_bytes
                 + -(-keep * self._position_bytes // page) * page)
        end = (slot + 1) * self._slot_bytes
        if start < end:
            self._map.madvise(mmap.MADV_DONTNEED, start, end - start)
        self._warm_total -= self._warm[slot] - keep
        self._warm[slot] = keep

    def assert_empty(self) -> None:
        self.allocator.assert_empty()
        if self._owner:
            raise AssertionError(
                f"leaked cache slots: {sorted(self._owner)}")

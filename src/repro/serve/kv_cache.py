"""Paged key/value cache for incremental GPT decode.

vLLM-style block allocation (arXiv 2309.06180, the natural serving
counterpart of the source paper's training stack): each decoding
request's keys/values live in fixed-size *blocks* drawn from a shared
pool, so memory is allocated in O(block_size) granules instead of one
contiguous max-length slab per request.  The continuous-batching engine
(:mod:`repro.serve.engine`) admits, preempts and finishes requests by
allocating and releasing blocks here.

Two layers:

- :class:`BlockAllocator` — bookkeeping only: a free list plus a live
  set, with double-free detection and an all-or-nothing ``alloc_many``
  so a failed extension never leaks partial allocations.  Property
  tests (``tests/test_serve.py``) drive random alloc/free sequences
  against its invariants: no double-assignment, never above capacity,
  zero live blocks once every request finished (mirroring the
  ``/dev/shm`` zero-leak check of the mp backend).
- :class:`PagedKVCache` — the tensors: one fused pool of shape
  ``(num_blocks + 1, 2, L, block_size, a, dk)``.  ``append`` writes the
  new tokens' keys/values returned by
  :meth:`repro.nn.transformer.GPTModel.forward_step`; ``gather`` hands
  them back as its ``past_kvs``.  Both take one handle or a batch of
  them: a batch is read through all the block tables at once, one
  layer at a time, padded to the longest context from an all-zero
  block no request ever owns.  Values round-trip bit-exactly (plain
  fancy-indexed copies).
"""

from __future__ import annotations

import zlib
from dataclasses import dataclass, field

import numpy as np

from repro.obs.tracer import span


class CacheFull(RuntimeError):
    """The block pool has no free block for a requested allocation."""


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
    """One request's slice of the pool: its block table and length."""

    block_table: list[int] = field(default_factory=list)
    length: int = 0  # cached token positions
    freed: bool = False

    @property
    def live_blocks(self) -> int:
        return len(self.block_table)


class PagedKVCache:
    """Block-pooled K/V storage shared by every request of one model."""

    def __init__(
        self,
        num_layers: int,
        num_heads: int,
        head_dim: int,
        *,
        num_blocks: int,
        block_size: int,
        checksums: bool = False,
    ):
        if block_size < 1:
            raise ValueError(f"block_size must be >= 1, got {block_size}")
        self.num_layers = num_layers
        self.num_heads = num_heads
        self.head_dim = head_dim
        self.block_size = block_size
        self.checksums = checksums
        self.allocator = BlockAllocator(num_blocks)
        # Block-major layout with K and V fused on one axis:
        # kv_pool[block] is one contiguous buffer holding the block's
        # entire K then V state, so the per-block CRC is a single
        # zero-copy crc32 call (layer-major or split pools would cost a
        # copy or a second call per hash -- measurable at decode rates,
        # since gather verifies every block of a handle each step).
        # One block past the allocator's: the zeros batched reads pad with.
        shape = (num_blocks + 1, 2, num_layers, block_size, num_heads, head_dim)
        self.kv_pool = np.zeros(shape)
        self.k_pool = self.kv_pool[:, 0]
        self.v_pool = self.kv_pool[:, 1]
        # block -> CRC32 over the block's K+V bytes; entries exist only
        # for live blocks of checksummed caches.
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
            checksums=checksums,
        )

    def _block_crc(self, block: int) -> int:
        return zlib.crc32(self.kv_pool[block])  # contiguous: zero-copy

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

    def _slots(self, handles, first, count: int):
        """``(blocks, offs)`` pool indices, each (B, count), of positions
        ``first[i] .. first[i] + count - 1`` of every handle.  Columns
        past a handle's block table point into the all-zero block."""
        pos = np.asarray(first)[:, None] + np.arange(count)
        table = np.full((len(handles), self.blocks_for(max(first) + count)),
                        self.capacity)
        for row, handle in zip(table, handles):
            row[:len(handle.block_table)] = handle.block_table
        return (table[np.arange(len(handles))[:, None], pos // self.block_size],
                pos % self.block_size)

    def append(self, handles, new_kvs) -> None:
        """Write new tokens' K/V: one ``(k, v)`` pair per layer, each
        ``(B, a, s_new, dk)`` as ``forward_step`` returns them, row ``i``
        going to ``handles[i]`` (one handle stands for a batch of one).

        Needed blocks are allocated atomically *before* any write, so an
        out-of-capacity append raises :class:`CacheFull` and leaves
        every handle unchanged.  Checksummed caches refresh the CRC of
        every block written.
        """
        handles = self._check(handles)
        if len(new_kvs) != self.num_layers:
            raise ValueError(
                f"expected {self.num_layers} layers of K/V, got {len(new_kvs)}"
            )
        s_new = new_kvs[0][0].shape[2]
        want = (len(handles), self.num_heads, s_new, self.head_dim)
        for k, v in new_kvs:
            if k.shape != want or v.shape != want:
                raise ValueError(f"K/V shape {k.shape} != expected {want}")
        extra = [self.blocks_for(h.length + s_new) - len(h.block_table)
                 for h in handles]
        fresh = iter(self.allocator.alloc_many(sum(extra)))
        for handle, n in zip(handles, extra):
            handle.block_table.extend(next(fresh) for _ in range(n))
        blocks, offs = self._slots(handles, [h.length for h in handles], s_new)
        for layer, (k, v) in enumerate(new_kvs):
            # (B, a, s_new, dk) -> (B, s_new, a, dk) slots.
            self.k_pool[blocks, layer, offs] = k.transpose(0, 2, 1, 3)
            self.v_pool[blocks, layer, offs] = v.transpose(0, 2, 1, 3)
        for handle in handles:
            handle.length += s_new
        if self.checksums:
            for block in dict.fromkeys(blocks.ravel().tolist()):
                self._crcs[block] = self._block_crc(block)

    def gather(self, handles):
        """Past K/V as :meth:`GPTModel.forward_step` takes it: per layer
        one ``(k, v)`` pair.  A single handle gets the list of exact
        ``(1, a, length, dk)`` pairs.  A batch of handles is read
        through their block tables one layer at a time, as that layer is
        asked for: fresh ``(B, a, S, dk)`` buffers, zero-padded to
        ``S = max(lengths) + 1`` -- one free slot behind every row for
        the token being decoded.

        Checksummed caches verify every block of every handle first and
        raise :class:`KVCorruptionError` on a mismatch, so corrupted
        state can never silently feed a forward pass.
        """
        batch = not isinstance(handles, KVHandle)
        handles = self._check(handles)
        if self.checksums:
            # Hot path (every block, every decode step): locals bound
            # outside the loop, one crc32 per block.
            crcs, pool, crc32 = self._crcs, self.kv_pool, zlib.crc32
            for handle in handles:
                for block in handle.block_table:
                    if crcs.get(block) != crc32(pool[block]):
                        raise KVCorruptionError(block)
        blocks, offs = self._slots(handles, [0] * len(handles),
                                   max(h.length for h in handles) + batch)
        # A generator that binds no layer to a name: the reader's
        # reference is the only one, so one layer is alive at a time.
        past = (self._read(layer, blocks, offs)
                for layer in range(self.num_layers))
        return past if batch else list(past)

    def _read(self, layer: int, blocks, offs):
        with span("kv-read", phase="serve"):
            # (B, S, a, dk) copies, viewed head-major.
            return (self.k_pool[blocks, layer, offs].transpose(0, 2, 1, 3),
                    self.v_pool[blocks, layer, offs].transpose(0, 2, 1, 3))

    def corrupt_block(self, block: int) -> None:
        """Perturb one stored value *without* refreshing its checksum.

        Chaos/test hook modelling in-place memory corruption: the next
        checksummed :meth:`gather` touching ``block`` raises
        :class:`KVCorruptionError`.  ``x + 1.0`` differs from ``x`` for
        every finite cached magnitude, so the flip never no-ops.
        """
        self.k_pool[block, 0, 0, 0, 0] += 1.0

    def free(self, handle: KVHandle) -> None:
        self._check(handle)
        for block in handle.block_table:
            self.allocator.free(block)
            self._crcs.pop(block, None)
        handle.block_table = []
        handle.length = 0
        handle.freed = True

    def assert_empty(self) -> None:
        self.allocator.assert_empty()

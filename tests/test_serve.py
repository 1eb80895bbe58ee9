"""Tests for repro.serve: paged KV cache, continuous batching, TP decode.

The contract throughout is *differential*: every fast serving path must
produce the same token stream as the slow full-recompute
``repro.nn.generate.generate`` oracle.  Allocator safety is pinned by
hypothesis property tests; scheduler invariants (token conservation,
FIFO no-starvation, deterministic replay) are audited through the
run-log event stream on the engine's virtual clock.
"""

import io
import json
import mmap
import re
import zlib
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import tiny_test_model
from repro.nn import GPTModel, generate
from repro.obs.runlog import RunLogger
from repro.serve import (
    CacheFull,
    DecodeSession,
    KVCorruptionError,
    PagedKVCache,
    ServeEngine,
    TraceRequest,
    cached_generate,
    load_trace,
    poisson_trace,
    save_trace,
    tp_generate,
    trace_from_json,
    trace_to_json,
    validate_serve_metrics,
)

from .test_verify import _JSON, _SCALAR

CFG = tiny_test_model()  # seq_length=8, vocab 64


def model():
    return GPTModel(CFG, seed=0)


# ---------------------------------------------------------------------------
# block accounting: hypothesis property tests at the pool level
# ---------------------------------------------------------------------------

_BATCH = st.lists(st.integers(0, 7), min_size=1, max_size=3, unique=True)
_POOL_OPS = st.lists(st.one_of(
    st.tuples(st.just("create")),
    st.tuples(st.just("append"), _BATCH, st.integers(1, 5)),
    st.tuples(st.just("free"), st.integers(0, 7)),
    st.tuples(st.just("hold"), st.integers(0, 4)),
    st.tuples(st.just("unhold"), st.integers(0, 4)),
), max_size=50)


class TestBlockAllocator:
    """The pool allocates blocks by one used-block count: checked against
    the handles and the holds it stands for, over any
    create/append/free/hold/unhold sequence."""

    def state(self, cache, handles):
        return (cache.live_blocks, cache.free_blocks, cache.store.tobytes(),
                [(h.length, h.slot, h.live_blocks) for h in handles])

    @given(num_blocks=st.integers(1, 8), block_size=st.integers(1, 3),
           checksums=st.booleans(), ops=_POOL_OPS, seed=st.integers(0, 99))
    @settings(max_examples=200, deadline=None)
    def test_alloc_free_invariants(self, num_blocks, block_size, checksums,
                                   ops, seed):
        cache = PagedKVCache(1, 1, 2, num_blocks=num_blocks,
                             block_size=block_size, max_length=9,
                             checksums=checksums)
        rng = np.random.default_rng(seed)
        handles, held = [], 0
        for op, *args in ops:
            if op == "create":
                handles.append(cache.create())
            elif op == "append" and handles:
                batch = [handles[i] for i in
                         dict.fromkeys(i % len(handles) for i in args[0])]
                s_new = args[1]
                kv = rng.standard_normal((len(batch), 1, s_new, 2))
                before = self.state(cache, handles)
                lengths = [h.length for h in batch]
                try:
                    cache.append(batch, [(kv, kv)])
                except CacheFull:
                    # refused only when a slot or the pool is short ...
                    grant = sum(cache.blocks_for(n + s_new)
                                - cache.blocks_for(n) for n in lengths)
                    assert (max(lengths) + s_new > cache.store.shape[1]
                            or grant > cache.free_blocks)
                    # ... and then nothing changed
                    assert self.state(cache, handles) == before
                else:
                    assert [h.length for h in batch] == [
                        n + s_new for n in lengths]
            elif op == "free" and handles:
                handle = handles.pop(args[0] % len(handles))
                cache.free(handle)
                with pytest.raises(ValueError):
                    cache.free(handle)  # a double free
            elif op == "hold":
                before = self.state(cache, handles)
                try:
                    cache.hold(args[0])
                except CacheFull:
                    assert args[0] > cache.free_blocks
                    assert self.state(cache, handles) == before
                else:
                    held += args[0]
            elif op == "unhold":
                before = self.state(cache, handles)
                try:
                    cache.unhold(args[0])
                except ValueError:
                    assert args[0] > held
                    assert self.state(cache, handles) == before
                else:
                    held -= args[0]
            live = cache.live_blocks
            assert live <= cache.capacity
            assert live + cache.free_blocks == cache.capacity
            assert live == sum(h.live_blocks for h in handles) + held
            assert all(h.live_blocks == cache.blocks_for(h.length)
                       for h in handles)
        if held or any(h.length for h in handles):
            with pytest.raises(AssertionError):
                cache.assert_empty()
        for handle in handles:
            cache.free(handle)
        cache.unhold(held)
        cache.assert_empty()

    def test_alloc_many_is_atomic(self):
        """A batched grant the pool is short of takes no block and leaves
        every handle, the count and the store as they were."""
        cache = PagedKVCache(1, 1, 2, num_blocks=3, block_size=2,
                             max_length=4)
        a, b = cache.create(), cache.create()
        one = np.ones((1, 1, 1, 2))
        cache.append(a, [(one, one)])  # a: 1 block
        before = self.state(cache, [a, b])
        three = np.ones((2, 1, 3, 2))
        with pytest.raises(CacheFull, match="need 3 blocks, only 2"):
            cache.append([a, b], [(three, three)])  # a +1, b +2
        assert self.state(cache, [a, b]) == before
        with pytest.raises(CacheFull):
            cache.hold(3)
        assert self.state(cache, [a, b]) == before
        assert cache.free_blocks == 2  # nothing consumed by the failures
        cache.free(a)
        cache.free(b)
        cache.assert_empty()

    def test_double_free_rejected(self):
        cache = PagedKVCache(1, 1, 2, num_blocks=2, block_size=2,
                             max_length=4)
        handle = cache.create()
        kv = np.ones((1, 1, 1, 2))
        cache.append(handle, [(kv, kv)])
        cache.free(handle)
        with pytest.raises(ValueError):
            cache.free(handle)
        assert cache.free_blocks == 2  # its block went back once
        cache.assert_empty()

    def test_assert_empty_raises_on_leak(self):
        cache = PagedKVCache(1, 1, 2, num_blocks=2, block_size=2,
                             max_length=4)
        cache.hold(1)  # a block no handle fills
        with pytest.raises(AssertionError, match="1 in use"):
            cache.assert_empty()
        cache.unhold(1)
        handle = cache.create()
        kv = np.ones((1, 1, 1, 2))
        cache.append(handle, [(kv, kv)])  # a slot and its block
        with pytest.raises(AssertionError, match=r"slots \[0\] owned"):
            cache.assert_empty()
        with pytest.raises(ValueError):
            cache.unhold(1)  # the handle's block is not held
        cache.free(handle)
        cache.assert_empty()


# ---------------------------------------------------------------------------
# paged KV cache
# ---------------------------------------------------------------------------

class TestPagedKVCache:
    def kv(self, rng, n):
        """Random per-layer (k, v) pairs shaped (1, heads, n, head_dim)."""
        a = CFG.num_attention_heads
        dk = CFG.hidden_size // a
        return [
            (rng.standard_normal((1, a, n, dk)),
             rng.standard_normal((1, a, n, dk)))
            for _ in range(CFG.num_layers)
        ]

    def test_append_gather_round_trip(self):
        cache = PagedKVCache.for_model(model(), num_blocks=8, block_size=3)
        rng = np.random.default_rng(0)
        handle = cache.create()
        first, second = self.kv(rng, 4), self.kv(rng, 2)
        cache.append(handle, first)
        cache.append(handle, second)
        got = cache.gather(handle)
        for layer in range(CFG.num_layers):
            want_k = np.concatenate(
                [first[layer][0], second[layer][0]], axis=2)
            want_v = np.concatenate(
                [first[layer][1], second[layer][1]], axis=2)
            np.testing.assert_array_equal(got[layer][0], want_k)
            np.testing.assert_array_equal(got[layer][1], want_v)
        cache.free(handle)
        cache.assert_empty()

    def test_warm_slots_stay_within_the_pool(self):
        """Freed slots stay warm, zeroed, while the warm total fits the
        pool's positions; past it, free slots go back first, then live
        slots' pages past their lengths."""
        cache = PagedKVCache.for_model(model(), num_blocks=4, block_size=2)
        rng = np.random.default_rng(2)
        a, b = cache.create(), cache.create()
        cache.append(a, self.kv(rng, 6))
        cache.append(b, self.kv(rng, 2))
        assert (a.slot, b.slot) == (0, 1)
        cache.free(a)
        assert cache._warm_total == 8  # positions: slot 0 kept, zeroed
        assert not cache.store[0].any()
        cache.append(b, self.kv(rng, 4))  # 6 + 6 > 8: slot 0 goes back
        assert cache._warm_total == 6
        cache.free(b)
        a, c = cache.create(), cache.create()
        cache.append(a, self.kv(rng, 6))  # slot 0
        cache.free(a)
        want = self.kv(rng, 1)
        cache.append(c, want)  # slot 0 again, warm past its length
        assert c.slot == 0
        d = cache.create()
        cache.append(d, self.kv(rng, 6))  # 6 + 6 > 8: slot 0's tail goes
        assert cache._warm_total == 7
        assert not cache.store[0, 1:].any()
        for layer, (k, v) in enumerate(cache.gather(c)):
            np.testing.assert_array_equal(k, want[layer][0])
            np.testing.assert_array_equal(v, want[layer][1])
        cache.free(c)
        cache.free(d)
        cache.assert_empty()

    def test_a_batch_reads_each_row_from_its_own_slot(self):
        """Rows out of slot order, with a gap between their slots: one
        run per stretch of consecutive slots, rows named in batch order."""
        cache = PagedKVCache.for_model(model(), num_blocks=8, block_size=3)
        rng = np.random.default_rng(3)
        handles = [cache.create() for _ in range(4)]
        kept = [self.kv(rng, n) for n in (2, 5, 1, 4)]
        for handle, kvs in zip(handles, kept):
            cache.append(handle, kvs)
        order = [3, 0, 1]  # slots 3, 0, 1: runs (0, 1) and (3,)
        for layer, runs in enumerate(cache.gather([handles[i] for i in order])):
            assert [rows.tolist() for rows, _, _ in runs] == [[1, 2], [0]]
            assert [k.shape[2] for _, k, _ in runs] == [6, 5]
            for rows, k, v in runs:
                for j, row in enumerate(rows):
                    want = kept[order[row]][layer]
                    n = want[0].shape[2]
                    np.testing.assert_array_equal(k[j:j + 1, :, :n], want[0])
                    np.testing.assert_array_equal(v[j:j + 1, :, :n], want[1])
                    assert not k[j, :, n:].any() and not v[j, :, n:].any()
        for handle in handles:
            cache.free(handle)
        cache.assert_empty()

    def test_a_heads_keys_are_one_contiguous_run(self):
        """One request's keys (or values) for one layer and head are one
        C-contiguous ``(positions, head_dim)`` run, in every view the
        cache hands out."""
        cache = PagedKVCache.for_model(model(), num_blocks=8, block_size=2)
        rng = np.random.default_rng(6)
        handles = [cache.create() for _ in range(2)]
        for handle, n in zip(handles, (3, 5)):
            cache.append(handle, self.kv(rng, n))
        held = cache.store.shape[1]
        for slot in range(cache.capacity):
            for layer in range(CFG.num_layers):
                for part in range(2):
                    for head in range(CFG.num_attention_heads):
                        run = cache.store[slot, :, part, layer, head]
                        assert run.shape == (held, CFG.head_dim)
                        assert run.flags.c_contiguous
        for (k, v) in cache.gather(handles[1]):
            assert all(k[0, head].flags.c_contiguous
                       and v[0, head].flags.c_contiguous
                       for head in range(CFG.num_attention_heads))
        for runs in cache.gather(handles):
            for _, k, v in runs:
                assert all(t[row, head].flags.c_contiguous
                           for t in (k, v) for row in range(len(k))
                           for head in range(CFG.num_attention_heads))
        for handle in handles:
            cache.free(handle)
        cache.assert_empty()

    def test_trim_returns_each_strips_tail(self):
        """Past the budget a live slot's pages past its length go back
        strip by strip: in every (layer, K/V, head) strip the whole
        pages past the length read zeros again, and every position
        below it keeps its K/V."""
        # 16 KB strips: positions 16.. of each strip start a page.
        page = mmap.PAGESIZE
        cache = PagedKVCache(2, 2, page // (16 * 8), num_blocks=4,
                             block_size=16, max_length=64)
        rng = np.random.default_rng(8)

        def kv(n):
            shape = (1, 2, n, cache.head_dim)
            return [(rng.standard_normal(shape), rng.standard_normal(shape))
                    for _ in range(2)]

        a, b, c = cache.create(), cache.create(), cache.create()
        cache.append(a, kv(40))
        cache.free(a)  # slot 0 stays warm for 40 positions
        kept = kv(10)
        cache.append(b, kept)  # slot 0 again
        cache.store[0, 16:] = 7.0  # stale bytes only a released page loses
        cache.append(c, kv(30))  # 40 + 30 > 64: slot 0's tail goes back
        assert cache._warm == [10, 30, 0, 0]
        assert not cache.store[0, 16:].any()
        for layer, (k, v) in enumerate(cache.gather(b)):
            np.testing.assert_array_equal(k, kept[layer][0])
            np.testing.assert_array_equal(v, kept[layer][1])
        cache.free(b)
        cache.free(c)
        cache.assert_empty()

    def test_blocks_for(self):
        cache = PagedKVCache.for_model(model(), num_blocks=4, block_size=3)
        assert cache.blocks_for(0) == 0
        assert cache.blocks_for(1) == 1
        assert cache.blocks_for(3) == 1
        assert cache.blocks_for(4) == 2

    def test_a_large_pool_maps_linearly(self):
        """A slot holds the model's window, not the whole pool, so the
        mapping grows with the block count, not with its square."""
        cache = PagedKVCache.for_model(model(), num_blocks=4096,
                                       block_size=2)
        window = CFG.seq_length * 2 * CFG.num_layers * CFG.hidden_size * 8
        page = mmap.PAGESIZE
        assert len(cache._map) == 4096 * -(-window // page) * page
        handle = cache.create()
        cache.append(handle, self.kv(np.random.default_rng(4), 3))
        cache.free(handle)
        cache.assert_empty()

    def test_a_handle_holds_at_most_its_slot(self):
        """Past the window (rounded up to whole blocks) an append is
        refused like one past the pool, leaving the handle unchanged."""
        cache = PagedKVCache.for_model(model(), num_blocks=8, block_size=3)
        rng = np.random.default_rng(5)
        handle = cache.create()
        cache.append(handle, self.kv(rng, 9))  # 8 rounded up to 3 blocks
        with pytest.raises(CacheFull):
            cache.append(handle, self.kv(rng, 1))
        assert (handle.length, handle.live_blocks) == (9, 3)
        assert cache.live_blocks == 3
        cache.free(handle)
        cache.assert_empty()

    def test_a_refused_batched_append_undoes_the_in_place_write(self):
        """A batched decode writes its token's K/V into the slot in place
        through ``gather``'s views; when a storm's ``hold`` leaves the
        pool short, ``append(handles)`` raises ``CacheFull``, the position
        reads zero again, and the count and the handles are unchanged."""
        m = model()
        cache = PagedKVCache.for_model(m, num_blocks=4, block_size=2)
        rng = np.random.default_rng(8)
        handles = [cache.create() for _ in range(2)]
        for handle in handles:
            cache.append(handle, self.kv(rng, 2))  # one full block each
        written = np.s_[[h.slot for h in handles], 2]  # the new position
        m.forward_step(np.array([[5], [6]]), cache.gather(handles),
                       start=np.array([2, 2]))
        assert cache.store[written].all()  # written in place
        cache.hold(cache.free_blocks)  # the storm: no block left
        used = cache.live_blocks
        with pytest.raises(CacheFull):
            cache.append(handles)
        assert not cache.store[written].any()
        assert cache.live_blocks == used
        assert [(h.length, h.live_blocks) for h in handles] == [(2, 1)] * 2
        cache.unhold(2)
        for handle in handles:
            cache.free(handle)
        cache.assert_empty()

    def test_cache_full_leaves_handle_usable(self):
        cache = PagedKVCache.for_model(model(), num_blocks=2, block_size=2)
        rng = np.random.default_rng(1)
        handle = cache.create()
        cache.append(handle, self.kv(rng, 4))  # fills both blocks
        with pytest.raises(CacheFull):
            cache.append(handle, self.kv(rng, 1))
        assert handle.length == 4  # failed append did not corrupt state
        cache.free(handle)
        cache.assert_empty()


def strip_crc(cache, slot, index):
    """CRC32 of block ``index`` of ``slot``, chained over its piece of
    every (layer, K/V, head) strip in store order."""
    first, crc = index * cache.block_size, 0
    for layer in range(cache.num_layers):
        for part in range(2):
            for head in range(cache.num_heads):
                crc = zlib.crc32(cache.store[
                    slot, first:first + cache.block_size, part, layer,
                    head].tobytes(), crc)
    return crc


_ROWS = st.lists(st.integers(0, 7), min_size=1, max_size=4, unique=True)
_STORE_OPS = st.lists(st.one_of(
    st.tuples(st.just("create")),
    st.tuples(st.just("append"), _ROWS, st.integers(1, 5), st.booleans()),
    st.tuples(st.just("decode"), _ROWS),
    st.tuples(st.just("gather"), _ROWS),
    st.tuples(st.just("free"), st.integers(0, 7)),
    st.tuples(st.just("corrupt"), st.integers(0, 7)),
), max_size=40)


class TestSlotStore:
    """``PagedKVCache`` against a plain per-request copy of what each
    request was given, over any interleaving of its operations."""

    def check(self, cache, handles, mirror):
        # warm (resident) positions within the pool's
        assert cache._warm_total <= cache.capacity * cache.block_size
        live = set()
        for handle in handles:
            n, want = handle.length, mirror[id(handle)]
            assert want.shape[0] == n
            dense = cache.gather(handle)
            for layer, (k, v) in enumerate(dense):
                np.testing.assert_array_equal(
                    k[0], want[:, 0, layer].transpose(1, 0, 2))
                np.testing.assert_array_equal(
                    v[0], want[:, 1, layer].transpose(1, 0, 2))
            if handle.slot is None:
                continue
            live.add(handle.slot)
            assert not cache.store[handle.slot, n:].any()
            if cache.checksums:
                for index in range(handle.live_blocks):
                    assert cache._crcs[handle.slot][index] == strip_crc(
                        cache, handle.slot, index)
        for slot in set(range(cache.capacity)) - live:
            assert not cache.store[slot].any()  # a free slot: zeros

    def check_batch(self, cache, mirror, handles, past):
        for layer, runs in enumerate(past):
            seen = []
            for rows, k, v in runs:
                for j, i in enumerate(rows):
                    n, want = handles[i].length, mirror[id(handles[i])]
                    np.testing.assert_array_equal(
                        k[j, :, :n], want[:, 0, layer].transpose(1, 0, 2))
                    np.testing.assert_array_equal(
                        v[j, :, :n], want[:, 1, layer].transpose(1, 0, 2))
                    assert not k[j, :, n:].any() and not v[j, :, n:].any()
                    seen.append(i)
            assert sorted(seen) == list(range(len(handles)))

    @given(num_blocks=st.integers(2, 8), block_size=st.integers(1, 4),
           checksums=st.booleans(), ops=_STORE_OPS, seed=st.integers(0, 99))
    @settings(max_examples=300, deadline=None)
    def test_store_matches_a_plain_copy(self, num_blocks, block_size,
                                        checksums, ops, seed):
        cache = PagedKVCache.for_model(model(), num_blocks=num_blocks,
                                       block_size=block_size,
                                       checksums=checksums)
        rng = np.random.default_rng(seed)
        shape = (2, CFG.num_layers, CFG.num_attention_heads, CFG.head_dim)
        handles, mirror = [], {}  # id -> (length, 2, L, a, dk)

        def pick(rows, cached=False, room=False):
            # room: decode never fills a slot, the window ends first
            held = [h for h in handles if (h.length or not cached) and not
                    (room and h.length == cache.store.shape[1])]
            return [held[i] for i in dict.fromkeys(
                r % len(held) for r in rows)] if held else []

        for op, *args in ops:
            if op == "create":
                handles.append(cache.create())
                mirror[id(handles[-1])] = np.zeros((0, *shape))
            elif op == "append" and handles:
                batch, (_, s_new, poison) = pick(args[0]), args
                new = rng.standard_normal((len(batch), s_new, *shape))
                if poison:
                    new[:, :, 0], new[:, :, 1] = np.inf, np.nan
                kvs = [tuple(new[:, :, part, layer].transpose(0, 2, 1, 3)
                             for part in range(2))
                       for layer in range(CFG.num_layers)]
                try:
                    cache.append(batch[0] if len(batch) == 1 else batch, kvs)
                except CacheFull:
                    pass
                else:
                    for handle, rows in zip(batch, new):
                        mirror[id(handle)] = np.concatenate(
                            [mirror[id(handle)], rows])
            elif op == "decode" and pick(args[0], cached=True, room=True):
                # As decode_batch does: the forward writes the new
                # position into the views, append does the bookkeeping.
                batch = pick(args[0], cached=True, room=True)
                new = rng.standard_normal((len(batch), *shape))
                for layer, runs in enumerate(cache.gather(batch)):
                    for rows, *past in runs:
                        for j, i in enumerate(rows):
                            for part in range(2):
                                past[part][j, :, batch[i].length] = (
                                    new[i, part, layer])
                try:
                    cache.append(batch)
                except CacheFull:
                    pass
                else:
                    for handle, row in zip(batch, new):
                        mirror[id(handle)] = np.concatenate(
                            [mirror[id(handle)], row[None]])
            elif op == "gather" and pick(args[0], cached=True):
                batch = pick(args[0], cached=True)
                self.check_batch(cache, mirror, batch,
                                 list(cache.gather(batch)))
            elif op == "free" and handles:
                handle = handles.pop(args[0] % len(handles))
                cache.free(handle)
                del mirror[id(handle)]
            elif op == "corrupt" and checksums:
                held = [h for h in handles if h.live_blocks]
                if held:
                    victim = held[args[0] % len(held)]
                    cache.corrupt_block(victim.slot, victim.live_blocks - 1)
                    with pytest.raises(KVCorruptionError):
                        cache.gather(handles)
                    handles.remove(victim)
                    cache.free(victim)
                    del mirror[id(victim)]
            self.check(cache, handles, mirror)
        for handle in handles:
            cache.free(handle)
        self.check(cache, [], {})
        cache.assert_empty()


# ---------------------------------------------------------------------------
# cached decode vs the generate oracle
# ---------------------------------------------------------------------------

class TestCachedDecodeOracle:
    def test_prefill_logits_bit_identical(self):
        """The incremental path's prefill is the same GEMM shapes as the
        full forward, so its logits match bit-for-bit."""
        m = model()
        ids = np.array([[3, 1, 4, 1, 5]])
        full, _ = m.forward(ids, training=False)
        step, _ = m.forward_step(ids)
        np.testing.assert_array_equal(full, step)

    @pytest.mark.parametrize("pl,mn,temp,top_k", [
        (3, 4, 0.0, None),    # greedy inside the window
        (7, 6, 0.0, None),    # greedy crossing the window boundary
        (8, 5, 1.0, 4),       # top-k sampling from exactly the window
        (10, 6, 0.8, None),   # prompt already over the window
        (1, 3, 0.0, None),    # minimal prompt
    ])
    def test_token_stream_equals_oracle(self, pl, mn, temp, top_k):
        m = model()
        prompt = np.random.default_rng(pl).integers(
            0, CFG.vocab_size, size=pl)
        oracle = generate(m, prompt, mn, temperature=temp, top_k=top_k,
                          rng=np.random.default_rng(7))
        cached = cached_generate(m, prompt, mn, temperature=temp,
                                 top_k=top_k, rng=np.random.default_rng(7),
                                 block_size=3)
        np.testing.assert_array_equal(oracle, cached)

    def test_stop_ids_equals_oracle(self):
        m = model()
        prompt = np.array([2, 9, 4])
        probe = generate(m, prompt, 6, temperature=0.0)
        stop = {int(probe[len(prompt) + 1])}
        oracle = generate(m, prompt, 6, temperature=0.0, stop_ids=stop)
        cached = cached_generate(m, prompt, 6, temperature=0.0,
                                 stop_ids=stop)
        np.testing.assert_array_equal(oracle, cached)
        assert len(oracle) < len(prompt) + 6 + 1  # actually stopped early

    def test_no_blocks_leaked(self):
        m = model()
        cache = PagedKVCache.for_model(m, num_blocks=6, block_size=2)
        cached_generate(m, np.array([1, 2, 3]), 5, temperature=0.0,
                        cache=cache)
        cache.assert_empty()

    def test_session_preempt_resume_matches_oracle(self):
        """Preempting mid-decode and resuming (recompute-style) must not
        change the stream: the rng is untouched by preemption."""
        m = model()
        cache = PagedKVCache.for_model(m, num_blocks=8, block_size=2)
        prompt = np.array([5, 3, 1])
        oracle = generate(m, prompt, 6, temperature=1.0, top_k=4,
                          rng=np.random.default_rng(3))
        sess = DecodeSession(m, cache, prompt, 6, temperature=1.0,
                             top_k=4, rng=np.random.default_rng(3))
        steps = 0
        while not sess.done:
            sess.step()
            steps += 1
            if steps == 2:
                sess.preempt()
                assert sess.live_blocks == 0
        sess.release()
        np.testing.assert_array_equal(oracle, sess.output())
        assert sess.preemptions == 1
        cache.assert_empty()


# ---------------------------------------------------------------------------
# continuous-batching engine: scheduler invariants
# ---------------------------------------------------------------------------

def run_trace(trace, num_blocks=4, block_size=3, seed=0):
    """Run a trace on a fresh engine; returns (engine, report, events)."""
    m = GPTModel(CFG, seed=seed)
    cache = PagedKVCache.for_model(
        m, num_blocks=num_blocks, block_size=block_size)
    buf = io.StringIO()
    logger = RunLogger(buf, "test-serve", clock=lambda: 0.0)
    logger.start("serve")
    engine = ServeEngine(m, cache, logger=logger)
    report = engine.run(trace)
    cache.assert_empty()
    events = []
    for line in buf.getvalue().splitlines():
        event = json.loads(line)
        if event["type"] in ("request", "iteration"):
            event.pop("t", None)
            event.pop("seconds", None)  # the only wall-clock fields
            events.append(event)
    return engine, report, events


def overload_trace(n=6):
    """Everyone arrives at step 0 on a pool that fits ~one request."""
    rng = np.random.default_rng(5)
    return [
        TraceRequest(
            request_id=f"req-{i:04d}", arrival_step=0,
            prompt=tuple(int(t) for t in rng.integers(0, CFG.vocab_size,
                                                      size=4)),
            max_new_tokens=4, temperature=0.0, seed=100 + i,
        )
        for i in range(n)
    ]


class TestServeEngine:
    def test_streams_match_oracle_under_preemption(self):
        trace = poisson_trace(6, 0.7, vocab_size=CFG.vocab_size, seed=2,
                              temperature=1.0, top_k=5)
        engine, report, _ = run_trace(trace)
        assert sum(r.preemptions for r in report.requests) > 0
        for req in trace:
            oracle = generate(
                GPTModel(CFG, seed=0), np.array(req.prompt),
                req.max_new_tokens, temperature=req.temperature,
                top_k=req.top_k, rng=np.random.default_rng(req.seed),
                stop_ids=set(req.stop_ids))
            np.testing.assert_array_equal(
                oracle, engine.outputs[req.request_id])

    def test_token_conservation(self):
        """Tokens counted per tick == tokens reported per request ==
        the aggregate total: nothing lost or double-counted across
        admission, preemption and finish."""
        trace = poisson_trace(6, 0.7, vocab_size=CFG.vocab_size, seed=2,
                              temperature=1.0, top_k=5)
        _, report, events = run_trace(trace)
        per_tick = sum(e["tokens"] for e in events
                       if e["type"] == "iteration")
        per_finish = sum(e["generated"] for e in events
                         if e["type"] == "request"
                         and e["phase"] == "finish")
        agg = report.to_dict()["aggregate"]["total_generated_tokens"]
        assert per_tick == per_finish == agg

    def test_fifo_no_starvation_under_overload(self):
        """Sustained overload: everyone still finishes, admission is in
        arrival order, and no request is ever preempted by a younger
        requester's needs (victims are always younger than survivors)."""
        trace = overload_trace()
        engine, report, events = run_trace(trace, num_blocks=4,
                                           block_size=3)
        assert len(report.requests) == len(trace)  # nobody starved
        admits = [e["request_id"] for e in events
                  if e["type"] == "request" and e["phase"] == "admit"]
        assert admits == sorted(admits)  # strict FIFO first-admission
        # The oldest request is never preempted.
        preempted = {e["request_id"] for e in events
                     if e["type"] == "request" and e["phase"] == "preempt"}
        assert "req-0000" not in preempted

    def test_request_joins_mid_decode(self):
        m = model()
        cache = PagedKVCache.for_model(m, num_blocks=8, block_size=3)
        engine = ServeEngine(m, cache)
        first = TraceRequest(request_id="a", arrival_step=0,
                             prompt=(1, 2, 3), max_new_tokens=5)
        engine.submit(first)
        engine.tick()
        engine.tick()  # "a" is mid-decode...
        late = TraceRequest(request_id="b", arrival_step=2,
                            prompt=(4, 5), max_new_tokens=3)
        engine.submit(late)  # ...when "b" joins the batch
        while engine.running or engine.waiting:
            engine.tick()
        for req in (first, late):
            oracle = generate(m, np.array(req.prompt), req.max_new_tokens,
                              temperature=0.0,
                              rng=np.random.default_rng(req.seed))
            np.testing.assert_array_equal(oracle,
                                          engine.outputs[req.request_id])
        cache.assert_empty()

    def test_deterministic_replay(self):
        trace = poisson_trace(6, 0.7, vocab_size=CFG.vocab_size, seed=2,
                              temperature=1.0, top_k=5)
        e1, r1, ev1 = run_trace(trace)
        e2, r2, ev2 = run_trace(trace)
        for rid, stream in e1.outputs.items():
            np.testing.assert_array_equal(stream, e2.outputs[rid])
        assert r1.to_dict()["requests"] == r2.to_dict()["requests"]
        assert ev1 == ev2

    def test_zero_max_new_tokens(self):
        m = model()
        cache = PagedKVCache.for_model(m, num_blocks=4, block_size=3)
        engine = ServeEngine(m, cache)
        req = TraceRequest(request_id="z", arrival_step=0,
                           prompt=(3, 1), max_new_tokens=0)
        report = engine.run([req])
        assert report.requests[0].generated_tokens == 0
        np.testing.assert_array_equal(engine.outputs["z"], [3, 1])
        cache.assert_empty()

    def test_submit_rejects_oversized_request(self):
        m = model()
        cache = PagedKVCache.for_model(m, num_blocks=1, block_size=2)
        engine = ServeEngine(m, cache)
        req = TraceRequest(request_id="big", arrival_step=0,
                           prompt=(1, 2, 3, 4), max_new_tokens=4)
        with pytest.raises(ValueError, match="blocks at peak"):
            engine.submit(req)

    def test_metrics_pass_validation(self):
        trace = poisson_trace(5, 0.8, vocab_size=CFG.vocab_size, seed=3)
        _, report, _ = run_trace(trace, num_blocks=6)
        assert validate_serve_metrics(report.to_dict()) == []

    def test_validation_catches_violations(self):
        trace = poisson_trace(3, 0.8, vocab_size=CFG.vocab_size, seed=3)
        _, report, _ = run_trace(trace, num_blocks=6)
        good = report.to_dict()
        bad = json.loads(json.dumps(good))
        bad["aggregate"]["total_generated_tokens"] += 1
        assert validate_serve_metrics(bad)  # token conservation breach
        bad = json.loads(json.dumps(good))
        bad["requests"][0]["admit_step"] = -1
        assert validate_serve_metrics(bad)  # ordering breach
        bad = json.loads(json.dumps(good))
        bad["schema_version"] = 99
        assert validate_serve_metrics(bad)


# ---------------------------------------------------------------------------
# long prompts: causal attention blocks and the last block's one row
# ---------------------------------------------------------------------------

#: A 256-position window: a full prefill attends in four causal blocks.
WIDE = tiny_test_model(num_layers=2, hidden_size=16, num_attention_heads=2,
                       vocab_size=64, seq_length=256)
_SAMPLERS = pytest.mark.parametrize("temp,top_k", [(0.0, None), (1.0, 4)],
                                    ids=["greedy", "top-k"])


def _long_request(n, temp, top_k, max_new=3):
    prompt = np.random.default_rng(n).integers(0, WIDE.vocab_size, size=n)
    return TraceRequest(request_id=f"p{n}", arrival_step=0,
                        prompt=tuple(int(t) for t in prompt),
                        max_new_tokens=max_new, temperature=temp,
                        top_k=top_k, seed=n)


def _oracle(m, req):
    return generate(m, np.array(req.prompt), req.max_new_tokens,
                    temperature=req.temperature, top_k=req.top_k,
                    rng=np.random.default_rng(req.seed))


class TestLongPrompts:
    @_SAMPLERS
    @pytest.mark.parametrize("n", [1, 64, 65, 128, 200])
    def test_session_stream_equals_oracle(self, n, temp, top_k):
        m = GPTModel(WIDE, seed=0)
        req = _long_request(n, temp, top_k)
        cached = cached_generate(m, np.array(req.prompt), req.max_new_tokens,
                                 temperature=temp, top_k=top_k,
                                 rng=np.random.default_rng(req.seed),
                                 block_size=16)
        np.testing.assert_array_equal(cached, _oracle(m, req))

    @_SAMPLERS
    def test_engine_streams_equal_oracle(self, temp, top_k):
        m = GPTModel(WIDE, seed=0)
        trace = [_long_request(n, temp, top_k) for n in (1, 64, 65, 128, 200)]
        cache = PagedKVCache.for_model(m, num_blocks=48, block_size=16)
        engine = ServeEngine(m, cache)
        engine.run(trace)
        cache.assert_empty()
        for req in trace:
            np.testing.assert_array_equal(engine.outputs[req.request_id],
                                          _oracle(m, req))

    @_SAMPLERS
    def test_an_over_window_request_holds_no_block(self, temp, top_k):
        """A prompt past the window runs the sliding-window route on
        every step -- four causal blocks and the last block's one row --
        and never holds a block."""
        m = GPTModel(WIDE, seed=0)
        req = _long_request(WIDE.seq_length + 5, temp, top_k, max_new=4)
        cache = PagedKVCache.for_model(m, num_blocks=2, block_size=16)
        engine = ServeEngine(m, cache)
        assert engine.peak_blocks(req) == 0
        assert engine.submit(req)
        while engine.running or engine.waiting:
            engine.tick()
            assert cache.live_blocks == 0
            assert all(e.session.live_blocks == 0 for e in engine.running)
        cache.assert_empty()
        np.testing.assert_array_equal(engine.outputs[req.request_id],
                                      _oracle(m, req))


# ---------------------------------------------------------------------------
# the serve report's validator: every violation it can report, and any JSON
# ---------------------------------------------------------------------------

def _set(where, **fields):
    """An edit of a report: ``fields`` into the dict at ``where``, a key
    of the report, a path such as ``("requests", i)``, or ``()``."""
    def edit(report):
        target = report
        for key in (where if isinstance(where, tuple) else (where,)):
            target = target[key]
        target.update(fields)
    return edit


def _drop(*path):
    def edit(report):
        *parent, key = path
        target = report
        for step in parent:
            target = target[step]
        del target[key]
    return edit


def _completed(**fields):
    return _set(("requests", 0), **{"outcome": "completed",
                                    "finish_reason": "length",
                                    "admit_step": 1, **fields})


def _rejected(**fields):
    return _set(("requests", 0), **{"outcome": "rejected",
                                    "finish_reason": None, **fields})


#: (edit of a valid report, a violation it must produce), one per
#: violation ``validate_serve_metrics`` reports.
_VIOLATIONS = [
    pytest.param(lambda r: [r], "metrics must be an object, got list",
                 id="not-an-object"),
    pytest.param(_set((), schema_version=99), r"schema_version 99 != 2",
                 id="schema-version"),
    pytest.param(_set((), aggregate=[]), r"missing 'aggregate' object",
                 id="no-aggregate"),
    pytest.param(_drop("aggregate", "engine_steps"),
                 r"aggregate missing 'engine_steps'", id="aggregate-key"),
    pytest.param(_set((), requests={}), r"missing 'requests' list",
                 id="no-requests"),
    pytest.param(_set("aggregate", num_requests=7),
                 r"aggregate.num_requests 7 != 3 request records",
                 id="num-requests"),
    pytest.param(lambda r: r["requests"].append(4),
                 r"requests\[3\]: not an object", id="request-not-object"),
    pytest.param(_drop("requests", 1, "finish_step"),
                 r"requests\[1\]: missing 'finish_step'", id="request-key"),
    pytest.param(_set(("requests", 0), request_id=""),
                 r"requests\[0\]: request_id must be a non-empty string",
                 id="request-id"),
    pytest.param(_set(("requests", 0), outcome="lost"),
                 r"requests\[0\]: outcome 'lost' not in", id="outcome"),
    pytest.param(_completed(finish_reason="tired"),
                 r"finish_reason 'tired' not in", id="finish-reason"),
    pytest.param(_completed(admit_step=None), r"completed without admit_step",
                 id="no-admit-step"),
    pytest.param(_rejected(finish_reason="stop"),
                 r"non-completed request carries finish_reason 'stop'",
                 id="stray-finish-reason"),
    pytest.param(_set(("requests", 0), retries=-1), r"retries < 0",
                 id="retries"),
    pytest.param(_set(("requests", 0), generated_tokens=-2),
                 r"generated_tokens < 0", id="generated"),
    pytest.param(_rejected(generated_tokens=2),
                 r"rejected request generated 2 tokens", id="rejected-tokens"),
    pytest.param(_completed(arrival_step=5, admit_step=4),
                 r"admit_step < arrival_step", id="admit-before-arrival"),
    pytest.param(_completed(admit_step=4, first_token_step=3),
                 r"first_token_step < admit_step", id="token-before-admit"),
    pytest.param(_completed(admit_step=4, finish_step=3),
                 r"finish_step < admit_step", id="finish-before-admit"),
    pytest.param(_set(("requests", 0), ttft_steps=-1),
                 r"negative ttft_steps", id="ttft"),
    pytest.param(lambda r: r["aggregate"].update(
        total_generated_tokens=r["aggregate"]["total_generated_tokens"] + 1),
        r"\(token conservation\)", id="conservation"),
    pytest.param(_set("aggregate", outcomes={"completed": 0}),
                 r"aggregate.outcomes .* != per-request tally",
                 id="outcome-tally"),
]


@pytest.fixture(scope="module")
def good_report():
    trace = poisson_trace(3, 0.8, vocab_size=CFG.vocab_size, seed=3)
    report = run_trace(trace, num_blocks=6)[1].to_dict()
    assert validate_serve_metrics(report) == []
    return json.dumps(report)


_METRICS = st.fixed_dictionaries({
    "schema_version": st.one_of(st.just(2), _SCALAR),
    "aggregate": st.one_of(st.dictionaries(
        st.sampled_from(["num_requests", "total_generated_tokens",
                         "outcomes"]), _JSON), _JSON),
    "requests": st.one_of(st.lists(st.one_of(st.dictionaries(
        st.sampled_from(["request_id", "outcome", "finish_reason",
                         "admit_step", "arrival_step", "first_token_step",
                         "finish_step", "retries", "generated_tokens",
                         "ttft_steps"]),
        st.one_of(st.sampled_from(["completed", "rejected", "length"]),
                  _SCALAR)), _JSON), max_size=3), _JSON),
})


class TestServeMetricsValidator:
    @pytest.mark.parametrize("edit,violation", _VIOLATIONS)
    def test_each_violation_has_an_example(self, good_report, edit,
                                           violation):
        report = json.loads(good_report)
        report = edit(report) or report
        found = validate_serve_metrics(report)
        assert any(re.search(violation, v) for v in found), found

    def test_the_examples_cover_every_violation(self):
        """One example per place the validator reports a violation."""
        import ast
        import inspect

        from repro.serve import metrics

        tree = ast.parse(inspect.getsource(metrics.validate_serve_metrics))
        reports = [node for node in ast.walk(tree)
                   if isinstance(node, ast.Call)
                   and ast.unparse(node.func) == "violations.append"
                   or isinstance(node, ast.Return)
                   and isinstance(node.value, ast.List)]
        assert len(reports) == len(_VIOLATIONS)

    @settings(max_examples=400, deadline=timedelta(seconds=5))
    @given(st.one_of(_JSON, _METRICS))
    def test_any_json_returns_a_list_of_strings(self, obj):
        found = validate_serve_metrics(obj)
        assert isinstance(found, list)
        assert all(isinstance(v, str) for v in found)


# ---------------------------------------------------------------------------
# graceful degradation: deadlines, TTLs, admission control, cancellation
# ---------------------------------------------------------------------------

class TestServeDegradation:
    def test_empty_trace_through_run(self):
        m = model()
        cache = PagedKVCache.for_model(m, num_blocks=4, block_size=3)
        engine = ServeEngine(m, cache)
        report = engine.run([])
        assert report.requests == []
        assert report.steps == 0
        assert validate_serve_metrics(report.to_dict()) == []
        cache.assert_empty()

    def test_cancel_never_admitted_request(self):
        """Cancelling a queued request frees nothing (it holds nothing)
        and records a typed ``cancelled`` outcome with zero tokens."""
        m = model()
        cache = PagedKVCache.for_model(m, num_blocks=2, block_size=4)
        engine = ServeEngine(m, cache)
        engine.submit(TraceRequest("hog", 0, (1, 2, 3, 4, 5), 3,
                                   temperature=0.0))
        engine.tick()  # "hog" admitted and holding the whole pool...
        engine.submit(TraceRequest("late", 1, (4, 5, 6, 7, 8), 3,
                                   temperature=0.0))
        engine.tick()  # ..."late" cannot fit
        assert [e.trace.request_id for e in engine.waiting] == ["late"]
        assert engine.cancel("late") is True
        while engine.running or engine.waiting:
            engine.tick()
        by_id = {r.request_id: r for r in engine.finished}
        assert by_id["late"].outcome == "cancelled"
        assert by_id["late"].generated_tokens == 0
        assert by_id["late"].admit_step is None
        assert by_id["hog"].outcome == "completed"
        cache.assert_empty()

    def test_cancel_running_request_releases_blocks(self):
        m = model()
        cache = PagedKVCache.for_model(m, num_blocks=4, block_size=3)
        engine = ServeEngine(m, cache)
        engine.submit(TraceRequest("live", 0, (1, 2), 5, temperature=0.0))
        engine.tick()
        engine.tick()
        assert cache.live_blocks > 0
        assert engine.cancel("live") is True
        assert cache.live_blocks == 0
        (metrics,) = engine.finished
        assert metrics.outcome == "cancelled"
        assert metrics.generated_tokens > 0  # partial stream counted
        assert "live" not in engine.outputs

    def test_cancel_unknown_request_returns_false(self):
        m = model()
        cache = PagedKVCache.for_model(m, num_blocks=4, block_size=3)
        engine = ServeEngine(m, cache)
        assert engine.cancel("ghost") is False
        req = TraceRequest("done", 0, (1, 2), 1, temperature=0.0)
        engine.run([req])
        assert engine.cancel("done") is False  # already terminal

    @pytest.mark.parametrize("state", ["waiting", "running", "finished"])
    def test_a_request_id_is_taken_once(self, state):
        """Two requests named "a" would share one ``outputs`` stream and
        ``cancel("a")`` would act on whichever it met first."""
        m = model()
        cache = PagedKVCache.for_model(m, num_blocks=4, block_size=3)
        engine = ServeEngine(m, cache)
        engine.submit(TraceRequest("a", 0, (1, 2), 2, temperature=0.0))
        if state == "running":
            engine.tick()
            assert engine.running
        elif state == "finished":
            while engine.waiting or engine.running:
                engine.tick()
        with pytest.raises(ValueError, match="request id 'a'"):
            engine.submit(TraceRequest("a", 0, (3, 4), 2, temperature=0.0))
        assert engine._next_seq == 1  # no session built, nothing queued
        while engine.waiting or engine.running:
            engine.tick()
        assert [r.request_id for r in engine.finished] == ["a"]
        cache.assert_empty()

    def test_deadline_equal_to_arrival_step(self):
        """deadline_steps=0 still grants the arrival tick: a one-token
        request completes; a longer one times out with its partial."""
        trace = [
            TraceRequest("one", 0, (1, 2), 1, temperature=0.0,
                         deadline_steps=0),
            TraceRequest("many", 0, (3, 4), 5, temperature=0.0,
                         deadline_steps=0),
        ]
        _, report, events = run_trace(trace, num_blocks=8)
        by_id = {r.request_id: r for r in report.requests}
        assert by_id["one"].outcome == "completed"
        assert by_id["many"].outcome == "timeout"
        assert 1 <= by_id["many"].generated_tokens < 5
        why = {e["request_id"]: e["why"] for e in events
               if e["type"] == "request" and e["phase"] == "timeout"}
        assert why == {"many": "deadline"}

    def test_queue_ttl_bounds_admission_not_service(self):
        """TTL expires only never-admitted requests: a queue-blocked
        request dies of TTL while the admitted one decodes past it."""
        trace = [
            TraceRequest("hog", 0, (1, 2, 3, 4, 5), 3, temperature=0.0),
            TraceRequest("starved", 1, (4, 5, 6, 7, 8), 3, temperature=0.0,
                         queue_ttl=1),
        ]
        _, report, events = run_trace(trace, num_blocks=2, block_size=4)
        by_id = {r.request_id: r for r in report.requests}
        assert by_id["hog"].outcome == "completed"
        assert by_id["starved"].outcome == "timeout"
        assert by_id["starved"].generated_tokens == 0
        why = {e["request_id"]: e["why"] for e in events
               if e["type"] == "request" and e["phase"] == "timeout"}
        assert why == {"starved": "queue-ttl"}

    def test_bounded_queue_reject_newest(self):
        m = model()
        cache = PagedKVCache.for_model(m, num_blocks=2, block_size=3)
        engine = ServeEngine(m, cache, max_queue=2)
        for i in range(2):
            assert engine.submit(
                TraceRequest(f"q{i}", 0, (1, 2), 2, temperature=0.0)
            ) is True
        assert engine.submit(
            TraceRequest("q2", 0, (1, 2), 2, temperature=0.0)
        ) is False  # queue already holds 2 never-admitted entries
        by_id = {r.request_id: r for r in engine.finished}
        assert by_id["q2"].outcome == "rejected"
        assert by_id["q2"].generated_tokens == 0

    def test_edf_shedding_prefers_latest_deadline(self):
        """EDF sheds the least-urgent queued request; a request with no
        deadline counts as infinitely late and goes first."""
        m = model()
        cache = PagedKVCache.for_model(m, num_blocks=2, block_size=3)
        engine = ServeEngine(m, cache, max_queue=2, shed_policy="edf")
        engine.submit(TraceRequest("lax", 0, (1, 2), 2, temperature=0.0))
        engine.submit(TraceRequest("tight", 0, (3, 4), 2, temperature=0.0,
                                   deadline_steps=4))
        assert engine.submit(
            TraceRequest("mid", 0, (5, 6), 2, temperature=0.0,
                         deadline_steps=20)
        ) is True  # "lax" (no deadline) is shed instead
        by_id = {r.request_id: r for r in engine.finished}
        assert set(by_id) == {"lax"}
        assert by_id["lax"].outcome == "rejected"
        assert [e.trace.request_id for e in engine.waiting] == \
            ["tight", "mid"]

    def test_edf_tie_break_sheds_newest_arrival(self):
        m = model()
        cache = PagedKVCache.for_model(m, num_blocks=2, block_size=3)
        engine = ServeEngine(m, cache, max_queue=2, shed_policy="edf")
        for name in ("first", "second"):
            engine.submit(TraceRequest(name, 0, (1, 2), 2, temperature=0.0,
                                       deadline_steps=10))
        assert engine.submit(
            TraceRequest("third", 0, (3, 4), 2, temperature=0.0,
                         deadline_steps=10)
        ) is False  # equal deadlines: FIFO order survives, newcomer goes
        assert [e.trace.request_id for e in engine.waiting] == \
            ["first", "second"]

    def test_livelock_error_dumps_engine_state(self):
        m = model()
        cache = PagedKVCache.for_model(m, num_blocks=4, block_size=3)
        engine = ServeEngine(m, cache)
        trace = [
            TraceRequest("stuck-a", 0, (1, 2), 6, temperature=0.0),
            TraceRequest("stuck-b", 0, (3, 4), 6, temperature=0.0),
        ]
        with pytest.raises(RuntimeError) as exc:
            engine.run(trace, max_steps=0)
        message = str(exc.value)
        assert "livelock" in message
        assert "free_blocks=" in message
        assert f"/{cache.capacity}" in message
        assert "stuck-a" in message and "stuck-b" in message
        assert "finished=0" in message

    def test_degraded_metrics_pass_validation(self):
        """Mixed outcomes (completed + timeout + rejected + cancelled)
        still satisfy the schema and token conservation."""
        m = model()
        cache = PagedKVCache.for_model(m, num_blocks=2, block_size=3)
        engine = ServeEngine(m, cache, max_queue=1)
        engine.submit(TraceRequest("ok", 0, (1, 2), 2, temperature=0.0))
        engine.tick()  # "ok" admitted, so the bounded queue is empty
        engine.submit(TraceRequest("ttl", 0, (3, 4), 2, temperature=0.0,
                                   queue_ttl=0))
        engine.submit(TraceRequest("shed", 0, (5, 6), 2, temperature=0.0))
        engine.tick()  # "ttl" expires in the queue before admission
        engine.submit(TraceRequest("gone", 1, (7, 8), 2, temperature=0.0))
        engine.cancel("gone")
        while engine.running or engine.waiting:
            engine.tick()
        from repro.serve import ServeReport

        report = ServeReport(requests=engine.finished,
                             steps=engine.step_count, wall_seconds=0.0)
        metrics = report.to_dict()
        assert validate_serve_metrics(metrics) == []
        outcomes = metrics["aggregate"]["outcomes"]
        assert outcomes["completed"] >= 1
        assert outcomes["timeout"] >= 1
        assert outcomes["rejected"] >= 1
        assert outcomes["cancelled"] == 1
        cache.assert_empty()


# ---------------------------------------------------------------------------
# traffic traces
# ---------------------------------------------------------------------------

class TestTraffic:
    def test_poisson_trace_deterministic(self):
        a = poisson_trace(5, 0.5, vocab_size=32, seed=4)
        b = poisson_trace(5, 0.5, vocab_size=32, seed=4)
        assert a == b
        c = poisson_trace(5, 0.5, vocab_size=32, seed=5)
        assert a != c

    def test_json_round_trip(self, tmp_path):
        trace = poisson_trace(4, 0.6, vocab_size=32, seed=1,
                              temperature=0.9, top_k=3)
        assert trace_from_json(trace_to_json(trace)) == trace
        path = tmp_path / "trace.json"
        save_trace(trace, path)
        assert load_trace(path) == trace

    def test_a_trace_that_repeats_an_id_is_rejected(self):
        trace = poisson_trace(3, 0.6, vocab_size=32, seed=1)
        doc = json.loads(trace_to_json(trace))
        doc["requests"][2]["request_id"] = doc["requests"][0]["request_id"]
        with pytest.raises(ValueError, match="repeats request id 'req-0000'"):
            trace_from_json(json.dumps(doc))

    @pytest.mark.parametrize("field,value", [
        ("arrival_step", 1.5),
        ("arrival_step", True),
        ("arrival_step", "1"),
        ("prompt", [1, 1.7]),
        ("prompt", [1, False]),
        ("max_new_tokens", "3"),
        ("max_new_tokens", 3.0),
        ("top_k", 2.5),
        ("seed", 0.5),
        ("stop_ids", [True]),
        ("deadline_steps", 4.2),
        ("queue_ttl", "2"),
    ])
    def test_integer_fields_take_only_json_integers(self, field, value):
        doc = TraceRequest("r7", 1, (1, 2), 3, top_k=2).to_dict()
        doc[field] = value
        with pytest.raises(ValueError, match=f"'r7'.*{field}"):
            TraceRequest.from_dict(doc)

    def test_integer_fields_keep_their_nulls(self):
        doc = TraceRequest("r7", 1, (1, 2), 3).to_dict()
        assert doc["top_k"] is doc["deadline_steps"] is doc["queue_ttl"] is None
        assert TraceRequest.from_dict(doc) == TraceRequest("r7", 1, (1, 2), 3)

    @pytest.mark.parametrize("text,match", [
        ('{"schema_version": 1, "requests": 5}', "'requests' must be a list"),
        ("[" * 100_000, "unparseable"),
        ('{"schema_version": 1, "requests": [{"request_id": "r1", '
         '"arrival_step": 0, "prompt": [1], "max_new_tokens": 2, '
         '"temperature": NaN}]}', "'r1'.*temperature must be finite"),
        ('{"schema_version": 1, "requests": [{"request_id": "r2", '
         '"arrival_step": 0, "prompt": [1], "max_new_tokens": 2, '
         '"temperature": 1e999}]}', "'r2'.*temperature must be finite"),
    ], ids=["requests-not-a-list", "deeply-nested", "nan-temperature",
            "infinite-temperature"])
    def test_malformed_trace_raises_value_error(self, text, match):
        with pytest.raises(ValueError, match=match):
            trace_from_json(text)

    def test_arrivals_sorted_and_prompts_in_vocab(self):
        trace = poisson_trace(10, 2.0, vocab_size=16, seed=0)
        steps = [r.arrival_step for r in trace]
        assert steps == sorted(steps)
        for r in trace:
            assert all(0 <= t < 16 for t in r.prompt)


_REQUEST = st.fixed_dictionaries({
    "request_id": st.one_of(st.sampled_from(["a", "b"]), _SCALAR),
    "arrival_step": st.one_of(st.integers(0, 5), _SCALAR),
    "prompt": st.one_of(st.lists(st.integers(0, 8), max_size=4), _JSON),
    "max_new_tokens": st.one_of(st.integers(0, 4), _SCALAR),
}, optional={
    "temperature": _SCALAR, "top_k": _SCALAR, "seed": _SCALAR,
    "stop_ids": _JSON, "deadline_steps": _SCALAR, "queue_ttl": _SCALAR,
})
_TRACE = st.fixed_dictionaries({
    "schema_version": st.one_of(st.just(1), _SCALAR),
    "requests": st.one_of(st.lists(st.one_of(_REQUEST, _JSON), max_size=3),
                          _JSON),
})


class TestTraceJsonProperty:
    @settings(max_examples=400, deadline=timedelta(seconds=5))
    @given(st.one_of(st.text(max_size=60), _JSON.map(json.dumps),
                     _TRACE.map(json.dumps)))
    def test_any_text_loads_or_raises_a_value_error(self, text):
        """``repro serve --trace``'s reader on any text: a list of
        requests, each with a finite temperature, or ``ValueError``."""
        try:
            trace = trace_from_json(text)
        except ValueError:
            return
        assert isinstance(trace, list)
        assert all(np.isfinite(r.temperature) for r in trace)


# ---------------------------------------------------------------------------
# tensor-parallel decode
# ---------------------------------------------------------------------------

class TestTensorParallelDecode:
    @pytest.mark.parametrize("temp,top_k", [(0.0, None), (1.0, 4)])
    def test_matches_single_rank(self, temp, top_k):
        m = model()
        prompt = np.array([3, 1, 4])
        single = generate(m, prompt, 5, temperature=temp, top_k=top_k,
                          rng=np.random.default_rng(9))
        tp = tp_generate(CFG, prompt, 5, world=2, seed=0,
                         temperature=temp, top_k=top_k,
                         rng=np.random.default_rng(9))
        np.testing.assert_array_equal(single, tp)

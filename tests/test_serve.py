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
    BlockAllocator,
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
# block allocator: hypothesis property tests
# ---------------------------------------------------------------------------

class TestBlockAllocator:
    @given(
        capacity=st.integers(1, 16),
        ops=st.lists(st.integers(0, 3), max_size=60),
    )
    @settings(max_examples=80, deadline=None)
    def test_alloc_free_invariants(self, capacity, ops):
        """Across any alloc/free interleaving: a block is never handed
        out twice while live, live count never exceeds capacity, and
        freeing everything leaves the pool empty."""
        alloc = BlockAllocator(capacity)
        held = []
        for op in ops:
            if op in (0, 1):  # alloc one
                try:
                    b = alloc.alloc()
                except CacheFull:
                    assert alloc.free_blocks == 0
                    continue
                assert b not in held, "block double-assigned"
                assert 0 <= b < capacity
                held.append(b)
            elif op == 2 and held:  # free one
                alloc.free(held.pop())
            elif op == 3:  # alloc a batch
                n = 2
                try:
                    batch = alloc.alloc_many(n)
                except CacheFull:
                    assert alloc.free_blocks < n
                    continue
                assert len(batch) == n
                assert not set(batch) & set(held)
                held.extend(batch)
            assert alloc.live == len(held)
            assert alloc.live <= capacity
            assert alloc.live + alloc.free_blocks == capacity
        for b in held:
            alloc.free(b)
        assert alloc.live == 0
        alloc.assert_empty()

    def test_alloc_many_is_atomic(self):
        """A failed batch allocation must not leak partial blocks."""
        alloc = BlockAllocator(3)
        kept = alloc.alloc()
        with pytest.raises(CacheFull):
            alloc.alloc_many(3)
        assert alloc.free_blocks == 2  # nothing consumed by the failure
        alloc.free(kept)
        alloc.assert_empty()

    def test_double_free_rejected(self):
        alloc = BlockAllocator(2)
        b = alloc.alloc()
        alloc.free(b)
        with pytest.raises(ValueError):
            alloc.free(b)

    def test_assert_empty_raises_on_leak(self):
        alloc = BlockAllocator(2)
        alloc.alloc()
        with pytest.raises(AssertionError):
            alloc.assert_empty()


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
            for index, block in enumerate(handle.block_table):
                run = cache.store[handle.slot, index * cache.block_size:
                                  (index + 1) * cache.block_size]
                assert run.flags.c_contiguous
                if cache.checksums:
                    assert cache._crcs[block] == zlib.crc32(run.tobytes())
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
                held = [h for h in handles if h.block_table]
                if held:
                    victim = held[args[0] % len(held)]
                    cache.corrupt_block(victim.block_table[-1])
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

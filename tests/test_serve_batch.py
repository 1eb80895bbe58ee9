"""The batched decode tick is the one-request-at-a-time engine, faster.

``ServeEngine.tick`` plans every running request and then runs one
ragged forward for all of them.  Nothing a client or an operator can
observe may depend on that: these tests pin the token streams to the
oracle whatever the batch a request finds itself in, and the schedule
(``RequestMetrics`` and the run-log event sequence) to a fixture
recorded on the sequential engine of the parent commit.

Re-record the fixture (only ever against a trusted engine) with::

    PYTHONPATH=src python tests/test_serve_batch.py --record
"""

import io
import json
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import tiny_test_model
from repro.nn import GPTModel, generate
from repro.nn import functional as F
from repro.obs import profile_tracer, trace
from repro.obs.runlog import RunLogger
from repro.resilience import (
    AllocExhaustion,
    DecodeCrash,
    KVCorruption,
    ServeChaosPlan,
)
from repro.serve import (
    PagedKVCache,
    ServeEngine,
    TraceRequest,
    cached_generate,
    poisson_trace,
)

# A 48-token window: requests spend most steps in the cached regime,
# the longest cross into sliding-window recompute.
CFG = tiny_test_model(seq_length=48)
MODEL = GPTModel(CFG, seed=0)
GOLDEN = Path(__file__).parent / "fixtures" / "serve_golden_schedule.json"


def oracle(req: TraceRequest) -> np.ndarray:
    return generate(
        MODEL, np.array(req.prompt), req.max_new_tokens,
        temperature=req.temperature, top_k=req.top_k,
        rng=np.random.default_rng(req.seed), stop_ids=set(req.stop_ids))


def make_engine(num_blocks, block_size, *, checksums=False, **engine_kw):
    cache = PagedKVCache.for_model(
        MODEL, num_blocks=num_blocks, block_size=block_size,
        checksums=checksums)
    buf = io.StringIO()
    logger = RunLogger(buf, "test-serve-batch", clock=lambda: 0.0)
    logger.start("serve")
    return ServeEngine(MODEL, cache, logger=logger, **engine_kw), buf


def events_of(buf) -> list[dict]:
    events = []
    for line in buf.getvalue().splitlines():
        event = json.loads(line)
        if event["type"] in ("request", "iteration", "fault"):
            event.pop("t", None)
            event.pop("seconds", None)  # the only wall-clock fields
            events.append(event)
    return events


def request(rid, prompt_len, max_new, *, arrival=0, seed=0, **kw):
    rng = np.random.default_rng(1000 + seed)
    return TraceRequest(
        request_id=rid, arrival_step=arrival,
        prompt=tuple(int(t) for t in rng.integers(0, CFG.vocab_size,
                                                  size=prompt_len)),
        max_new_tokens=max_new, temperature=1.0, top_k=5, seed=seed, **kw)


# ---------------------------------------------------------------------------
# (b) golden schedule: recorded on the sequential engine
# ---------------------------------------------------------------------------

def golden_scenarios() -> dict:
    """name -> (trace, make_engine kwargs)."""
    mixed = dict(vocab_size=CFG.vocab_size, prompt_len=(3, 10),
                 max_new=(6, 44), temperature=1.0, top_k=5)
    return {
        # 7 blocks of 4 hold one long request or a few short ones.
        "scarce-poisson": (
            poisson_trace(12, 0.5, seed=11, **mixed),
            dict(num_blocks=14, block_size=4)),
        "stop-ids": (
            poisson_trace(10, 0.6, seed=12, stop_ids=(3, 17, 40), **mixed),
            dict(num_blocks=16, block_size=3)),
        "chaos": (
            poisson_trace(10, 0.5, seed=13, **mixed),
            dict(num_blocks=18, block_size=4, checksums=True,
                 chaos=ServeChaosPlan(
                     crashes=(DecodeCrash(at_step=6, times=2),
                              DecodeCrash(at_step=15)),
                     corruptions=(KVCorruption(at_step=4, times=2),
                                  KVCorruption(at_step=19)),
                     exhaustions=(AllocExhaustion(at_step=10, steps=5),),
                 ))),
    }


def run_scenario(name: str) -> dict:
    trace_, kwargs = golden_scenarios()[name]
    engine, buf = make_engine(**kwargs)
    report = engine.run(trace_)
    engine.cache.assert_empty()
    return {
        "metrics": [r.to_dict() for r in report.requests],
        "events": events_of(buf),
        "streams": {rid: stream.tolist()
                    for rid, stream in sorted(engine.outputs.items())},
    }


def per_request(events: list[dict]) -> dict[str, list[dict]]:
    out: dict[str, list[dict]] = {}
    for event in events:
        if event["type"] == "request":
            event = {k: v for k, v in event.items() if k != "seq"}
            out.setdefault(event["request_id"], []).append(event)
    return out


@pytest.mark.parametrize("name", sorted(golden_scenarios()))
def test_schedule_matches_sequential_engine(name):
    golden = json.loads(GOLDEN.read_text())[name]
    got = run_scenario(name)
    assert got["streams"] == golden["streams"]
    assert got["metrics"] == golden["metrics"]
    assert per_request(got["events"]) == per_request(golden["events"])
    # Stronger than the contract asks: the whole log, tick by tick.
    assert got["events"] == golden["events"]


def test_golden_scenarios_exercise_what_they_claim():
    golden = json.loads(GOLDEN.read_text())
    phases = {name: {e.get("phase") for e in golden[name]["events"]}
              for name in golden}
    assert "preempt" in phases["scarce-poisson"]
    assert "stop" in {m["finish_reason"]
                      for m in golden["stop-ids"]["metrics"]}
    kinds = {e["kind"] for e in golden["chaos"]["events"]
             if e.get("phase") == "fault"}
    assert kinds == {"decode-crash", "kv-corruption"}
    assert "preempt" in phases["chaos"]  # the exhaustion storm bit


# ---------------------------------------------------------------------------
# (a) batch-composition invariance
# ---------------------------------------------------------------------------

class TestBatchInvariance:
    @given(
        block_size=st.integers(1, 6),
        prompt_len=st.integers(1, 12),
        max_new=st.integers(1, 40),
        seed=st.integers(0, 50),
        peers=st.integers(0, 7),
        join_at=st.integers(0, 12),
        leave_after=st.integers(1, 20),
        scarce=st.booleans(),
    )
    @settings(max_examples=40, deadline=None)
    def test_stream_is_independent_of_the_batch(
            self, block_size, prompt_len, max_new, seed, peers, join_at,
            leave_after, scarce):
        """One request, served alone, among up to seven peers that were
        already decoding when it joined and leave before it is done, or
        on a pool so small it gets preempted: always the oracle's
        stream."""
        target = request("target", prompt_len, max_new, arrival=join_at,
                         seed=seed)
        want = oracle(target)
        alone = cached_generate(
            MODEL, np.array(target.prompt), max_new, temperature=1.0,
            top_k=5, rng=np.random.default_rng(seed), block_size=block_size)
        np.testing.assert_array_equal(alone, want)

        crowd = [request(f"peer-{i}", 2 + i, leave_after + i, arrival=i % 3,
                         seed=100 + i) for i in range(peers)]
        peak = -(-CFG.seq_length // block_size)
        num_blocks = peak + 1 if scarce else peak * (peers + 1)
        engine, buf = make_engine(num_blocks, block_size)
        engine.run([target, *crowd])
        engine.cache.assert_empty()
        np.testing.assert_array_equal(engine.outputs["target"], want)
        for peer in crowd:
            np.testing.assert_array_equal(
                engine.outputs[peer.request_id], oracle(peer))

    def test_batch_of_eight_joining_mid_decode(self):
        first = [request(f"a{i}", 3 + i, 20, seed=i) for i in range(4)]
        late = [request(f"b{i}", 2 + i, 12, arrival=5, seed=10 + i)
                for i in range(4)]
        engine, buf = make_engine(64, 4)
        engine.run(first + late)
        per_tick = [e["tokens"] for e in events_of(buf)
                    if e["type"] == "iteration"]
        assert max(per_tick) == 8  # all eight decoded in one tick
        for req in first + late:
            np.testing.assert_array_equal(
                engine.outputs[req.request_id], oracle(req))

    def test_preempted_and_resumed_in_a_batch(self):
        reqs = [request(f"r{i}", 4, 24, seed=i) for i in range(4)]
        engine, buf = make_engine(12, 4)  # 48 positions for 4 x 28
        report = engine.run(reqs)
        assert sum(r.preemptions for r in report.requests) > 0
        for req in reqs:
            np.testing.assert_array_equal(
                engine.outputs[req.request_id], oracle(req))


# ---------------------------------------------------------------------------
# (c) checksums inside a batch, (d) token conservation, cost, spans
# ---------------------------------------------------------------------------

def start_batch(n=4, *, checksums=False, ticks=3):
    """``n`` requests decoding together for ``ticks`` ticks."""
    reqs = [request(f"r{i}", 3 + i, 12, seed=i) for i in range(n)]
    engine, buf = make_engine(32, 4, checksums=checksums)
    for req in reqs:
        engine.submit(req)
    for _ in range(ticks):
        engine.tick()
    return reqs, engine, buf


class TestBatchedTick:
    def test_corrupted_member_retries_alone(self):
        reqs, engine, buf = start_batch(checksums=True)
        victim = engine.running[1]
        before = {e.trace.request_id: e.session.generated
                  for e in engine.running}
        engine.cache.corrupt_block(victim.session.handle.slot, 0)
        assert engine.tick() == 3  # everyone else got their token
        for entry in engine.running:
            assert entry.session.generated == before[entry.trace.request_id] + 1
        assert victim not in engine.running and victim.retries == 1
        faults = [e for e in events_of(buf) if e.get("phase") == "fault"]
        assert [(e["request_id"], e["kind"]) for e in faults] == [
            ("r1", "kv-corruption")]
        while engine.running or engine.waiting:
            engine.tick()
        engine.cache.assert_empty()
        for req in reqs:
            np.testing.assert_array_equal(
                engine.outputs[req.request_id], oracle(req))

    def run_beside_foreign_request(self, *, freed: bool):
        """Four requests served beside a foreign request whose K/V is
        all inf and NaN: live in slot 0, or freed before they start so
        that the first of them reuses its slot.  After every tick, every
        position past a live row's length reads 0.0."""
        engine, _ = make_engine(32, 4)
        cache = engine.cache
        foreign = cache.create()
        bad = np.full((1, CFG.num_attention_heads, 4, CFG.head_dim), np.inf)
        cache.append(foreign, [(bad, bad * np.nan)] * CFG.num_layers)
        assert foreign.live_blocks == 1 and foreign.slot == 0
        if freed:
            cache.free(foreign)
        reqs = [request(f"r{i}", 2 + 5 * i, 10, seed=i) for i in range(4)]
        for req in reqs:
            engine.submit(req)
        slots = set()
        while engine.running or engine.waiting:
            engine.tick()
            handles = [e.session.handle for e in engine.running
                       if e.session.handle is not None]
            slots.update(h.slot for h in handles)
            for handle in handles if freed else [*handles, foreign]:
                assert not cache.store[handle.slot, handle.length:].any()
        for req in reqs:
            np.testing.assert_array_equal(
                engine.outputs[req.request_id], oracle(req))
        assert (0 in slots) == freed
        if not freed:
            cache.free(foreign)
        cache.assert_empty()

    def test_padding_never_reads_another_requests_block(self):
        """A ragged batch reads each row's own slot, zeros past its
        length: a foreign request full of inf and NaN changes nothing."""
        self.run_beside_foreign_request(freed=False)

    def test_padding_never_reads_a_freed_requests_slot(self):
        """The same when that request was freed and its slot reused:
        freeing zeroes what it wrote."""
        self.run_beside_foreign_request(freed=True)

    def test_tokens_per_tick_are_conserved(self):
        """``iteration.tokens`` == tokens booked to requests that tick,
        batched and per-request steps alike."""
        trace_, kwargs = golden_scenarios()["scarce-poisson"]
        engine, buf = make_engine(**kwargs)
        seen = {}

        def generated():
            return sum(
                e.session.generated
                for e in [*engine.running, *engine.waiting]
            ) + sum(r.generated_tokens for r in engine.finished)

        pending = sorted(trace_, key=lambda r: r.arrival_step)
        while pending or engine.running or engine.waiting:
            while pending and pending[0].arrival_step <= engine.step_count:
                engine.submit(pending.pop(0))
            step, before = engine.step_count, generated()
            seen[step] = (engine.tick(), generated() - before)
        events = events_of(buf)
        logged = {e["iteration"]: e["tokens"] for e in events
                  if e["type"] == "iteration"}
        assert logged == {step: tokens for step, (tokens, _) in seen.items()}
        assert all(tokens == booked for tokens, booked in seen.values())
        finished = sum(e["generated"] for e in events
                       if e.get("phase") == "finish")
        assert sum(logged.values()) == finished

    def test_numpy_work_per_tick_is_independent_of_batch_size(
            self, monkeypatch):
        calls = []
        real = F.linear_forward
        monkeypatch.setattr(
            F, "linear_forward",
            lambda *a: (calls.append(1), real(*a))[1])
        counts = {}
        for n in (1, 8):
            _, engine, _ = start_batch(n)
            calls.clear()
            assert engine.tick() == n
            counts[n] = len(calls)
        assert counts[1] == counts[8] == 4 * CFG.num_layers

    def test_tick_phases_are_spanned_and_attributed_exactly(self):
        _, engine, _ = start_batch(ticks=0)
        with trace() as tracer:
            for _ in range(3):
                engine.tick()
        names = {s.name for s in tracer.spans}
        assert {"plan", "kv-read", "forward", "sample",
                "bookkeeping"} <= names
        # Per tick, not per request: 3 ticks of one batch each.
        assert sum(s.name == "forward" for s in tracer.spans) == 2
        profile = profile_tracer(tracer)
        for rank in profile.ranks.values():
            assert rank.self_sum_ns == rank.wall_ns


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit(__doc__)
    GOLDEN.parent.mkdir(exist_ok=True)
    GOLDEN.write_text("{\n" + ",\n".join(  # one compact line per scenario
        json.dumps(name) + ": "
        + json.dumps(run_scenario(name), separators=(",", ":"))
        for name in sorted(golden_scenarios())) + "\n}\n")
    print(f"wrote {GOLDEN}")

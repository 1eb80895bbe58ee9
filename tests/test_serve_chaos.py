"""Tests for serving under fire: ServeChaosPlan / ServeChaosInjector,
checksummed KV-cache corruption detection, supervised recompute-restart
recovery, and the serve-side anomaly detectors scored against injected
ground truth.

The standing contract is the same as the healthy-path serve tests:
whatever the chaos plan does, every *completed* stream must bit-equal
the single-request ``generate`` oracle, the cache must end empty, and
a faulted run must replay deterministically on the virtual clock.
"""

import io
import json

import numpy as np
import pytest

from repro.config import tiny_test_model
from repro.nn import GPTModel, generate
from repro.obs import (
    PreemptionStormDetector,
    QueueGrowthDetector,
    TtftSloDetector,
    run_monitor,
    score_run,
)
from repro.obs.runlog import RunLogger
from repro.resilience import (
    AllocExhaustion,
    DecodeCrash,
    DecodeCrashError,
    KVCorruption,
    ServeChaosInjector,
    ServeChaosPlan,
)
from repro.serve import (
    KVCorruptionError,
    PagedKVCache,
    ServeEngine,
    TraceRequest,
    poisson_trace,
)
from repro.serve.engine import MAX_RETRIES

from .test_monitor import score_of

CFG = tiny_test_model()  # seq_length=8, vocab 64


def model():
    return GPTModel(CFG, seed=0)


def run_chaos(trace, *, num_blocks=6, block_size=3, checksums=False,
              **engine_kw):
    """Run a trace under chaos; returns (engine, report, events)."""
    m = model()
    cache = PagedKVCache.for_model(
        m, num_blocks=num_blocks, block_size=block_size,
        checksums=checksums)
    buf = io.StringIO()
    logger = RunLogger(buf, "test-serve-chaos", clock=lambda: 0.0)
    logger.start("serve")
    engine = ServeEngine(m, cache, logger=logger, **engine_kw)
    report = engine.run(trace)
    cache.assert_empty()
    events = []
    for line in buf.getvalue().splitlines():
        event = json.loads(line)
        if event["type"] in ("request", "iteration", "fault"):
            event.pop("t", None)
            event.pop("seconds", None)
            events.append(event)
    return engine, report, events


def oracle(req):
    return generate(
        model(), np.array(req.prompt), req.max_new_tokens,
        temperature=req.temperature, top_k=req.top_k,
        rng=np.random.default_rng(req.seed), stop_ids=set(req.stop_ids))


# ---------------------------------------------------------------------------
# the plan: validation + JSON round trip
# ---------------------------------------------------------------------------

class TestServeChaosPlan:
    def test_json_round_trip(self):
        plan = ServeChaosPlan(
            crashes=(DecodeCrash(at_step=3, request_id="r1", times=2),),
            corruptions=(KVCorruption(at_step=5),),
            exhaustions=(AllocExhaustion(at_step=8, steps=2, blocks=3),),
        )
        assert ServeChaosPlan.from_json(plan.to_json()) == plan

    def test_entries_sorted_by_step(self):
        plan = ServeChaosPlan(crashes=(
            DecodeCrash(at_step=9), DecodeCrash(at_step=2),
        ))
        assert [c.at_step for c in plan.crashes] == [2, 9]

    def test_overlapping_storms_rejected(self):
        with pytest.raises(ValueError, match="overlapping"):
            ServeChaosPlan(exhaustions=(
                AllocExhaustion(at_step=0, steps=4),
                AllocExhaustion(at_step=3, steps=4),
            ))

    @pytest.mark.parametrize("bad", [
        lambda: DecodeCrash(at_step=-1),
        lambda: DecodeCrash(at_step=0, times=0),
        lambda: KVCorruption(at_step=-2),
        lambda: AllocExhaustion(at_step=0, steps=0),
        lambda: AllocExhaustion(at_step=0, blocks=0),
    ])
    def test_entry_validation(self, bad):
        with pytest.raises(ValueError):
            bad()

    @pytest.mark.parametrize("text,match", [
        ("{broken", "unparseable"),
        ("[1, 2]", "JSON object"),
        ('{"surprises": []}', "unknown serve chaos plan keys"),
        ('{"crashes": [{"at_step": 1, "nope": 2}]}', "bad crash entry"),
        ('{"crashes": [42]}', "crash entries must be objects"),
    ])
    def test_from_json_rejects_garbage(self, text, match):
        with pytest.raises(ValueError, match=match):
            ServeChaosPlan.from_json(text)

    @pytest.mark.parametrize("entry,field,what", [
        ('"crashes": [{"at_step": 1.5}]', "at_step", "crash 0"),
        ('"crashes": [{"at_step": 1, "times": true}]', "times", "crash 0"),
        ('"corruptions": [{"at_step": "2"}]', "at_step", "corruption 0"),
        ('"exhaustions": [{"at_step": 1}, {"at_step": 9, "blocks": 2.0}]',
         "blocks", "exhaustion 1"),
        ('"exhaustions": [{"at_step": 1, "steps": null}]', "steps",
         "exhaustion 0"),
    ])
    def test_integer_fields_take_only_json_integers(self, entry, field, what):
        with pytest.raises(ValueError,
                           match=f"^serve chaos plan {what}: {field} must be "
                                 f"an integer"):
            ServeChaosPlan.from_json("{" + entry + "}")

    @pytest.mark.parametrize("text,key", [
        ('{"exhaustions": 5}', "exhaustions"),
        ('{"crashes": {"at_step": 1}}', "crashes"),
        ('{"corruptions": null}', "corruptions"),
    ])
    def test_from_json_rejects_a_key_that_is_not_a_list(self, text, key):
        with pytest.raises(ValueError, match=f"^{key} must be a list$"):
            ServeChaosPlan.from_json(text)


# ---------------------------------------------------------------------------
# checksummed cache: corruption is detected, never silently served
# ---------------------------------------------------------------------------

class TestKVChecksums:
    def kv(self, rng, n):
        """Random per-layer (k, v) pairs shaped (1, heads, n, head_dim)."""
        a = CFG.num_attention_heads
        dk = CFG.hidden_size // a
        return [
            (rng.standard_normal((1, a, n, dk)),
             rng.standard_normal((1, a, n, dk)))
            for _ in range(CFG.num_layers)
        ]

    def test_clean_round_trip_passes(self):
        cache = PagedKVCache.for_model(model(), num_blocks=4, block_size=3,
                                       checksums=True)
        rng = np.random.default_rng(0)
        handle = cache.create()
        kvs = self.kv(rng, 5)
        cache.append(handle, kvs)
        got = cache.gather(handle)
        for layer in range(CFG.num_layers):
            np.testing.assert_array_equal(got[layer][0], kvs[layer][0])
            np.testing.assert_array_equal(got[layer][1], kvs[layer][1])
        cache.free(handle)
        cache.assert_empty()

    def test_corrupt_block_detected_on_gather(self):
        cache = PagedKVCache.for_model(model(), num_blocks=4, block_size=3,
                                       checksums=True)
        rng = np.random.default_rng(1)
        handle = cache.create()
        cache.append(handle, self.kv(rng, 4))
        cache.corrupt_block(handle.slot, 1)
        with pytest.raises(KVCorruptionError) as exc:
            cache.gather(handle)
        assert (exc.value.slot, exc.value.index) == (handle.slot, 1)
        cache.free(handle)  # corrupted blocks are still freeable
        cache.assert_empty()

    def test_freed_block_forgets_its_checksum(self):
        cache = PagedKVCache.for_model(model(), num_blocks=1, block_size=3,
                                       checksums=True)
        rng = np.random.default_rng(2)
        handle = cache.create()
        cache.append(handle, self.kv(rng, 3))
        cache.corrupt_block(handle.slot, 0)
        cache.free(handle)
        # Reusing the block with fresh content must not trip the stale
        # checksum: append re-checksums everything it touches.
        handle2 = cache.create()
        kvs = self.kv(rng, 3)
        cache.append(handle2, kvs)
        got = cache.gather(handle2)
        np.testing.assert_array_equal(got[0][0], kvs[0][0])
        cache.free(handle2)
        cache.assert_empty()

    def test_injector_demands_checksums_for_corruption(self):
        cache = PagedKVCache.for_model(model(), num_blocks=4, block_size=3)
        plan = ServeChaosPlan(corruptions=(KVCorruption(at_step=0),))
        with pytest.raises(ValueError, match="checksum"):
            ServeChaosInjector(plan, cache)


# ---------------------------------------------------------------------------
# supervised recovery through the engine
# ---------------------------------------------------------------------------

class TestChaosRecovery:
    def test_crash_retries_and_matches_oracle(self):
        trace = poisson_trace(5, 0.7, vocab_size=CFG.vocab_size, seed=7,
                              temperature=1.0, top_k=5)
        plan = ServeChaosPlan(crashes=(DecodeCrash(at_step=1, times=2),))
        engine, report, events = run_chaos(trace, chaos=plan)
        agg = report.to_dict()["aggregate"]
        assert agg["retries"] > 0
        assert agg["outcomes"]["completed"] == len(trace)
        for req in trace:
            np.testing.assert_array_equal(
                oracle(req), engine.outputs[req.request_id])

    def test_fault_then_retry_event_sequence(self):
        req = TraceRequest("solo", 0, (1, 2, 3), 4, temperature=0.0)
        plan = ServeChaosPlan(crashes=(DecodeCrash(at_step=0),))
        _, report, events = run_chaos([req], chaos=plan)
        phases = [e["phase"] for e in events if e["type"] == "request"]
        assert phases.index("fault") < phases.index("retry")
        assert phases.index("retry") < phases.index("resume")
        retry = next(e for e in events
                     if e["type"] == "request" and e["phase"] == "retry")
        assert retry["attempt"] == 1
        assert retry["not_before"] > retry["step"]  # backoff gate
        (metrics,) = report.requests
        assert metrics.retries == 1
        assert metrics.outcome == "completed"

    def test_exhausted_retry_budget_fails_typed(self):
        req = TraceRequest("doomed", 0, (1, 2, 3), 4, temperature=0.0)
        plan = ServeChaosPlan(crashes=(
            DecodeCrash(at_step=0, times=10),
        ))
        engine, report, events = run_chaos([req], chaos=plan)
        (metrics,) = report.requests
        assert metrics.outcome == "failed"
        assert "doomed" not in engine.outputs
        gave_up = [e for e in events if e["type"] == "request"
                   and e["phase"] == "fault" and e.get("gave_up")]
        assert len(gave_up) == 1
        assert gave_up[0]["retries"] == MAX_RETRIES

    def test_storm_seizes_then_returns_blocks(self):
        req = TraceRequest("slow", 4, (1, 2, 3), 4, temperature=0.0)
        plan = ServeChaosPlan(exhaustions=(
            AllocExhaustion(at_step=4, steps=3),
        ))
        engine, report, events = run_chaos([req], num_blocks=4, chaos=plan)
        # The storm holds the whole pool for 3 steps, so admission (and
        # the first token) waits for the release.
        (metrics,) = report.requests
        assert metrics.outcome == "completed"
        assert metrics.first_token_step - metrics.arrival_step >= 3
        np.testing.assert_array_equal(oracle(req), engine.outputs["slow"])

    def test_faulted_run_replays_bit_exactly(self):
        trace = poisson_trace(5, 0.8, vocab_size=CFG.vocab_size, seed=9,
                              temperature=1.0, top_k=5)
        plan = ServeChaosPlan(
            crashes=(DecodeCrash(at_step=1),),
            corruptions=(KVCorruption(at_step=3),),
            exhaustions=(AllocExhaustion(at_step=6, steps=2),),
        )

        def once():
            return run_chaos(trace, checksums=True, chaos=plan)

        e1, r1, ev1 = once()
        e2, r2, ev2 = once()
        for rid, stream in e1.outputs.items():
            np.testing.assert_array_equal(stream, e2.outputs[rid])
        assert r1.to_dict()["requests"] == r2.to_dict()["requests"]
        assert ev1 == ev2

    def test_ground_truth_fault_events_announced_once(self):
        trace = poisson_trace(5, 0.8, vocab_size=CFG.vocab_size, seed=9,
                              temperature=1.0, top_k=5)
        plan = ServeChaosPlan(
            crashes=(DecodeCrash(at_step=1, times=3),),
            exhaustions=(AllocExhaustion(at_step=4, steps=2),),
        )
        _, _, events = run_chaos(trace, chaos=plan)
        faults = [e for e in events if e["type"] == "fault"]
        # One announcement per plan entry, however many times it fires.
        assert sorted(f["kind"] for f in faults) == \
            ["alloc-exhaustion", "decode-crash"]
        expects = {f["kind"]: f["expect"] for f in faults}
        assert expects == {"decode-crash": "ttft-slo",
                           "alloc-exhaustion": "queue-growth"}

    def test_decode_crash_error_carries_context(self):
        err = DecodeCrashError(7, "req-0001")
        assert err.step == 7
        assert err.request_id == "req-0001"
        assert "req-0001" in str(err)


# ---------------------------------------------------------------------------
# serve-side detectors scored against injected ground truth
# ---------------------------------------------------------------------------

class TestServeDetectors:
    def test_clean_run_raises_no_alerts(self):
        # A provisioned pool (little preemption churn): the default
        # detector set must stay silent -- zero false positives.
        trace = poisson_trace(6, 0.7, vocab_size=CFG.vocab_size, seed=2,
                              temperature=1.0, top_k=5)
        _, _, events = run_chaos(trace, num_blocks=12)
        monitor = run_monitor(events)  # the default detector set
        assert monitor.alerts == []

    def test_queue_growth_catches_exhaustion_storm(self):
        assert (QueueGrowthDetector.MIN_DEPTH,
                QueueGrowthDetector.CONSECUTIVE) == (6, 3)
        trace = [
            TraceRequest(f"r{i}", 0, (1, 2, 3), 3, temperature=0.0,
                         seed=i)
            for i in range(8)
        ]
        plan = ServeChaosPlan(exhaustions=(
            AllocExhaustion(at_step=0, steps=10),
        ))
        _, _, events = run_chaos(trace, num_blocks=4, chaos=plan)
        board = score_run(events, run_monitor(events).alerts)
        score = score_of(board, "queue-growth")
        assert score.recall == 1.0
        assert score.precision == 1.0

    def test_ttft_slo_catches_crash_looped_request(self, monkeypatch):
        monkeypatch.setattr(TtftSloDetector, "SLO_STEPS", 2)
        req = TraceRequest("lagged", 0, (1, 2, 3), 3, temperature=0.0)
        plan = ServeChaosPlan(crashes=(
            DecodeCrash(at_step=0, times=2),
        ))
        _, _, events = run_chaos([req], chaos=plan)
        board = score_run(events, run_monitor(events).alerts)
        score = score_of(board, "ttft-slo")
        assert score.recall == 1.0
        assert score.precision == 1.0

    def test_preemption_storm_catches_corruption_churn(self, monkeypatch):
        monkeypatch.setattr(PreemptionStormDetector, "WINDOW_STEPS", 16)
        monkeypatch.setattr(PreemptionStormDetector, "THRESHOLD", 2)
        trace = poisson_trace(5, 0.8, vocab_size=CFG.vocab_size, seed=4,
                              temperature=1.0, top_k=5)
        plan = ServeChaosPlan(corruptions=(
            KVCorruption(at_step=2, times=2),
        ))
        _, _, events = run_chaos(trace, checksums=True, chaos=plan)
        board = score_run(events, run_monitor(events).alerts)
        score = score_of(board, "preemption-storm")
        assert score.recall == 1.0

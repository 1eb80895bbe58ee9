"""Serving-under-fire performance contracts (ISSUE 10).

Robustness must be (near) free when nothing goes wrong, and bounded
when everything does:

- **fault-free bookkeeping overhead** — an engine with the full
  degradation kit armed (per-request deadlines + queue TTLs + a bounded
  queue + per-block cache checksums) but no chaos must cost less than
  5% of the plain engine's wall time on the same trace: deadline/TTL
  checks are O(live SLO requests) per tick and the CRC32 touches only
  blocks an append wrote;
- **chaos-recovery correctness under timing** — a crash + corruption +
  storm run, timed, must still complete every request with streams
  bit-equal to the per-request oracle and zero leaked blocks (recovery
  is re-verified inside the timed region, so the bench cannot rot into
  measuring a broken engine);
- **recovery cost stays bounded** — the faulted run's wall time must
  stay within 10x the fault-free run (backoff is on the virtual clock,
  not wall time; the real cost is recompute work).

Best-of-N timing keeps the assertions robust against scheduler noise.
"""

import statistics
import time

import numpy as np

from repro.config import tiny_test_model
from repro.nn import GPTModel, generate
from repro.resilience import (
    AllocExhaustion,
    DecodeCrash,
    KVCorruption,
    ServeChaosPlan,
)
from repro.serve import PagedKVCache, ServeEngine, poisson_trace

CFG = tiny_test_model(num_layers=2, hidden_size=32, num_attention_heads=4,
                      vocab_size=128, seq_length=64)


def _model():
    return GPTModel(CFG, seed=0)


def _trace(**kw):
    return poisson_trace(6, 0.7, vocab_size=CFG.vocab_size, seed=2,
                         prompt_len=(4, 8), max_new=(8, 16),
                         temperature=1.0, top_k=5, **kw)


CHAOS = ServeChaosPlan(
    crashes=(DecodeCrash(at_step=2),),
    corruptions=(KVCorruption(at_step=6),),
    exhaustions=(AllocExhaustion(at_step=10, steps=3),),
)


def _engine_time(guarded: bool, chaos=None, repeats: int = 5) -> float:
    model = _model()
    trace = (_trace(deadline_steps=512, queue_ttl=256) if guarded
             else _trace())
    best = float("inf")
    for _ in range(repeats):
        cache = PagedKVCache.for_model(model, num_blocks=16, block_size=4,
                                       checksums=guarded or bool(chaos))
        if guarded:
            engine = ServeEngine(model, cache, max_queue=32, chaos=chaos)
        else:
            engine = ServeEngine(model, cache, chaos=chaos)
        t0 = time.perf_counter()
        engine.run(trace)
        best = min(best, time.perf_counter() - t0)
        cache.assert_empty()
    return best


def test_robustness_bookkeeping_overhead_under_5_percent():
    """Deadlines + TTLs + bounded queue + checksums, no faults: <5%.

    Shared-machine noise here swings single runs by far more than the
    budget, in two distinct regimes, so the guard combines two
    estimators over paired back-to-back samples (order alternating to
    cancel any first-runner bias):

    - *ratio of minima* — robust to sustained co-tenant load with
      occasional quiet windows: both arms sample the quiet window and
      the minima compare like-for-like;
    - *median of per-pair ratios* — robust to load that never lets up:
      each pair runs inside one ~100ms window, so a second-scale load
      plateau inflates both arms of a pair equally and cancels in the
      ratio, while burst outliers lose to the median.

    Noise can push either estimator up, but only a real cost increase
    pushes up *both* (it inflates every guarded sample, raising the
    guarded minimum and every pair's ratio alike), so the guard asserts
    on the smaller of the two.  A reading over budget re-measures from
    scratch (up to three attempts): residual noise clears on a retry,
    while a genuine regression shifts both estimators on every attempt.
    The true overhead, measured on a quiet machine, is under 1%.
    """
    _engine_time(guarded=False, repeats=1)  # warm up caches
    _engine_time(guarded=True, repeats=1)
    attempts = []
    for attempt in range(3):
        pairs = []
        for i in range(31):
            if i % 2 == 0:
                base = _engine_time(guarded=False, repeats=1)
                guarded = _engine_time(guarded=True, repeats=1)
            else:
                guarded = _engine_time(guarded=True, repeats=1)
                base = _engine_time(guarded=False, repeats=1)
            pairs.append((base, guarded))
        min_ratio = (min(g for _, g in pairs) / min(b for b, _ in pairs))
        med_ratio = statistics.median(g / b for b, g in pairs)
        overhead = min(min_ratio, med_ratio) - 1.0
        attempts.append(overhead)
        print(f"\nattempt {attempt}: "
              f"ratio-of-mins={(min_ratio-1)*100:+.2f}% "
              f"median-ratio={(med_ratio-1)*100:+.2f}% "
              f"overhead={overhead*100:+.2f}%")
        if overhead < 0.05:
            break
    assert min(attempts) < 0.05, (
        f"robustness bookkeeping overhead exceeded the 5% budget by both "
        f"estimators on {len(attempts)} independent measurements: "
        + ", ".join(f"{o*100:+.1f}%" for o in attempts)
    )


def test_chaos_recovery_correct_and_bounded():
    model, trace = _model(), _trace()
    cache = PagedKVCache.for_model(model, num_blocks=16, block_size=4,
                                   checksums=True)
    engine = ServeEngine(model, cache, chaos=CHAOS)
    t0 = time.perf_counter()
    report = engine.run(trace)
    faulted = time.perf_counter() - t0
    cache.assert_empty()
    agg = report.to_dict()["aggregate"]
    assert agg["retries"] > 0  # the faults really fired
    assert agg["outcomes"]["completed"] == len(trace)
    for req in trace:
        oracle = generate(model, np.array(req.prompt), req.max_new_tokens,
                          temperature=req.temperature, top_k=req.top_k,
                          rng=np.random.default_rng(req.seed),
                          stop_ids=set(req.stop_ids))
        np.testing.assert_array_equal(oracle,
                                      engine.outputs[req.request_id])
    clean = _engine_time(guarded=False)
    slowdown = faulted / clean
    print(f"\nclean={clean*1e3:.1f}ms faulted={faulted*1e3:.1f}ms "
          f"slowdown={slowdown:.2f}x retries={agg['retries']}")
    assert slowdown < 10.0, (
        f"chaos recovery cost {slowdown:.1f}x exceeds the 10x bound"
    )

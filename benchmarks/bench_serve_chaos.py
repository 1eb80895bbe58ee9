"""Serving-under-fire performance contracts (ISSUE 10).

Robustness must be (near) free when nothing goes wrong, and bounded
when everything does:

- **fault-free bookkeeping overhead** — an engine with the full
  degradation kit armed (per-request deadlines + queue TTLs + a bounded
  queue + per-block cache checksums) but no chaos must cost less than
  5% of the plain engine's wall time on the same trace: the expiry
  check scans every live request once per tick, an append checksums
  only the blocks it wrote, and a gather verifies every block of the
  requests it reads;
- **chaos-recovery correctness under timing** — a crash + corruption +
  storm run, timed, must still complete every request with streams
  bit-equal to the per-request oracle and zero leaked blocks (recovery
  is re-verified inside the timed region, so the bench cannot rot into
  measuring a broken engine);
- **recovery cost stays bounded** — the faulted run's wall time must
  stay within 10x the fault-free run (backoff is on the virtual clock,
  not wall time; the real cost is recompute work).

The overhead guard times with ``conftest.py``'s paired estimator;
best-of-N timing keeps the recovery bound robust against scheduler
noise.
"""

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


def test_robustness_bookkeeping_overhead_under_5_percent(paired_ratio):
    """Deadlines + TTLs + bounded queue + checksums, no faults: <5%.

    Each sample times one ``engine.run`` of the trace; a pair runs
    inside one ~100ms window, so a second-scale load plateau inflates
    both arms alike (the estimator is ``conftest._paired_ratio``).  The
    true overhead, measured on a quiet machine, is under 1%.
    """
    ratios = paired_ratio(lambda: _engine_time(guarded=True, repeats=1),
                          lambda: _engine_time(guarded=False, repeats=1),
                          bound=1.05)
    attempts = [ratio - 1.0 for ratio in ratios]
    assert attempts[-1] < 0.05, (
        f"robustness bookkeeping overhead exceeded the 5% budget on the "
        f"median of pair ratios, pooled over {len(attempts)} attempts: "
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

"""Serving conformance: every fast decode path vs the trusted oracle.

The full-recompute :func:`repro.nn.generate.generate` is the slow,
training-numerics-consistent reference.  This section pins the three
fast paths of :mod:`repro.serve` to it:

- **paged K/V round trip** (``PagedKVCache.append`` / ``gather`` over a
  batch of handles, the write and read of the batched decode step):
  after every ragged single-token write -- through ``append``, or in
  place through ``gather``'s views as the decode step writes -- each
  handle must read back, bit for bit, what a plain per-request list
  holds.  ``verify --inject kv-offset`` proves this check can fail: a
  seeded defect lands one batched row one position off.
- **cached decode** (`cached_generate`, paged KV cache + incremental
  ``forward_step``): token streams must be ``np.array_equal`` to the
  oracle across a seeded grid of sampling modes and prompt lengths
  near/over the ``seq_length`` sliding-window boundary -- plus a
  zero-leak check on the block pool after every run.
- **continuous batching** (`ServeEngine` on a Poisson trace sized to
  force preemption): every request's final stream must equal its
  single-request oracle regardless of interleaving/preemption, and a
  second run of the same trace must replay the first bit-exactly
  (streams, metrics, event sequence on the virtual clock).
- **tensor-parallel decode** (`tp_generate` over the coop oracle and,
  in full mode, the real-process mp backend): token streams equal
  single-rank decode record-for-record.

:func:`stream_mismatches` (engine streams vs their per-request oracle)
and :func:`run_logged` (one engine run and its replayable events) are
shared with :mod:`.serve_chaos_check` and ``repro serve --smoke``.
"""

from __future__ import annotations

import io
import json

import numpy as np

from repro.config import tiny_test_model
from repro.nn.generate import generate
from repro.nn.transformer import GPTModel
from repro.obs.runlog import RunLogger


def _grid(fast: bool, seed: int):
    """(prompt_len, max_new, temperature, top_k) differential grid.

    seq_length is 8 for the tiny model: lengths 7/8 sit at the
    sliding-window boundary, 10 starts beyond it.
    """
    points = [
        (3, 4, 0.0, None),   # greedy, well inside the window
        (7, 6, 0.0, None),   # greedy, crosses the boundary mid-decode
        (8, 5, 1.0, 4),      # top-k sampling, starts exactly at window
        (10, 6, 0.8, None),  # temperature sampling, prompt over window
    ]
    if not fast:
        points += [
            (1, 8, 0.0, None),   # minimal prompt
            (5, 7, 1.0, 1),      # top_k=1 (greedy-by-sampling)
            (6, 9, 1.3, 8),
            (12, 8, 0.0, None),  # long prompt, long decode
        ]
    return points


ROUNDTRIP_WRITES = 6  # batched single-token writes per round trip


def _row(runs, i: int, n: int):
    """Row ``i``'s first ``n`` positions in one layer of a batched
    ``gather``: ``(k, v)``, each ``(1, a, n, dk)``."""
    for rows, k, v in runs:
        j = np.flatnonzero(rows == i)
        if j.size:
            return k[j[0]:j[0] + 1, :, :n], v[j[0]:j[0] + 1, :, :n]
    raise AssertionError(f"row {i} is in no run")


def _check_kv_roundtrip(fast: bool, seed: int) -> list[str]:
    from repro.serve import PagedKVCache

    # A window past the longest context here, 8 + ROUNDTRIP_WRITES: a
    # slot holds no more positions than the model's window.
    config = tiny_test_model(seq_length=16)
    model = GPTModel(config, seed=seed)
    heads = config.num_attention_heads
    rng = np.random.default_rng(seed + 4)

    def kvs(rows: int, s_new: int):
        shape = (config.num_layers, 2, rows, heads, s_new, config.head_dim)
        return rng.standard_normal(shape)

    failures = []
    for block_size in (3,) if fast else (1, 3, 4):
        cache = PagedKVCache.for_model(model, num_blocks=64,
                                       block_size=block_size)
        handles = [cache.create() for _ in range(5)]
        kept = []  # per handle: (L, 2, 1, a, length, dk), grown by hand
        for handle in handles:
            kept.append(kvs(1, int(rng.integers(1, 9))))
            cache.append(handle, [tuple(layer) for layer in kept[-1]])
        for write in range(ROUNDTRIP_WRITES):
            new = kvs(len(handles), 1)
            if write % 2:  # as the decode step writes: into the views
                for layer, runs in zip(new, cache.gather(handles)):
                    for rows, *past in runs:
                        for j, i in enumerate(rows):
                            for t, value in zip(past, layer):
                                t[j, :, handles[i].length] = value[i, :, 0]
                cache.append(handles)
            else:
                cache.append(handles, [tuple(layer) for layer in new])
            kept = [np.concatenate([old, new[:, :, i:i + 1]], axis=4)
                    for i, old in enumerate(kept)]
            past = list(cache.gather(handles))
            for i, (handle, want) in enumerate(zip(handles, kept)):
                n = handle.length
                dense = np.array(cache.gather(handle))
                ragged = np.array([_row(layer, i, n) for layer in past])
                if not (np.array_equal(dense, want)
                        and np.array_equal(ragged, want)):
                    failures.append(
                        f"handle {i} read back different K/V than was "
                        f"written (block_size={block_size}, batched write "
                        f"{write + 1}, length {n})"
                    )
        for handle in handles:
            cache.free(handle)
        cache.assert_empty()
    return failures


def _check_cached_decode(fast: bool, seed: int) -> list[str]:
    from repro.serve import cached_generate

    config = tiny_test_model()
    model = GPTModel(config, seed=seed)
    prompt_rng = np.random.default_rng(seed + 1)
    failures = []
    for block_size in (1, 3) if not fast else (3,):
        for pl, mn, temp, top_k in _grid(fast, seed):
            prompt = prompt_rng.integers(0, config.vocab_size, size=pl)
            oracle = generate(
                model, prompt, mn, temperature=temp, top_k=top_k,
                rng=np.random.default_rng(seed),
            )
            cached = cached_generate(
                model, prompt, mn, temperature=temp, top_k=top_k,
                rng=np.random.default_rng(seed), block_size=block_size,
            )
            if not np.array_equal(oracle, cached):
                failures.append(
                    f"cached decode diverged from oracle at prompt_len={pl} "
                    f"max_new={mn} temperature={temp} top_k={top_k} "
                    f"block_size={block_size}: oracle={oracle.tolist()} "
                    f"cached={cached.tolist()}"
                )
        # Stop-token path: cached decode must stop where the oracle stops.
        prompt = prompt_rng.integers(0, config.vocab_size, size=4)
        probe = generate(model, prompt, 6, temperature=0.0)
        stop = {int(probe[len(prompt) + 1])}
        oracle = generate(model, prompt, 6, temperature=0.0, stop_ids=stop)
        cached = cached_generate(
            model, prompt, 6, temperature=0.0, stop_ids=stop,
            block_size=block_size,
        )
        if not np.array_equal(oracle, cached):
            failures.append(
                f"cached decode with stop_ids diverged: "
                f"oracle={oracle.tolist()} cached={cached.tolist()}"
            )
    return failures


def stream_mismatches(model, requests, outputs) -> list[str]:
    """One line per request whose engine stream is not, token for token,
    its single-request ``generate`` oracle (the request's own sampling
    seed and stop ids)."""
    failures = []
    for req in requests:
        oracle = generate(
            model, np.array(req.prompt), req.max_new_tokens,
            temperature=req.temperature, top_k=req.top_k,
            rng=np.random.default_rng(req.seed), stop_ids=set(req.stop_ids),
        )
        got = outputs.get(req.request_id)
        if got is None or not np.array_equal(oracle, got):
            failures.append(
                f"stream for {req.request_id} != its generate oracle: "
                f"oracle={oracle.tolist()} "
                f"engine={None if got is None else got.tolist()}"
            )
    return failures


def run_logged(model, trace, *, num_blocks, block_size, checksums=False,
               **engine_kw):
    """One engine run logging into a buffer; returns ``(engine, report,
    events)``, the events being what a replay must reproduce."""
    from repro.serve import PagedKVCache, ServeEngine

    cache = PagedKVCache.for_model(
        model, num_blocks=num_blocks, block_size=block_size,
        checksums=checksums,
    )
    buf = io.StringIO()
    logger = RunLogger(buf, "serve-check", clock=lambda: 0.0)
    logger.start("serve")
    engine = ServeEngine(model, cache, logger=logger, **engine_kw)
    report = engine.run(trace)
    events = []
    for line in buf.getvalue().splitlines():
        event = json.loads(line)
        if event["type"] not in ("request", "iteration", "fault"):
            continue
        # Wall-clock fields are the only nondeterminism; everything on
        # the virtual clock must replay bit-exactly.
        event.pop("t", None)
        event.pop("seconds", None)
        events.append(event)
    return engine, report, events


def _check_engine(fast: bool, seed: int) -> list[str]:
    from repro.serve import poisson_trace

    config = tiny_test_model()
    model = GPTModel(config, seed=seed)
    n = 6 if fast else 12
    trace = poisson_trace(
        n, 0.7, vocab_size=config.vocab_size, seed=seed + 2,
        temperature=1.0, top_k=5,
    )
    failures = []
    # A 4-block pool is deliberately scarce: the trace must preempt.
    engine, report, events = run_logged(model, trace, num_blocks=4,
                                        block_size=3)
    if sum(r.preemptions for r in report.requests) == 0:
        failures.append(
            "scarce-capacity trace triggered no preemption -- the "
            "preemption path went unexercised"
        )
    failures += stream_mismatches(model, trace, engine.outputs)
    # Deterministic replay: same trace, fresh pool -> identical run.
    engine2, report2, events2 = run_logged(model, trace, num_blocks=4,
                                           block_size=3)
    for rid, stream in engine.outputs.items():
        if not np.array_equal(stream, engine2.outputs[rid]):
            failures.append(f"replay diverged on {rid}'s token stream")
    if report.to_dict()["requests"] != report2.to_dict()["requests"]:
        failures.append("replay diverged on per-request metrics")
    if events != events2:
        failures.append("replay diverged on the run-log event sequence")
    leaked = engine.cache.live_blocks + engine2.cache.live_blocks
    if leaked:
        failures.append(f"{leaked} cache blocks leaked over two runs")
    return failures


def _check_tp(fast: bool, seed: int) -> list[str]:
    from repro.serve import tp_generate

    config = tiny_test_model()
    model = GPTModel(config, seed=seed)
    prompt_rng = np.random.default_rng(seed + 3)
    failures = []
    cases = [(3, 5, 0.0, None), (6, 6, 1.0, 4)]
    if not fast:
        cases.append((10, 6, 0.0, None))  # over-window TP decode
    for pl, mn, temp, top_k in cases:
        prompt = prompt_rng.integers(0, config.vocab_size, size=pl)
        single = generate(
            model, prompt, mn, temperature=temp, top_k=top_k,
            rng=np.random.default_rng(seed),
        )
        for world in (2, 4):
            tp = tp_generate(
                config, prompt, mn, world=world, seed=seed,
                temperature=temp, top_k=top_k,
                rng=np.random.default_rng(seed),
            )
            if not np.array_equal(single, tp):
                failures.append(
                    f"tp decode (t={world}, coop) != single-rank at "
                    f"prompt_len={pl} max_new={mn} temperature={temp} "
                    f"top_k={top_k}: single={single.tolist()} "
                    f"tp={tp.tolist()}"
                )
    if not fast:
        # One real-process case bounds the spawn cost while still
        # proving backend-invariance of the decoded stream.
        prompt = prompt_rng.integers(0, config.vocab_size, size=4)
        single = generate(model, prompt, 4, temperature=0.0)
        tp = tp_generate(
            config, prompt, 4, world=2, seed=seed, backend="mp",
            temperature=0.0,
        )
        if not np.array_equal(single, tp):
            failures.append(
                f"tp decode (t=2, mp) != single-rank: "
                f"single={single.tolist()} tp={tp.tolist()}"
            )
    return failures


def run_serve_checks(
    fast: bool = False, seed: int = 0
) -> list[tuple[str, list[str]]]:
    """Every serving conformance check; ``(name, failures)`` per check."""
    return [
        ("paged-kv-batch-roundtrip", _check_kv_roundtrip(fast, seed)),
        ("cached-decode-oracle-grid", _check_cached_decode(fast, seed)),
        ("continuous-batching", _check_engine(fast, seed)),
        ("tensor-parallel-decode", _check_tp(fast, seed)),
    ]

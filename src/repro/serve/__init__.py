"""Continuous-batching inference over the trained GPT stack.

ROADMAP item 1's downstream workload: requests with their own prompts,
decode budgets and sampling seeds stream through a paged-KV-cache
engine, and every fast path is pinned to the slow-but-trusted
``repro.nn.generate`` oracle by differential tests (``repro verify
--only serve``).

- :mod:`repro.serve.kv_cache` -- the paged K/V pool and its block count
- :mod:`repro.serve.decode`   -- per-request decode sessions, one batched step
- :mod:`repro.serve.engine`   -- FIFO continuous batching + preemption
- :mod:`repro.serve.traffic`  -- seeded Poisson traces, JSON replay
- :mod:`repro.serve.metrics`  -- TTFT/latency/throughput SLO reports
- :mod:`repro.serve.tp`       -- tensor-parallel decode over ``repro.comm``

Robustness: per-request deadlines and queue TTLs, bounded admission
with pluggable shedding, client cancellation, per-block cache
checksums, and chaos-injected fault recovery -- see
:mod:`repro.resilience.serve_chaos` and ``repro verify --only
serve-chaos``.

The names below resolve on first use (:func:`repro.lazy_exports`):
``from repro.serve import ServeEngine`` loads the engine and the model
it serves, not ``serve.tp`` and the tensor-parallel stack behind it,
and the engine imports the fault injector only when it is given a
``chaos=`` plan (DESIGN.md, "Start-up").
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "kv_cache": "CacheFull KVCorruptionError KVHandle PagedKVCache",
    "decode": "DecodeSession cached_generate",
    "engine": "SHED_POLICIES ServeEngine",
    "metrics": "FINISH_REASONS OUTCOMES SERVE_METRICS_SCHEMA_VERSION "
               "RequestMetrics ServeReport validate_serve_metrics",
    "tp": "TensorParallelDecoder tp_generate",
    "traffic": "TraceRequest load_trace poisson_trace save_trace "
               "trace_from_json trace_to_json",
})

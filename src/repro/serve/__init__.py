"""Continuous-batching inference over the trained GPT stack.

ROADMAP item 1's downstream workload: requests with their own prompts,
decode budgets and sampling seeds stream through a paged-KV-cache
engine, and every fast path is pinned to the slow-but-trusted
``repro.nn.generate`` oracle by differential tests (``repro verify
--only serve``).

- :mod:`repro.serve.kv_cache` -- block allocator + paged K/V pools
- :mod:`repro.serve.decode`   -- per-request decode sessions, one batched step
- :mod:`repro.serve.engine`   -- FIFO continuous batching + preemption
- :mod:`repro.serve.traffic`  -- seeded Poisson traces, JSON replay
- :mod:`repro.serve.metrics`  -- TTFT/latency/throughput SLO reports
- :mod:`repro.serve.tp`       -- tensor-parallel decode over ``repro.comm``

Robustness (ISSUE 10): per-request deadlines and queue TTLs, bounded
admission with pluggable shedding, client cancellation, per-block cache
checksums, and chaos-injected fault recovery -- see
:mod:`repro.resilience.serve_chaos` and ``repro verify --only
serve-chaos``.
"""

from .decode import DecodeSession, cached_generate
from .engine import SHED_POLICIES, ServeEngine
from .kv_cache import (
    BlockAllocator,
    CacheFull,
    KVCorruptionError,
    KVHandle,
    PagedKVCache,
)
from .metrics import (
    FINISH_REASONS,
    OUTCOMES,
    SERVE_METRICS_SCHEMA_VERSION,
    RequestMetrics,
    ServeReport,
    validate_serve_metrics,
)
from .tp import TensorParallelDecoder, tp_generate
from .traffic import (
    TraceRequest,
    load_trace,
    poisson_trace,
    save_trace,
    trace_from_json,
    trace_to_json,
)

__all__ = [
    "BlockAllocator",
    "CacheFull",
    "DecodeSession",
    "FINISH_REASONS",
    "KVCorruptionError",
    "KVHandle",
    "OUTCOMES",
    "PagedKVCache",
    "RequestMetrics",
    "SERVE_METRICS_SCHEMA_VERSION",
    "SHED_POLICIES",
    "ServeEngine",
    "ServeReport",
    "TensorParallelDecoder",
    "TraceRequest",
    "cached_generate",
    "load_trace",
    "poisson_trace",
    "save_trace",
    "tp_generate",
    "trace_from_json",
    "trace_to_json",
    "validate_serve_metrics",
]

"""Run logging must be (near) free: <5% iteration-time overhead when
a run logger is active, and unmeasurable when off.

The mission-control contract from ISSUE 7, the runlog twin of
``bench_trace_overhead.py``:

- ``repro.obs.runlog`` **active** vs. the bare baseline — the
  per-iteration heartbeat + iteration record (JSON encode, write,
  flush) plus the per-replica busy-time clocks must together cost less
  than 5% of iteration time;
- run logging **inactive** — the dormant hook (one
  ``current_run_logger()`` truthiness check per ``train_step``) must
  be indistinguishable from the baseline.

The guard reads the ``paired_ratio`` estimator of ``conftest.py``
(alternating back-to-back pairs, re-measured up to three times over
budget): each sample is one ``train_step`` of a fresh trainer.
"""

import contextlib
import io
import time

import numpy as np

from repro.config import ParallelConfig, tiny_test_model
from repro.obs.runlog import RunLogger, run_logging
from repro.parallel import PTDTrainer

CFG = tiny_test_model(num_layers=4, hidden_size=32, num_attention_heads=4,
                      vocab_size=64, seq_length=16)
PAR = ParallelConfig(
    pipeline_parallel_size=2,
    tensor_parallel_size=1,
    data_parallel_size=2,
    microbatch_size=1,
    global_batch_size=4,
)


def _batch(seed=0):
    r = np.random.default_rng(seed)
    shape = (PAR.global_batch_size, CFG.seq_length)
    return (
        r.integers(0, CFG.vocab_size, size=shape),
        r.integers(0, CFG.vocab_size, size=shape),
    )


def _iteration_time(logged: bool):
    """One timed sample: the wall time of a fresh trainer's first
    ``train_step``, under a run logger or bare."""
    ids, targets = _batch()

    def sample() -> float:
        trainer = PTDTrainer(CFG, PAR)
        context = contextlib.nullcontext()
        if logged:
            logger = RunLogger(io.StringIO(), "bench")
            logger.start("engine")
            context = run_logging(logger)
        with context:
            t0 = time.perf_counter()
            trainer.train_step(ids, targets)
            return time.perf_counter() - t0

    return sample


def test_runlog_overhead_under_5_percent(paired_ratio):
    attempts = paired_ratio(_iteration_time(logged=True),
                            _iteration_time(logged=False), bound=1.05)
    overhead = min(attempts) - 1.0
    print(f"\noverhead={overhead*100:+.2f}%")
    assert overhead < 0.05, (
        f"run-logging overhead {overhead*100:.1f}% exceeds the 5% budget"
    )

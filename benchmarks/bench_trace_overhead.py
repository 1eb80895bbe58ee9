"""Tracing must be (near) free: <5% iteration-time overhead when on.

The observability contract, on a tiny PTD iteration:
``repro.obs`` tracing **enabled** vs. the untraced baseline -- the span
bookkeeping, the byte and FLOP attribution and the iteration's Table-1
accounting together must cost less than 5% of iteration time.  (Bytes
and FLOPs add into running totals whether or not a tracer is active,
and spans read them by difference; with tracing off ``span()`` is one
empty-list check returning one shared null context.)

The guard reads the ``paired_ratio`` estimator of ``conftest.py``
(alternating back-to-back pairs, re-measured up to three times over
budget): each sample is one ``train_step`` of a fresh trainer, so
tracer span lists never accumulate across samples.
"""

import contextlib
import time

import numpy as np

from repro.config import ParallelConfig, tiny_test_model
from repro.obs import trace
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


def _iteration_time(traced: bool):
    """One timed sample: the wall time of a fresh trainer's first
    ``train_step``, traced or bare."""
    ids, targets = _batch()

    def sample() -> float:
        trainer = PTDTrainer(CFG, PAR)
        with trace() if traced else contextlib.nullcontext():
            t0 = time.perf_counter()
            trainer.train_step(ids, targets)
            return time.perf_counter() - t0

    return sample


def test_tracing_overhead_under_5_percent(paired_ratio):
    attempts = paired_ratio(_iteration_time(traced=True),
                            _iteration_time(traced=False), bound=1.05)
    overhead = attempts[-1] - 1.0
    print(f"\noverhead={overhead*100:+.2f}%")
    assert overhead < 0.05, (
        f"tracing overhead {overhead*100:.1f}% exceeds the 5% budget"
    )

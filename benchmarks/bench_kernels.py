"""Kernel and collective set-up guards (ISSUEs 19 and 20).

Three ratios, each of a thing to its own natural floor measured in the
same process a moment apart, so machine speed cancels:

- **a block's forward is not slower than its backward.**  A backward
  does twice the GEMM work of its forward; a forward that costs more is
  a kernel defect, not physics.  Until PR 19 ``F.gelu_forward`` computed
  ``x**3`` through libm ``pow`` (1.1 ms of a 3 ms forward at the
  ``train_ptd`` shape) and this ratio read **1.42-1.62** over three
  runs of this file on the parent commit; with the cube as two
  multiplications and the element-wise kernels run in place it reads
  **0.69-0.75**.  Bound: 1.15 -- the parent fails it by 23% or more,
  the change clears it by 50%.
- **a collective pays for its bytes, not for its set-up.**  A coop t=2
  all-reduce of a ``(1, 64, 128)`` float64 activation, ``TrafficLog``
  attached -- the tensor-parallel ``g``/``f`` operator as ``train_ptd``
  calls it 227 times a step -- against the bare ring it runs: two
  copy-ins, two half-buffer adds, two half-buffer copies, spelled here
  with nothing around them (the half is ``ring_chunk_bounds(n, 2)[1]``,
  the cut the ring itself makes).  Until PR 19 the front door rebuilt
  the chunk geometry with ``np.linspace`` on every call and copied the
  payload three times: **4.29-4.72x** the bare ring over nine readings
  on the parent (57-66 us / 12-15 us).  With the geometry memoised and
  one copy: **2.61-3.04x** over nine readings (29-43 us / 11-14 us;
  what is left is validation, the sanitizer record, the span and four
  validated hop records).  Bound: 3.8x -- the change clears it by 25%
  at its worst reading (45% at its best), the parent fails it by 13% or
  more; the test passes on the best of three measurements.  ISSUE 19
  asked for the plain ``a + b`` as the yardstick (parent ~10x, change
  5-6x); it was dropped because the same 64 KB sum reads 2.8 us in one
  process and 6.9 us in the next (where its result happens to land),
  which moved that ratio between 5.4 and 11 on unchanged code.  The
  bare ring allocates and moves what the front door does, so the two
  drift together.

- **a batched linear layer is one GEMM over its rows** (ISSUE 20).
  ``F.linear_forward`` on a decode tick's ``(8, 1, 128)`` activation
  with the ``(128, 512)`` fc1 weight of the serve models, against the
  bare ``(8, 128) @ (128, 512)`` plus bias add it should be.  Until
  PR 20 it computed ``x @ weight`` on the 3-D array, which numpy runs
  as eight one-row products that each stream the whole weight:
  **2.50-2.72x** over nine readings on the parent (83-104 us /
  29-38 us; ISSUE 20 read 2.1-2.2x on its box).  Through the flat view
  (``F.flat_matmul``): **1.02-1.13x** over six readings (32-43 us /
  30-38 us; what is left is two reshapes, the FLOP record and the cache
  tuple).  Bound: 1.4x -- the parent fails it by 79% or more, the
  change clears it by 19% at its worst reading (27% at its best).

All three use ``bench_serve_chaos``'s estimator: back-to-back pairs in
alternating order, the smaller of the ratio of minima and the median of
per-pair ratios, re-measured up to three times when over budget.
"""

import statistics
import time

import numpy as np

from repro.comm import TrafficKind, TrafficLog, ring_all_reduce
from repro.comm.primitives import ring_chunk_bounds
from repro.nn import TransformerBlock
from repro.nn import functional as F

#: ``bench/wl_train.CONFIG``: one microbatch of s64 h128 a4.
SHAPE, HEADS = (1, 64, 128), 4
FORWARD_BOUND = 1.15
ALL_REDUCE_BOUND = 3.8
#: One decode tick of 8 requests through fc1 of the serve models.
TICK_SHAPE, FC1_SHAPE = (8, 1, 128), (128, 512)
BATCHED_LINEAR_BOUND = 1.4


def _seconds(fn, calls: int) -> float:
    t0 = time.perf_counter()
    for _ in range(calls):
        fn()
    return time.perf_counter() - t0


def paired_ratio(numerator, denominator, calls: int, pairs: int = 31) -> float:
    """``numerator()`` time over ``denominator()`` time (see module
    docstring for the estimator)."""
    _seconds(numerator, calls), _seconds(denominator, calls)  # warm
    samples = []
    for i in range(pairs):
        if i % 2 == 0:
            num, den = _seconds(numerator, calls), _seconds(denominator, calls)
        else:
            den, num = _seconds(denominator, calls), _seconds(numerator, calls)
        samples.append((num, den))
    min_num, min_den = (min(arm) / calls * 1e6 for arm in zip(*samples))
    med_ratio = statistics.median(n / d for n, d in samples)
    print(f"\nbest {min_num:.0f} us over {min_den:.0f} us = "
          f"{min_num / min_den:.2f}, median of pair ratios {med_ratio:.2f}")
    return min(min_num / min_den, med_ratio)


def guarded_ratio(numerator, denominator, bound: float, calls: int) -> list:
    """Up to three measurements, stopping at the first within ``bound``."""
    attempts = []
    for _ in range(3):
        attempts.append(paired_ratio(numerator, denominator, calls))
        if attempts[-1] <= bound:
            break
    return attempts


def test_block_forward_not_slower_than_backward():
    rng = np.random.default_rng(0)
    x, dy = rng.standard_normal((2, *SHAPE))
    block = TransformerBlock(SHAPE[-1], HEADS)
    _, cache = block.forward(x)
    attempts = guarded_ratio(
        lambda: block.forward(x), lambda: block.backward(dy, cache),
        bound=FORWARD_BOUND, calls=5,
    )
    assert min(attempts) <= FORWARD_BOUND, (
        f"a TransformerBlock forward costs more than {FORWARD_BOUND}x its "
        f"backward (ratios {attempts}): an element-wise kernel is "
        "outweighing the GEMMs -- profile F.gelu_forward, "
        "F.scale_mask_softmax, F.layer_norm_forward"
    )


def test_all_reduce_costs_a_bounded_multiple_of_its_ring():
    # Eight activation pairs cut from one buffer at offsets that differ
    # mod 4096, so no one cache alignment decides the reading.
    n, pad = int(np.prod(SHAPE)), 72
    pool = np.random.default_rng(0).standard_normal(9 * (n + pad))
    acts = [pool[i * (n + pad):][:n].reshape(SHAPE) for i in range(9)]
    pairs = list(zip(acts, acts[1:]))
    log = TrafficLog()
    half = ring_chunk_bounds(n, 2)[1]  # the cut the ring itself makes

    def all_reduces():
        for a, b in pairs:
            ring_all_reduce([a, b], [0, 1], log, TrafficKind.TENSOR_PARALLEL,
                            "mlp.g")
        log.clear()

    def bare_rings():
        for a, b in pairs:
            x, y = a.reshape(-1).copy(), b.reshape(-1).copy()
            y[:half] += x[:half]
            x[half:] += y[half:]
            x[:half] = y[:half]
            y[half:] = x[half:]

    a, b = pairs[0]
    assert np.array_equal(ring_all_reduce([a, b], [0, 1], log)[0], a + b)
    attempts = guarded_ratio(all_reduces, bare_rings, bound=ALL_REDUCE_BOUND,
                             calls=25)
    assert min(attempts) <= ALL_REDUCE_BOUND, (
        "a coop t=2 all-reduce of a 64 KB activation costs more than "
        f"{ALL_REDUCE_BOUND}x the bare ring it runs (ratios {attempts}): "
        "per-call set-up (chunk geometry, payload copies, per-hop records) "
        "is back"
    )


def test_batched_linear_costs_one_gemm_over_its_rows():
    rng = np.random.default_rng(0)
    x, weight = rng.standard_normal(TICK_SHAPE), rng.standard_normal(FC1_SHAPE)
    bias = rng.standard_normal(FC1_SHAPE[1])
    rows = x.reshape(-1, x.shape[-1])

    def bare():
        y = rows @ weight
        y += bias

    # the same work (bit for bit the same is tests/test_kernels.py's job)
    assert np.allclose(F.linear_forward(x, weight, bias)[0][:, 0],
                       rows @ weight + bias)
    attempts = guarded_ratio(
        lambda: F.linear_forward(x, weight, bias), bare,
        bound=BATCHED_LINEAR_BOUND, calls=100,
    )
    assert min(attempts) <= BATCHED_LINEAR_BOUND, (
        f"F.linear_forward on a {TICK_SHAPE} activation costs more than "
        f"{BATCHED_LINEAR_BOUND}x the one {FC1_SHAPE} GEMM over its rows "
        f"(ratios {attempts}): a 3-D `@` is a loop of per-sample BLAS calls "
        "-- multiply the flat (rows, k) view (F.flat_matmul)"
    )

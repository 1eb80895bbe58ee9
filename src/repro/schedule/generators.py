"""Schedule generators: GPipe, PipeDream-Flush (1F1B), interleaved 1F1B.

These reproduce §2.2 of the paper:

- :func:`gpipe_schedule` -- all forwards then all backwards (Figure 3);
  bubble (p-1)/m, stashes up to m microbatches of activations.
- :func:`one_f_one_b_schedule` -- PipeDream-Flush (Figure 4 top): a
  warm-up of p-1-rank forwards, a 1F1B steady state, and a cooldown;
  same bubble, but at most p in-flight microbatches.
- :func:`interleaved_schedule` -- the paper's novel contribution
  (Figure 4 bottom): each device hosts v model chunks; the bubble
  shrinks by v at the cost of v times more p2p communication.  Requires
  m to be a multiple of p (§2.2.2).

The interleaved order follows Megatron-LM's
``forward_backward_pipelining_with_interleaving``: virtual microbatches
are processed in groups of ``p`` per chunk, warm-up length is
``2*(p - rank - 1) + (v - 1) * p``.
"""

from __future__ import annotations

from functools import lru_cache

from . import execution
from .ir import OpKind, PipelineSchedule, ScheduleOp


def _ops(kind: OpKind, num_microbatches: int) -> list[ScheduleOp]:
    """One op per microbatch, built once and shared by every rank."""
    return [ScheduleOp(kind, mb) for mb in range(num_microbatches)]


def gpipe_schedule(num_stages: int, num_microbatches: int) -> PipelineSchedule:
    """All-forward, all-backward schedule (Figure 3)."""
    _check(num_stages, num_microbatches)
    ops = tuple(
        _ops(OpKind.FORWARD, num_microbatches)
        + _ops(OpKind.BACKWARD, num_microbatches)
    )
    return PipelineSchedule(
        name="gpipe",
        num_stages=num_stages,
        num_microbatches=num_microbatches,
        num_chunks=1,
        ops=(ops,) * num_stages,
    )


def _one_f_one_b(
    fwd: list[ScheduleOp], bwd: list[ScheduleOp], warmup: int
) -> tuple[ScheduleOp, ...]:
    """Warm-up forwards, a one-forward-one-backward steady state, then
    the cooldown that drains the in-flight backwards."""
    steady = len(fwd) - warmup
    ops = fwd[:warmup]
    for pair in zip(fwd[warmup:], bwd[:steady]):
        ops.extend(pair)
    return tuple(ops + bwd[steady:])


def one_f_one_b_schedule(num_stages: int, num_microbatches: int) -> PipelineSchedule:
    """PipeDream-Flush / non-interleaved 1F1B schedule (Figure 4, top).

    The schedule comes with its completion order already compiled, in
    closed form (:func:`_one_f_one_b_order`), so nothing walks it."""
    _check(num_stages, num_microbatches)
    p, m = num_stages, num_microbatches
    fwd, bwd = _ops(OpKind.FORWARD, m), _ops(OpKind.BACKWARD, m)
    schedule = PipelineSchedule(
        name="1f1b",
        num_stages=p,
        num_microbatches=m,
        num_chunks=1,
        ops=tuple(
            _one_f_one_b(fwd, bwd, min(p - rank - 1, m)) for rank in range(p)
        ),
    )
    execution._attach(schedule, _one_f_one_b_order(p, m))
    return schedule


def _steady_pass(j, p):
    """``G(j) = j - floor((j - 1) / p)``: the pass of the walk in which
    microbatch ``j``'s forward completes on every rank once it is past
    that rank's first pass, and its backward on the last rank.  Rank 0
    runs F(j) right after B(j - p), which took ``p - 1`` passes to climb
    back from the last rank: ``G(j) = G(j - p) + p - 1``, ``G(0) = 1``,
    ``G(j) = j`` for ``1 <= j <= p`` (DESIGN.md, "Schedules are computed
    once")."""
    return j - (j - 1) // p


def _one_f_one_b_order(p: int, m: int) -> execution.CompletionOrder:
    """The completion order :func:`execution._walk` finds for the 1F1B
    schedule of ``p`` ranks and ``m`` microbatches, without walking it.

    The walk completes ops in (pass, rank, index) order.  On rank ``r``
    the forward of microbatch ``j`` completes in pass 1 if ``j < p - r``
    (the warm-up wave), else in pass ``G(j)``; its backward in pass
    ``G(j) + p - 1 - r`` (one pass per rank it climbs).  Sorting the ops
    by that key numbers them; each op's two dependencies are then its
    neighbours in a ``(kind, rank, microbatch)`` table of positions.
    """
    import numpy as np  # here: importing repro.schedule stays numpy-free

    r = np.arange(p)[:, None]
    j = np.arange(m)
    warmup = np.minimum(p - 1 - r, m)
    steady = _steady_pass(j, p)
    # [kind][rank][microbatch], forwards first: index into ops[rank], pass.
    index = np.stack((np.where(j < warmup, j, 2 * j - warmup),
                      np.where(j < m - warmup, warmup + 2 * j + 1, j + m)))
    passes = np.stack((np.where(j < p - r, 1, steady), steady + p - 1 - r))
    order = np.argsort(((passes * p + r) * (2 * m) + index).ravel())
    n = 2 * p * m
    position = np.empty(n, np.int64)
    position[order] = np.arange(1, n + 1)
    fwd, bwd = position.reshape(2, p, m)
    none = np.zeros((1, m), np.int64)
    # F(j) on r waits for F(j) on r - 1; B(j) on r for F(j) on r and
    # B(j) on r + 1.  0 is "no such dependency".
    dep_a = np.concatenate((none, fwd[:-1], fwd)).ravel()
    dep_b = np.concatenate((np.zeros((p, m), np.int64), bwd[1:], none)).ravel()
    rank = tuple((order // m % p).tolist())
    return execution.CompletionOrder(
        rank=rank,
        index=tuple(index.ravel()[order].tolist()),
        stage=rank,  # one chunk: a rank's stage is the rank
        kind=tuple((order // (p * m)).tolist()),
        dep_a=tuple(dep_a[order].tolist()),
        dep_b=tuple(dep_b[order].tolist()),
    )


def _virtual_microbatches(
    p: int, m: int, v: int
) -> tuple[list[ScheduleOp], list[ScheduleOp]]:
    """The ``m * v`` (microbatch, chunk) forwards and backwards of one
    device in Megatron's interleaved order: groups of ``p`` microbatches
    per chunk, chunks ascending forward and descending backward."""
    if p < 2:
        raise ValueError("interleaved schedule requires num_stages >= 2")
    if m % p != 0:
        raise ValueError(
            f"interleaved schedule requires num_microbatches ({m}) to be a "
            f"multiple of num_stages ({p})"
        )
    order = [((k // p) % v, (k // (p * v)) * p + k % p) for k in range(m * v)]
    fwd = [ScheduleOp(OpKind.FORWARD, mb, chunk) for chunk, mb in order]
    bwd = [ScheduleOp(OpKind.BACKWARD, mb, v - 1 - chunk) for chunk, mb in order]
    return fwd, bwd


def interleaved_schedule(
    num_stages: int, num_microbatches: int, num_chunks: int
) -> PipelineSchedule:
    """Interleaved 1F1B schedule (Figure 4, bottom; §2.2.2).

    Each device runs ``v = num_chunks`` model chunks; virtual
    microbatches cycle through chunks in groups of ``p``.
    """
    _check(num_stages, num_microbatches)
    if num_chunks < 1:
        raise ValueError("num_chunks must be >= 1")
    if num_chunks == 1:
        return one_f_one_b_schedule(num_stages, num_microbatches)
    p, m, v = num_stages, num_microbatches, num_chunks
    fwd, bwd = _virtual_microbatches(p, m, v)
    total = m * v  # virtual microbatches per device
    warmups = [
        total if m == p else min(2 * (p - rank - 1) + (v - 1) * p, total)
        for rank in range(p)
    ]
    return PipelineSchedule(
        name="interleaved",
        num_stages=p,
        num_microbatches=m,
        num_chunks=v,
        ops=tuple(_one_f_one_b(fwd, bwd, warmup) for warmup in warmups),
    )


def interleaved_gpipe_schedule(
    num_stages: int, num_microbatches: int, num_chunks: int
) -> PipelineSchedule:
    """All-forward, all-backward schedule over interleaved model chunks.

    §2.2.2 mentions this variant before rejecting it: it has the
    interleaved schedule's 1/v bubble but "a high memory footprint
    (proportional to m)" -- every (microbatch, chunk) activation stays
    stashed until the backward phase.  Implemented so the memory/bubble
    tradeoff can be measured (see the schedule tests and ablation bench).
    """
    _check(num_stages, num_microbatches)
    if num_chunks < 1:
        raise ValueError("num_chunks must be >= 1")
    if num_chunks == 1:
        return gpipe_schedule(num_stages, num_microbatches)
    fwd, bwd = _virtual_microbatches(num_stages, num_microbatches, num_chunks)
    return PipelineSchedule(
        name="interleaved-gpipe",
        num_stages=num_stages,
        num_microbatches=num_microbatches,
        num_chunks=num_chunks,
        ops=(tuple(fwd + bwd),) * num_stages,
    )


# One autotune sweep simulates only its contenders (3-5 distinct
# (kind, p, m, v) at top_k=5); asked to rank every candidate it meets
# 36-60 among its 63-152, out of order: the memo holds a whole sweep's
# worth, twice over (DESIGN.md, "Schedules are computed once").
@lru_cache(maxsize=128)
def make_schedule(
    name: str, num_stages: int, num_microbatches: int, num_chunks: int = 1
) -> PipelineSchedule:
    """Dispatch by name: 'gpipe', '1f1b', 'interleaved', or
    'interleaved-gpipe'.

    Memoised: a schedule is a pure function of these arguments and
    frozen all the way down, so equal calls return the *same* object,
    and with it the completion order cached on it.  Derive a variant
    with ``dataclasses.replace``; never mutate the result.
    """
    if name == "gpipe":
        if num_chunks != 1:
            raise ValueError("gpipe schedule does not support model chunks")
        return gpipe_schedule(num_stages, num_microbatches)
    if name == "1f1b":
        if num_chunks != 1:
            raise ValueError("1f1b schedule does not support model chunks; "
                             "use 'interleaved'")
        return one_f_one_b_schedule(num_stages, num_microbatches)
    if name == "interleaved":
        return interleaved_schedule(num_stages, num_microbatches, num_chunks)
    if name == "interleaved-gpipe":
        return interleaved_gpipe_schedule(num_stages, num_microbatches, num_chunks)
    raise ValueError(f"unknown schedule {name!r}")


def _check(num_stages: int, num_microbatches: int) -> None:
    if num_stages < 1:
        raise ValueError("num_stages must be >= 1")
    if num_microbatches < 1:
        raise ValueError("num_microbatches must be >= 1")

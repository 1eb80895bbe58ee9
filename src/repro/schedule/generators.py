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

Every generator attaches its schedule's completion order, computed from
each op's walk pass (:func:`_compiled_order`), so no generated schedule
is walked.  :func:`execution._walk` orders only hand-built, loaded and
tampered schedules, diagnoses deadlocks, and is the tests' oracle
(DESIGN.md, "Schedules are computed once").
"""

from __future__ import annotations

from functools import lru_cache

from . import execution
from .ir import OpKind, PipelineSchedule, ScheduleOp


def _ops(kind: OpKind, num_microbatches: int) -> list[ScheduleOp]:
    """One op per microbatch, built once and shared by every rank."""
    return [ScheduleOp(kind, mb) for mb in range(num_microbatches)]


def gpipe_schedule(num_stages: int, num_microbatches: int) -> PipelineSchedule:
    """All-forward, all-backward schedule (Figure 3), with its completion
    order attached (:func:`_gpipe_order`)."""
    _check(num_stages, num_microbatches)
    ops = tuple(
        _ops(OpKind.FORWARD, num_microbatches)
        + _ops(OpKind.BACKWARD, num_microbatches)
    )
    schedule = PipelineSchedule(
        name="gpipe",
        num_stages=num_stages,
        num_microbatches=num_microbatches,
        num_chunks=1,
        ops=(ops,) * num_stages,
    )
    execution._attach(schedule, _gpipe_order(num_stages, num_microbatches, 1))
    return schedule


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
    """PipeDream-Flush / non-interleaved 1F1B schedule (Figure 4, top),
    with its completion order attached (:func:`_one_f_one_b_order`)."""
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
    microbatches cycle through chunks in groups of ``p``.  The schedule
    comes with its completion order attached (:func:`_interleaved_order`;
    at ``m = p`` every rank warms up through all its forwards, which is
    GPipe's program, :func:`_gpipe_order`).
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
    schedule = PipelineSchedule(
        name="interleaved",
        num_stages=p,
        num_microbatches=m,
        num_chunks=v,
        ops=tuple(_one_f_one_b(fwd, bwd, warmup) for warmup in warmups),
    )
    order = _gpipe_order(p, m, v) if m == p else _interleaved_order(p, m, v)
    execution._attach(schedule, order)
    return schedule


def interleaved_gpipe_schedule(
    num_stages: int, num_microbatches: int, num_chunks: int
) -> PipelineSchedule:
    """All-forward, all-backward schedule over interleaved model chunks.

    §2.2.2 mentions this variant before rejecting it: it has the
    interleaved schedule's 1/v bubble but "a high memory footprint
    (proportional to m)" -- every (microbatch, chunk) activation stays
    stashed until the backward phase.  Implemented so the memory/bubble
    tradeoff can be measured (see the schedule tests and ablation bench).
    Its completion order comes attached (:func:`_gpipe_order`).
    """
    _check(num_stages, num_microbatches)
    if num_chunks < 1:
        raise ValueError("num_chunks must be >= 1")
    if num_chunks == 1:
        return gpipe_schedule(num_stages, num_microbatches)
    fwd, bwd = _virtual_microbatches(num_stages, num_microbatches, num_chunks)
    schedule = PipelineSchedule(
        name="interleaved-gpipe",
        num_stages=num_stages,
        num_microbatches=num_microbatches,
        num_chunks=num_chunks,
        ops=(tuple(fwd + bwd),) * num_stages,
    )
    execution._attach(
        schedule, _gpipe_order(num_stages, num_microbatches, num_chunks))
    return schedule


# -- completion orders without a walk -----------------------------------------
#
# The walk completes ops in (pass, rank, index) order, and an op's pass obeys
# P(op) = max(P(op before it on its rank), P(dep) + [rank(dep) > rank(op)])
# (DESIGN.md, "Schedules are computed once").  Each family's formula below
# gives every op's pass as a (kind, rank, k) array: k counts a rank's
# forwards (or backwards) in the virtual order every rank shares, so
# microbatch k // (p v) * p + k % p in chunk k // p % v (backwards: the
# mirrored chunk).  :func:`_compiled_order` does the rest, for all of them.


def _steady_pass(j, p):
    """``G(j) = j - floor((j - 1) / p)``: the pass of the walk in which
    microbatch ``j``'s forward completes on every rank once it is past
    that rank's first pass, and its backward on the last rank.  Rank 0
    runs F(j) right after B(j - p), which took ``p - 1`` passes to climb
    back from the last rank: ``G(j) = G(j - p) + p - 1``, ``G(0) = 1``,
    ``G(j) = j`` for ``1 <= j <= p``."""
    return j - (j - 1) // p


def _one_f_one_b_order(p: int, m: int) -> execution.CompletionOrder:
    """The completion order :func:`execution._walk` finds for the 1F1B
    schedule of ``p`` ranks and ``m`` microbatches, without walking it.

    On rank ``r`` the forward of microbatch ``j`` completes in pass 1 if
    ``j < p - r`` (the warm-up wave), else in pass ``G(j)``; its backward
    in pass ``G(j) + p - 1 - r`` (one pass per rank it climbs).
    """
    import numpy as np  # here: importing repro.schedule stays numpy-free

    r = np.arange(p)[:, None]
    j = np.arange(m)
    steady = _steady_pass(j, p)
    passes = np.stack((np.where(j < p - r, 1, steady), steady + p - 1 - r))
    return _compiled_order(p, m, 1, np.minimum(p - 1 - r, m), passes)


def _wraps(g, v):
    """``h(g) = g - floor(g / v)``: how many times the forward of a
    microbatch in virtual group ``g`` (``p`` microbatches of one chunk)
    and the groups before it hopped from the last rank back to rank 0,
    ``v - 1`` per group of microbatches: ``q (v - 1) + c`` for group
    ``g = q v + c``."""
    return g - g // v


def _gpipe_order(p: int, m: int, v: int) -> execution.CompletionOrder:
    """The walk's completion order for a program of all ``m * v``
    forwards, then all backwards, on every rank: GPipe (``v = 1``),
    interleaved GPipe, and interleaved 1F1B at ``m = p``.

    A forward waits only for the forwards before it, so it completes in
    pass ``1 + h(g)``, one pass per hop back to rank 0.  The last rank's
    first backward follows its last forward, in pass ``1 + h(G)``
    (``G`` the last group); a backward climbs one pass per rank, ``p - 1``
    per chunk, so B(k) on rank ``r`` completes in pass
    ``1 + h(G) + (p - 1) h(g) + p - 1 - r``.  At ``v = 1``: forwards in
    pass 1, backwards in pass ``p - r``.
    """
    import numpy as np

    n = m * v
    r = np.arange(p)[:, None]
    wraps = _wraps(np.arange(n) // p, v)
    forward = np.broadcast_to(1 + wraps, (p, n))
    backward = 1 + wraps[-1] + (p - 1) * wraps + p - 1 - r
    passes = np.stack((forward, backward))
    return _compiled_order(p, m, v, np.full((p, 1), n), passes)


def _last_rank_passes(p: int, m: int, v: int) -> tuple[list[int], list[int]]:
    """The passes of the last rank's ``m * v`` forwards and backwards in
    the interleaved 1F1B schedule (``m > p``), by virtual index.

    With ``W = (v - 1) p`` the last rank's warm-up and rank ``r`` warming
    up ``W + 2 s`` forwards (``s = p - 1 - r``):

    - ``F(j)`` waits for the op before it on its rank, which on rank
      ``r`` is ``B(j - W - 2 s - 1)``, and climbs to the last rank at no
      cost; on rank 0, from chunk 1 on, it also waits for ``F(j - p)``
      on the last rank, a pass later.  So ``phi(j) = max(phi(j - 1),
      phi(j - p) + 1, max_s beta(j - W - 1 - 2 s) + s)``.
    - ``B(i)`` follows its own forward ``F(i + W)`` and, from the second
      chunk it runs, waits for ``B(i - p)`` on rank 0, which climbed
      ``p - 1`` ranks: ``beta(i) = max(phi(i + W), beta(i - p) + p - 1)``;
      in the cool-down, ``max(beta(i - 1), beta(i - p) + p - 1)``.

    ``B(i)`` on rank ``r`` completes ``p - 1 - r`` passes after it does
    here, so the max over ``s`` is a window of ``p`` values of
    ``2 beta(y) - y`` per parity of ``y``, kept in a monotone deque.
    """
    from collections import deque

    n, W = m * v, (v - 1) * p
    reach = 2 * (p - 1)
    phi, beta = [0] * n, [0] * n
    windows = (deque(), deque())  # y with 2 beta(y) - y decreasing
    pas = 1
    for group in range(n // p):
        hops = group % v > 0  # F(j) waits for F(j - p) a chunk back
        climbs = (group + 1) % v > 0  # B(j - W) waits for B(j - W - p)
        for j in range(group * p, group * p + p):
            if hops and phi[j - p] >= pas:
                pas = phi[j - p] + 1
            x = j - W - 1
            if x >= 0:
                window = windows[x & 1]
                if window[0] < x - reach:  # one falls out per step
                    window.popleft()
                y = window[0]
                reached = beta[y] + (x - y) // 2
                if reached > pas:
                    pas = reached
            phi[j] = pas
            i = j - W
            if i >= 0:
                b = pas
                if climbs and beta[i - p] + p - 1 > b:
                    b = beta[i - p] + p - 1
                beta[i] = b
                window = windows[i & 1]
                while window and 2 * beta[window[-1]] - window[-1] <= 2 * b - i:
                    window.pop()
                window.append(i)
    for i in range(n - W, n):  # cool-down: the last rank's tail of backwards
        beta[i] = max(beta[i - 1], beta[i - p] + p - 1)
    return phi, beta


def _interleaved_order(p: int, m: int, v: int) -> execution.CompletionOrder:
    """The walk's completion order for the interleaved 1F1B schedule at
    ``m > p``, from the last rank's passes (:func:`_last_rank_passes`).

    B(k) on rank ``r`` completes ``p - 1 - r`` passes after it does on
    the last rank.  F(k) on rank ``r`` completes in the latest pass of
    what the ops up to it on ranks ``<= r`` waited for (a forward climbs
    at no cost): a prefix max, over ranks and over ``k``, of ``B(k -
    W - 2 s - 1)``'s pass on each rank past its warm-up, and on rank 0 of
    one pass after ``F(k - p)`` on the last rank.
    """
    import numpy as np

    phi, beta = _last_rank_passes(p, m, v)
    n = m * v
    climb = np.arange(p - 1, -1, -1)[:, None]
    warmup = 2 * climb + (v - 1) * p
    # beta behind `lead` values that no pass exceeds once climbed (<= 1),
    # for a forward still in its rank's warm-up to read.
    lead = (v + 1) * p - 1
    before = np.array([2 - p] * lead + beta)
    passes = np.empty((2, p, n), np.int64)
    arrival = passes[0]
    np.add(before.take(np.arange(lead - 1, lead - 1 + n) - warmup), climb,
           out=arrival)
    hops = [0] * n  # F(k) on rank 0 one pass after F(k - p) on the last
    for group in range(1, n // p):
        if group % v:
            hops[group * p:group * p + p] = phi[group * p - p:group * p]
    np.maximum(arrival[0], np.array(hops) + 1, out=arrival[0])
    np.maximum.accumulate(arrival, axis=1, out=arrival)
    np.maximum.accumulate(arrival, axis=0, out=arrival)
    np.add(before[lead:], climb, out=passes[1])
    return _compiled_order(p, m, v, warmup, passes)


def _compiled_order(p, m, v, warmup, passes) -> execution.CompletionOrder:
    """The :class:`execution.CompletionOrder` of a schedule whose rank
    ``r`` runs ``warmup[r]`` forwards, then one forward and one backward
    at a time, then the remaining backwards, in the virtual order; op
    ``(kind, r, k)`` completes in walk pass ``passes[kind, r, k]``.

    Sorting the ops by (pass, rank, index) numbers them 1..N; each op's
    two dependencies are read from a (kind, stage, microbatch) table of
    those positions, its stage axis padded by one at both ends so a
    missing dependency reads 0.
    """
    import numpy as np

    n = m * v  # each rank's forwards, and its backwards
    k = np.arange(n)
    r = np.arange(p)[:, None]
    # Index into ops[r]: before F(k) run k forwards and max(k - warmup, 0)
    # backwards; before B(k), k backwards and min(k + warmup + 1, n)
    # forwards.
    late = np.maximum(k - warmup, 0)
    index = np.empty((2, p, n), np.int64)
    np.add(k, late, out=index[0])
    np.subtract(k + n, late[:, ::-1], out=index[1])
    key = passes * (2 * p * n)
    key += r * (2 * n)
    key += index
    order = np.argsort(key, axis=None)
    kind = order >= p * n
    # Each op's cell: (stage + 1) * m + microbatch, in the plane of its kind.
    plane = (p * v + 2) * m
    if v == 1:
        chunk = np.zeros((2, 1, 1), np.int64)
        cell = np.array([[[0]], [[plane]]]) + k
    else:
        chunk = k // p % v
        chunk = np.stack((chunk, v - 1 - chunk))[:, None]
        cell = chunk * (p * m) + (k // (p * v) * p + k % p)
        cell[1] += plane
    cell = (cell + (r + 1) * m).take(order)
    table = np.zeros(2 * plane, np.int64)
    table[cell] = np.arange(1, order.size + 1)
    # F waits for F one stage down; B for F at its stage and B one stage up.
    dep_a = table.take(cell - np.where(kind, plane, m))
    dep_b = table.take(np.where(kind, cell + m, 0))
    stage = np.empty((2, p, n), np.int32)
    stage[...] = chunk * p + r
    stages = tuple(stage.take(order).tolist())
    return execution.CompletionOrder(
        rank=stages if v == 1 else tuple((order % (p * n) // n).tolist()),
        index=tuple(index.take(order).tolist()),
        stage=stages,
        kind=tuple(kind.tobytes()),  # bytes iterate as the ints 0 and 1
        dep_a=tuple(dep_a.tolist()),
        dep_b=tuple(dep_b.tolist()),
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

"""Dependency semantics and execution of pipeline schedules.

Defines *what a schedule op must wait for* (the cross-stage dataflow of
synchronous pipeline training) and separates the two questions every
consumer asks:

- *In what order do the ops complete, and who waits on whom?*  A
  property of the schedule alone: :func:`completion_order` answers it
  once per schedule object and caches the answer on that object -- as
  the generator that just built the schedule computed it, or by one
  readiness walk for a hand-built, loaded or tampered one.  An
  infeasible per-device order (one that cannot be interleaved into any
  legal global order) raises :class:`DeadlockError` -- the walk is the
  one place a deadlock is diagnosed.
- *What happens at each op?*  :func:`execute` calls a handler per entry
  (the numerical pipeline-parallel engine drives its real
  forward/backward passes with it), :func:`simulate_times` assigns
  start/finish times from fixed forward/backward durations and a p2p
  latency (the Figure 3/4 timelines and measured bubble fractions), and
  :func:`repro.sim.simulate_iteration` does the same with modelled
  per-stage costs.  All of them iterate the compiled order and nothing
  else.

Dependency rules (strict synchronous semantics, §2.2):

- ``F(mb, stage)`` needs ``F(mb, stage-1)`` (activations from the
  previous stage), except for stage 0.
- ``B(mb, stage)`` needs ``F(mb, stage)`` on the same stage (stashed
  activations) and ``B(mb, stage+1)`` (gradient from the next stage),
  except for the last stage which starts the backward pass.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Iterable, NamedTuple, Sequence

from repro.obs.tracer import current_tracer

from .ir import OpKind, PipelineSchedule, ScheduleOp

_KINDS = (OpKind.FORWARD, OpKind.BACKWARD)
_PHASE = ("forward", "backward")


@dataclass(frozen=True, order=True)
class OpInstance:
    """A schedule op resolved to its global stage (unique per iteration)."""

    kind: OpKind
    microbatch: int
    stage: int

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.kind.value}{self.microbatch}@s{self.stage}"


class DeadlockError(RuntimeError):
    """The schedule's per-device op orders admit no legal interleaving.

    ``blocked`` holds, per rank that still had ops to run, the
    ``(rank, op, first unmet dependency)`` it is stuck on.
    """

    def __init__(self, message: str, blocked: Sequence[tuple] = ()) -> None:
        super().__init__(message)
        self.blocked = tuple(blocked)


def resolve(schedule: PipelineSchedule, rank: int, op: ScheduleOp) -> OpInstance:
    """Attach the global stage index to a per-rank op."""
    return OpInstance(op.kind, op.microbatch, schedule.global_stage(rank, op.chunk))


def dependencies(
    schedule: PipelineSchedule, inst: OpInstance
) -> tuple[OpInstance, ...]:
    """Ops that must complete before ``inst`` may start."""
    last = schedule.total_stages - 1
    if inst.kind is OpKind.FORWARD:
        if inst.stage == 0:
            return ()
        return (OpInstance(OpKind.FORWARD, inst.microbatch, inst.stage - 1),)
    deps = [OpInstance(OpKind.FORWARD, inst.microbatch, inst.stage)]
    if inst.stage < last:
        deps.append(OpInstance(OpKind.BACKWARD, inst.microbatch, inst.stage + 1))
    return tuple(deps)


class CompletionOrder(NamedTuple):
    """A schedule's ops in the order :func:`execute` completes them.

    Flat parallel sequences, entry ``k`` describing the ``k``-th op to
    complete: its pipeline ``rank``, its ``index`` into
    ``schedule.ops[rank]``, its global ``stage``, its ``kind`` (0
    forward, 1 backward) and the positions ``dep_a`` / ``dep_b`` of the
    ops it waits for (a forward: the previous stage's forward, none; a
    backward: its own forward, the next stage's backward).  Positions
    are 1-based and 0 means "no such dependency", so a consumer that
    starts ``finish = [0.0]`` and appends one time per entry reads both
    with ``finish[dep_a]`` and ``finish[dep_b]``, no branch.
    """

    rank: tuple[int, ...]
    index: tuple[int, ...]
    stage: tuple[int, ...]
    kind: tuple[int, ...]
    dep_a: tuple[int, ...]
    dep_b: tuple[int, ...]


def completion_order(schedule: PipelineSchedule) -> CompletionOrder:
    """The completion order of ``schedule``, compiled once per object.

    Every generator attaches its schedule's order, computed from each
    op's walk pass; any other schedule is walked on first use.  Either way the result is
    cached on the instance, outside its dataclass fields: equality,
    hashing and ``dataclasses.replace`` ignore it, so a schedule derived
    from this one (tampered ops under the same name and sizes) is walked
    afresh.  Raises :class:`DeadlockError` if the per-rank orders admit
    no legal interleaving.
    """
    order = schedule.__dict__.get("_completion_order")
    if order is None:
        order = _attach(schedule, _walk(schedule))
    return order


def _attach(schedule: PipelineSchedule, order: CompletionOrder) -> CompletionOrder:
    """Cache ``order`` on ``schedule``: the one way a compiled order,
    walked or computed by a generator, enters a schedule."""
    schedule.__dict__["_completion_order"] = order
    return order


def _walk(schedule: PipelineSchedule) -> CompletionOrder:
    """Scan the ranks round-robin, each running its next ops for as long
    as their dependencies are done (cooperative multitasking of the
    virtual devices).  Ops are integers here: forward ``(mb, stage)`` is
    ``2 * (mb * S + stage)`` and its backward the odd number after it,
    so a dependency is an offset and "done" is a list lookup."""
    p, S = schedule.num_stages, schedule.total_stages
    last = S - 1
    microbatches = schedule.num_microbatches
    # Per rank, parallel lists over its ops: id, id of dependency a and
    # of dependency b (-1: none), stage, kind.
    programs = []
    for rank, rank_ops in enumerate(schedule.ops):
        stage_of_chunk = range(rank, S, p)
        flat: list[int] = []
        encode = flat.extend
        try:
            for op in rank_ops:
                microbatch = op.microbatch
                if microbatch >= microbatches:
                    microbatches = microbatch + 1
                stage = stage_of_chunk[op.chunk]
                fwd = 2 * (microbatch * S + stage)
                if op.kind is OpKind.FORWARD:
                    encode((fwd, fwd - 2 if stage else -1, -1, stage, 0))
                else:
                    encode((fwd + 1, fwd, fwd + 3 if stage < last else -1, stage, 1))
        except IndexError:
            raise ValueError(f"chunk {op.chunk} out of range") from None
        programs.append([flat[column::5] for column in range(5)])

    # position[op id]: 1-based completion position, -1 while not done; the
    # extra last slot is what id -1 ("no dependency") reads: done, at 0.
    position = [-1] * (2 * S * microbatches) + [0]
    pointers = [0] * p
    total = sum(len(rank_ops) for rank_ops in schedule.ops)
    flat = []
    record = flat.extend
    done = 0
    while done < total:
        before = done
        for rank, (ids, ids_a, ids_b, stages, kinds) in enumerate(programs):
            i = pointers[rank]
            while i < len(ids):
                a = position[ids_a[i]]
                if a < 0:
                    break
                b = position[ids_b[i]]
                if b < 0:
                    break
                done += 1
                position[ids[i]] = done
                record((rank, i, stages[i], kinds[i], a, b))
                i += 1
            pointers[rank] = i
        if done == before:
            raise _deadlock(schedule, programs, pointers, position)
    return CompletionOrder(*(tuple(flat[column::6]) for column in range(6)))


def _deadlock(schedule, programs, pointers, position) -> DeadlockError:
    """Name each stuck rank's next op and its first unmet dependency."""
    def instance(op_id: int) -> OpInstance:
        microbatch, stage = divmod(op_id >> 1, schedule.total_stages)
        return OpInstance(_KINDS[op_id & 1], microbatch, stage)

    blocked = []
    for rank, (ids, ids_a, ids_b, _, _) in enumerate(programs):
        i = pointers[rank]
        if i < len(ids):
            unmet = ids_a[i] if position[ids_a[i]] < 0 else ids_b[i]
            blocked.append((rank, instance(ids[i]), instance(unmet)))
    return DeadlockError(
        f"schedule {schedule.describe()} deadlocked:\n  "
        + "\n  ".join(
            f"rank {rank}: {inst} waits on {dep}" for rank, inst, dep in blocked
        ),
        blocked,
    )


Handler = Callable[[int, ScheduleOp], None]


def execute(
    schedule: PipelineSchedule,
    handler: Handler | None = None,
    *,
    span_ranks: Sequence[int] | None = None,
) -> list[tuple[int, ScheduleOp]]:
    """Run every op of ``schedule`` respecting dependencies.

    Returns the global completion order (:func:`completion_order`) as
    ``(rank, op)`` pairs, calling ``handler(rank, op)`` at each step.

    When a :mod:`repro.obs` tracer is active and a handler is given,
    each handler call runs inside a forward/backward span;
    ``span_ranks`` maps the schedule's local pipeline ranks to the
    global (trace-track) ranks, defaulting to the local indices.

    Raises
    ------
    DeadlockError
        If no rank can make progress but ops remain, before the first
        handler call; the message lists each blocked op and its first
        unmet dependency.
    """
    order = completion_order(schedule)
    pairs = [
        (rank, schedule.ops[rank][index])
        for rank, index in zip(order.rank, order.index)
    ]
    tracer = current_tracer() if handler is not None else None
    if tracer is not None:
        for (rank, op), stage, kind in zip(pairs, order.stage, order.kind):
            with tracer.span(
                str(op), phase=_PHASE[kind],
                rank=span_ranks[rank] if span_ranks is not None else rank,
                microbatch=op.microbatch, chunk=op.chunk, stage=stage,
            ):
                handler(rank, op)
    elif handler is not None:
        for rank, op in pairs:
            handler(rank, op)
    return pairs


def validate(schedule: PipelineSchedule) -> None:
    """Raise if the schedule is incomplete or deadlocks.

    Checks (a) every rank runs exactly one F and one B per
    (microbatch, chunk) -- required for strict optimizer semantics, every
    microbatch's gradient contributes exactly once; and (b) the
    per-device orders admit a legal global interleaving.
    """
    if not schedule.counts_are_complete():
        raise ValueError(
            f"schedule {schedule.describe()} is incomplete: each rank must run "
            "exactly one forward and one backward per (microbatch, chunk)"
        )
    completion_order(schedule)


@dataclass(frozen=True)
class TimedOp:
    """An op with its simulated execution window."""

    rank: int
    op: ScheduleOp
    start: float
    end: float


@dataclass(frozen=True)
class Timeline:
    """Result of :func:`simulate_times`."""

    schedule: PipelineSchedule
    ops: tuple[TimedOp, ...]
    makespan: float

    def per_rank_busy(self) -> list[float]:
        busy = [0.0] * self.schedule.num_stages
        for t in self.ops:
            busy[t.rank] += t.end - t.start
        return busy

    def bubble_fraction(self) -> float:
        """Average fraction of the makespan each device spends idle.

        With zero communication latency this equals the paper's
        ``t_pb / (t_pb + t_id)`` -- bubble over total -- per device;
        compare with ``(p-1)/m / (1 + (p-1)/m)``.
        """
        busy = self.per_rank_busy()
        idle = [self.makespan - b for b in busy]
        return sum(idle) / (self.makespan * self.schedule.num_stages)


def simulate_times(
    schedule: PipelineSchedule,
    t_forward: float = 1.0,
    t_backward: float = 2.0,
    p2p_latency: float = 0.0,
) -> Timeline:
    """List-schedule the ops with fixed durations.

    ``t_forward``/``t_backward`` are the full-microbatch times ``t_f``
    and ``t_b``; a chunk takes ``t_f / v`` (``t_b / v``) as in §2.2.2.
    ``p2p_latency`` is added on every cross-rank dependency edge.
    Devices execute their op list in order, starting each op as soon as
    the device is free and all dependencies (plus transfer) are done.
    """
    if t_forward <= 0 or t_backward <= 0:
        raise ValueError("durations must be positive")
    order = completion_order(schedule)
    v = schedule.num_chunks
    dur = (t_forward / v, t_backward / v)
    finish = [0.0]
    device_free = [0.0] * schedule.num_stages
    timed: list[TimedOp] = []
    for rank, index, kind, a, b in zip(
        order.rank, order.index, order.kind, order.dep_a, order.dep_b
    ):
        ready = device_free[rank]
        for dep in (a, b):
            if dep:
                lat = p2p_latency if order.rank[dep - 1] != rank else 0.0
                ready = max(ready, finish[dep] + lat)
        end = ready + dur[kind]
        finish.append(end)
        device_free[rank] = end
        timed.append(TimedOp(rank, schedule.ops[rank][index], ready, end))
    makespan = max(t.end for t in timed)
    tracer = current_tracer()
    if tracer is not None:
        for t, stage, kind in zip(timed, order.stage, order.kind):
            tracer.add_span(
                str(t.op), phase=_PHASE[kind], rank=t.rank,
                start=t.start, end=t.end,
                microbatch=t.op.microbatch, chunk=t.op.chunk, stage=stage,
            )
    return Timeline(schedule=schedule, ops=tuple(timed), makespan=makespan)


def completion_order_is_serializable(
    order: Iterable[tuple[int, ScheduleOp]], schedule: PipelineSchedule
) -> bool:
    """Check an observed completion order respects all dependencies."""
    done: set[OpInstance] = set()
    for rank, op in order:
        inst = resolve(schedule, rank, op)
        if any(d not in done for d in dependencies(schedule, inst)):
            return False
        done.add(inst)
    return True

"""Static validation of pipeline schedules (races, deadlocks, memory).

The schedule IR is the repo's load-bearing artifact: the same per-rank
op lists are executed numerically, timed by the simulator, and argued
about analytically.  This module checks, *before* anything runs, that a
schedule is safe on real ranks:

- **completeness** -- every rank runs exactly one F and one B per
  (microbatch, chunk); anything else breaks strict optimizer semantics
  (a microbatch's gradient contributing zero or twice).
- **local races** -- a backward op placed before its own forward on the
  same rank consumes activations that were never stashed.
- **global deadlock** -- the per-rank orders admit no legal
  interleaving under the §2.2 cross-stage dataflow.
- **p2p matching** -- per directed rank pair, the order in which the
  sender emits stage-boundary tensors must equal the order in which the
  receiver consumes them.  The cooperative executor tolerates
  out-of-order channels (its inbox is keyed by (microbatch, stage)),
  but real blocking send/recv pairs posted out of order deadlock -- the
  dominant MegaScale failure mode this subsystem exists to catch.
- **memory bound** -- peak in-flight microbatches per rank must respect
  the schedule family's §2.2.1/§2.2.2 activation-memory argument
  (GPipe: m per chunk; 1F1B: p; interleaved 1F1B: warmup + 1).
- **compiled order** -- a generated schedule's completion order (every
  generator attaches one, computed from a pass formula) must equal a
  fresh walk's.

All checks return :class:`ScheduleViolation` records instead of raising
so ``python -m repro verify`` can print a structured report;
:func:`assert_valid_schedule` wraps them for call sites that want an
exception.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from repro.schedule import OpKind, PipelineSchedule, ScheduleOp, execution
from repro.schedule.execution import DeadlockError, completion_order


@dataclass(frozen=True)
class ScheduleViolation:
    """One rule violation found in a schedule."""

    # "completeness" | "race" | "deadlock" | "p2p" | "memory" | "order"
    check: str
    rank: int  # offending pipeline rank (-1 for schedule-wide)
    message: str

    def describe(self) -> str:
        where = f"rank {self.rank}" if self.rank >= 0 else "schedule"
        return f"[{self.check}] {where}: {self.message}"


class ScheduleViolationError(ValueError):
    """Raised by :func:`assert_valid_schedule`."""

    def __init__(self, schedule: PipelineSchedule,
                 violations: list[ScheduleViolation]):
        self.violations = violations
        super().__init__(
            f"schedule {schedule.describe()} failed validation:\n  "
            + "\n  ".join(v.describe() for v in violations)
        )


# -- individual checks -------------------------------------------------------

#: Missing ops a completeness violation names one by one, per rank; the
#: rest are counted in one more violation.
MISSING_NAMED = 16


def check_completeness(schedule: PipelineSchedule) -> list[ScheduleViolation]:
    """Exactly one F and one B per (microbatch, chunk) on every rank.

    Costs O(ops listed), whatever iteration the schedule declares: the
    ops a rank misses are counted, and the first :data:`MISSING_NAMED`
    of them named, in (microbatch, chunk, kind letter) order."""
    m, v = schedule.num_microbatches, schedule.num_chunks
    out: list[ScheduleViolation] = []
    for rank, rank_ops in enumerate(schedule.ops):
        seen: dict[tuple, int] = {}
        for op in rank_ops:
            key = (op.kind, op.microbatch, op.chunk)
            seen[key] = seen.get(key, 0) + 1
        inside = 0
        for (kind, mb, c), n in seen.items():
            if n > 1:
                out.append(ScheduleViolation(
                    "completeness", rank,
                    f"{kind.value}{mb}.{c} appears {n} times",
                ))
            if mb < m and c < v:
                inside += 1
            else:
                out.append(ScheduleViolation(
                    "completeness", rank,
                    f"{kind.value}{mb}.{c} is outside the (m={m}, v={v}) "
                    f"iteration",
                ))
        missing = 2 * m * v - inside
        for kind, mb, c in _first_missing(seen, m, v, min(missing, MISSING_NAMED)):
            out.append(ScheduleViolation(
                "completeness", rank, f"missing {kind.value}{mb}.{c}",
            ))
        if missing > MISSING_NAMED:
            out.append(ScheduleViolation(
                "completeness", rank,
                f"... and {missing - MISSING_NAMED} more missing",
            ))
    return out


def _first_missing(seen: dict, m: int, v: int, count: int) -> list[tuple]:
    """The first ``count`` (kind, microbatch, chunk) of the iteration not
    in ``seen``; each step finds one or passes one that is, so the scan
    is O(len(seen) + count)."""
    found: list[tuple] = []
    for mb in range(m):
        for c in range(v):
            for kind in (OpKind.BACKWARD, OpKind.FORWARD):  # "B" < "F"
                if len(found) == count:
                    return found
                if (kind, mb, c) not in seen:
                    found.append((kind, mb, c))
    return found


def check_local_races(schedule: PipelineSchedule) -> list[ScheduleViolation]:
    """A backward before its own forward consumes unstashed activations."""
    out: list[ScheduleViolation] = []
    for rank, rank_ops in enumerate(schedule.ops):
        forwarded: set[tuple[int, int]] = set()
        for pos, op in enumerate(rank_ops):
            key = (op.microbatch, op.chunk)
            if op.kind is OpKind.FORWARD:
                forwarded.add(key)
            elif key not in forwarded:
                out.append(ScheduleViolation(
                    "race", rank,
                    f"op #{pos} ({op}) consumes activations of microbatch "
                    f"{op.microbatch} chunk {op.chunk} before its forward ran",
                ))
    return out


def check_deadlock(schedule: PipelineSchedule) -> list[ScheduleViolation]:
    """Per-rank orders must admit a legal global interleaving of the
    §2.2 dataflow (the executor's own readiness walk decides)."""
    try:
        completion_order(schedule)
    except DeadlockError as exc:
        return _deadlock_violations(exc)
    return []


def check_compiled_order(schedule: PipelineSchedule) -> list[ScheduleViolation]:
    """The order the schedule carries must be the one the walk finds.

    Every generator attaches its schedule's completion order, computed
    from a pass formula, and every other check reads that order: only a
    fresh walk can tell a wrong formula from a right one."""
    try:
        walked = execution._walk(schedule)
    except DeadlockError as exc:
        return _deadlock_violations(exc)
    compiled = completion_order(schedule)
    if compiled == walked:
        return []
    for k, (got, want) in enumerate(zip(zip(*compiled), zip(*walked)), 1):
        if got != want:
            message = (f"compiled completion order has (rank, index, stage, "
                       f"kind, dep_a, dep_b) = {got} at position {k}, the "
                       f"walk {want}")
            break
    else:
        message = (f"compiled completion order has {len(compiled.rank)} "
                   f"ops, the walk {len(walked.rank)}")
    return [ScheduleViolation("order", -1, message)]


def _deadlock_violations(exc: DeadlockError) -> list[ScheduleViolation]:
    return [
        ScheduleViolation(
            "deadlock", rank, f"{inst} blocked forever waiting on {dep}"
        )
        for rank, inst, dep in exc.blocked
    ]


def _p2p_messages(
    schedule: PipelineSchedule,
) -> dict[tuple[int, int], tuple[list[tuple], list[tuple]]]:
    """Per directed channel (src_rank, dst_rank): (send order, recv order).

    A message is identified by the dependency edge it carries:
    ``("act", mb, producer_stage)`` for a forward activation,
    ``("grad", mb, producer_stage)`` for a backward input-gradient.
    Sends are emitted in the producer rank's program order, recvs are
    posted in the consumer rank's program order -- exactly how an SPMD
    runtime with blocking per-pair channels would order them.
    """
    p = schedule.num_stages
    channels: dict[tuple[int, int], tuple[list[tuple], list[tuple]]] = {}

    def channel(src: int, dst: int) -> tuple[list[tuple], list[tuple]]:
        return channels.setdefault((src, dst), ([], []))

    last = schedule.total_stages - 1
    for rank in range(p):
        for op in schedule.ops[rank]:
            stage = schedule.global_stage(rank, op.chunk)
            if op.kind is OpKind.FORWARD:
                # Send activations to the next stage's rank.
                if stage < last and (stage + 1) % p != rank:
                    channel(rank, (stage + 1) % p)[0].append(
                        ("act", op.microbatch, stage)
                    )
                # Receive activations from the previous stage's rank.
                if stage > 0 and (stage - 1) % p != rank:
                    channel((stage - 1) % p, rank)[1].append(
                        ("act", op.microbatch, stage - 1)
                    )
            else:
                # Send input-gradients to the previous stage's rank.
                if stage > 0 and (stage - 1) % p != rank:
                    channel(rank, (stage - 1) % p)[0].append(
                        ("grad", op.microbatch, stage)
                    )
                # Receive gradients from the next stage's rank.
                if stage < last and (stage + 1) % p != rank:
                    channel((stage + 1) % p, rank)[1].append(
                        ("grad", op.microbatch, stage + 1)
                    )
    return channels


def check_p2p_matching(schedule: PipelineSchedule) -> list[ScheduleViolation]:
    """Send/recv sequences must match per directed rank pair.

    An unmatched message (sent but never received, or awaited but never
    sent) blocks one endpoint forever; a reordered pair deadlocks
    blocking channels.  Both are reported with the first offending
    message.
    """
    out: list[ScheduleViolation] = []
    for (src, dst), (sends, recvs) in sorted(_p2p_messages(schedule).items()):
        for pos, (s, r) in enumerate(zip(sends, recvs)):
            if s != r:
                out.append(ScheduleViolation(
                    "p2p", src,
                    f"channel {src}->{dst} message #{pos}: sender posts "
                    f"{s} but receiver expects {r} (blocking p2p deadlock)",
                ))
                break
        else:
            if len(sends) != len(recvs):
                pos = min(len(sends), len(recvs))
                if len(sends) > len(recvs):
                    msg = (f"channel {src}->{dst}: send #{pos} {sends[pos]} "
                           "is never received")
                else:
                    msg = (f"channel {src}->{dst}: recv #{pos} {recvs[pos]} "
                           "is never sent")
                out.append(ScheduleViolation("p2p", src, msg))
    return out


def in_flight_bound(schedule: PipelineSchedule, rank: int) -> int:
    """Analytic peak-in-flight-microbatch bound for ``rank`` (§2.2).

    GPipe families stash every (microbatch, chunk) activation: bound
    ``m * v``.  1F1B admits at most its warm-up depth plus the one
    microbatch in flight during steady state: ``min(p - rank, m)``
    non-interleaved, ``min(2(p-rank-1) + (v-1)p + 1, m v)`` interleaved
    (the §2.2.2 warm-up length).  Unknown schedule families fall back
    to the universal ``m * v`` (only that many forwards exist).
    """
    p, m, v = schedule.num_stages, schedule.num_microbatches, schedule.num_chunks
    if schedule.name == "1f1b":
        return min(p - rank, m)
    if schedule.name == "interleaved":
        if m == p:
            return m * v  # all-warm-up degenerate case
        return min(2 * (p - rank - 1) + (v - 1) * p + 1, m * v)
    return m * v


def check_memory_bound(schedule: PipelineSchedule) -> list[ScheduleViolation]:
    """Peak stashed activations per rank <= the schedule family's bound."""
    out: list[ScheduleViolation] = []
    for rank in range(schedule.num_stages):
        peak = schedule.max_in_flight_microbatches(rank)
        bound = in_flight_bound(schedule, rank)
        if peak > bound:
            out.append(ScheduleViolation(
                "memory", rank,
                f"peak in-flight microbatches {peak} exceeds the "
                f"{schedule.name} bound {bound}",
            ))
    return out


# -- aggregation -------------------------------------------------------------

def validate_schedule(schedule: PipelineSchedule) -> list[ScheduleViolation]:
    """Run every static check; empty list means the schedule is valid.

    Dependency-order checks (deadlock, p2p) only run on complete,
    race-free schedules -- an incomplete schedule produces misleading
    downstream diagnostics otherwise.
    """
    violations = check_completeness(schedule) + check_local_races(schedule)
    violations += check_memory_bound(schedule)
    if not violations:
        violations += check_deadlock(schedule)
        violations += check_p2p_matching(schedule)
    return violations


def assert_valid_schedule(schedule: PipelineSchedule) -> None:
    violations = validate_schedule(schedule)
    if violations:
        raise ScheduleViolationError(schedule, violations)


def generator_grid(fast: bool = False) -> list[tuple[str, int, int, int]]:
    """(name, p, m, v) combinations covering every shipped generator."""
    if fast:
        grid = [
            ("gpipe", 2, 4, 1),
            ("1f1b", 4, 8, 1),
            ("interleaved", 2, 4, 2),
            ("interleaved-gpipe", 2, 4, 2),
        ]
    else:
        grid = [("gpipe", p, m, 1)
                for p in (1, 2, 4) for m in (1, 2, 4, 8)]
        grid += [("1f1b", p, m, 1)
                 for p in (1, 2, 4, 8) for m in (1, 2, 4, 8, 16)]
        grid += [("interleaved", p, m, v)
                 for p in (2, 4) for mult in (1, 2, 4) for v in (2, 3)
                 for m in (p * mult,)]
        grid += [("interleaved-gpipe", p, m, v)
                 for p in (2, 4) for mult in (1, 2) for v in (2, 3)
                 for m in (p * mult,)]
    return grid


def check_all_generators(
    fast: bool = False,
) -> dict[tuple[str, int, int, int], list[ScheduleViolation]]:
    """Validate every shipped generator across a (p, m, v) grid, and
    hold the completion order each schedule carries to a fresh walk.

    Returns violations per configuration (all empty when healthy).
    """
    from repro.schedule import make_schedule

    out: dict[tuple[str, int, int, int], list[ScheduleViolation]] = {}
    for name, p, m, v in generator_grid(fast):
        schedule = make_schedule(name, p, m, v)
        violations = validate_schedule(schedule)
        out[(name, p, m, v)] = violations or check_compiled_order(schedule)
    return out


# -- JSON (de)serialization for fixtures -------------------------------------

def schedule_to_json(schedule: PipelineSchedule) -> str:
    """Serialize a schedule for on-disk fixtures (CI corpus, CLI input)."""
    return json.dumps({
        "name": schedule.name,
        "num_stages": schedule.num_stages,
        "num_microbatches": schedule.num_microbatches,
        "num_chunks": schedule.num_chunks,
        "ops": [
            [[op.kind.value, op.microbatch, op.chunk] for op in rank_ops]
            for rank_ops in schedule.ops
        ],
    })


def schedule_from_json(text: str) -> PipelineSchedule:
    """Inverse of :func:`schedule_to_json`; raises ``ValueError`` on
    malformed input (the CLI maps that to a clean ``error:`` message)."""
    try:
        data = json.loads(text)
    except (json.JSONDecodeError, RecursionError) as exc:
        raise ValueError(f"schedule JSON is not valid JSON: {exc}") from exc
    try:
        kinds = {k.value: k for k in OpKind}
        ops = tuple(
            tuple(
                ScheduleOp(kinds[kind], int(mb), int(chunk))
                for kind, mb, chunk in rank_ops
            )
            for rank_ops in data["ops"]
        )
        return PipelineSchedule(
            name=str(data["name"]),
            num_stages=int(data["num_stages"]),
            num_microbatches=int(data["num_microbatches"]),
            num_chunks=int(data["num_chunks"]),
            ops=ops,
        )
    except (KeyError, TypeError, ValueError, OverflowError) as exc:
        raise ValueError(f"malformed schedule JSON: {exc}") from exc

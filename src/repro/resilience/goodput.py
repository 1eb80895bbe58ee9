"""Goodput accounting: effective-training-time / wall-clock under faults.

Two complementary models share one overhead decomposition
(``wall = useful + checkpoint + detection + load + lost work``):

- :func:`simulate_goodput` replays a run under a list of
  :class:`~repro.resilience.chaos.Kill` entries iteration by iteration —
  exact, deterministic event accounting, with every checkpoint save,
  detection stall, restart load and recompute window exported as a
  span through :mod:`repro.obs` (the trace's per-phase sums equal the
  report's fields *exactly*);
- :func:`expected_goodput` is the steady-state expectation for a
  Poisson failure process of a given MTBF — the smooth objective whose
  exact minimizer is the Young/Daly interval, used by
  :func:`sweep_checkpoint_interval` and the ``repro goodput`` CLI.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

from repro.config import (
    GPTConfig,
    ParallelConfig,
    gpt3_175b,
    gpt_1t,
    gpt_530b,
)
from repro.obs.tracer import GLOBAL_RANK, current_tracer

from .chaos import Kill
from .recovery import (
    RecoveryEvent,
    RestartPolicy,
    cluster_mtbf,
    young_daly_interval,
)


@dataclass(frozen=True)
class GoodputReport:
    """Where the wall-clock of one modelled training run went.

    The five components are disjoint and exhaustive:
    ``wall_clock_seconds == useful_seconds + checkpoint_seconds +
    detection_seconds + load_seconds + lost_work_seconds`` exactly
    (it is a property computed as that sum, and the trace spans the
    simulator emits carry the same numbers).
    """

    total_iterations: int
    useful_seconds: float  # each committed iteration, counted once
    checkpoint_seconds: float  # periodic saves while healthy
    detection_seconds: float  # heartbeat stalls after each death
    load_seconds: float  # restart checkpoint reads
    lost_work_seconds: float  # re-run iterations after restarts
    num_checkpoints: int
    events: tuple[RecoveryEvent, ...] = ()

    @property
    def num_failures(self) -> int:
        return len(self.events)

    @property
    def wall_clock_seconds(self) -> float:
        return (
            self.useful_seconds
            + self.checkpoint_seconds
            + self.detection_seconds
            + self.load_seconds
            + self.lost_work_seconds
        )

    @property
    def goodput(self) -> float:
        """Effective-training-time fraction of wall clock, in [0, 1]."""
        wall = self.wall_clock_seconds
        return self.useful_seconds / wall if wall > 0 else 1.0

    def describe(self) -> str:
        return (
            f"goodput={self.goodput:.4f}  wall={self.wall_clock_seconds:.1f}s "
            f"= useful {self.useful_seconds:.1f} "
            f"+ ckpt {self.checkpoint_seconds:.1f} "
            f"+ detect {self.detection_seconds:.1f} "
            f"+ load {self.load_seconds:.1f} "
            f"+ lost {self.lost_work_seconds:.1f}  "
            f"({self.num_checkpoints} ckpts, {self.num_failures} failures)"
        )


def simulate_goodput(
    iteration_seconds: float,
    total_iterations: int,
    checkpoint_interval_iterations: int,
    policy: RestartPolicy,
    kills: Sequence[Kill] = (),
) -> GoodputReport:
    """Replay a training run of ``total_iterations`` iterations of
    ``iteration_seconds`` each, under ``kills``.

    Semantics (deterministic, at iteration granularity):

    - a checkpoint is written after every
      ``checkpoint_interval_iterations`` committed iterations except at
      the very end (the final save is interval-independent and would
      only shift every sweep point by a constant);
    - a :class:`~repro.resilience.chaos.Kill` at iteration ``k``
      strikes when committed progress first reaches ``k`` — after the
      checkpoint scheduled at the same boundary, before the next
      iteration.  The job pays the detector's expected latency, the
      restart load, and re-runs everything since the last checkpoint;
      kills at ``k >= total_iterations`` never strike.  ``useful``
      counts each iteration once; re-executions are ``lost work``.
      The model prices restarts, not reshards: a ``permanent`` kill is
      a ``ValueError``;
    - while a tracer is active (``with trace() as t:``) every save /
      detect / load / recompute window and the training segments
      between them are emitted as modelled-clock spans (phases
      ``resilience.*``), and the per-event records land in the
      tracer's metrics registry.  Per-phase span sums equal the
      report's fields exactly.
    """
    if total_iterations < 1:
        raise ValueError(
            f"total_iterations must be >= 1, got {total_iterations}"
        )
    if checkpoint_interval_iterations < 1:
        raise ValueError(
            "checkpoint_interval_iterations must be >= 1, got "
            f"{checkpoint_interval_iterations}"
        )
    if iteration_seconds <= 0:
        raise ValueError(
            f"iteration_seconds must be > 0, got {iteration_seconds}"
        )
    if any(kill.permanent for kill in kills):
        raise ValueError(
            "the goodput model prices restarts, not reshards: "
            "a permanent kill cannot be priced"
        )
    iter_secs = float(iteration_seconds)
    interval = checkpoint_interval_iterations
    detect_latency = policy.detector.expected_latency()
    tracer = current_tracer()

    events: list[RecoveryEvent] = []
    pending = sorted(kills, key=lambda kill: kill.at_iteration)
    train_accrued = 0.0  # every executed iteration, incl. re-runs
    checkpoint = detect = load = lost = 0.0
    num_checkpoints = 0
    committed = 0
    wall = 0.0  # running modelled clock, for span placement
    segment_start = 0.0  # start of the current contiguous train stretch

    def flush_train_segment() -> None:
        nonlocal segment_start
        if tracer is not None and wall > segment_start:
            tracer.add_span(
                "train", phase="resilience.train", rank=GLOBAL_RANK,
                start=segment_start, end=wall,
            )
        segment_start = wall

    while committed < total_iterations:
        # Failures scheduled at this progress point strike before the
        # next iteration runs (and after any checkpoint at the same
        # boundary -- handled below, where boundaries are crossed).
        while pending and pending[0].at_iteration == committed:
            f = pending.pop(0)
            flush_train_segment()
            last_ckpt = (committed // interval) * interval
            lost_iters = committed - last_ckpt
            # Summed, not multiplied: the same float the run accrued.
            lost_secs = float(sum([iter_secs] * lost_iters))
            event = RecoveryEvent(
                at_iteration=committed,
                rank=f.rank,
                failure_wall_seconds=wall,
                detection_seconds=detect_latency,
                load_seconds=policy.load_seconds,
                lost_iterations=lost_iters,
                lost_work_seconds=lost_secs,
            )
            events.append(event)
            detect += detect_latency
            load += policy.load_seconds
            lost += lost_secs
            if tracer is not None:
                tracer.add_span(
                    f"detect-failure(rank={f.rank})",
                    phase="resilience.detect", rank=GLOBAL_RANK,
                    start=wall, end=wall + detect_latency,
                    at_iteration=committed, seconds=detect_latency,
                )
                tracer.add_span(
                    "restart-load", phase="resilience.load",
                    rank=GLOBAL_RANK,
                    start=wall + detect_latency,
                    end=wall + detect_latency + policy.load_seconds,
                    seconds=policy.load_seconds,
                )
                tracer.metrics.counter("resilience.failures").inc()
                tracer.metrics.histogram("resilience.lost_work_seconds") \
                    .observe(lost_secs)
                tracer.metrics.histogram("resilience.event_overhead_seconds") \
                    .observe(event.total_overhead_seconds)
            wall += detect_latency + policy.load_seconds
            if tracer is not None and lost_secs > 0:
                # The re-run window: known now, executed next.
                tracer.add_span(
                    "recompute-lost-work", phase="resilience.lost-work",
                    rank=GLOBAL_RANK,
                    start=wall, end=wall + lost_secs,
                    iterations=lost_iters, seconds=lost_secs,
                )
            segment_start = wall
            committed = last_ckpt
        train_accrued += iter_secs
        wall += iter_secs
        committed += 1
        if committed % interval == 0 and committed < total_iterations:
            flush_train_segment()
            if tracer is not None:
                tracer.add_span(
                    "checkpoint-save", phase="resilience.checkpoint",
                    rank=GLOBAL_RANK,
                    start=wall, end=wall + policy.save_seconds,
                    at_iteration=committed, seconds=policy.save_seconds,
                )
            checkpoint += policy.save_seconds
            num_checkpoints += 1
            wall += policy.save_seconds
            segment_start = wall
    flush_train_segment()

    useful = train_accrued - lost
    report = GoodputReport(
        total_iterations=total_iterations,
        useful_seconds=useful,
        checkpoint_seconds=checkpoint,
        detection_seconds=detect,
        load_seconds=load,
        lost_work_seconds=lost,
        num_checkpoints=num_checkpoints,
        events=tuple(events),
    )
    if tracer is not None:
        tracer.add_span(
            "goodput-run", phase="resilience.run", rank=GLOBAL_RANK,
            start=0.0, end=report.wall_clock_seconds,
            iterations=total_iterations, failures=report.num_failures,
        )
        tracer.metrics.counter("resilience.checkpoints").inc(num_checkpoints)
        tracer.metrics.gauge("resilience.goodput").set(report.goodput)
        tracer.metrics.gauge("resilience.useful_seconds").set(useful)
        tracer.metrics.gauge("resilience.wall_clock_seconds").set(
            report.wall_clock_seconds
        )
    return report


# -- steady-state expectation ------------------------------------------------

@dataclass(frozen=True)
class ExpectedGoodput:
    """Expected overhead rates (per useful second) at one interval."""

    interval_seconds: float
    goodput: float
    checkpoint_rate: float  # save_cost / interval
    failure_rate: float  # (interval/2 + detect + load) / MTBF

    @property
    def overhead_rate(self) -> float:
        return self.checkpoint_rate + self.failure_rate


def expected_goodput(
    interval_seconds: float,
    *,
    mtbf_seconds: float,
    save_seconds: float,
    load_seconds: float,
    detection_seconds: float = 0.0,
) -> ExpectedGoodput:
    """Steady-state expected goodput at one checkpoint interval.

    Per useful second the run pays ``save/c`` in checkpoints, and
    failures arrive at rate ``1/MTBF`` each costing half an interval of
    lost work (failure lands uniformly inside the interval) plus the
    detection and load latencies:

        overhead(c) = save/c + (c/2 + detect + load) / MTBF
        goodput(c)  = 1 / (1 + overhead(c))

    ``overhead`` is strictly convex in ``c`` with minimizer exactly
    ``sqrt(2 * save * MTBF)`` — Young's interval (the detect/load term
    is interval-independent and shifts the level, not the argmin).
    """
    if interval_seconds <= 0:
        raise ValueError(
            f"interval_seconds must be > 0, got {interval_seconds}"
        )
    if mtbf_seconds <= 0:
        raise ValueError(f"mtbf_seconds must be > 0, got {mtbf_seconds}")
    if save_seconds <= 0:
        raise ValueError(f"save_seconds must be > 0, got {save_seconds}")
    if load_seconds < 0 or detection_seconds < 0:
        raise ValueError("load/detection seconds must be >= 0")
    ckpt_rate = save_seconds / interval_seconds
    fail_rate = (
        interval_seconds / 2 + detection_seconds + load_seconds
    ) / mtbf_seconds
    return ExpectedGoodput(
        interval_seconds=interval_seconds,
        goodput=1.0 / (1.0 + ckpt_rate + fail_rate),
        checkpoint_rate=ckpt_rate,
        failure_rate=fail_rate,
    )


@dataclass(frozen=True)
class SweepResult:
    """A checkpoint-interval sweep and its optimum vs. Young/Daly."""

    points: tuple[ExpectedGoodput, ...]
    analytic_interval_seconds: float  # Young/Daly

    @property
    def best(self) -> ExpectedGoodput:
        return max(self.points, key=lambda p: p.goodput)

    @property
    def best_index(self) -> int:
        return self.points.index(self.best)

    @property
    def analytic_index(self) -> int:
        """Grid point nearest the analytic optimum (log distance)."""
        target = math.log(self.analytic_interval_seconds)
        return min(
            range(len(self.points)),
            key=lambda i: abs(
                math.log(self.points[i].interval_seconds) - target
            ),
        )

    @property
    def agrees_within_one_step(self) -> bool:
        """Does the sweep argmax land within one grid step of the
        analytic Young/Daly optimum?"""
        return abs(self.best_index - self.analytic_index) <= 1

    @property
    def is_interior(self) -> bool:
        """Is the optimum away from both sweep endpoints?"""
        return 0 < self.best_index < len(self.points) - 1


def log_spaced_intervals(
    min_seconds: float, max_seconds: float, points: int
) -> list[float]:
    """``points`` log-spaced checkpoint intervals in
    ``[min_seconds, max_seconds]``."""
    if min_seconds <= 0 or max_seconds <= min_seconds:
        raise ValueError(
            f"need 0 < min ({min_seconds}) < max ({max_seconds})"
        )
    if points < 2:
        raise ValueError(f"points must be >= 2, got {points}")
    lo, hi = math.log(min_seconds), math.log(max_seconds)
    return [
        math.exp(lo + (hi - lo) * i / (points - 1)) for i in range(points)
    ]


def sweep_checkpoint_interval(
    intervals: Sequence[float],
    *,
    mtbf_seconds: float,
    save_seconds: float,
    load_seconds: float,
    detection_seconds: float = 0.0,
) -> SweepResult:
    """Evaluate expected goodput across ``intervals`` and locate the
    optimum (convexity of the overhead rate guarantees the grid argmax
    sits within one step of the analytic Young/Daly interval)."""
    if len(intervals) < 2:
        raise ValueError("need at least 2 intervals to sweep")
    points = tuple(
        expected_goodput(
            c,
            mtbf_seconds=mtbf_seconds,
            save_seconds=save_seconds,
            load_seconds=load_seconds,
            detection_seconds=detection_seconds,
        )
        for c in intervals
    )
    return SweepResult(
        points=points,
        analytic_interval_seconds=young_daly_interval(
            mtbf_seconds, save_seconds
        ),
    )


# -- named scenarios ---------------------------------------------------------

@dataclass(frozen=True)
class GoodputScenario:
    """A preset model + cluster + reliability context for the CLI,
    the figure script, and the benchmark."""

    name: str
    model: GPTConfig = field(default_factory=gpt_1t)
    parallel: ParallelConfig = field(default_factory=ParallelConfig)
    num_nodes: int = 1
    node_mtbf_hours: float = 5000.0

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError(f"num_nodes must be >= 1, got {self.num_nodes}")
        if self.node_mtbf_hours <= 0:
            raise ValueError(
                f"node_mtbf_hours must be > 0, got {self.node_mtbf_hours}"
            )

    @property
    def cluster_mtbf_seconds(self) -> float:
        return cluster_mtbf(self.node_mtbf_hours * 3600.0, self.num_nodes)


def goodput_scenarios() -> dict[str, GoodputScenario]:
    """The paper's flagship configurations as goodput scenarios.

    GPU counts follow Table 1; ``num_nodes = world_size / 8`` (DGX
    A100).  The 5000 h node MTBF puts the 384-node cluster's MTBF near
    13 h — the regime MegaScale reports for real large clusters.
    """
    return {
        "1t": GoodputScenario(
            name="1t",
            model=gpt_1t(),
            parallel=ParallelConfig(
                pipeline_parallel_size=64, tensor_parallel_size=8,
                data_parallel_size=6, microbatch_size=1,
                global_batch_size=3072,
            ),
            num_nodes=384,
        ),
        "530b": GoodputScenario(
            name="530b",
            model=gpt_530b(),
            parallel=ParallelConfig(
                pipeline_parallel_size=35, tensor_parallel_size=8,
                data_parallel_size=9, microbatch_size=1,
                global_batch_size=2520,
            ),
            num_nodes=315,
        ),
        "175b": GoodputScenario(
            name="175b",
            model=gpt3_175b(),
            parallel=ParallelConfig(
                pipeline_parallel_size=8, tensor_parallel_size=8,
                data_parallel_size=16, microbatch_size=1,
                global_batch_size=1536,
            ),
            num_nodes=128,
        ),
    }

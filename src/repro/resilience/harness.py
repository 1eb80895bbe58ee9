"""Supervised chaos harness: live training under injected faults.

PR 2's :mod:`repro.resilience.goodput` *prices* a run under a failure
trace; this module *survives* one.  :class:`ChaosHarness` drives a real
:class:`~repro.parallel.trainer.PTDTrainer` loop and recovers, without
human intervention, from everything a :class:`ChaosPlan` throws at it:

- **rank failures** (:class:`~repro.resilience.chaos.Kill`) abort the
  interrupted ``train_step``; the harness rebuilds the trainer, restores
  the newest checkpoint that passes integrity verification (corrupted
  ones are skipped -- the fallback path), and resumes.  A *permanent*
  failure additionally reshards onto a smaller parallel configuration
  chosen by :func:`repro.perf.heuristics.suggest_parallel_config`
  (optimizer state resets, as the checkpoint layer reports);
- **transient save failures**
  (:class:`~repro.resilience.chaos.SaveFailure`) are retried with
  capped exponential backoff;
- **post-commit corruption**
  (:class:`~repro.resilience.chaos.CorruptCheckpoint`) is applied to
  committed checkpoints so later restores must detect and skip them.

Determinism is the load-bearing property: the batch for iteration *i*
is a pure function of ``(seed, i)``, checkpoint restore is bit-exact,
and the engine itself is exact, so a run killed at iteration *k* and
resumed under the same parallel configuration finishes with **bit-
identical** loss and parameters to an uninterrupted run
(:func:`run_baseline` builds the reference; ``repro.verify``'s chaos
conformance case enforces the guarantee).  A resharded resume matches
the single-rank reference of :func:`run_reset_reference` -- same
trajectory with the optimizer reset at the restore point -- to fp64
ring-summation tolerance.

Every recovery action is emitted as a :mod:`repro.obs` span (phases
``chaos.*``), so a chaos run produces a Chrome trace of failures,
backoffs, fallbacks, and restarts next to the engine's own iteration
spans (``python -m repro chaos --out``).

When a :mod:`repro.obs.runlog` logger is active the harness doubles as
the **ground-truth writer** for the anomaly detectors: every injected
fault is recorded as a ``fault`` event naming the detector expected to
catch it, kills silence the dead rank's heartbeats for
``silent_rounds`` liveness rounds, recovery actions are mirrored as
``recovery``/``checkpoint`` telemetry, and the plan's telemetry-layer
faults (:class:`~repro.resilience.chaos.LossSpike`,
:class:`~repro.resilience.chaos.Stall`) are injected by wrapping the
logger in a perturbing proxy -- the training computation never sees
them, so the bit-exactness guarantee above is untouched.
"""

from __future__ import annotations

import contextlib
import os
import time
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.config import GPTConfig, ParallelConfig
from repro.obs import span as obs_span
from repro.obs.runlog import current_run_logger, run_logging
from repro.parallel import PTDTrainer
from repro.parallel.checkpoint import (
    CheckpointNotFoundError,
    CheckpointStore,
)

from .chaos import (
    ChaosPlan,
    RankFailureError,
    TransientSaveError,
    corrupt_file,
)


def batch_for_iteration(
    config: GPTConfig, batch_size: int, seed: int, iteration: int
) -> tuple[np.ndarray, np.ndarray]:
    """The deterministic global batch for one iteration.

    A pure function of ``(seed, iteration)``: a resumed run replays
    exactly the data the interrupted run saw, which is what makes
    kill-and-resume bit-identical to an uninterrupted run.
    """
    rng = np.random.default_rng([seed, iteration])
    shape = (batch_size, config.seq_length)
    ids = rng.integers(0, config.vocab_size, size=shape)
    targets = rng.integers(0, config.vocab_size, size=shape)
    return ids, targets


def shrink_parallel(
    config: GPTConfig, parallel: ParallelConfig, *, lost_ranks: int = 1
) -> ParallelConfig:
    """A parallel configuration for the ranks that are left.

    Asks :func:`~repro.perf.heuristics.suggest_parallel_config` (the
    paper's Takeaway heuristics) for the largest usable GPU count below
    ``world - lost_ranks``; falls back to the serial configuration when
    the heuristics find nothing.  A world of 1 cannot shrink and is
    returned unchanged.
    """
    world = (
        parallel.pipeline_parallel_size
        * parallel.tensor_parallel_size
        * parallel.data_parallel_size
    )
    if world <= 1:
        return parallel
    B = parallel.global_batch_size
    from repro.perf.heuristics import suggest_parallel_config

    for gpus in range(max(world - lost_ranks, 1), 0, -1):
        try:
            candidate = suggest_parallel_config(config, gpus, B)
            candidate.validate_for_model(config)
        except ValueError:
            continue
        return candidate
    return ParallelConfig(microbatch_size=1, global_batch_size=B)


class _TelemetryFaults:
    """Run-logger proxy injecting the plan's telemetry-layer faults.

    Wraps the active :class:`~repro.obs.runlog.RunLogger` for the
    duration of a chaos run.  Iteration records passing through are
    perturbed per :class:`~repro.resilience.chaos.LossSpike` /
    :class:`~repro.resilience.chaos.Stall`, with the matching
    ground-truth ``fault`` event emitted just before the perturbed
    record (so the alert it provokes always has a later ``seq``).
    Everything else delegates unchanged: the training computation is
    untouched and each perturbation fires once even if a restart
    replays its iteration.
    """

    def __init__(self, inner, plan: ChaosPlan):
        self._inner = inner
        self._plan = plan
        self._fired: set = set()

    def __getattr__(self, name):
        return getattr(self._inner, name)

    def iteration(self, iteration, loss, seconds, *,
                  tokens_per_s=None, mfu=None, grad_norm=None,
                  rank_busy=None, **extra):
        spike = self._plan.loss_spike_at(iteration)
        if (spike is not None and loss is not None
                and ("spike", iteration) not in self._fired):
            self._fired.add(("spike", iteration))
            self._inner.fault("loss-spike", iteration,
                              expect="loss-spike", factor=spike.factor)
            loss = loss * spike.factor
        for index, stall in enumerate(self._plan.stalls):
            if not (stall.at_iteration <= iteration
                    < stall.at_iteration + stall.iterations):
                continue
            key = ("stall", index, iteration)
            if key in self._fired:
                continue  # a replayed iteration stays clean
            self._fired.add(key)
            # One ground-truth event per plan entry, stamped at its
            # first perturbed record -- the detectors alert once per
            # episode, so fault and alert stay one-to-one.
            first = ("stall", index) not in self._fired
            self._fired.add(("stall", index))
            if stall.rank is None:
                if first:
                    self._inner.fault("stall", iteration,
                                      expect="throughput-collapse",
                                      seconds=stall.seconds)
                stretched = seconds + stall.seconds
                scale = seconds / stretched
                seconds = stretched
                if tokens_per_s is not None:
                    tokens_per_s *= scale
                if mfu is not None:
                    mfu *= scale
            else:
                if first:
                    self._inner.fault("rank-stall", iteration,
                                      expect="straggler",
                                      rank=stall.rank,
                                      seconds=stall.seconds)
                rank_busy = dict(rank_busy or {})
                rank_busy[stall.rank] = (
                    rank_busy.get(stall.rank, 0.0) + stall.seconds
                )
        return self._inner.iteration(
            iteration, loss, seconds, tokens_per_s=tokens_per_s,
            mfu=mfu, grad_norm=grad_norm, rank_busy=rank_busy, **extra,
        )


@dataclass(frozen=True)
class RecoveryRecord:
    """One recovery-relevant event, in the order it happened."""

    kind: str  # rank-failure | restore | restart-from-scratch |
    #            checkpoint | save-retry | checkpoint-skipped |
    #            corrupt | reshard
    at_iteration: int
    detail: str = ""


@dataclass
class ChaosReport:
    """What a supervised chaos run did and where it ended up."""

    iterations: int
    losses: list[float]
    final_loss: float
    final_state: dict[str, np.ndarray]
    final_parallel: ParallelConfig
    restarts: int = 0
    save_retries: int = 0
    checkpoints_written: int = 0
    skipped_checkpoints: int = 0
    resharded: bool = False
    records: list[RecoveryRecord] = field(default_factory=list)

    def describe(self) -> str:
        lines = [
            f"iterations        : {self.iterations} "
            f"(final loss {self.final_loss:.6f})",
            f"checkpoints       : {self.checkpoints_written} committed, "
            f"{self.save_retries} transient save retries",
            f"recoveries        : {self.restarts} restarts, "
            f"{self.skipped_checkpoints} corrupted checkpoints skipped",
            f"final parallel    : {self.final_parallel.describe()}"
            + ("  [resharded]" if self.resharded else ""),
        ]
        if self.records:
            lines.append("events:")
            for r in self.records:
                detail = f"  {r.detail}" if r.detail else ""
                lines.append(f"  it={r.at_iteration:>4}  {r.kind}{detail}")
        return "\n".join(lines)


class HarnessGaveUpError(RuntimeError):
    """The recovery policy exhausted its restart or retry budget."""


class ChaosHarness:
    """Run ``total_iterations`` of real training under a chaos plan,
    checkpointing every ``checkpoint_every`` iterations and recovering
    from every injected failure.  See the module docstring for the
    recovery policy and the determinism guarantee."""

    def __init__(
        self,
        config: GPTConfig,
        parallel: ParallelConfig,
        directory: str,
        *,
        plan: ChaosPlan | None = None,
        total_iterations: int = 8,
        checkpoint_every: int = 2,
        keep_last: int = 3,
        schedule: str = "1f1b",
        seed: int = 0,
        lr: float = 1e-2,
        max_restarts: int = 8,
        max_save_attempts: int = 5,
        backoff_base: float = 0.05,
        backoff_cap: float = 2.0,
        allow_reshard: bool = True,
        silent_rounds: int = 2,
        sleep: Callable[[float], None] | None = None,
        backend: str = "coop",
    ):
        if total_iterations < 1:
            raise ValueError(
                f"total_iterations must be >= 1, got {total_iterations}"
            )
        if checkpoint_every < 1:
            raise ValueError(
                f"checkpoint_every must be >= 1, got {checkpoint_every}"
            )
        if max_restarts < 0:
            raise ValueError(f"max_restarts must be >= 0, got {max_restarts}")
        if max_save_attempts < 1:
            raise ValueError(
                f"max_save_attempts must be >= 1, got {max_save_attempts}"
            )
        if backoff_base <= 0 or backoff_cap < backoff_base:
            raise ValueError(
                "need 0 < backoff_base <= backoff_cap, got "
                f"{backoff_base}/{backoff_cap}"
            )
        self.config = config
        self.parallel = parallel
        self.backend = backend
        self.plan = plan if plan is not None else ChaosPlan()
        self.total_iterations = total_iterations
        self.checkpoint_every = checkpoint_every
        self.schedule = schedule
        self.seed = seed
        self.lr = lr
        self.max_restarts = max_restarts
        self.max_save_attempts = max_save_attempts
        self.backoff_base = backoff_base
        self.backoff_cap = backoff_cap
        self.allow_reshard = allow_reshard
        if silent_rounds < 1:
            raise ValueError(
                f"silent_rounds must be >= 1, got {silent_rounds}"
            )
        #: Liveness rounds a killed rank stays silent for in the run
        #: log before recovery telemetry appears -- what the
        #: heartbeat-gap detector actually observes of a kill.
        self.silent_rounds = silent_rounds
        self.sleep = sleep if sleep is not None else time.sleep
        self.store = CheckpointStore(
            directory, keep_last=keep_last, save_fault=self._save_fault
        )
        self._save_budget = self.plan.save_failure_budget()
        self._fired_kills: set[int] = set()
        self._fired_corruptions: set[int] = set()

    # -- injection ----------------------------------------------------------
    def _save_fault(self, iteration: int, stage: str) -> None:
        # Fail before anything is published: the commit itself is atomic,
        # so a transient failure leaves no trace at the target.
        if stage != "pre-commit":
            return
        remaining = self._save_budget.get(iteration, 0)
        if remaining > 0:
            self._save_budget[iteration] = remaining - 1
            raise TransientSaveError(
                f"injected transient save failure at iteration {iteration} "
                f"({remaining - 1} more to come)"
            )

    def _kill_hook(self, trainer: PTDTrainer) -> None:
        for index, kill in enumerate(self.plan.kills):
            if index in self._fired_kills:
                continue
            if trainer.iteration == kill.at_iteration:
                self._fired_kills.add(index)
                raise RankFailureError(
                    kill.at_iteration, kill.rank, kill.permanent
                )

    # -- building blocks ----------------------------------------------------
    def _make_trainer(self, parallel: ParallelConfig,
                      schedule: str) -> PTDTrainer:
        trainer = PTDTrainer(
            self.config, parallel, schedule=schedule,
            seed=self.seed, lr=self.lr, backend=self.backend,
        )
        trainer.pre_step_hooks.append(self._kill_hook)
        return trainer

    def _save_with_retry(self, trainer: PTDTrainer,
                         report: ChaosReport) -> str:
        iteration = trainer.iteration
        attempt = 0
        while True:
            attempt += 1
            try:
                with obs_span("checkpoint", phase="chaos.checkpoint",
                              iteration=iteration, attempt=attempt):
                    path = self.store.save(trainer)
            except TransientSaveError as exc:
                report.save_retries += 1
                report.records.append(RecoveryRecord(
                    "save-retry", iteration,
                    f"attempt {attempt}: {exc}",
                ))
                runlog = current_run_logger()
                if runlog is not None:
                    if attempt == 1:
                        runlog.fault("save-failure", iteration,
                                     expect="checkpoint")
                    runlog.recovery("save-retry", iteration,
                                    f"attempt {attempt}")
                if attempt >= self.max_save_attempts:
                    raise HarnessGaveUpError(
                        f"checkpoint save at iteration {iteration} still "
                        f"failing after {attempt} attempts"
                    ) from exc
                delay = min(
                    self.backoff_cap,
                    self.backoff_base * (2 ** (attempt - 1)),
                )
                with obs_span("backoff", phase="chaos.backoff",
                              iteration=iteration, attempt=attempt):
                    self.sleep(delay)
                continue
            report.checkpoints_written += 1
            report.records.append(
                RecoveryRecord("checkpoint", iteration)
            )
            runlog = current_run_logger()
            if runlog is not None:
                runlog.checkpoint(iteration, path)
            return path

    def _apply_corruptions(self, iteration: int, path: str,
                           report: ChaosReport) -> None:
        # Fire-once, like kills: a plan entry is one fault instance, so
        # a checkpoint re-committed on replay after a restore stays
        # healthy instead of silently re-rotting.
        for index, spec in enumerate(self.plan.corruptions):
            if spec.at_iteration != iteration:
                continue
            if index in self._fired_corruptions:
                continue
            self._fired_corruptions.add(index)
            target = os.path.join(path, spec.file)
            with obs_span("corrupt", phase="chaos.corrupt",
                          iteration=iteration):
                corrupt_file(target, spec.mode)
            report.records.append(RecoveryRecord(
                "corrupt", iteration, f"{spec.file} ({spec.mode})"
            ))
            # Ground truth only: real bit-rot is silent, so no recovery
            # telemetry is written -- the detector must catch the later
            # checkpoint-skipped restore.
            runlog = current_run_logger()
            if runlog is not None:
                runlog.fault("corrupt-checkpoint", iteration,
                             expect="checkpoint",
                             file=spec.file, mode=spec.mode)

    def _recover(self, failure: RankFailureError,
                 report: ChaosReport,
                 parallel: ParallelConfig,
                 schedule: str) -> tuple[PTDTrainer, ParallelConfig, str]:
        report.records.append(RecoveryRecord(
            "rank-failure", failure.iteration,
            f"rank {failure.rank}"
            + (" (permanent)" if failure.permanent else ""),
        ))
        runlog = current_run_logger()
        if failure.permanent and self.allow_reshard:
            new_parallel = shrink_parallel(self.config, parallel)
            if new_parallel is not parallel:
                parallel = new_parallel
                schedule = "1f1b"
                report.resharded = True
                report.records.append(RecoveryRecord(
                    "reshard", failure.iteration, parallel.describe()
                ))
                if runlog is not None:
                    runlog.recovery("reshard", failure.iteration,
                                    parallel.describe())
        with obs_span("restore", phase="chaos.restore",
                      iteration=failure.iteration):
            trainer = self._make_trainer(parallel, schedule)
            try:
                result = self.store.restore(trainer)
            except CheckpointNotFoundError:
                # Nothing usable on disk: restart the run from scratch
                # (deterministic init, so the rerun is still exact).
                trainer.close()
                trainer = self._make_trainer(parallel, schedule)
                report.records.append(RecoveryRecord(
                    "restart-from-scratch", failure.iteration
                ))
                if runlog is not None:
                    runlog.recovery(
                        "restart-from-scratch", failure.iteration
                    )
                return trainer, parallel, schedule
        for iteration, reason in result.skipped:
            report.skipped_checkpoints += 1
            report.records.append(RecoveryRecord(
                "checkpoint-skipped", iteration, reason
            ))
            if runlog is not None:
                runlog.recovery("checkpoint-skipped", iteration, reason)
        detail = ("optimizer restored" if result.optimizer_restored
                  else "optimizer reset")
        report.records.append(RecoveryRecord(
            "restore", result.iteration, detail
        ))
        if runlog is not None:
            runlog.recovery("restore", result.iteration, detail)
        return trainer, parallel, schedule

    # -- the supervised loop ------------------------------------------------
    def run(self) -> ChaosReport:
        total = self.total_iterations
        parallel, schedule = self.parallel, self.schedule
        trainer = self._make_trainer(parallel, schedule)
        losses = [float("nan")] * total
        report = ChaosReport(
            iterations=total, losses=losses, final_loss=float("nan"),
            final_state={}, final_parallel=parallel,
        )
        outer = current_run_logger()
        logging = (
            run_logging(_TelemetryFaults(outer, self.plan))
            if outer is not None else contextlib.nullcontext()
        )
        try:
            with obs_span("chaos-run", phase="chaos.run"), logging:
                while trainer.iteration < total:
                    iteration = trainer.iteration
                    ids, targets = batch_for_iteration(
                        self.config, parallel.global_batch_size,
                        self.seed, iteration,
                    )
                    try:
                        losses[iteration] = trainer.train_step(ids, targets)
                    except RankFailureError as failure:
                        report.restarts += 1
                        with obs_span("rank-failure", phase="chaos.failure",
                                      iteration=failure.iteration,
                                      rank=failure.rank):
                            pass
                        runlog = current_run_logger()
                        if runlog is not None:
                            runlog.fault(
                                "kill", failure.iteration,
                                expect="heartbeat-gap", rank=failure.rank,
                                permanent=failure.permanent,
                            )
                            alive = [r for r in range(parallel.world_size)
                                     if r != failure.rank]
                            for _ in range(self.silent_rounds):
                                runlog.heartbeat(alive, failure.iteration)
                        # Tear down the dead trainer's worker processes
                        # and shared-memory segments before respawning:
                        # a kill must not leak /dev/shm segments under
                        # the mp backend (the coop path makes this a
                        # no-op).
                        trainer.close()
                        if report.restarts > self.max_restarts:
                            raise HarnessGaveUpError(
                                f"more than {self.max_restarts} restarts"
                            ) from failure
                        trainer, parallel, schedule = self._recover(
                            failure, report, parallel, schedule
                        )
                        continue
                    boundary = (
                        trainer.iteration % self.checkpoint_every == 0
                        or trainer.iteration == total
                    )
                    if boundary:
                        path = self._save_with_retry(trainer, report)
                        self._apply_corruptions(
                            trainer.iteration, path, report
                        )
            report.final_loss = losses[-1]
            report.final_state = trainer.gather_state_dict()
            report.final_parallel = parallel
        finally:
            trainer.close()
        return report


# -- references the verify layer compares against ---------------------------


def run_baseline(
    config: GPTConfig,
    parallel: ParallelConfig,
    *,
    total_iterations: int,
    schedule: str = "1f1b",
    seed: int = 0,
    lr: float = 1e-2,
) -> tuple[list[float], dict[str, np.ndarray]]:
    """The uninterrupted run a chaos run must match bit-for-bit: same
    config, same per-iteration batches, no checkpoints, no faults."""
    trainer = PTDTrainer(config, parallel, schedule=schedule,
                         seed=seed, lr=lr)
    losses = []
    for iteration in range(total_iterations):
        ids, targets = batch_for_iteration(
            config, parallel.global_batch_size, seed, iteration
        )
        losses.append(trainer.train_step(ids, targets))
    return losses, trainer.gather_state_dict()


def run_reset_reference(
    config: GPTConfig,
    global_batch_size: int,
    *,
    total_iterations: int,
    reset_at: int,
    seed: int = 0,
    lr: float = 1e-2,
) -> tuple[list[float], dict[str, np.ndarray]]:
    """Single-rank reference for a *resharded* resume: the serial
    trajectory (:func:`~repro.nn.serial.train_serial`, one microbatch
    per sequence; no engine code) with the Adam state reset at
    ``reset_at`` (the iteration the resharded run restored from, where
    the checkpoint layer resets optimizer state)."""
    from repro.nn.serial import train_serial

    if not 0 <= reset_at <= total_iterations:
        raise ValueError(
            f"reset_at must be in [0, {total_iterations}], got {reset_at}"
        )
    batches = (
        batch_for_iteration(config, global_batch_size, seed, iteration)
        for iteration in range(total_iterations)
    )
    return train_serial(
        config, batches, seed=seed, lr=lr,
        num_microbatches=global_batch_size, reset_at=reset_at,
    )


def states_bit_equal(
    a: dict[str, np.ndarray], b: dict[str, np.ndarray]
) -> bool:
    """Exact (bit-for-bit) equality of two gathered state dicts."""
    if set(a) != set(b):
        return False
    return all(np.array_equal(a[name], b[name]) for name in a)

"""Chaos conformance: recovery must not change what training computes.

The headline guarantee of :mod:`repro.resilience.harness`, made
executable as a ``python -m repro verify`` section:

- **bit-exact resume** -- a run killed at iteration *k* and resumed
  under the same parallel configuration finishes with bit-identical
  per-iteration losses and parameters to an uninterrupted run;
- **corrupted-newest fallback** -- when the newest checkpoint is
  corrupted after commit, recovery falls back to an older verified
  checkpoint and the run is *still* bit-identical (more work re-run,
  same arithmetic);
- **commit safety** -- a save interrupted at any stage (mid-write,
  pre-commit, post-commit) never leaves the ``LATEST`` pointer naming a
  checkpoint that fails integrity verification, and never leaves a
  partial checkpoint at the target path;
- **resharded resume** -- a permanent rank loss reshards onto a
  smaller configuration; the result matches the single-rank reference
  (same trajectory, optimizer reset at the restore point) to fp64
  ring-summation tolerance.

Each check returns a list of human-readable failures (empty = pass)
so the runner can aggregate them like every other section.
"""

from __future__ import annotations

import numpy as np

from .conformance import LOSS_ATOL, LOSS_RTOL, PARAM_ATOL, PARAM_RTOL


def _tiny_model():
    from repro.config import tiny_test_model

    return tiny_test_model(num_layers=2, hidden_size=16,
                           num_attention_heads=4, vocab_size=32,
                           seq_length=8)


def _dp2(batch: int = 4):
    from repro.config import ParallelConfig

    return ParallelConfig(data_parallel_size=2, microbatch_size=1,
                          global_batch_size=batch)


def _compare_bit_exact(report, base_losses, base_state) -> list[str]:
    from repro.resilience import states_bit_equal

    failures = []
    if report.losses != base_losses:
        bad = [i for i, (a, b) in
               enumerate(zip(report.losses, base_losses)) if a != b]
        failures.append(
            f"recovered losses differ from uninterrupted run at "
            f"iterations {bad}"
        )
    if not states_bit_equal(report.final_state, base_state):
        failures.append(
            "recovered final parameters are not bit-identical to the "
            "uninterrupted run"
        )
    return failures


def check_bit_exact_resume(directory: str, *, kill_at: int = 3,
                           total: int = 6, seed: int = 0) -> list[str]:
    """Kill at ``kill_at``; the recovered run must equal the
    uninterrupted run bit for bit."""
    from repro.resilience import (
        ChaosHarness,
        ChaosPlan,
        Kill,
        run_baseline,
    )

    config, parallel = _tiny_model(), _dp2()
    plan = ChaosPlan(kills=(Kill(at_iteration=kill_at),))
    harness = ChaosHarness(
        config, parallel, directory, plan=plan, total_iterations=total,
        checkpoint_every=2, seed=seed, sleep=lambda s: None,
    )
    report = harness.run()
    failures = []
    if report.restarts != 1:
        failures.append(
            f"expected exactly 1 restart, got {report.restarts}"
        )
    base_losses, base_state = run_baseline(
        config, parallel, total_iterations=total, seed=seed
    )
    failures += _compare_bit_exact(report, base_losses, base_state)
    return failures


def check_corrupt_fallback(directory: str, *, corrupt_at: int = 4,
                           kill_at: int = 5, total: int = 8,
                           seed: int = 0) -> list[str]:
    """Corrupt the newest checkpoint, then kill: recovery must skip the
    corrupted snapshot, resume from the older verified one, and still
    finish bit-identical."""
    from repro.parallel.checkpoint import CheckpointStore
    from repro.resilience import (
        ChaosHarness,
        ChaosPlan,
        CorruptCheckpoint,
        Kill,
        run_baseline,
    )

    config, parallel = _tiny_model(), _dp2()
    plan = ChaosPlan(
        kills=(Kill(at_iteration=kill_at),),
        corruptions=(CorruptCheckpoint(at_iteration=corrupt_at),),
    )
    harness = ChaosHarness(
        config, parallel, directory, plan=plan, total_iterations=total,
        checkpoint_every=2, seed=seed, sleep=lambda s: None,
    )
    report = harness.run()
    failures = []
    if report.skipped_checkpoints < 1:
        failures.append(
            "recovery did not skip the corrupted newest checkpoint"
        )
    restored = [r for r in report.records if r.kind == "restore"]
    if not restored or restored[0].at_iteration >= corrupt_at:
        got = restored[0].at_iteration if restored else None
        failures.append(
            f"expected fallback to a checkpoint older than "
            f"{corrupt_at}, restored from {got}"
        )
    base_losses, base_state = run_baseline(
        config, parallel, total_iterations=total, seed=seed
    )
    failures += _compare_bit_exact(report, base_losses, base_state)
    # The store must still resolve LATEST to a verified checkpoint.
    store = CheckpointStore(directory)
    latest = store.latest_iteration()
    if latest is None:
        failures.append("LATEST pointer does not resolve after the run")
    return failures


def check_commit_safety(directory: str, *, seed: int = 0) -> list[str]:
    """Interrupt a commit at every stage; ``LATEST`` must always name a
    checkpoint that passes integrity verification."""
    from repro.config import ParallelConfig
    from repro.parallel import PTDTrainer
    from repro.parallel.checkpoint import (
        CheckpointStore,
        verify_checkpoint,
    )
    from repro.resilience import batch_for_iteration

    config = _tiny_model()
    parallel = ParallelConfig(microbatch_size=2, global_batch_size=4)
    trainer = PTDTrainer(config, parallel, seed=seed, lr=1e-2)

    class _Crash(RuntimeError):
        pass

    crash_stage = {"stage": None}

    def fault(iteration: int, stage: str) -> None:
        if stage == crash_stage["stage"]:
            raise _Crash(stage)

    store = CheckpointStore(directory, keep_last=4, save_fault=fault)
    failures: list[str] = []

    def step() -> None:
        ids, targets = batch_for_iteration(config, 4, seed,
                                           trainer.iteration)
        trainer.train_step(ids, targets)

    step()
    store.save(trainer)  # healthy baseline commit at iteration 1

    for stage in ("write", "pre-commit", "post-commit", "pre-latest"):
        step()
        crash_stage["stage"] = stage
        try:
            store.save(trainer)
        except _Crash:
            pass
        else:
            failures.append(f"injected crash at {stage!r} did not abort")
        crash_stage["stage"] = None
        latest = store.latest_iteration()
        if latest is None:
            failures.append(
                f"crash at {stage!r}: LATEST pointer no longer resolves"
            )
            continue
        try:
            verify_checkpoint(store.path_for(latest))
        except Exception as exc:
            failures.append(
                f"crash at {stage!r}: LATEST names step-{latest} which "
                f"fails verification: {exc}"
            )
        if stage in ("write", "pre-commit"):
            # Nothing may have been published for this iteration.
            import os

            if os.path.exists(store.path_for(trainer.iteration)):
                failures.append(
                    f"crash at {stage!r} left a partial checkpoint at "
                    f"step-{trainer.iteration}"
                )
    return failures


def check_reshard_resume(directory: str, *, kill_at: int = 3,
                         total: int = 6, seed: int = 0) -> list[str]:
    """Permanent rank loss: the resharded resume must match the
    single-rank reference (optimizer reset at the restore point) to
    fp64 tolerance."""
    from repro.resilience import (
        ChaosHarness,
        ChaosPlan,
        Kill,
        run_reset_reference,
    )

    config, parallel = _tiny_model(), _dp2()
    plan = ChaosPlan(kills=(Kill(at_iteration=kill_at, permanent=True),))
    harness = ChaosHarness(
        config, parallel, directory, plan=plan, total_iterations=total,
        checkpoint_every=2, seed=seed, sleep=lambda s: None,
    )
    report = harness.run()
    failures = []
    if not report.resharded:
        failures.append("permanent rank loss did not trigger a reshard")
        return failures
    world = (report.final_parallel.pipeline_parallel_size
             * report.final_parallel.tensor_parallel_size
             * report.final_parallel.data_parallel_size)
    if world >= 2:
        failures.append(
            f"reshard did not shrink the world: still {world} ranks"
        )
    restored = [r for r in report.records if r.kind == "restore"]
    reset_at = restored[0].at_iteration if restored else 0
    ref_losses, ref_state = run_reset_reference(
        config, parallel.global_batch_size, total_iterations=total,
        reset_at=reset_at, seed=seed,
    )
    for i in range(reset_at, total):
        if not np.isclose(report.losses[i], ref_losses[i],
                          rtol=LOSS_RTOL, atol=LOSS_ATOL):
            failures.append(
                f"iteration {i} loss {report.losses[i]!r} deviates from "
                f"the serial-reset reference {ref_losses[i]!r}"
            )
    for name, want in ref_state.items():
        got = report.final_state.get(name)
        if got is None:
            failures.append(f"resharded state is missing {name}")
        elif not np.allclose(got, want, rtol=PARAM_RTOL, atol=PARAM_ATOL):
            failures.append(
                f"parameter {name} deviates from the serial-reset "
                f"reference (max |diff|={np.max(np.abs(got - want)):.3e})"
            )
    return failures


CHAOS_CHECKS = (
    ("bit-exact-resume", check_bit_exact_resume),
    ("corrupt-fallback", check_corrupt_fallback),
    ("commit-safety", check_commit_safety),
    ("reshard-resume", check_reshard_resume),
)


def run_chaos_checks(*, fast: bool = False,
                     seed: int = 0) -> list[tuple[str, list[str]]]:
    """Run every chaos conformance check in its own temp checkpoint
    root; returns ``(name, failures)`` pairs.

    ``fast`` keeps only the two checks the CI smoke needs end-to-end
    coverage from (kill+resume and corrupt+fallback exercise the whole
    recovery path); the full run adds commit-safety and resharding.
    """
    import tempfile

    checks = CHAOS_CHECKS[:2] if fast else CHAOS_CHECKS
    results = []
    for name, check in checks:
        with tempfile.TemporaryDirectory(prefix=f"chaos-{name}-") as tmp:
            results.append((name, check(tmp, seed=seed)))
    return results

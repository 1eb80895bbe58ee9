"""Verification demo: catch three classic distributed-training bugs.

The correctness-verification subsystem (``repro.verify``) exists because
the failure modes of 3D-parallel training are silent: a schedule that
deadlocks only on real (asynchronous) ranks, two ranks disagreeing on a
collective's shape, a gradient corrupted in one data-parallel replica.
This demo plants each bug on purpose and shows the matching checker
flagging it -- then runs the clean fast suite end to end.

Run:  python examples/verification_demo.py
"""

from dataclasses import replace

import numpy as np

from repro.config import ParallelConfig, tiny_test_model
from repro.parallel import PTDTrainer
from repro.schedule import make_schedule
from repro.schedule.ir import OpKind
from repro.verify import (
    CollectiveSanitizer,
    ConformanceCase,
    run_case,
    run_verification,
    validate_schedule,
)
from repro.verify.runner import grad_perturb_defect


def banner(title: str) -> None:
    print()
    print(f"=== {title} " + "=" * max(0, 60 - len(title)))


def demo_schedule_race() -> None:
    banner("1. schedule validator: backward hoisted before its forward")
    schedule = make_schedule("1f1b", num_stages=4, num_microbatches=4)
    assert not validate_schedule(schedule)
    print("shipped 1f1b(p=4, m=4): clean")

    rank0 = list(schedule.ops[0])
    b = next(i for i, op in enumerate(rank0) if op.kind is OpKind.BACKWARD)
    f = next(i for i, op in enumerate(rank0)
             if op.kind is OpKind.FORWARD
             and op.microbatch == rank0[b].microbatch)
    rank0[f], rank0[b] = rank0[b], rank0[f]
    mutated = replace(schedule, ops=(tuple(rank0),) + schedule.ops[1:])
    for violation in validate_schedule(mutated):
        print(f"mutated: {violation.describe()}")


def demo_collective_mismatch() -> None:
    banner("2. collective sanitizer: one rank posts the wrong shape")
    config = tiny_test_model()
    trainer = PTDTrainer(
        config,
        ParallelConfig(pipeline_parallel_size=2, tensor_parallel_size=2,
                       data_parallel_size=2, microbatch_size=1,
                       global_batch_size=4),
        seed=0,
    )
    rng = np.random.default_rng(0)
    ids = rng.integers(0, config.vocab_size, size=(4, config.seq_length))
    with CollectiveSanitizer() as sanitizer:
        trainer.train_step(ids, np.roll(ids, -1, axis=1))
        # Plant the bug: rank 0 and rank 1 disagree on the next buffer.
        sanitizer.record_rank_event(0, "all_reduce", (0, 1), (5,), "float64")
        sanitizer.record_rank_event(1, "all_reduce", (0, 1), (4,), "float64")
    print(f"recorded {sanitizer.num_events} collective events "
          f"(p=2, t=2, d=2 train step + 2 injected)")
    for mismatch in sanitizer.check():
        print(mismatch.describe())


def demo_gradient_corruption() -> None:
    banner("3. conformance harness: corrupted gradient in one replica")
    case = ConformanceCase(p=2, d=2, b=1, m=2, seed=5)
    clean = run_case(case)
    print(f"clean run:     {clean.describe()}")
    with grad_perturb_defect(seed=0):  # `verify --inject grad-perturb`
        broken = run_case(case)
    print(f"perturbed run: {broken.describe()}")


def main() -> None:
    demo_schedule_race()
    demo_collective_mismatch()
    demo_gradient_corruption()

    banner("4. full fast suite (python -m repro verify --fast)")
    report = run_verification(fast=True)
    print(report.describe())
    print()
    print("all three planted bugs were caught; the clean suite passed")


if __name__ == "__main__":
    main()

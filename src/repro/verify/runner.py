"""``python -m repro verify``: run every verification layer, report, exit.

Eight sections (``SECTIONS``), each independently reportable:

- ``schedules``     -- static validation of every shipped schedule
  generator across a (p, m, v) grid, plus any user-supplied schedule
  JSON fixture (``--schedule-json``).
- ``sanitizer``     -- a real composed (p, t, d) training step under the
  collective sanitizer; any cross-rank timeline divergence fails.
- ``conformance``   -- N sampled random configurations trained against
  the single-rank baseline (``--configs``/``--seed``/``--case``).
- ``backend``       -- cross-backend conformance
  (:mod:`repro.verify.backend_check`): the multi-process shared-memory
  backend must be bit-identical to the cooperative oracle (losses,
  parameters, optimizer state, traffic log) over the same stratified
  config grid, and must leak no ``/dev/shm`` segments.
- ``conservation``  -- measured traffic bytes and FLOPs vs the §3.2 /
  eq. (3) closed forms, exact integer equality.
- ``chaos``         -- fault-tolerance conformance
  (:mod:`repro.verify.chaos_check`): a run killed and recovered by the
  chaos harness must be bit-identical to an uninterrupted run, a
  corrupted newest checkpoint must fall back to an older verified one,
  interrupted commits must never leave ``LATEST`` at an unverifiable
  checkpoint, and a resharded resume must match the single-rank
  reference at fp64 tolerance.
- ``serve``         -- serving conformance
  (:mod:`repro.verify.serve_check`): paged-KV cached decode, the
  continuous-batching engine (including under forced preemption and on
  bit-exact trace replay) and tensor-parallel decode must all produce
  token streams equal to the full-recompute ``generate`` oracle, with
  zero leaked cache blocks.
- ``serve-chaos``   -- serving fault-tolerance conformance
  (:mod:`repro.verify.serve_chaos_check`): decode crashes, KV
  corruption and allocator storms injected into the engine must leave
  every stream equal to the oracle, with typed outcomes and a
  deterministic faulted replay.

Mutation self-test (``--inject``): the verifier is itself verified by
injecting one of four known defects and demanding it is caught --
``reorder`` (a backward moved before its forward in a schedule),
``collective-shape`` (one rank posting a differently-shaped collective),
``grad-perturb`` (a silently corrupted gradient in one data-parallel
replica), ``kv-offset`` (one row of a batched decode step's K/V written
one slot off in the paged cache).  An injection that is *not* detected
is reported as a failure of the verifier, so the exit code is non-zero
either way.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field

SECTIONS = (
    "schedules", "sanitizer", "conformance", "backend", "conservation",
    "chaos", "serve", "serve-chaos",
)
INJECT_MODES = ("reorder", "collective-shape", "grad-perturb", "kv-offset")


@dataclass
class SectionResult:
    """Outcome of one verification section."""

    name: str
    checks: int = 0
    failures: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.failures


@dataclass
class VerificationReport:
    sections: list[SectionResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return all(s.ok for s in self.sections)

    @property
    def num_failures(self) -> int:
        return sum(len(s.failures) for s in self.sections)

    def describe(self) -> str:
        lines = []
        for s in self.sections:
            status = "ok" if s.ok else "FAIL"
            lines.append(f"[{status}] {s.name}: {s.checks} checks, "
                         f"{len(s.failures)} failures")
            for note in s.notes:
                lines.append(f"    {note}")
            for failure in s.failures:
                for i, fl in enumerate(failure.splitlines()):
                    lines.append(("  - " if i == 0 else "    ") + fl)
        verdict = ("verification PASSED" if self.ok else
                   f"verification FAILED ({self.num_failures} failures)")
        lines.append(verdict)
        return "\n".join(lines)


# -- sections ----------------------------------------------------------------


def _run_schedules(fast: bool, schedule_json: str | None) -> SectionResult:
    from .schedule_check import (
        check_all_generators,
        schedule_from_json,
        validate_schedule,
    )

    section = SectionResult("schedules")
    results = check_all_generators(fast=fast)
    section.checks = len(results)
    for (name, p, m, v), violations in sorted(results.items()):
        for violation in violations:
            section.failures.append(
                f"{name}(p={p}, m={m}, v={v}): {violation.describe()}"
            )
    if schedule_json is not None:
        section.checks += 1
        try:
            schedule = schedule_from_json(schedule_json)
        except ValueError as exc:
            section.failures.append(f"schedule fixture: unparseable: {exc}")
        else:
            for violation in validate_schedule(schedule):
                section.failures.append(
                    f"schedule fixture '{schedule.name}': "
                    f"{violation.describe()}"
                )
    return section


def _run_sanitizer(inject: str | None, seed: int) -> SectionResult:
    import numpy as np

    from repro.config import ParallelConfig, tiny_test_model
    from repro.parallel import PTDTrainer

    from .sanitizer import CollectiveSanitizer

    section = SectionResult("sanitizer")
    config = tiny_test_model(num_layers=2, hidden_size=16,
                             num_attention_heads=4, vocab_size=32,
                             seq_length=8)
    trainer = PTDTrainer(
        config,
        ParallelConfig(pipeline_parallel_size=2, tensor_parallel_size=2,
                       data_parallel_size=2, microbatch_size=1,
                       global_batch_size=4),
        seed=0,
    )
    rng = np.random.default_rng(seed)
    ids = rng.integers(0, config.vocab_size, size=(4, config.seq_length))
    with CollectiveSanitizer() as sanitizer:
        trainer.train_step(ids, np.roll(ids, -1, axis=1))
        if inject == "collective-shape":
            # One rank posts a differently-shaped buffer for the "same"
            # collective -- silent corruption on real ranks.
            sanitizer.record_rank_event(0, "all_reduce", (0, 1), (5,),
                                        "float64", tag="injected")
            sanitizer.record_rank_event(1, "all_reduce", (0, 1), (4,),
                                        "float64", tag="injected")
    mismatches = sanitizer.check()
    section.checks = sanitizer.num_events
    section.notes.append(
        f"{sanitizer.num_events} collective events across "
        f"{len(sanitizer.timelines)} ranks (p=2, t=2, d=2 train step)"
    )
    for mismatch in mismatches:
        section.failures.append(mismatch.describe())
    return section


def _run_conformance(fast: bool, num_cases: int, seed: int,
                     case, inject: str | None) -> SectionResult:
    from .conformance import run_case, sample_cases

    section = SectionResult("conformance")
    perturb = 1e-6 if inject == "grad-perturb" else 0.0
    if case is not None:
        cases = [case]
    elif inject == "grad-perturb":
        from .conformance import ConformanceCase

        cases = [ConformanceCase(p=2, d=2, b=1, m=2, seed=seed)]
    else:
        cases = sample_cases(num_cases, seed=seed)
    section.checks = len(cases)
    for c in cases:
        result = run_case(c, perturb_gradient=perturb)
        if not result.ok:
            detail = "\n".join(result.failures)
            section.failures.append(
                f"{c.describe()}\n{detail}\nrepro: {c.repro_string}"
            )
    return section


def _run_backend(fast: bool, num_cases: int | None, seed: int) -> SectionResult:
    """Cross-backend conformance: mp (real processes over shared
    memory) must be *bit*-identical to the coop oracle — losses,
    parameters, optimizer state and the traffic log, with no leaked
    ``/dev/shm`` segments."""
    from .backend_check import run_backend_checks

    section = SectionResult("backend")
    results = run_backend_checks(fast, num_cases, seed)
    section.checks = len(results)
    for case, failures in results:
        for failure in failures:
            section.failures.append(
                f"{case.describe()}: {failure}\nrepro: {case.repro_string}"
            )
    section.notes.append(
        f"{len(results)} configs bit-compared coop vs mp "
        "(losses, params, optimizer, traffic)"
    )
    return section


def _run_conservation(fast: bool) -> SectionResult:
    from .conservation import check_conservation, default_conservation_configs

    section = SectionResult("conservation")
    configs = default_conservation_configs(fast=fast)
    section.checks = len(configs)
    for case in configs:
        report = check_conservation(case)
        for item in report.failures:
            section.failures.append(
                f"{case.describe()}: {item.describe()}"
            )
    return section


def _run_chaos(fast: bool, seed: int) -> SectionResult:
    from .chaos_check import run_chaos_checks

    section = SectionResult("chaos")
    results = run_chaos_checks(fast=fast, seed=seed)
    section.checks = len(results)
    for name, failures in results:
        for failure in failures:
            section.failures.append(f"{name}: {failure}")
    section.notes.append(
        "recovery conformance: " + ", ".join(name for name, _ in results)
    )
    return section


def _run_serve(fast: bool, seed: int,
               inject: str | None = None) -> SectionResult:
    from .serve_check import kv_offset_defect, run_serve_checks

    section = SectionResult("serve")
    defect = (kv_offset_defect(seed) if inject == "kv-offset"
              else contextlib.nullcontext())
    with defect:
        results = run_serve_checks(fast=fast, seed=seed)
    section.checks = len(results)
    repro = ("" if inject is None else
             f"\nrepro: python -m repro verify --inject {inject} "
             f"--seed {seed}")
    for name, failures in results:
        for failure in failures:
            section.failures.append(f"{name}: {failure}{repro}")
    section.notes.append(
        "decode conformance vs the generate oracle: "
        + ", ".join(name for name, _ in results)
    )
    return section


def _run_serve_chaos(fast: bool, seed: int) -> SectionResult:
    from .serve_chaos_check import run_serve_chaos_checks

    section = SectionResult("serve-chaos")
    results = run_serve_chaos_checks(fast=fast, seed=seed)
    section.checks = len(results)
    for name, failures in results:
        for failure in failures:
            section.failures.append(f"{name}: {failure}")
    section.notes.append(
        "serving under fire: " + ", ".join(name for name, _ in results)
    )
    return section


def _run_injected_reorder(seed: int) -> SectionResult:
    """Mutate a known-good 1F1B schedule (a backward hoisted before its
    forward on rank 0) and demand the static validator flags it."""
    from dataclasses import replace

    from repro.schedule import make_schedule
    from repro.schedule.ir import OpKind

    from .schedule_check import validate_schedule

    section = SectionResult("schedules")
    schedule = make_schedule("1f1b", num_stages=4, num_microbatches=4)
    rank0 = list(schedule.ops[0])
    b_idx = next(i for i, op in enumerate(rank0)
                 if op.kind is OpKind.BACKWARD)
    f_idx = next(i for i, op in enumerate(rank0)
                 if op.kind is OpKind.FORWARD
                 and (op.microbatch, op.chunk) ==
                 (rank0[b_idx].microbatch, rank0[b_idx].chunk))
    rank0[f_idx], rank0[b_idx] = rank0[b_idx], rank0[f_idx]
    mutated = replace(
        schedule, ops=(tuple(rank0),) + schedule.ops[1:]
    )
    section.checks = 1
    for violation in validate_schedule(mutated):
        section.failures.append(
            f"1f1b(p=4, m=4, v=1) [injected reorder]: "
            f"{violation.describe()}\n"
            f"repro: python -m repro verify --inject reorder --seed {seed}"
        )
    return section


# -- entry point -------------------------------------------------------------


def run_verification(
    *,
    fast: bool = False,
    num_cases: int | None = None,
    seed: int = 0,
    schedule_json: str | None = None,
    inject: str | None = None,
    case=None,
    only: str | None = None,
) -> VerificationReport:
    """Run the requested verification sections and return the report.

    Parameters mirror the CLI flags; ``schedule_json`` is the fixture
    *text* (the CLI reads the file), ``case`` a parsed
    :class:`~repro.verify.conformance.ConformanceCase`.
    """
    if inject is not None and inject not in INJECT_MODES:
        raise ValueError(
            f"unknown injection mode {inject!r}; choose from "
            f"{', '.join(INJECT_MODES)}"
        )
    if only is not None and only not in SECTIONS:
        raise ValueError(f"unknown section {only!r}")
    if num_cases is None:
        num_cases = 6 if fast else 25

    report = VerificationReport()

    if inject == "reorder":
        report.sections.append(_run_injected_reorder(seed))
    elif inject == "collective-shape":
        report.sections.append(_run_sanitizer(inject, seed))
    elif inject == "grad-perturb":
        report.sections.append(
            _run_conformance(fast, num_cases, seed, case, inject)
        )
    elif inject == "kv-offset":
        report.sections.append(_run_serve(fast, seed, inject))
    elif case is not None:
        report.sections.append(
            _run_conformance(fast, num_cases, seed, case, None)
        )
    else:
        if only in (None, "schedules"):
            report.sections.append(_run_schedules(fast, schedule_json))
        if only in (None, "sanitizer"):
            report.sections.append(_run_sanitizer(None, seed))
        if only in (None, "conformance"):
            report.sections.append(
                _run_conformance(fast, num_cases, seed, None, None)
            )
        if only in (None, "backend"):
            report.sections.append(
                _run_backend(fast, num_cases if only == "backend" else None,
                             seed)
            )
        if only in (None, "conservation"):
            report.sections.append(_run_conservation(fast))
        if only in (None, "chaos"):
            report.sections.append(_run_chaos(fast, seed))
        if only in (None, "serve"):
            report.sections.append(_run_serve(fast, seed))
        if only in (None, "serve-chaos"):
            report.sections.append(_run_serve_chaos(fast, seed))

    if inject is not None and report.ok:
        # The injected defect was NOT caught: the verifier itself is
        # broken, which is the worst possible outcome of a self-test.
        report.sections.append(SectionResult(
            name="injection",
            checks=1,
            failures=[
                f"injected defect '{inject}' was NOT detected -- the "
                f"verifier has lost its teeth"
            ],
        ))
    return report

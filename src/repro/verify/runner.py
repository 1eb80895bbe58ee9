"""``python -m repro verify``: run the verification sections, report, exit.

``TABLE`` is the one list of sections, in run order.  A section names a
check that returns ``(label, failures)`` pairs, one pair per thing it
checked, and -- where it has one -- its *mutation*: an ``--inject`` mode
and a context manager that plants a known defect in the code the
section checks.  ``SECTIONS``, ``INJECT_MODES`` and the CLI's choices
are read from it.

- ``schedules``    every shipped generator over a (p, m, v) grid, and a
  ``--schedule-json`` fixture (:mod:`.schedule_check`);
- ``sanitizer``    cross-rank agreement of every collective of a
  p=2, t=2, d=2 training step (:mod:`.sanitizer`);
- ``conformance``  sampled configurations, or ``--case``, against the
  single-rank baseline (:mod:`.conformance`);
- ``backend``      mp bit-identical to coop (:mod:`.backend_check`);
- ``conservation`` bytes and FLOPs equal to the §3.2 / eq. (3) closed
  forms (:mod:`.conservation`);
- ``chaos``        recovery leaves training bit-identical
  (:mod:`.chaos_check`);
- ``serve``        every decode path equals the ``generate`` oracle
  (:mod:`.serve_check`);
- ``serve-chaos``  the same under injected serving faults
  (:mod:`.serve_chaos_check`).

Six sections own a mutation -- ``reorder``, ``collective-shape``,
``grad-perturb``, ``frozen-lr``, ``short-hop`` and ``kv-offset``; the
``*_defect`` functions below say what each plants.  Under ``--inject``
the owning section runs unchanged with its defect planted; every
failure then carries the one repro line that reproduces it, and a
defect the section does not catch fails the run as a verifier that has
lost its teeth.
"""

from __future__ import annotations

import contextlib
from dataclasses import dataclass, field, replace
from typing import Callable, ContextManager, NamedTuple

Pairs = list[tuple[str, list[str]]]


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


@dataclass(frozen=True)
class Options:
    """What a section's check reads: :func:`run_verification`'s flags."""

    fast: bool
    seed: int
    configs: int | None
    case: object  # a ConformanceCase, or None
    schedule_json: str | None


class Mutation(NamedTuple):
    name: str  # the ``--inject`` mode
    defect: Callable[[int], ContextManager]  # seed -> plants it while entered


@dataclass(frozen=True)
class Section:
    name: str
    check: Callable[[Options], Pairs]
    mutation: Mutation | None = None
    note: str = ""  # formatted with {checks} and {labels}


# -- checks ------------------------------------------------------------------


def _schedules(o: Options) -> Pairs:
    from .schedule_check import (
        check_all_generators,
        schedule_from_json,
        validate_schedule,
    )

    pairs = [
        (f"{name}(p={p}, m={m}, v={v})", [x.describe() for x in violations])
        for (name, p, m, v), violations
        in sorted(check_all_generators(fast=o.fast).items())
    ]
    if o.schedule_json is not None:
        try:
            schedule = schedule_from_json(o.schedule_json)
        except ValueError as exc:
            pairs.append(("schedule fixture", [f"unparseable: {exc}"]))
        else:
            pairs.append((f"schedule fixture '{schedule.name}'",
                          [x.describe() for x in validate_schedule(schedule)]))
    return pairs


def _sanitizer(o: Options) -> Pairs:
    """One pair per recorded collective event; a cross-rank mismatch is
    filed under the event where the two ranks first diverge."""
    import numpy as np

    from repro.config import ParallelConfig, tiny_test_model
    from repro.parallel import PTDTrainer

    from .sanitizer import CollectiveSanitizer

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
    rng = np.random.default_rng(o.seed)
    ids = rng.integers(0, config.vocab_size, size=(4, config.seq_length))
    with CollectiveSanitizer() as sanitizer:
        trainer.train_step(ids, np.roll(ids, -1, axis=1))
    found: dict[tuple[int, int], list[str]] = {}
    for mm in sanitizer.check():
        rank, other = ((mm.rank_a, mm.rank_b) if mm.event_a is not None
                       else (mm.rank_b, mm.rank_a))
        shared = [i for i, e in enumerate(sanitizer.timelines[rank])
                  if other in e.group]
        found.setdefault((rank, shared[mm.position]), []).append(
            mm.describe())
    return [(f"rank {rank} call #{i}", found.get((rank, i), []))
            for rank, timeline in sorted(sanitizer.timelines.items())
            for i in range(len(timeline))]


def _conformance(o: Options) -> Pairs:
    from .conformance import run_case, sample_cases

    if o.case is not None:
        cases = [o.case]
    else:
        cases = sample_cases(o.configs if o.configs is not None
                             else 6 if o.fast else 25, seed=o.seed)
    pairs = []
    for case in cases:
        failures = run_case(case).failures
        if failures:
            failures = ["\n".join(failures + [f"repro: {case.repro_string}"])]
        pairs.append((case.describe(), failures))
    return pairs


def _backend(o: Options) -> Pairs:
    from .backend_check import run_backend_checks

    return run_backend_checks(o.fast, o.configs, o.seed)


def _conservation(o: Options) -> Pairs:
    from .conservation import check_conservation, default_conservation_configs

    return [(case.describe(),
             [item.describe() for item in check_conservation(case).failures])
            for case in default_conservation_configs(fast=o.fast)]


def _chaos(o: Options) -> Pairs:
    from .chaos_check import run_chaos_checks

    return run_chaos_checks(fast=o.fast, seed=o.seed)


def _serve(o: Options) -> Pairs:
    from .serve_check import run_serve_checks

    return run_serve_checks(fast=o.fast, seed=o.seed)


def _serve_chaos(o: Options) -> Pairs:
    from .serve_chaos_check import run_serve_chaos_checks

    return run_serve_chaos_checks(fast=o.fast, seed=o.seed)


# -- defects -----------------------------------------------------------------


@contextlib.contextmanager
def _patched(owner, name: str, replacement):
    """``owner.name`` is ``replacement`` while entered."""
    real = getattr(owner, name)
    setattr(owner, name, replacement)
    try:
        yield
    finally:
        setattr(owner, name, real)


@contextlib.contextmanager
def reorder_defect(seed: int):
    """Every 1F1B schedule the generator builds has rank 0's backward of
    microbatch ``seed % m`` hoisted above its own forward."""
    from repro.schedule import generators
    from repro.schedule.ir import OpKind, ScheduleOp

    real = generators.one_f_one_b_schedule

    def hoisted(num_stages: int, num_microbatches: int):
        good = real(num_stages, num_microbatches)
        rank0 = list(good.ops[0])
        mb = seed % num_microbatches
        f = rank0.index(ScheduleOp(OpKind.FORWARD, mb))
        b = rank0.index(ScheduleOp(OpKind.BACKWARD, mb))
        rank0[f], rank0[b] = rank0[b], rank0[f]
        return replace(good, ops=(tuple(rank0),) + good.ops[1:])

    # A memoised good schedule would hide the defect, and a memoised bad
    # one must not outlive it.
    generators.make_schedule.cache_clear()
    try:
        with _patched(generators, "one_f_one_b_schedule", hoisted):
            yield
    finally:
        generators.make_schedule.cache_clear()


def collective_shape_defect(seed: int):
    """In the ``1 + seed % 32``-th collective a sanitizer records for a
    group of two or more ranks, the group's first rank records its buffer
    with one more axis than its peers do."""
    from .sanitizer import CollectiveSanitizer

    real = CollectiveSanitizer.record
    calls = 0

    def bent(self, op, ranks, shape, dtype, tag=""):
        nonlocal calls
        real(self, op, ranks, shape, dtype, tag)
        if len(ranks) > 1:
            calls += 1
            if calls == 1 + seed % 32:
                timeline = self.timelines[int(ranks[0])]
                timeline[-1] = replace(timeline[-1],
                                       shape=timeline[-1].shape + (1,))

    return _patched(CollectiveSanitizer, "record", bent)


def grad_perturb_defect(seed: int):
    """Inside every engine training step, one seeded gradient entry of
    the last data-parallel replica moves by 1e-6 just before the
    optimizer applies it.  The serial baseline does not run the engine."""
    from repro.parallel import trainer

    real = trainer.apply_update

    def bent(replicas, optimizers, spec, *rest):
        params = replicas[-1].parameters()
        params[seed % len(params)].grad.flat[0] += 1e-6
        return real(replicas, optimizers, spec, *rest)

    return _patched(trainer, "apply_update", bent)


def frozen_lr_defect(seed: int):
    """Every mp replica worker steps its optimizer at its schedule's first
    rate, ``lr_at(0)``, every iteration; the parent's coop oracle does not
    (the forked workers inherit the patch, the trainer's own
    ``apply_update`` is untouched)."""
    from repro.nn.lr_scheduler import lr_at
    from repro.parallel import mp_workers

    real = mp_workers.apply_update

    def bent(replicas, optimizers, spec, *rest):
        for opt in optimizers:
            opt.lr = lr_at(opt.lr, 0)
        return real(replicas, optimizers, spec, *rest)

    return _patched(mp_workers, "apply_update", bent)


def short_hop_defect(seed: int):
    """In every data-parallel all-gather phase, hop ``seed % hops`` of
    the ring is logged 8 bytes short of what it moved."""
    from repro.comm.primitives import Backend
    from repro.comm.traffic import TrafficKind, TrafficLog

    real = Backend.all_gather_phase

    def bent(self, flat, ranks, log=None, kind=TrafficKind.OTHER, tag=""):
        if log is None or kind is not TrafficKind.DATA_PARALLEL:
            return real(self, flat, ranks, log, kind, tag)
        moved = TrafficLog()
        real(self, flat, ranks, moved, kind, tag)
        for i, r in enumerate(moved.records):
            short = 8 if i == seed % len(moved.records) else 0
            log.add(r.src, r.dst, r.nbytes - short, r.kind, r.tag)

    return _patched(Backend, "all_gather_phase", bent)


def kv_offset_defect(seed: int):
    """In one seeded batched single-token ``PagedKVCache.append``, one
    row's newest K/V lands one position off inside its block, and its
    own position reads zero."""
    import numpy as np

    from repro.serve import PagedKVCache

    from .serve_check import ROUNDTRIP_WRITES

    real = PagedKVCache.append
    rng = np.random.default_rng(seed)
    target = int(rng.integers(1, ROUNDTRIP_WRITES + 1))
    row = int(rng.integers(0, 1 << 16))
    writes = 0

    def bent(self, handles, new_kvs=None):
        nonlocal writes
        real(self, handles, new_kvs)
        if not isinstance(handles, list) or self.block_size < 2:
            return
        writes += 1
        if writes != target:
            return
        handle = handles[row % len(handles)]
        block_index, off = divmod(handle.length - 1, self.block_size)
        slot = self.store[handle.slot]
        first = block_index * self.block_size
        slot[first + (off + 1) % self.block_size] = slot[first + off]
        slot[first + off] = 0.0

    return _patched(PagedKVCache, "append", bent)


# -- the table ---------------------------------------------------------------


TABLE = (
    Section("schedules", _schedules, Mutation("reorder", reorder_defect)),
    Section("sanitizer", _sanitizer,
            Mutation("collective-shape", collective_shape_defect),
            note="{checks} collective events of a p=2, t=2, d=2 train "
                 "step"),
    Section("conformance", _conformance,
            Mutation("grad-perturb", grad_perturb_defect)),
    Section("backend", _backend, Mutation("frozen-lr", frozen_lr_defect),
            note="{checks} checks bit-compared coop vs mp: every config's "
                 "losses, params, optimizer and traffic, and the shard "
                 "collectives"),
    Section("conservation", _conservation,
            Mutation("short-hop", short_hop_defect)),
    Section("chaos", _chaos, note="recovery conformance: {labels}"),
    Section("serve", _serve, Mutation("kv-offset", kv_offset_defect),
            note="decode conformance vs the generate oracle: {labels}"),
    Section("serve-chaos", _serve_chaos,
            note="serving under fire: {labels}"),
)
SECTIONS = tuple(s.name for s in TABLE)
INJECT_MODES = tuple(s.mutation.name for s in TABLE if s.mutation)


def _select(only, case, schedule_json, inject) -> list[Section]:
    """Every section, or the one that each flag choosing a section names;
    two flags naming different sections are an error."""
    owners = {s.mutation.name: s.name for s in TABLE if s.mutation}
    if inject is not None and inject not in owners:
        raise ValueError(
            f"unknown injection mode {inject!r}; choose from "
            f"{', '.join(INJECT_MODES)}"
        )
    if only is not None and only not in SECTIONS:
        raise ValueError(f"unknown section {only!r}")
    chosen = [(flag, name) for flag, name in (
        (f"--only {only}", only),
        ("--case", case is not None and "conformance"),
        ("--schedule-json", schedule_json is not None and "schedules"),
        (f"--inject {inject}", inject and owners[inject]),
    ) if name]
    for flag, name in chosen[1:]:
        if name != chosen[0][1]:
            raise ValueError(
                f"{chosen[0][0]} selects the {chosen[0][1]} section but "
                f"{flag} selects {name}"
            )
    return [s for s in TABLE if not chosen or s.name == chosen[0][1]]


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
    :class:`~repro.verify.conformance.ConformanceCase`, ``num_cases``
    the sample size of the conformance and backend sections.
    """
    if case is not None and num_cases is not None:
        raise ValueError("--case runs one configuration; --configs "
                         "samples them")
    sections = _select(only, case, schedule_json, inject)
    options = Options(fast, seed, num_cases, case, schedule_json)
    report = VerificationReport()
    for section in sections:
        with (section.mutation.defect(seed) if inject
              else contextlib.nullcontext()):
            pairs = section.check(options)
        result = SectionResult(section.name, checks=len(pairs), failures=[
            f"{label}: {failure}" for label, failures in pairs
            for failure in failures])
        if section.note:
            result.notes.append(section.note.format(
                checks=len(pairs),
                labels=", ".join(label for label, _ in pairs)))
        if inject:
            # One repro line per failure, the one that plants the defect
            # again: a section's own (a --case line) would exit 0.
            repro = (f"repro: python -m repro verify --inject {inject} "
                     f"--seed {seed}")
            result.failures = [f.split("\nrepro: ")[0] + "\n" + repro
                               for f in result.failures]
        report.sections.append(result)

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

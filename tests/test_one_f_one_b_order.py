"""The 1F1B generator's closed-form completion order against the walk.

``one_f_one_b_schedule`` attaches its schedule's completion order,
computed in closed form, so a generated 1F1B schedule is never walked.
These tests hold that order to ``repro.schedule.execution._walk`` (the
whole ``CompletionOrder``, ``==``) and to the per-op walk kept in
``tests/reference_walk.py`` on every (p, m) with p <= 24 and m <= 80,
every Table-1 row and every 1F1B candidate the autotuner meets on
Table-1 rows 0-9.  A planted off-by-one in the pass formula turns both
this comparison and ``repro verify --only schedules`` red, and a copy of
a generated schedule -- replaced, renamed or loaded from JSON -- carries
no order and is walked.
"""

from dataclasses import replace

from repro.config import TABLE1_ROWS
from repro.perf import enumerate_configs
from repro.schedule import (
    completion_order,
    execution,
    generators,
    make_schedule,
    one_f_one_b_schedule,
)
from repro.verify import run_verification, schedule_from_json, schedule_to_json

from . import reference_walk

GRID = [(p, m) for p in range(1, 25) for m in range(1, 81)]
TABLE1 = sorted({(row.parallel.p, row.parallel.num_microbatches)
                 for row in TABLE1_ROWS})


def off_by_one(j, p):
    """The planted defect: ``floor((j - 1) / p)`` read as ``floor(j / p)``."""
    return j - j // p


def searched():
    """Every 1F1B (p, m) the autotuner enumerates for Table-1 rows 0-9."""
    return sorted({
        (parallel.p, parallel.num_microbatches)
        for row in TABLE1_ROWS[:10]
        for parallel, options in enumerate_configs(
            row.model, row.num_gpus, row.parallel.global_batch_size)
        if options.schedule_name == "1f1b"
    })


def mismatches(cases):
    """Yield ``(p, m, what)`` for every case whose closed-form order is
    not exactly the walk's, lazily, so a red run can stop at its first."""
    for p, m in cases:
        schedule = one_f_one_b_schedule(p, m)  # built here, not memoised
        order = completion_order(schedule)
        if not all(type(field) is tuple and all(type(x) is int for x in field)
                   for field in order):
            yield p, m, "a field is not a tuple of Python ints"
        if order != execution._walk(schedule):
            yield p, m, "differs from _walk"
        elif reference_walk.execute(schedule) != [
                (rank, schedule.ops[rank][index])
                for rank, index in zip(order.rank, order.index)]:
            yield p, m, "differs from the reference walk"


def test_every_small_pipeline():
    assert list(mismatches(GRID)) == []


def test_every_table1_row():
    assert list(mismatches(TABLE1)) == []


def test_every_searched_1f1b_candidate():
    cases = searched()
    assert len(cases) == 165
    assert list(mismatches(cases)) == []


def test_planted_off_by_one_turns_the_comparison_red(monkeypatch):
    monkeypatch.setattr(generators, "_steady_pass", off_by_one)
    assert next(mismatches(GRID), None) == (1, 1, "differs from _walk")


def test_verify_catches_the_planted_off_by_one(monkeypatch):
    assert run_verification(only="schedules").ok
    monkeypatch.setattr(generators, "_steady_pass", off_by_one)
    make_schedule.cache_clear()  # drop the good schedules and their orders
    try:
        report = run_verification(only="schedules")
    finally:
        make_schedule.cache_clear()
    (section,) = report.sections
    assert not report.ok
    assert section.failures
    assert all("[order]" in failure for failure in section.failures)
    assert all(failure.startswith("1f1b(") for failure in section.failures)


def test_copies_of_a_generated_schedule_are_walked(monkeypatch):
    walked = []
    walk = execution._walk
    monkeypatch.setattr(
        execution, "_walk",
        lambda schedule: walked.append(schedule) or walk(schedule))
    good = one_f_one_b_schedule(4, 8)
    order = completion_order(good)
    assert walked == []  # attached by the generator
    copies = (replace(good), replace(good, name="1f1b-copy"),
              schedule_from_json(schedule_to_json(good)))
    for copy in copies:
        assert completion_order(copy) == order
        assert completion_order(copy) is not order
    assert [id(s) for s in walked] == [id(s) for s in copies]

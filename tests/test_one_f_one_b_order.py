"""The 1F1B generator's closed-form completion order against the walk.

``one_f_one_b_schedule`` attaches its schedule's completion order,
computed in closed form, so a generated 1F1B schedule is never walked.
These tests hold that order to ``repro.schedule.execution._walk`` (the
whole ``CompletionOrder``, ``==``) and to the per-op walk kept in
``tests/reference_walk.py`` on every Table-1 row and on a seeded sample
of every (p, m) with p <= 24 and m <= 80 and of the 1F1B candidates the
autotuner meets on Table-1 rows 0-9 (``tests/exhaustive_orders.py`` runs
all of them).  A planted off-by-one in the pass formula turns both this
comparison and ``repro verify --only schedules`` red, and a copy of a
generated schedule -- replaced, renamed or loaded from JSON -- carries
no order and is walked.
"""

from dataclasses import replace

from repro.schedule import (
    completion_order,
    execution,
    generators,
    make_schedule,
    one_f_one_b_schedule,
)
from repro.verify import run_verification, schedule_from_json, schedule_to_json

from .order_cases import (
    mismatches,
    sample,
    searched,
    small_grid,
    steady_pass_off_by_one,
    table1,
)


def test_a_seeded_sample_of_small_pipelines():
    assert list(mismatches(sample(small_grid("1f1b"), 160))) == []


def test_every_table1_row():
    assert list(mismatches(table1("1f1b"))) == []


def test_a_seeded_sample_of_searched_1f1b_candidates():
    cases = searched("1f1b")
    assert len(cases) == 165
    assert list(mismatches(sample(cases, 12))) == []


def test_planted_off_by_one_turns_the_comparison_red(monkeypatch):
    monkeypatch.setattr(generators, "_steady_pass", steady_pass_off_by_one)
    assert next(mismatches(small_grid("1f1b")), None) == (
        "1f1b", 1, 1, 1, "differs from _walk")


def test_verify_catches_the_planted_off_by_one(monkeypatch):
    assert run_verification(only="schedules").ok
    monkeypatch.setattr(generators, "_steady_pass", steady_pass_off_by_one)
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

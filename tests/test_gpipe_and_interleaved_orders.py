"""GPipe's, interleaved 1F1B's and interleaved GPipe's attached
completion orders against the walk.

Like the 1F1B generator (``tests/test_one_f_one_b_order.py``), each of
these generators attaches its schedule's completion order, computed
from a pass formula, so the autotuner's searches walk no schedule:
GPipe's closed form serves every all-forwards-then-all-backwards
program (GPipe, interleaved GPipe, and interleaved 1F1B at m = p, where
every rank warms up through all m v forwards), and interleaved 1F1B at
m > p derives every op's pass from its last rank's.  These tests hold
the attached order to ``repro.schedule.execution._walk`` and to
``tests/reference_walk.py`` on every Table-1 row and on a seeded sample
of each family's small grid and of the (p, m, v) the autotuner meets on
Table-1 rows 0-9 (``tests/exhaustive_orders.py`` runs all of them).  A
planted off-by-one in each pass formula turns the comparison and
``repro verify --only schedules`` red, naming the schedules that
formula serves, and copies of a generated schedule are walked.
"""

from dataclasses import replace

import pytest

from repro.schedule import completion_order, execution, generators, make_schedule
from repro.verify import run_verification, schedule_from_json, schedule_to_json

from .order_cases import BUILD, PLANTED, mismatches, sample, searched, small_grid, table1

FAMILIES = ("gpipe", "interleaved", "interleaved-gpipe")


@pytest.mark.parametrize("name", FAMILIES)
def test_every_table1_row(name):
    cases = table1(name)
    assert len(cases) == (8 if name == "gpipe" else 6)
    assert list(mismatches(cases)) == []


@pytest.mark.parametrize("name", FAMILIES)
def test_a_seeded_sample_of_small_pipelines(name):
    cases = small_grid(name)
    assert list(mismatches(sample(cases, 60))) == []


@pytest.mark.parametrize("name", FAMILIES)
def test_a_seeded_sample_of_searched_candidates(name):
    cases = searched(name)
    assert len(cases) == (165 if name == "gpipe" else 75)
    assert list(mismatches(sample(cases, 8))) == []


def test_interleaved_at_m_equal_p_runs_gpipe_s_program():
    """At m = p every rank's warm-up is all m v forwards, so the
    interleaved 1F1B schedule is interleaved GPipe's program, and its
    order is GPipe's formula's."""
    for p, v in ((2, 2), (4, 3), (8, 2)):
        ones = generators.interleaved_schedule(p, p, v)
        gpipe = generators.interleaved_gpipe_schedule(p, p, v)
        assert ones.ops == gpipe.ops
        assert completion_order(ones) == completion_order(gpipe)
    assert list(mismatches([("interleaved", p, p, v)
                            for p in range(2, 13) for v in (2, 3, 4)])) == []


@pytest.mark.parametrize("name", FAMILIES)
def test_planted_off_by_one_turns_the_comparison_red(name, monkeypatch):
    attribute, planted, _ = PLANTED[name]
    monkeypatch.setattr(generators, attribute, planted)
    first = next(mismatches(small_grid(name)), None)
    assert first is not None and first[0] == name
    assert first[-1] == "differs from _walk"


@pytest.mark.parametrize("name", FAMILIES)
def test_verify_catches_the_planted_off_by_one(name, monkeypatch):
    attribute, planted, serves = PLANTED[name]
    monkeypatch.setattr(generators, attribute, planted)
    make_schedule.cache_clear()  # drop the good schedules and their orders
    try:
        report = run_verification(only="schedules")
    finally:
        make_schedule.cache_clear()
    (section,) = report.sections
    assert not report.ok
    assert all("[order]" in failure for failure in section.failures)
    named = {failure.partition("(")[0] for failure in section.failures}
    assert name in named and named <= serves
    if serves != {"interleaved"}:  # GPipe's formula: interleaved at m = p only
        for failure in section.failures:
            if failure.startswith("interleaved("):
                p = failure.partition("p=")[2].partition(",")[0]
                assert f"m={p}," in failure


@pytest.mark.parametrize("name", FAMILIES)
def test_copies_of_a_generated_schedule_are_walked(name, monkeypatch):
    walked = []
    walk = execution._walk
    monkeypatch.setattr(
        execution, "_walk",
        lambda schedule: walked.append(schedule) or walk(schedule))
    good = BUILD[name](4, 8, 2)
    order = completion_order(good)
    assert walked == []  # attached by the generator
    copies = (replace(good), replace(good, name=f"{name}-copy"),
              schedule_from_json(schedule_to_json(good)))
    for copy in copies:
        assert completion_order(copy) == order
        assert completion_order(copy) is not order
    assert [id(s) for s in walked] == [id(s) for s in copies]

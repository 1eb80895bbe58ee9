"""Tests for the correctness-verification subsystem (repro.verify).

Three layers of coverage:

1. each checker accepts all shipped-generator output (no false alarms);
2. each checker flags a targeted mutation (no lost teeth) -- one test
   per acceptance-criterion mutation class: reordered schedule
   dependency, mismatched collective shape, perturbed gradient;
3. the conformance harness itself, driven by hypothesis over the
   (p, t, d, v, b, m, schedule, recompute) configuration space.
"""

import json
from dataclasses import replace
from datetime import timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm.primitives import ring_all_reduce
from repro.config import ParallelConfig, tiny_test_model
from repro.parallel import PTDTrainer
from repro.schedule import make_schedule
from repro.schedule.ir import OpKind, ScheduleOp
from repro.verify import (
    CollectiveSanitizer,
    ConformanceCase,
    SanitizerError,
    ScheduleViolationError,
    assert_valid_schedule,
    check_all_generators,
    check_conservation,
    default_conservation_configs,
    in_flight_bound,
    parse_case,
    run_case,
    run_verification,
    sample_cases,
    schedule_from_json,
    schedule_to_json,
    validate_schedule,
)
from repro.verify.runner import TABLE, grad_perturb_defect
from repro.verify.schedule_check import MISSING_NAMED

MUTATED = [section for section in TABLE if section.mutation]


def _swap_ops(schedule, rank, i, j):
    """Return ``schedule`` with ops i and j of ``rank`` transposed."""
    rank_ops = list(schedule.ops[rank])
    rank_ops[i], rank_ops[j] = rank_ops[j], rank_ops[i]
    ops = list(schedule.ops)
    ops[rank] = tuple(rank_ops)
    return replace(schedule, ops=tuple(ops))


class TestScheduleValidator:
    def test_all_shipped_generators_are_clean(self):
        results = check_all_generators(fast=False)
        assert len(results) >= 40  # the full grid covers all 4 generators
        bad = {k: v for k, v in results.items() if v}
        assert not bad, bad

    def test_reordered_dependency_is_flagged(self):
        # Acceptance mutation #1: a backward hoisted before its forward.
        schedule = make_schedule("1f1b", 4, 4)
        rank0 = schedule.ops[0]
        b_idx = next(i for i, op in enumerate(rank0)
                     if op.kind is OpKind.BACKWARD)
        f_idx = next(i for i, op in enumerate(rank0)
                     if op.kind is OpKind.FORWARD
                     and op.microbatch == rank0[b_idx].microbatch)
        mutated = _swap_ops(schedule, 0, f_idx, b_idx)
        violations = validate_schedule(mutated)
        assert any(v.check == "race" for v in violations)
        with pytest.raises(ScheduleViolationError, match="race"):
            assert_valid_schedule(mutated)

    def test_p2p_reorder_is_flagged(self):
        # Swapping two forwards on one rank desynchronises the send
        # order from the downstream rank's receive order: a real-rank
        # deadlock even though local dependencies still hold.
        schedule = make_schedule("gpipe", 2, 4)
        f0 = next(i for i, op in enumerate(schedule.ops[0])
                  if op.kind is OpKind.FORWARD and op.microbatch == 0)
        f1 = next(i for i, op in enumerate(schedule.ops[0])
                  if op.kind is OpKind.FORWARD and op.microbatch == 1)
        mutated = _swap_ops(schedule, 0, f0, f1)
        violations = validate_schedule(mutated)
        assert any(v.check in ("p2p", "deadlock") for v in violations), (
            violations
        )

    def test_missing_op_is_flagged(self):
        schedule = make_schedule("gpipe", 2, 2)
        ops = list(schedule.ops)
        ops[1] = ops[1][:-1]  # drop rank 1's last backward
        mutated = replace(schedule, ops=tuple(ops))
        violations = validate_schedule(mutated)
        assert any(v.check == "completeness" for v in violations)

    def test_memory_bound_violation_is_flagged(self):
        # GPipe keeps all m microbatches in flight; relabeling it as
        # 1f1b claims the min(p - rank, m) bound and must fail.
        schedule = make_schedule("gpipe", 4, 8)
        mutated = replace(schedule, name="1f1b")
        violations = validate_schedule(mutated)
        assert any(v.check == "memory" for v in violations)

    def test_1f1b_bound_is_tight(self):
        schedule = make_schedule("1f1b", 4, 8)
        assert [in_flight_bound(schedule, r) for r in range(4)] == [4, 3, 2, 1]

    def test_json_round_trip(self):
        schedule = make_schedule("interleaved", 2, 4, 2)
        again = schedule_from_json(schedule_to_json(schedule))
        assert again == schedule
        assert not validate_schedule(again)

    @pytest.mark.parametrize("text", [
        "not json at all",
        "{}",
        '{"name": "x", "num_stages": 1, "num_microbatches": 1, '
        '"num_chunks": 1, "ops": [[["Q", 0, 0]]]}',
        pytest.param('{"name": "x", "num_stages": Infinity, '
                     '"num_microbatches": 1, "num_chunks": 1, "ops": []}',
                     id="infinite-size"),  # was an OverflowError
        pytest.param("[" * 100_000, id="deeply-nested"),  # a RecursionError
    ])
    def test_malformed_json_raises_value_error(self, text):
        with pytest.raises(ValueError):
            schedule_from_json(text)

    def test_a_large_declared_iteration_is_counted_not_listed(self):
        """A fixture that lists two ops of a 10^9-microbatch iteration is
        judged in O(ops listed): the first missing ops are named, the
        rest counted in one line (it took 12 s and listed 1 999 998)."""
        text = ('{"name": "x", "num_stages": 1, "num_microbatches": '
                '1000000000, "num_chunks": 1, "ops": [[["F", 0, 0], '
                '["B", 0, 0]]]}')
        violations = validate_schedule(schedule_from_json(text))
        assert len(violations) == MISSING_NAMED + 1
        assert all(v.check == "completeness" for v in violations)
        assert [v.message for v in violations[:3]] == [
            "missing B1.0", "missing F1.0", "missing B2.0"]
        assert violations[-1].message == (
            f"... and {2 * 10**9 - 2 - MISSING_NAMED} more missing")
        report = run_verification(fast=True, schedule_json=text)
        (section,) = report.sections
        assert not report.ok
        assert sum("fixture" in f for f in section.failures) == len(violations)

    def test_a_few_missing_ops_are_all_named(self):
        schedule = make_schedule("interleaved", 2, 4, 2)
        ops = list(schedule.ops)
        ops[1] = ops[1][:3]  # rank 1 keeps three of its sixteen ops
        violations = validate_schedule(replace(schedule, ops=tuple(ops)))
        missing = [v.message for v in violations if v.rank == 1]
        assert len(missing) == 2 * 4 * 2 - 3 < MISSING_NAMED
        assert missing[0] == "missing B0.0"
        assert not any("more missing" in message for message in missing)


_SCALAR = st.one_of(
    st.none(), st.booleans(), st.floats(), st.text(max_size=3),
    st.integers(-2, 6), st.integers(-2, 10**12))
_OP = st.one_of(
    st.tuples(st.sampled_from(["F", "B", "Q"]), st.integers(-1, 5),
              st.integers(-1, 3)).map(list),
    st.lists(_SCALAR, max_size=4), _SCALAR)
_SCHEDULE = st.fixed_dictionaries({
    "name": st.one_of(st.sampled_from(
        ["gpipe", "1f1b", "interleaved", "interleaved-gpipe", "x"]), _SCALAR),
    "num_stages": st.one_of(st.integers(1, 3), _SCALAR),
    "num_microbatches": st.one_of(st.integers(1, 4), _SCALAR),
    "num_chunks": st.one_of(st.integers(1, 3), _SCALAR),
    "ops": st.one_of(st.lists(st.lists(_OP, max_size=12), min_size=1,
                              max_size=3), _SCALAR),
})
_JSON = st.recursive(_SCALAR, lambda inner: st.lists(inner, max_size=4)
                     | st.dictionaries(st.text(max_size=4), inner, max_size=4),
                     max_leaves=12)


class TestScheduleJsonProperty:
    @settings(max_examples=400, deadline=timedelta(seconds=5))
    @given(st.one_of(st.text(max_size=60), _JSON.map(json.dumps),
                     _SCHEDULE.map(json.dumps)))
    def test_any_json_validates_or_raises_a_value_error(self, text):
        """``--schedule-json``'s two steps on any text: each returns or
        raises ``ValueError``, in bounded time whatever iteration the
        text declares (up to 10^12 microbatches or chunks here)."""
        try:
            violations = validate_schedule(schedule_from_json(text))
        except ValueError:
            return
        assert all(v.check for v in violations)


class TestCollectiveSanitizer:
    def test_engine_train_step_is_clean(self):
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
        with CollectiveSanitizer() as san:
            trainer.train_step(ids, np.roll(ids, -1, axis=1))
        assert san.num_events > 0
        assert san.check() == []
        san.assert_clean()

    def test_primitives_record_while_active(self):
        with CollectiveSanitizer() as san:
            ring_all_reduce([np.ones(4), np.ones(4)], [0, 1])
        assert san.num_events == 2  # one event per group rank
        assert {e.op for t in san.timelines.values() for e in t} == {
            "all_reduce"
        }

    def test_inactive_sanitizer_records_nothing(self):
        san = CollectiveSanitizer()
        ring_all_reduce([np.ones(4), np.ones(4)], [0, 1])
        assert san.num_events == 0

    def test_shape_mismatch_is_flagged(self):
        # Acceptance mutation #2: one rank posts a different shape.
        with CollectiveSanitizer() as san:
            san.record_rank_event(0, "all_reduce", (0, 1), (5,), "float64")
            san.record_rank_event(1, "all_reduce", (0, 1), (4,), "float64")
        mismatches = san.check()
        assert len(mismatches) == 1
        assert "shape mismatch" in mismatches[0].reason
        with pytest.raises(SanitizerError, match="shape mismatch"):
            san.assert_clean()

    def test_order_mismatch_is_flagged(self):
        with CollectiveSanitizer() as san:
            san.record_rank_event(0, "all_reduce", (0, 1), (4,), "float64")
            san.record_rank_event(0, "all_gather", (0, 1), (8,), "float64")
            san.record_rank_event(1, "all_gather", (0, 1), (8,), "float64")
            san.record_rank_event(1, "all_reduce", (0, 1), (4,), "float64")
        mismatches = san.check()
        assert mismatches and "order mismatch" in mismatches[0].reason

    def test_unmatched_collective_is_flagged(self):
        with CollectiveSanitizer() as san:
            san.record("all_reduce", (0, 1), (4,), "float64")
            san.record_rank_event(0, "all_reduce", (0, 1), (4,), "float64")
        mismatches = san.check()
        assert mismatches and "unmatched" in mismatches[0].reason

    def test_disjoint_groups_do_not_interact(self):
        with CollectiveSanitizer() as san:
            san.record("all_reduce", (0, 1), (4,), "float64")
            san.record("all_gather", (2, 3), (8,), "float64")
        assert san.check() == []


class TestConformance:
    def test_case_round_trips_through_repro_string(self):
        case = ConformanceCase(p=2, t=2, d=2, v=1, b=2, m=2,
                               schedule="gpipe", recompute=True, seed=77)
        assert parse_case(case.key()) == case
        assert case.key() in case.repro_string

    @pytest.mark.parametrize("text", [
        "p=2,q=1",          # unknown field
        "p",                # no '='
        "p=2,t=1,zero=1",   # zero needs p=t=v=1
    ])
    def test_parse_case_rejects_malformed(self, text):
        with pytest.raises(ValueError):
            parse_case(text)

    def test_sampled_cases_are_deterministic_and_valid(self):
        a = sample_cases(25, seed=3)
        b = sample_cases(25, seed=3)
        assert a == b
        for case in a:
            parse_case(case.key())  # validity = parses without error

    def test_perturbed_gradient_is_flagged_with_repro_string(self):
        # Acceptance mutation #3: silent gradient corruption.
        case = ConformanceCase(p=2, d=2, b=1, m=2, seed=5)
        with grad_perturb_defect(seed=0):
            result = run_case(case)
        assert not result.ok
        assert any("diverged" in f or "deviates" in f
                   for f in result.failures)
        assert "python -m repro verify --case" in result.describe()

    def test_zero3_case_matches_serial(self):
        result = run_case(ConformanceCase(d=2, b=2, zero=True, seed=9))
        assert result.ok, result.describe()

    @settings(max_examples=8, deadline=None)
    @given(
        p=st.sampled_from([1, 2]),
        t=st.sampled_from([1, 2]),
        d=st.sampled_from([1, 2]),
        interleave=st.booleans(),
        m_factor=st.sampled_from([1, 2]),
        recompute=st.booleans(),
        seed=st.integers(min_value=0, max_value=2**16),
    )
    def test_random_configs_conform(self, p, t, d, interleave, m_factor,
                                    recompute, seed):
        v = 2 if (interleave and p > 1) else 1
        schedule = "interleaved" if v > 1 else "1f1b"
        m = p * m_factor if v > 1 else m_factor * 2
        case = ConformanceCase(p=p, t=t, d=d, v=v, b=1, m=m,
                               schedule=schedule, recompute=recompute,
                               seed=seed)
        result = run_case(case)
        assert result.ok, result.describe()


class TestOracleIndependence:
    def test_serial_references_run_no_engine_code(self, monkeypatch):
        """The conformance baseline and the chaos harness's resharded
        reference still run with the pipeline engine broken: a defect in
        the engine cannot also sit in the reference it is held to."""
        from repro.parallel import PipelineParallelGPT
        from repro.resilience.harness import run_reset_reference
        from repro.verify import conformance

        def broken(*args, **kwargs):
            raise AssertionError("the engine ran")

        monkeypatch.setattr(PipelineParallelGPT, "run_iteration", broken)
        case = ConformanceCase(p=2, d=2, m=2)
        config = conformance.model_for_case(case)
        ids, targets = conformance._batch(case, config)
        state, losses = conformance._baseline(config, case, ids, targets, 1e-2)
        assert len(losses) == case.iterations and state
        losses, state = run_reset_reference(
            config, 4, total_iterations=3, reset_at=1)
        assert len(losses) == 3 and state
        with pytest.raises(AssertionError, match="the engine ran"):
            run_case(case)


class TestConservation:
    def test_default_grid_is_exact(self):
        for case in default_conservation_configs():
            report = check_conservation(case)
            assert not report.failures, [i.describe() for i in report.failures]

    def test_flags_zero_case(self):
        # 3 (d-1) * 8 * P DP bytes, with 3 not dividing P
        report = check_conservation(ConformanceCase(d=3, zero=True))
        assert not report.failures, [i.describe() for i in report.failures]
        assert "dp.bytes" in {item.name for item in report.items}

    def test_report_names_each_quantity(self):
        report = check_conservation(
            default_conservation_configs(fast=True)[0]
        )
        names = {item.name for item in report.items}
        assert {"dp.bytes", "pp.bytes", "flops"} <= names
        assert any(n.startswith("tp.bytes[") for n in names)


class TestRunner:
    def test_fast_run_passes(self):
        report = run_verification(fast=True)
        assert report.ok, report.describe()
        assert [s.name for s in report.sections] == [
            "schedules", "sanitizer", "conformance", "backend",
            "conservation", "chaos", "serve", "serve-chaos",
        ]
        assert "verification PASSED" in report.describe()

    @pytest.mark.parametrize("mode", [s.mutation.name for s in MUTATED])
    def test_each_injection_is_caught(self, mode):
        (owner,) = [s for s in MUTATED if s.mutation.name == mode]
        report = run_verification(inject=mode, fast=True, seed=3)
        (section,) = report.sections
        assert section.name == owner.name
        assert section.failures
        repro = f"repro: python -m repro verify --inject {mode} --seed 3"
        for failure in section.failures:
            assert failure.endswith("\n" + repro)
            assert failure.count("repro: ") == 1
        # ... and the defect was planted for that run only
        assert run_verification(fast=True, only=owner.name).ok

    def test_every_section_but_four_owns_a_mutation(self):
        # Each of these is a section no --inject mode proves able to
        # fail; a new section lands with its mutation.
        assert {s.name for s in TABLE if s.mutation is None} == {
            "chaos", "serve-chaos",
        }

    def test_an_uncaught_defect_fails_as_lost_teeth(self, monkeypatch):
        from contextlib import nullcontext

        from repro.verify import runner

        harmless = replace(TABLE[0], mutation=runner.Mutation(
            "reorder", lambda seed: nullcontext()))
        monkeypatch.setattr(runner, "TABLE", (harmless,) + TABLE[1:])
        report = run_verification(inject="reorder", fast=True)
        assert [s.name for s in report.sections] == ["schedules", "injection"]
        assert "lost its teeth" in report.sections[-1].failures[0]

    def test_unknown_injection_rejected(self):
        with pytest.raises(ValueError, match="injection"):
            run_verification(inject="bitflip")

    @pytest.mark.parametrize("flags, named", [
        ({"only": "serve", "inject": "reorder"},
         ("--only serve", "--inject reorder")),
        ({"only": "chaos", "case": ConformanceCase()},
         ("--only chaos", "--case")),
        ({"schedule_json": "{}", "case": ConformanceCase()},
         ("--case", "--schedule-json")),
        ({"schedule_json": "{}", "inject": "kv-offset"},
         ("--schedule-json", "--inject kv-offset")),
    ])
    def test_flags_choosing_different_sections_are_an_error(self, flags,
                                                           named):
        with pytest.raises(ValueError) as caught:
            run_verification(fast=True, **flags)
        assert all(flag in str(caught.value) for flag in named)

    def test_case_and_configs_are_an_error(self):
        with pytest.raises(ValueError, match="--configs"):
            run_verification(case=ConformanceCase(), num_cases=3)

    def test_flags_choosing_the_same_section_agree(self):
        case = ConformanceCase(p=2, d=2, b=1, m=2, seed=5)
        report = run_verification(inject="grad-perturb", case=case,
                                  only="conformance")
        (section,) = report.sections
        assert (section.name, section.checks) == ("conformance", 1)
        assert not section.ok

    def test_configs_has_one_meaning(self):
        # Alone, the backend section samples what it does in a whole
        # --fast run; --configs sizes its sample as it does conformance's.
        # Either way one more check compares the shard collectives.
        (alone,) = run_verification(fast=True, only="backend").sections
        assert alone.checks == 4 + 1
        (sized,) = run_verification(fast=True, only="backend",
                                    num_cases=2).sections
        assert sized.checks == 2 + 1 + 1  # and the composed d>1 case it adds

    def test_corrupted_schedule_fixture_fails(self):
        schedule = make_schedule("gpipe", 2, 2)
        ops = list(schedule.ops)
        rank_ops = list(ops[0])
        # Duplicate a forward in place of the backward: both
        # completeness (duplicate + missing) and local checks trip.
        rank_ops[-1] = ScheduleOp(OpKind.FORWARD, 0, 0)
        ops[0] = tuple(rank_ops)
        text = schedule_to_json(replace(schedule, ops=tuple(ops)))
        report = run_verification(fast=True, schedule_json=text)
        assert not report.ok
        assert any("fixture" in f for s in report.sections
                   for f in s.failures)

    def test_single_section(self):
        report = run_verification(fast=True, only="schedules")
        assert [s.name for s in report.sections] == ["schedules"]
        assert report.ok

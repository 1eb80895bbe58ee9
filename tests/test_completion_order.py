"""The compiled completion order against the per-op walk it replaced.

``repro.schedule.completion_order`` walks a schedule once and every
consumer (``execute``, ``simulate_times``, ``simulate_iteration``,
``check_deadlock``) iterates the result.  These tests hold it to the old
per-op walk (``tests/reference_walk.py``) with exact ``==``, and pin the
two properties the cache must have: it never serves a tampered schedule
the order of the good one it was derived from, and a sweep walks each
distinct schedule exactly once.
"""

import random
from dataclasses import replace

import pytest

from repro.config import GPTConfig, ParallelConfig
from repro.perf import autotune, enumerate_configs
from repro.schedule import (
    DeadlockError,
    OpKind,
    PipelineSchedule,
    ScheduleOp,
    completion_order,
    execute,
    execution,
    make_schedule,
    simulate_times,
)
from repro.sim import SimOptions
from repro.verify import runner
from repro.verify.schedule_check import (
    check_deadlock,
    generator_grid,
    validate_schedule,
)

from . import reference_walk, test_robustness

# 144 layers split evenly over every p * v of the grid below.
MODEL = GPTConfig(num_layers=144, hidden_size=512, num_attention_heads=8,
                  vocab_size=1024, seq_length=256, name="differential")
TOGGLES = (
    {"overlap_p2p": True},
    {"scatter_gather": False},
    {"recompute_activations": False},
    {"compute_slowdown": 1.7},
    {"bandwidth_derate": 0.6},
)


def schedule_grid():
    """Four schedule kinds x p x m (multiples and non-multiples of p
    where the kind allows them) x v."""
    for p in (1, 2, 3, 4, 8):
        for name in ("gpipe", "1f1b"):
            for m in (1, 2, 3, 5, 8, 12):
                yield name, p, m, 1
        for name in ("interleaved", "interleaved-gpipe"):
            for m in (1, 5, p, 3 * p):
                yield name, p, m, 1  # degenerates to 1f1b / gpipe
            if p >= 2:
                for v in (2, 3):
                    for m in (p, 2 * p, 3 * p):
                        yield name, p, m, v


def simulation_cases(seed=18):
    """Each schedule of the grid with a seeded draw of t, d, b and of the
    option toggles that reach the timing loop (plus each toggle alone)."""
    rng = random.Random(seed)
    for index, (name, p, m, v) in enumerate(schedule_grid()):
        t, d, b = rng.choice((1, 2)), rng.choice((1, 2)), rng.choice((1, 2))
        if p * t * d > 8 and p * t * d % 8:  # whole DGX nodes only
            d = 1
        toggles = {}
        for toggle in rng.sample(TOGGLES, rng.randrange(len(TOGGLES) + 1)):
            toggles.update(toggle)
        if index < len(TOGGLES):
            toggles = TOGGLES[index]
        yield pytest.param(
            name, (p, t, d, b, m, v), toggles,
            id=f"{name}-p{p}t{t}d{d}b{b}m{m}v{v}-" + "+".join(toggles),
        )


@pytest.mark.parametrize("name, sizes, toggles", simulation_cases())
def test_simulate_iteration_equals_per_op_walk(name, sizes, toggles):
    p, t, d, b, m, v = sizes
    parallel = ParallelConfig(
        pipeline_parallel_size=p, tensor_parallel_size=t,
        data_parallel_size=d, microbatch_size=b,
        global_batch_size=m * b * d, num_model_chunks=v,
    )
    reference_walk.assert_simulation_matches(
        MODEL, parallel, SimOptions(schedule_name=name, **toggles)
    )


@pytest.mark.parametrize("name, p, m, v", generator_grid())
def test_execute_and_simulate_times_equal_per_op_walk(name, p, m, v):
    schedule = make_schedule(name, p, m, v)
    assert execute(schedule) == reference_walk.execute(schedule)
    seen = []
    assert execute(schedule, lambda rank, op: seen.append((rank, op))) == seen
    for args in ((), (1.0, 2.0, 0.25), (0.3, 0.7, 0.1)):
        timeline = simulate_times(schedule, *args)
        assert [(w.rank, w.op, w.start, w.end) for w in timeline.ops] == (
            reference_walk.simulate_times(schedule, *args)
        )


def test_order_describes_each_op_and_its_dependencies():
    schedule = make_schedule("interleaved", 2, 4, 2)
    order = completion_order(schedule)
    ops = [schedule.ops[r][i] for r, i in zip(order.rank, order.index)]
    last = schedule.total_stages - 1
    for k, op in enumerate(ops):
        assert order.stage[k] == schedule.global_stage(order.rank[k], op.chunk)
        assert (order.kind[k] == 1) == (op.kind is OpKind.BACKWARD)
        waits = [(ops[dep - 1].kind, ops[dep - 1].microbatch, order.stage[dep - 1])
                 for dep in (order.dep_a[k], order.dep_b[k]) if dep]
        assert all(dep <= k for dep in (order.dep_a[k], order.dep_b[k]))
        if op.kind is OpKind.FORWARD:
            want = [(OpKind.FORWARD, op.microbatch, order.stage[k] - 1)]
            want = want if order.stage[k] else []
        else:
            want = [(OpKind.FORWARD, op.microbatch, order.stage[k])]
            if order.stage[k] < last:
                want.append((OpKind.BACKWARD, op.microbatch, order.stage[k] + 1))
        assert waits == want


# -- cache safety -------------------------------------------------------------

def _inject_reorder(schedule: PipelineSchedule) -> PipelineSchedule:
    """``repro verify --inject reorder``: rank 0's first backward swapped
    with its own forward, via ``dataclasses.replace``."""
    rank0 = list(schedule.ops[0])
    b_idx = next(i for i, op in enumerate(rank0) if op.kind is OpKind.BACKWARD)
    f_idx = next(i for i, op in enumerate(rank0)
                 if op.kind is OpKind.FORWARD
                 and op.microbatch == rank0[b_idx].microbatch)
    rank0[f_idx], rank0[b_idx] = rank0[b_idx], rank0[f_idx]
    return replace(schedule, ops=(tuple(rank0),) + schedule.ops[1:])


def _swap(schedule: PipelineSchedule, rank, i, j) -> PipelineSchedule:
    return test_robustness.TestScheduleFaults()._swap(schedule, rank, i, j)


class TestCacheSafety:
    def test_tampered_copy_of_a_compiled_schedule_is_walked_afresh(self):
        good = make_schedule("1f1b", 4, 4)
        assert len(execute(good)) == 4 * 4 * 2  # compiled and cached
        for bad in (_inject_reorder(good), _swap(good, 3, 0, 1)):
            assert (bad.num_stages, bad.num_microbatches, bad.num_chunks) == (
                good.num_stages, good.num_microbatches, good.num_chunks)
            calls = []
            with pytest.raises(DeadlockError) as caught:
                execute(bad, lambda rank, op: calls.append(op))
            assert calls == []  # raised before the first handler call
            assert caught.value.blocked
            assert "waits on" in str(caught.value)
            with pytest.raises(DeadlockError):
                simulate_times(bad)
            assert validate_schedule(bad)
        # ... and through the verify runner, which spells the call its own way
        completion_order(make_schedule("1f1b", num_stages=4, num_microbatches=4))
        assert runner._run_injected_reorder(seed=0).failures
        renamed = replace(good, name="1f1b-copy")  # same ops, new object
        assert execute(renamed) == execute(good)
        assert completion_order(renamed) is not completion_order(good)

    def test_deadlock_error_names_blocked_ops(self):
        bad = _swap(make_schedule("1f1b", 2, 4), 1, 0, 1)
        with pytest.raises(DeadlockError) as caught:
            completion_order(bad)
        blocked = {rank: (inst, dep) for rank, inst, dep in caught.value.blocked}
        assert sorted(blocked) == [0, 1]
        inst, dep = blocked[1]  # B0 hoisted above F0 on the last stage
        assert (inst.kind, inst.microbatch, inst.stage) == (OpKind.BACKWARD, 0, 1)
        assert (dep.kind, dep.microbatch, dep.stage) == (OpKind.FORWARD, 0, 1)
        assert f"rank 1: {inst} waits on {dep}" in str(caught.value)

    def test_one_diagnosis_two_wordings(self):
        """Complete, race-free, and stuck: ``execute`` and the static
        validator report the same blocked ops, in the parent's words."""
        def fwd(mb):
            return ScheduleOp(OpKind.FORWARD, mb)

        def bwd(mb):
            return ScheduleOp(OpKind.BACKWARD, mb)

        bad = PipelineSchedule(
            "gpipe", 2, 2, 1,
            ops=((fwd(0), bwd(0), fwd(1), bwd(1)),
                 (fwd(1), fwd(0), bwd(0), bwd(1))),
        )
        with pytest.raises(DeadlockError) as caught:
            execute(bad)
        assert str(caught.value) == (
            "schedule gpipe(p=2, m=2, v=1) deadlocked:\n"
            "  rank 0: B0@s0 waits on B0@s1\n"
            "  rank 1: F1@s1 waits on F1@s0"
        )
        with pytest.raises(DeadlockError, match="rank 1: F1@s1 waits on F1@s0"):
            simulate_times(bad)
        assert [v.describe() for v in check_deadlock(bad)] == [
            "[deadlock] rank 0: B0@s0 blocked forever waiting on B0@s1",
            "[deadlock] rank 1: F1@s1 blocked forever waiting on F1@s0",
        ]

    def test_make_schedule_is_memoised_and_invisible(self):
        for args in (("1f1b", 4, 8), ("interleaved", 4, 8, 2), ("gpipe", 2, 4),
                     ("interleaved-gpipe", 2, 4, 3)):
            memoised = make_schedule(*args)
            assert make_schedule(*args) is memoised
            fresh = make_schedule.__wrapped__(*args)  # the generator itself
            assert fresh is not memoised
            assert fresh == memoised and hash(fresh) == hash(memoised)
        with pytest.raises(ValueError):
            make_schedule("1f1b", 4, 8, 2)
        with pytest.raises(ValueError):  # errors are not memoised
            make_schedule("1f1b", 4, 8, 2)

    def test_generators_share_ops_across_ranks(self):
        for schedule in (make_schedule("1f1b", 4, 8),
                         make_schedule("interleaved", 4, 8, 2)):
            distinct = {id(op) for rank_ops in schedule.ops for op in rank_ops}
            assert len(distinct) == len(schedule.ops[0])


class TestWalkCount:
    SMALL = GPTConfig(num_layers=8, hidden_size=1024, num_attention_heads=16,
                      name="small-1B-ish")

    def test_sweep_walks_each_distinct_schedule_once(self, monkeypatch):
        """Counts compiled orders -- walked, or attached in closed form by
        the 1F1B generator -- at the one seam both pass through."""
        compiled = []
        attach = execution._attach
        monkeypatch.setattr(
            execution, "_attach",
            lambda schedule, order: compiled.append(schedule) or attach(
                schedule, order))
        distinct = {
            (options.schedule_name, parallel.p, parallel.num_microbatches,
             parallel.v)
            for parallel, options in enumerate_configs(self.SMALL, 16, 32)
        }
        candidates = sum(1 for _ in enumerate_configs(self.SMALL, 16, 32))
        assert len(distinct) < candidates  # the sweep does share schedules

        make_schedule.cache_clear()
        cold = autotune(self.SMALL, 16, 32, top_k=candidates)
        info = make_schedule.cache_info()
        assert info.misses == len(distinct) == len(compiled)
        assert info.hits == candidates - len(distinct)
        assert len({id(schedule) for schedule in compiled}) == len(distinct)

        warm = autotune(self.SMALL, 16, 32, top_k=candidates)
        assert len(compiled) == len(distinct)  # nothing compiled twice
        assert make_schedule.cache_info().misses == len(distinct)
        assert [(s.parallel, s.options, s.result) for s in warm] == [
            (s.parallel, s.options, s.result) for s in cold]

        make_schedule.cache_clear()
        again = autotune(self.SMALL, 16, 32, top_k=candidates)
        assert [(s.parallel, s.options, s.result) for s in again] == [
            (s.parallel, s.options, s.result) for s in cold]

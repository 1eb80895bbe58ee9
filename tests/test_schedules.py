"""Tests for schedule generators, dependency execution, and bubble models."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.schedule import (
    DeadlockError,
    OpKind,
    PipelineSchedule,
    ScheduleOp,
    bubble_fraction,
    bubble_fraction_vs_data_parallel,
    bubble_overhead,
    completion_order_is_serializable,
    execute,
    gpipe_schedule,
    interleaved_schedule,
    make_schedule,
    one_f_one_b_schedule,
    render_schedule,
    simulate_times,
    validate,
)


class TestGenerators:
    @pytest.mark.parametrize("gen", [gpipe_schedule, one_f_one_b_schedule])
    @pytest.mark.parametrize("p,m", [(1, 1), (1, 8), (2, 1), (4, 8), (8, 3), (8, 64)])
    def test_complete_and_deadlock_free(self, gen, p, m):
        sched = gen(p, m)
        validate(sched)  # raises on failure

    @pytest.mark.parametrize("p,m,v", [(2, 2, 2), (4, 8, 2), (4, 8, 4), (8, 16, 3)])
    def test_interleaved_complete_and_deadlock_free(self, p, m, v):
        validate(interleaved_schedule(p, m, v))

    def test_interleaved_rejects_bad_m(self):
        with pytest.raises(ValueError, match="multiple"):
            interleaved_schedule(4, 6, 2)

    def test_interleaved_v1_is_1f1b(self):
        assert interleaved_schedule(4, 8, 1).name == "1f1b"

    def test_make_schedule_dispatch(self):
        assert make_schedule("gpipe", 2, 4).name == "gpipe"
        assert make_schedule("1f1b", 2, 4).name == "1f1b"
        assert make_schedule("interleaved", 2, 4, 2).name == "interleaved"
        with pytest.raises(ValueError):
            make_schedule("nope", 2, 4)
        with pytest.raises(ValueError):
            make_schedule("gpipe", 2, 4, num_chunks=2)

    def test_op_counts(self):
        sched = one_f_one_b_schedule(4, 8)
        for rank_ops in sched.ops:
            assert len(rank_ops) == 16  # 8 F + 8 B
        sched = interleaved_schedule(4, 8, 2)
        for rank_ops in sched.ops:
            assert len(rank_ops) == 32  # 8 mb x 2 chunks x (F+B)

    @given(p=st.integers(1, 8), m=st.integers(1, 32))
    @settings(max_examples=60, deadline=None)
    def test_1f1b_property_valid(self, p, m):
        validate(one_f_one_b_schedule(p, m))

    @given(p=st.integers(2, 6), mult=st.integers(1, 6), v=st.integers(2, 4))
    @settings(max_examples=60, deadline=None)
    def test_interleaved_property_valid(self, p, mult, v):
        validate(interleaved_schedule(p, p * mult, v))


class TestMemoryFootprint:
    """§2.2.1: GPipe stashes m microbatches, 1F1B at most p."""

    @pytest.mark.parametrize("p,m", [(2, 8), (4, 16), (8, 64)])
    def test_gpipe_stashes_m(self, p, m):
        sched = gpipe_schedule(p, m)
        assert sched.max_in_flight_microbatches(0) == m

    @pytest.mark.parametrize("p,m", [(2, 8), (4, 16), (8, 64)])
    def test_1f1b_stashes_at_most_p(self, p, m):
        sched = one_f_one_b_schedule(p, m)
        for rank in range(p):
            assert sched.max_in_flight_microbatches(rank) <= p
        # rank 0 holds exactly p in-flight when m >= p
        assert sched.max_in_flight_microbatches(0) == min(p, m)

    @given(p=st.integers(1, 8), m=st.integers(1, 40))
    @settings(max_examples=60, deadline=None)
    def test_1f1b_memory_bound_property(self, p, m):
        sched = one_f_one_b_schedule(p, m)
        assert all(
            sched.max_in_flight_microbatches(r) <= min(p, m) for r in range(p)
        )

    @pytest.mark.parametrize("p,m,v", [(4, 8, 2), (4, 8, 4)])
    def test_interleaved_memory_comparable_to_1f1b(self, p, m, v):
        """Paper: interleaved has 'memory footprint comparable to
        existing approaches'.  In chunk-activation units the warm-up
        peaks at (v-1)p + 2(p-1) + 1 = p*v + p - 1 on rank 0 -- i.e. at
        most (p-1) extra chunk activations over 1F1B's p microbatches
        (p*v chunks), which is the 'comparable' footprint."""
        sched = interleaved_schedule(p, m, v)
        for rank in range(p):
            assert sched.max_in_flight_microbatches(rank) <= p * v + p - 1
        assert sched.max_in_flight_microbatches(0) == p * v + p - 1


class TestExecution:
    def test_execute_returns_serializable_order(self):
        sched = interleaved_schedule(4, 8, 2)
        order = execute(sched)
        assert completion_order_is_serializable(order, sched)
        assert len(order) == 4 * 8 * 2 * 2

    def test_handler_called_in_per_rank_order(self):
        sched = one_f_one_b_schedule(2, 4)
        seen = {0: [], 1: []}
        execute(sched, lambda rank, op: seen[rank].append(op))
        for rank in (0, 1):
            assert tuple(seen[rank]) == sched.ops[rank]

    def test_deadlock_detected(self):
        # Rank 1 tries to run F0 *before* rank 0 produced it? No --
        # cross-rank order is resolved dynamically. A true deadlock:
        # rank 0 demands B before its F dependency chain can complete.
        bad = PipelineSchedule(
            name="bad",
            num_stages=2,
            num_microbatches=1,
            num_chunks=1,
            ops=(
                (ScheduleOp(OpKind.BACKWARD, 0), ScheduleOp(OpKind.FORWARD, 0)),
                (ScheduleOp(OpKind.FORWARD, 0), ScheduleOp(OpKind.BACKWARD, 0)),
            ),
        )
        with pytest.raises(DeadlockError):
            execute(bad)

    def test_incomplete_schedule_rejected(self):
        missing = PipelineSchedule(
            name="missing",
            num_stages=1,
            num_microbatches=2,
            num_chunks=1,
            ops=((ScheduleOp(OpKind.FORWARD, 0), ScheduleOp(OpKind.BACKWARD, 0)),),
        )
        with pytest.raises(ValueError, match="incomplete"):
            validate(missing)


class TestTiming:
    """Measured timeline bubbles must equal the paper's closed forms."""

    @pytest.mark.parametrize("p,m", [(2, 4), (4, 8), (4, 16), (8, 8), (8, 64)])
    def test_gpipe_bubble_matches_formula(self, p, m):
        tl = simulate_times(gpipe_schedule(p, m))
        assert tl.bubble_fraction() == pytest.approx(bubble_overhead(p, m), abs=1e-9)

    @pytest.mark.parametrize("p,m", [(2, 4), (4, 8), (4, 16), (8, 8), (8, 64)])
    def test_1f1b_bubble_matches_formula(self, p, m):
        tl = simulate_times(one_f_one_b_schedule(p, m))
        assert tl.bubble_fraction() == pytest.approx(bubble_overhead(p, m), abs=1e-9)

    @pytest.mark.parametrize("p,m,v", [(4, 8, 2), (4, 8, 4), (2, 8, 2), (8, 16, 2)])
    def test_interleaved_bubble_matches_formula(self, p, m, v):
        tl = simulate_times(interleaved_schedule(p, m, v))
        assert tl.bubble_fraction() == pytest.approx(bubble_overhead(p, m, v), abs=1e-9)

    def test_interleaved_flushes_sooner(self):
        """Figure 4: same (p, m), interleaved makespan is shorter."""
        base = simulate_times(one_f_one_b_schedule(4, 8)).makespan
        inter = simulate_times(interleaved_schedule(4, 8, 2)).makespan
        assert inter < base

    def test_gpipe_and_1f1b_same_makespan(self):
        """§2.2.1: 'the time spent in the bubble is the same' for both."""
        g = simulate_times(gpipe_schedule(4, 8)).makespan
        f = simulate_times(one_f_one_b_schedule(4, 8)).makespan
        assert g == pytest.approx(f)

    @given(p=st.integers(1, 6), m=st.integers(1, 24))
    @settings(max_examples=40, deadline=None)
    def test_makespan_formula_property(self, p, m):
        """makespan = (m + p - 1) (t_f + t_b) with t_f=1, t_b=2."""
        tl = simulate_times(one_f_one_b_schedule(p, m))
        assert tl.makespan == pytest.approx((m + p - 1) * 3.0)

    def test_bwd_twice_fwd_not_required(self):
        """'The efficiency of the pipeline schedule does not depend on
        this factor' (Fig. 3 caption): bubble fraction is unchanged for
        any t_f, t_b."""
        for tf, tb in [(1.0, 1.0), (1.0, 3.0), (2.5, 0.5)]:
            tl = simulate_times(one_f_one_b_schedule(4, 8), tf, tb)
            assert tl.bubble_fraction() == pytest.approx(bubble_overhead(4, 8))

    def test_rejects_bad_durations(self):
        with pytest.raises(ValueError):
            simulate_times(gpipe_schedule(2, 2), t_forward=0)


class TestBubbleFormulas:
    def test_fraction_decreases_with_m(self):
        assert bubble_fraction(8, 64) < bubble_fraction(8, 8)

    def test_interleaving_divides_by_v(self):
        assert bubble_fraction(8, 8, v=4) == pytest.approx(bubble_fraction(8, 8) / 4)

    def test_no_bubble_single_stage(self):
        assert bubble_fraction(1, 8) == 0.0

    def test_fig6_formula(self):
        """(n - d)/b' decreases as d grows (Figure 6)."""
        vals = [bubble_fraction_vs_data_parallel(32, d, 128) for d in (1, 2, 4, 8, 16, 32)]
        assert vals == sorted(vals, reverse=True)
        assert vals[-1] == 0.0  # d == n: no pipelining at all

    def test_fig6_validation(self):
        with pytest.raises(ValueError):
            bubble_fraction_vs_data_parallel(32, 3, 128)
        with pytest.raises(ValueError):
            bubble_fraction_vs_data_parallel(32, 2, 3)

    @given(
        d_idx=st.integers(0, 5),
        n=st.sampled_from([32, 64, 128]),
        bp=st.sampled_from([128, 512]),
    )
    @settings(max_examples=30, deadline=None)
    def test_fig6_matches_pipeline_formula(self, d_idx, n, bp):
        """(n-d)/b' equals (p-1)/m with p = n/d, m = b'/d."""
        d = 2**d_idx
        if d > n or bp % d:
            return
        p, m = n // d, bp // d
        if p >= 1 and m >= 1:
            assert bubble_fraction_vs_data_parallel(n, d, bp) == pytest.approx(
                bubble_fraction(p, m)
            )


class TestVisualization:
    def test_render_contains_all_devices(self):
        out = render_schedule(one_f_one_b_schedule(4, 8))
        for r in range(4):
            assert f"dev{r}:" in out

    def test_render_shows_bubble(self):
        out = render_schedule(one_f_one_b_schedule(4, 4))
        assert "." in out  # idle slots visible

    def test_render_interleaved_marks_chunks(self):
        out = render_schedule(interleaved_schedule(4, 8, 2))
        assert "'" in out  # second chunk marker


class TestInterleavedGPipe:
    """§2.2.2's rejected variant: all-forward-all-backward over chunks --
    same 1/v bubble as interleaved 1F1B but memory proportional to m."""

    @pytest.mark.parametrize("p,m,v", [(2, 2, 2), (4, 8, 2), (2, 8, 4), (4, 8, 3)])
    def test_valid_and_complete(self, p, m, v):
        from repro.schedule import interleaved_gpipe_schedule

        validate(interleaved_gpipe_schedule(p, m, v))

    @pytest.mark.parametrize("p,m,v", [(4, 8, 2), (2, 8, 4)])
    def test_bubble_matches_interleaved(self, p, m, v):
        from repro.schedule import interleaved_gpipe_schedule

        tl = simulate_times(interleaved_gpipe_schedule(p, m, v))
        assert tl.bubble_fraction() == pytest.approx(bubble_overhead(p, m, v))

    def test_memory_proportional_to_m(self):
        from repro.schedule import interleaved_gpipe_schedule

        p, v = 4, 2
        for m in (8, 16, 32):
            s = interleaved_gpipe_schedule(p, m, v)
            assert s.max_in_flight_microbatches(0) == m * v
        # vs the 1F1B-interleaved bound of p*v + p - 1, independent of m.
        s1f1b = interleaved_schedule(p, 32, v)
        assert s1f1b.max_in_flight_microbatches(0) == p * v + p - 1

    def test_v1_falls_back_to_gpipe(self):
        from repro.schedule import interleaved_gpipe_schedule

        assert interleaved_gpipe_schedule(4, 8, 1).name == "gpipe"

    def test_make_schedule_dispatch(self):
        s = make_schedule("interleaved-gpipe", 4, 8, 2)
        assert s.name == "interleaved-gpipe"

    def test_rejects_bad_m(self):
        from repro.schedule import interleaved_gpipe_schedule

        with pytest.raises(ValueError, match="multiple"):
            interleaved_gpipe_schedule(4, 6, 2)

    @given(p=st.integers(2, 5), mult=st.integers(1, 5), v=st.integers(2, 4))
    @settings(max_examples=40, deadline=None)
    def test_property_valid(self, p, mult, v):
        from repro.schedule import interleaved_gpipe_schedule

        validate(interleaved_gpipe_schedule(p, p * mult, v))

"""Property-based tests on the performance simulator.

These pin down the *monotonicities* the paper's analysis implies; a
simulator refactor that breaks one of these breaks the physics, not
just a calibration constant.
"""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GPTConfig, ParallelConfig
from repro.sim import SimOptions, simulate_iteration

MODEL = GPTConfig(num_layers=8, hidden_size=512, num_attention_heads=8,
                  vocab_size=1024, seq_length=256, name="prop-test")


def run(p=1, t=1, d=1, b=1, B=8, **opts):
    par = ParallelConfig(
        pipeline_parallel_size=p, tensor_parallel_size=t,
        data_parallel_size=d, microbatch_size=b, global_batch_size=B,
    )
    return simulate_iteration(MODEL, par, options=SimOptions(**opts))


class TestMonotonicity:
    @given(B=st.sampled_from([8, 16, 32, 64]))
    @settings(max_examples=8, deadline=None)
    def test_iteration_time_increases_with_batch(self, B):
        t1 = run(B=B).iteration_time
        t2 = run(B=2 * B).iteration_time
        assert t2 > t1

    @given(p=st.sampled_from([1, 2, 4]))
    @settings(max_examples=6, deadline=None)
    def test_deeper_pipeline_shorter_iteration_at_large_batch(self, p):
        """Weak scaling: with plenty of microbatches, more stages finish
        the same batch faster (the bubble is amortized)."""
        t1 = run(p=p, B=64).iteration_time
        t2 = run(p=2 * p, B=64).iteration_time
        assert t2 < t1

    @given(d=st.sampled_from([1, 2, 4]))
    @settings(max_examples=6, deadline=None)
    def test_data_parallel_scales_throughput(self, d):
        s1 = run(d=d, B=64).sequences_per_second
        s2 = run(d=2 * d, B=64).sequences_per_second
        assert s2 > s1

    def test_aggregate_flops_conserved(self):
        """Model FLOPs per iteration don't depend on the parallelization."""
        base = run(B=32).model_flops
        for kwargs in ({"p": 2}, {"t": 2}, {"d": 2}, {"p": 2, "t": 2, "d": 2}):
            assert run(B=32, **kwargs).model_flops == base

    @given(b=st.sampled_from([1, 2, 4]))
    @settings(max_examples=6, deadline=None)
    def test_microbatch_conserves_total_work(self, b):
        """Larger microbatches change efficiency, not the work: per-GPU
        tflops stays within a sane band."""
        r1 = run(b=b, B=32)
        r2 = run(b=2 * b, B=32)
        assert 0.5 < r2.tflops_per_gpu / r1.tflops_per_gpu < 2.0


class TestInvariants:
    def test_never_exceeds_peak(self):
        for kwargs in ({}, {"p": 2}, {"t": 2}, {"d": 4}, {"b": 4}):
            r = run(B=32, **kwargs)
            assert 0 < r.peak_fraction < 1.0

    def test_busy_time_bounded_by_pipeline_time(self):
        r = run(p=4, B=32)
        assert all(busy <= r.pipeline_time + 1e-12
                   for busy in r.compute_time_per_rank)

    def test_bubble_fraction_in_unit_interval(self):
        for p in (1, 2, 4):
            r = run(p=p, B=8)
            assert 0.0 <= r.bubble_fraction < 1.0

    def test_single_stage_has_no_bubble(self):
        assert run(p=1, B=16).bubble_fraction == pytest.approx(0.0, abs=1e-9)

    def test_components_sum_to_iteration_time(self):
        r = run(p=2, d=2, B=16)
        assert r.iteration_time == pytest.approx(
            r.pipeline_time + r.data_parallel_time + r.optimizer_time
        )

    def test_options_are_pure(self):
        """Same inputs -> identical results (simulator is deterministic)."""
        a = run(p=2, t=2, B=16)
        b = run(p=2, t=2, B=16)
        assert a.iteration_time == b.iteration_time
        assert a.compute_time_per_rank == b.compute_time_per_rank


class TestScheduleConsistency:
    def test_sim_bubble_matches_analytic_when_comm_free(self):
        """With overlap enabled and t=d=1, the simulated bubble fraction
        approaches the schedule's (p-1)/m closed form."""
        from repro.schedule import bubble_overhead

        p, B = 4, 16
        r = run(p=p, B=B, overlap_p2p=True)
        want = bubble_overhead(p, B)
        # First/last stages carry embedding/logit extras, so the match
        # is approximate.
        assert r.bubble_fraction == pytest.approx(want, rel=0.35)


class TestMatchesPerOpWalk:
    """The simulator iterates a completion order compiled once per
    schedule; the per-op walk it replaced (``tests/reference_walk.py``)
    must agree on every number, bit for bit."""

    @given(
        name=st.sampled_from(
            ["gpipe", "1f1b", "interleaved", "interleaved-gpipe"]),
        p=st.sampled_from([1, 2, 4, 8]),
        groups=st.integers(1, 3),
        extra=st.integers(0, 3),
        v=st.sampled_from([1, 2, 4]),
        t=st.sampled_from([1, 2]),
        b=st.sampled_from([1, 2]),
        overlap_p2p=st.booleans(),
        scatter_gather=st.booleans(),
        recompute_activations=st.booleans(),
        compute_slowdown=st.floats(1.0, 3.0),
        bandwidth_derate=st.floats(0.1, 1.0),
    )
    @settings(max_examples=40, deadline=None)
    def test_every_number_equals_reference(
        self, name, p, groups, extra, v, t, b, **toggles
    ):
        from . import reference_walk

        if not name.startswith("interleaved") or p * v > MODEL.num_layers:
            v = 1
        if v > 1 and p < 2:
            v = 1
        m = groups * p + (extra if v == 1 else 0)
        par = ParallelConfig(
            pipeline_parallel_size=p, tensor_parallel_size=t,
            microbatch_size=b, global_batch_size=m * b, num_model_chunks=v,
        )
        reference_walk.assert_simulation_matches(
            MODEL, par, SimOptions(schedule_name=name, **toggles)
        )


class TestCriticalPathBound:
    """``IterationPricing.critical_path_bound`` -- the paper's
    ``(m + p - 1)(t_f + t_b)`` for non-uniform stages -- never exceeds
    the simulated iteration time, and is nearly always equal to it.
    That makes it the simulator's closed-form oracle: a change to the
    timing loop that introduces a stall no dependency explains fails
    here instead of shifting a figure.  ``autotune`` prunes on it."""

    #: Rounding only: the bound adds the same durations up in another
    #: association (it read 2.2e-15 high at worst on the grid below).
    ROUNDING = 1e-12

    SMALL = GPTConfig(num_layers=8, hidden_size=1024, num_attention_heads=16,
                      name="small")
    WIDE = GPTConfig(num_layers=16, hidden_size=2048, num_attention_heads=16,
                     name="wide")
    #: One ``SimOptions`` field that changes op durations, each.
    VARIANTS = (
        {}, {"compute_slowdown": 1.7}, {"bandwidth_derate": 0.5},
        {"overlap_p2p": True}, {"scatter_gather": False},
        {"recompute_activations": False}, {"fused_kernels": False},
    )

    @staticmethod
    def ratio(model, parallel, options):
        from repro.hardware import dgx_a100
        from repro.sim import price_iteration

        bound = price_iteration(
            model, parallel, options, dgx_a100()
        ).critical_path_bound(parallel.num_microbatches)
        simulated = simulate_iteration(model, parallel, options=options)
        return bound / simulated.iteration_time

    def grid(self):
        """All four generator schedules, ``m == p`` (all warm-up) and
        ``m == 4p``, every variant."""
        import itertools

        for model, p, t, b, groups, v in itertools.product(
            (self.SMALL, self.WIDE), (1, 2, 4, 8), (1, 2, 4), (1, 4), (1, 4),
            (1, 2, 4),
        ):
            if model.num_layers % (p * v) or (v > 1 and p < 2):
                continue
            m, d = groups * p, 2 if t == 1 else 1
            parallel = ParallelConfig(
                pipeline_parallel_size=p, tensor_parallel_size=t,
                data_parallel_size=d, microbatch_size=b,
                global_batch_size=b * m * d, num_model_chunks=v,
            )
            names = (("gpipe", "1f1b") if v == 1
                     else ("interleaved", "interleaved-gpipe"))
            for name, variant in itertools.product(names, self.VARIANTS):
                yield model, parallel, SimOptions(schedule_name=name, **variant)

    def test_admissible_and_tight_on_grid(self):
        cases = 0
        for model, parallel, options in self.grid():
            ratio = self.ratio(model, parallel, options)
            where = f"{model.name} {parallel.describe()} {options}"
            assert ratio <= 1 + self.ROUNDING, f"bound above the time: {where}"
            # Loosest measured: 0.99576, interleaved with m == p and
            # free p2p (wide, p=8 t=4 b=4 m=8 v=2).
            assert ratio >= 0.99, f"stall the bound does not explain: {where}"
            cases += 1
        assert cases >= 1000

    def test_equal_on_table1(self):
        from repro.config import TABLE1_ROWS

        for row in TABLE1_ROWS:
            ratio = self.ratio(row.model, row.parallel, SimOptions())
            assert abs(ratio - 1) <= self.ROUNDING, row.model.name

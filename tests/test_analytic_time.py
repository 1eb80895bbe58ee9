"""Analytic closed-form estimator vs the discrete-event simulator.

DESIGN.md §4's fourth correctness leg: the O(1) closed form built from
the paper's §3 analysis must agree with the event simulation across
configurations -- validating both against each other.
"""

import dataclasses
import sys

import pytest

from repro.config import (
    ParallelConfig,
    TABLE1_ROWS,
    fig13_model,
    fig14_model,
    gpt3_175b,
)
from repro.perf import estimate_iteration
from repro.sim import SimOptions, simulate_iteration


def _python_calls(fn, *args) -> int:
    """How many Python functions ``fn(*args)`` calls, itself included."""
    calls = 0

    def count(frame, event, arg):
        nonlocal calls
        calls += event == "call"

    previous = sys.getprofile()  # a coverage hook's, say: put back after
    sys.setprofile(count)
    try:
        fn(*args)
    finally:
        sys.setprofile(previous)
    return calls


class TestAgreementWithSimulator:
    @pytest.mark.parametrize("row", TABLE1_ROWS[::2], ids=lambda r: r.model.name)
    def test_table1_configs_within_5pct(self, row):
        a = estimate_iteration(row.model, row.parallel)
        s = simulate_iteration(row.model, row.parallel)
        assert a.tflops_per_gpu == pytest.approx(s.tflops_per_gpu, rel=0.05)

    @pytest.mark.parametrize(
        "p,t,d,B",
        [(12, 8, 1, 24), (8, 8, 1, 64), (4, 2, 8, 64), (2, 1, 4, 32)],
    )
    def test_mixed_configs_within_5pct(self, p, t, d, B):
        model = gpt3_175b() if t == 8 else fig14_model()
        par = ParallelConfig(
            pipeline_parallel_size=p, tensor_parallel_size=t,
            data_parallel_size=d, microbatch_size=1, global_batch_size=B,
        )
        a = estimate_iteration(model, par)
        s = simulate_iteration(model, par)
        assert a.iteration_time == pytest.approx(s.iteration_time, rel=0.05)

    def test_interleaved_within_10pct(self):
        par = ParallelConfig(
            pipeline_parallel_size=12, tensor_parallel_size=8,
            data_parallel_size=1, microbatch_size=1, global_batch_size=24,
            num_model_chunks=2,
        )
        a = estimate_iteration(gpt3_175b(), par)
        s = simulate_iteration(
            gpt3_175b(), par, options=SimOptions(schedule_name="interleaved")
        )
        assert a.tflops_per_gpu == pytest.approx(s.tflops_per_gpu, rel=0.10)


class TestStructure:
    def test_bubble_fraction_formula(self):
        """bubble_time / (pipeline - bubble) == (p-1)/(m v)."""
        par = ParallelConfig(
            pipeline_parallel_size=8, tensor_parallel_size=8,
            data_parallel_size=1, microbatch_size=1, global_batch_size=32,
        )
        a = estimate_iteration(fig13_model(), par)
        ideal = a.pipeline_time - a.bubble_time
        assert a.bubble_time / ideal == pytest.approx(7 / 32)

    def test_scatter_gather_reduces_time(self):
        par = ParallelConfig(
            pipeline_parallel_size=12, tensor_parallel_size=8,
            data_parallel_size=1, microbatch_size=1, global_batch_size=24,
        )
        on = estimate_iteration(gpt3_175b(), par, scatter_gather=True)
        off = estimate_iteration(gpt3_175b(), par, scatter_gather=False)
        assert on.iteration_time < off.iteration_time

    def test_estimator_is_fast(self):
        """O(1): estimating a 3072-GPU config does not iterate m * p.  At
        64x the global batch, 64x the microbatches, it makes as many
        Python calls as at Table 1's (1 295 each, warm)."""
        row = TABLE1_ROWS[-1]
        bigger = dataclasses.replace(
            row.parallel,
            global_batch_size=64 * row.parallel.global_batch_size)
        estimate_iteration(row.model, row.parallel)  # warms the pricing caches
        assert (_python_calls(estimate_iteration, row.model, bigger)
                == _python_calls(estimate_iteration, row.model, row.parallel))

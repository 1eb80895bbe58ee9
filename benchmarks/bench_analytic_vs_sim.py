"""Ablation: O(1) closed-form estimator vs the discrete-event simulator.

Validates the §3-derived analytic model against the event simulation on
the Table-1 configurations and reports per-config agreement and the
speed advantage of the closed form.
"""

import time

from repro.config import TABLE1_ROWS
from repro.experiments import ExperimentResult
from repro.perf import estimate_iteration
from repro.sim import simulate_iteration


def run():
    result = ExperimentResult(
        experiment_id="ablation_analytic",
        title="Closed-form estimator vs event simulator (Table-1 configs)",
        columns=("params_B", "sim_tflops", "analytic_tflops", "ratio"),
    )
    for row in TABLE1_ROWS[::2] + (TABLE1_ROWS[-1],):
        s = simulate_iteration(row.model, row.parallel)
        a = estimate_iteration(row.model, row.parallel)
        result.add(
            row.reported_params_billion,
            round(s.tflops_per_gpu, 1),
            round(a.tflops_per_gpu, 1),
            round(a.tflops_per_gpu / s.tflops_per_gpu, 3),
        )
    return result


def test_analytic_vs_sim(show):
    result = run()
    show(result)
    for *_, ratio in result.rows:
        assert 0.94 < ratio < 1.06

    # Demonstrate the speed gap on the largest configuration.
    row = TABLE1_ROWS[-1]
    t0 = time.perf_counter()
    estimate_iteration(row.model, row.parallel)
    t_analytic = time.perf_counter() - t0
    t0 = time.perf_counter()
    simulate_iteration(row.model, row.parallel)
    t_sim = time.perf_counter() - t0
    assert t_analytic < t_sim

"""Figure 6: pipeline bubble size vs data-parallel size.

Evaluates (n - d)/b' for the figure's grid: n in {32, 128}, b' = B/b in
{32, 128, 512}, d over powers of two dividing both.
"""

from __future__ import annotations

from repro.schedule import bubble_fraction_vs_data_parallel

from .report import ExperimentResult

GRID_N = (32, 128)
GRID_BPRIME = (32, 128, 512)


def run() -> ExperimentResult:
    result = ExperimentResult(
        experiment_id="fig06",
        title="Bubble fraction (n-d)/b' vs data-parallel size",
        columns=("n", "b_prime", "d", "bubble_fraction"),
    )
    for n in GRID_N:
        for bp in GRID_BPRIME:
            d = 1
            while d <= n:
                if bp % d == 0:
                    result.add(n, bp, d, round(
                        bubble_fraction_vs_data_parallel(n, d, bp), 4))
                d *= 2
    result.notes = (
        "Bubble decreases monotonically in d and reaches 0 at d = n; "
        "larger n raises the whole curve, larger b' lowers it."
    )
    return result

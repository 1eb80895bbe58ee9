"""Shared fixtures for the pass/fail guards in this directory.

Every ``test_*`` here asserts a bound (an overhead budget, a speedup
floor, an ablation's direction); none only times.  Timing with history
lives in the benchmark of record (``bench/run.py``, ``BENCHMARK.json``).
Run the guards with ``pytest -p no:benchmark benchmarks/``.
"""

import statistics

import pytest


@pytest.fixture
def show(capsys):
    """Print an ExperimentResult past pytest's output capture."""

    def _show(result):
        with capsys.disabled():
            print()
            print(result.to_text())

    return _show


@pytest.fixture(scope="session")
def goodput_1t():
    """(scenario, policy) for the 1T/384-node resilience benchmarks.

    Session-scoped: the restart policy prices §5.10 checkpoint I/O once
    and is shared by every goodput bench.
    """
    from repro.resilience import RestartPolicy, goodput_scenarios

    scenario = goodput_scenarios()["1t"]
    policy = RestartPolicy.from_io_model(
        scenario.model, scenario.parallel, scenario.num_nodes
    )
    return scenario, policy


PAIRS = 31
ATTEMPTS = 3


def _paired_ratio(numerator, denominator, bound: float) -> list:
    """Cost of ``numerator`` over ``denominator``, each a zero-argument
    callable returning one timed sample in seconds.

    Shared-machine noise swings single samples by far more than the
    bounds these guards hold, in two distinct regimes, so the estimate
    combines two estimators over ``PAIRS`` back-to-back sample pairs
    (order alternating to cancel any first-runner bias):

    - *ratio of minima* -- robust to sustained co-tenant load with
      occasional quiet windows: both arms sample the quiet window and
      the minima compare like-for-like;
    - *median of per-pair ratios* -- robust to load that never lets up:
      a load plateau inflates both arms of a pair equally and cancels in
      the ratio, while burst outliers lose to the median.

    Noise can push either estimator up, but only a real cost increase
    pushes up *both*, so an attempt reads the smaller of the two.  An
    attempt over ``bound`` re-measures from scratch, up to ``ATTEMPTS``
    times: residual noise clears on a retry, a genuine regression shifts
    both estimators on every attempt.  Returns every attempt's ratio.
    """
    ratios = []
    for attempt in range(ATTEMPTS):
        numerator(), denominator()  # warm
        samples = []
        for i in range(PAIRS):
            if i % 2 == 0:
                num, den = numerator(), denominator()
            else:
                den, num = denominator(), numerator()
            samples.append((num, den))
        min_num, min_den = (min(arm) for arm in zip(*samples))
        med_ratio = statistics.median(n / d for n, d in samples)
        ratios.append(min(min_num / min_den, med_ratio))
        print(f"\nattempt {attempt}: best {min_num * 1e6:.0f} us over "
              f"{min_den * 1e6:.0f} us = {min_num / min_den:.3f}, median of "
              f"pair ratios {med_ratio:.3f}")
        if ratios[-1] <= bound:
            break
    return ratios


@pytest.fixture
def paired_ratio():
    """The paired timing estimator (see ``_paired_ratio``)."""
    return _paired_ratio

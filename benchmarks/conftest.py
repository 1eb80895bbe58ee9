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
    bounds these guards hold, so the reading is the *median of per-pair
    ratios* over back-to-back sample pairs (order alternating to cancel
    any first-runner bias): a load plateau inflates both arms of a pair
    alike and cancels in the ratio, and bursts lose to the median.

    An attempt takes ``PAIRS`` pairs.  A reading over ``bound`` takes
    ``PAIRS`` more, up to ``ATTEMPTS`` attempts, and reads the median
    over every pair so far: a retry adds pairs and replaces none, so a
    quiet spell cannot pass a real cost on its own draw.  The ratio of
    the arms' minima is printed beside it and decides nothing (a
    minimum of noisy samples is a draw that noise only lowers).
    Returns the pooled reading after each attempt: the last is the
    verdict, and every earlier one read over ``bound``.
    """
    samples = []
    readings = []
    for attempt in range(ATTEMPTS):
        numerator(), denominator()  # warm
        for i in range(PAIRS):
            if i % 2 == 0:
                num, den = numerator(), denominator()
            else:
                den, num = denominator(), numerator()
            samples.append((num, den))
        readings.append(statistics.median(n / d for n, d in samples))
        min_num, min_den = (min(arm) for arm in zip(*samples))
        print(f"\nattempt {attempt}: median of {len(samples)} pair ratios "
              f"{readings[-1]:.3f} (best {min_num * 1e6:.0f} us over "
              f"{min_den * 1e6:.0f} us = {min_num / min_den:.3f})")
        if readings[-1] <= bound:
            break
    return readings


@pytest.fixture
def paired_ratio():
    """The paired timing estimator (see ``_paired_ratio``)."""
    return _paired_ratio

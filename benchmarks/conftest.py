"""Shared fixtures for the pass/fail guards in this directory.

Every ``test_*`` here asserts a bound (an overhead budget, a speedup
floor, an ablation's direction); none only times.  Timing with history
lives in the benchmark of record (``bench/run.py``, ``BENCHMARK.json``).
Run the guards with ``pytest -p no:benchmark benchmarks/``.
"""

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

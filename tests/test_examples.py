"""Smoke tests: every example script runs to completion."""

import os
import subprocess
import sys

import pytest

EXAMPLES = os.path.join(os.path.dirname(__file__), "..", "examples")


def run_example(name, *args, timeout=300):
    proc = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES, name), *args],
        capture_output=True,
        text=True,
        timeout=timeout,
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return proc.stdout


class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "exactly equivalent" in out

    def test_capacity_planner(self):
        out = run_example("capacity_planner.py", "18", "256", "1024")
        assert "fits=True" in out and "days" in out

    def test_schedule_explorer(self):
        out = run_example("schedule_explorer.py", "4", "8", "2")
        assert "GPipe" in out and "Interleaved" in out and "dev0" in out

    def test_schedule_explorer_skips_invalid_interleave(self):
        out = run_example("schedule_explorer.py", "4", "6", "2")
        assert "skipped" in out

    def test_trillion_param_plan(self):
        out = run_example("trillion_param_plan.py")
        assert "502" in out and "84 days" in out

    @pytest.mark.slow
    def test_end_to_end_training(self):
        out = run_example("end_to_end_training.py", timeout=600)
        assert "bit-exact" in out

    def test_language_modeling(self):
        out = run_example("language_modeling.py")
        assert "perplexity after training" in out and "continuation" in out

    def test_serving_demo(self):
        out = run_example("serving_demo.py")
        assert "streams equal the single-request oracle" in out
        assert "replay is bit-exact" in out
        assert "preempt" in out

    def test_verification_demo(self):
        out = run_example("verification_demo.py")
        assert "consumes activations" in out          # planted schedule race
        assert "shape mismatch" in out                # planted collective bug
        assert "verification PASSED" in out           # clean fast suite
        assert "python -m repro verify --case" in out  # repro string


def test_every_example_has_a_smoke_test():
    """Completeness guard: each examples/*.py must appear in this file,
    so new examples cannot land without smoke coverage."""
    this_file = os.path.join(os.path.dirname(__file__), "test_examples.py")
    with open(this_file, encoding="utf-8") as fh:
        source = fh.read()
    missing = [
        name for name in sorted(os.listdir(EXAMPLES))
        if name.endswith(".py") and name not in source
    ]
    assert not missing, f"examples without smoke tests: {missing}"

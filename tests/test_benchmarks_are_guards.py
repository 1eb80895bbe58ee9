"""``benchmarks/`` holds pass/fail guards only: a function that merely
times something belongs to the benchmark of record (``bench/run.py``),
so every collected ``test_*`` there must contain an ``assert``."""

import ast
import importlib.util
import platform
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


def test_every_benchmarks_test_function_asserts():
    files = sorted(BENCHMARKS.glob("bench_*.py"))
    assert files
    toothless = [
        f"{path.name}::{node.name}"
        for path in files
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.FunctionDef)
        and node.name.startswith("test_")
        and not any(isinstance(n, ast.Assert) for n in ast.walk(node))
    ]
    assert not toothless, f"timing-only wrappers, no assert: {toothless}"


def test_one_round_robin_schedule_walk_in_src():
    """``execute``, ``simulate_times``, ``simulate_iteration`` and
    ``check_deadlock`` each had their own copy of the pointer scan; they
    now share ``repro.schedule.execution._walk``."""
    src = BENCHMARKS.parent / "src"
    hits = [path.relative_to(src).as_posix() for path in src.rglob("*.py")
            if "pointers = [0]" in path.read_text()]
    assert hits == ["repro/schedule/execution.py"]


def test_no_power_operator_in_the_kernels_but_squares():
    """numpy computes ``x**3`` through libm ``pow`` (70 ns an element,
    a quarter of a train step until PR 19); ``x*x*x`` is two multiplies."""
    kernels = BENCHMARKS.parent / "src" / "repro" / "nn" / "functional.py"
    powers = [
        ast.unparse(node)
        for node in ast.walk(ast.parse(kernels.read_text()))
        if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Pow)
        and not (isinstance(node.right, ast.Constant)
                 and node.right.value == 2)
    ]
    assert not powers, f"write the product out: {powers}"


@pytest.mark.skipif(platform.libc_ver()[0] != "glibc",
                    reason="the heap policy is glibc's mallopt")
def test_heap_guard_reads_over_its_bound_without_the_policy():
    """``bench_heap``'s counter, on a single-worker trainer small enough
    to take half a second (L2 h64 V256 s64, B 8), reads ~3 600 faults a
    warm step with the trainer's heap policy made a no-op, 0 or 1 with
    it."""
    spec = importlib.util.spec_from_file_location(
        "bench_heap", BENCHMARKS / "bench_heap.py")
    guard = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(guard)
    shape = dict(num_layers=2, hidden_size=64, num_attention_heads=4,
                 vocab_size=256, seq_length=64)
    without = guard.in_fresh_process("single", shape, keep_heap=False)
    assert min(without) > guard.BOUND, without
    with_policy = guard.in_fresh_process("single", shape)
    assert max(with_policy) <= guard.BOUND, with_policy

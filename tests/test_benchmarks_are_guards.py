"""``benchmarks/`` holds pass/fail guards only: a function that merely
times something belongs to the benchmark of record (``bench/run.py``),
so every collected ``test_*`` there must contain an ``assert``."""

import ast
from pathlib import Path

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

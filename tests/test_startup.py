"""Import budgets: an entry point loads what it runs (DESIGN.md,
"Start-up").

These count modules, never time them.  Each budget is read from
``sys.modules`` of a fresh interpreter, because this test process has
long since imported everything.
"""

import importlib
import json
import os
import pkgutil
import subprocess
import sys

import pytest

import repro

SRC = os.path.dirname(os.path.dirname(os.path.abspath(repro.__file__)))


def loaded_after(code: str) -> list[str]:
    """``sys.modules`` of a fresh interpreter on this checkout's ``src``
    after it ran ``code``."""
    proc = subprocess.run(
        [sys.executable, "-c",
         f"{code}\nimport json, sys\nprint(json.dumps(sorted(sys.modules)))"],
        capture_output=True, text=True, timeout=120,
        env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    return json.loads(proc.stdout.splitlines()[-1])


def ours(modules: list[str]) -> list[str]:
    return [m for m in modules if m == "repro" or m.startswith("repro.")]


def test_serving_loads_neither_the_trainer_nor_the_fault_injector():
    loaded = loaded_after("from repro.serve import ServeEngine, PagedKVCache")
    unwanted = [m for m in loaded
                if m.startswith(("repro.parallel", "repro.resilience",
                                 "multiprocessing"))
                or m == "repro.comm.shm_ring"]
    assert unwanted == []


def test_the_simulator_loads_no_backend_numpy_or_monitor():
    loaded = loaded_after("import repro.sim\nrepro.sim.simulate_iteration")
    for module in ("multiprocessing", "numpy", "repro.comm.backend",
                   "repro.obs.monitor"):
        assert module not in loaded


def test_the_tracer_loads_at_most_four_repro_modules():
    loaded = ours(loaded_after("from repro.obs.tracer import span"))
    assert len(loaded) <= 4, loaded


FORKED_PASS = """
import os, sys
import numpy  # the sim_plan parent has it: its speed meter imports it
import repro.perf, repro.sim
from repro.config.presets import TABLE1_ROWS

read, write = os.pipe()
if os.fork() == 0:
    before = set(sys.modules)
    row = TABLE1_ROWS[0]
    repro.sim.simulate_iteration(row.model, row.parallel)
    repro.perf.autotune(row.model, row.num_gpus,
                        row.parallel.global_batch_size)
    os.write(write, " ".join(sorted(set(sys.modules) - before)).encode())
    os._exit(0)
os.close(write)
added = os.read(read, 1 << 20).decode().split()
os.wait()
print("ADDED", added)
"""


def test_a_forked_simulator_pass_imports_nothing():
    """``sim_plan`` times cold forked passes: a module a pass imports
    first would be paid inside the timed region."""
    proc = subprocess.run(
        [sys.executable, "-c", FORKED_PASS], capture_output=True, text=True,
        timeout=120, env=dict(os.environ, PYTHONPATH=SRC),
    )
    assert proc.returncode == 0, proc.stderr[-2000:]
    assert proc.stdout.splitlines()[-1] == "ADDED []"


def lazy_fronts():
    """``repro`` and every subpackage whose ``__init__`` resolves its
    names on first use."""
    packages = [repro] + [
        importlib.import_module(f"repro.{info.name}")
        for info in pkgutil.iter_modules(repro.__path__) if info.ispkg
    ]
    return [p for p in packages if "__getattr__" in vars(p)]


def test_the_lazy_fronts_are_the_expected_ones():
    assert sorted(p.__name__ for p in lazy_fronts()) == [
        "repro", "repro.comm", "repro.obs", "repro.resilience",
        "repro.serve", "repro.verify",
    ]


@pytest.mark.parametrize("package", lazy_fronts(), ids=lambda p: p.__name__)
def test_no_lazy_front_exports_the_name_of_one_of_its_submodules(package):
    """Importing ``repro.perf.autotune`` would rebind a lazily exported
    ``repro.perf.autotune`` function to the module."""
    submodules = {info.name for info in pkgutil.iter_modules(package.__path__)}
    assert submodules.isdisjoint(package.__all__)


@pytest.mark.parametrize("package", lazy_fronts(), ids=lambda p: p.__name__)
def test_every_exported_name_resolves(package):
    namespace: dict = {}
    exec(f"from {package.__name__} import *", namespace)
    assert set(package.__all__) <= set(namespace)
    assert set(package.__all__) <= set(dir(package))
    with pytest.raises(AttributeError, match="no attribute 'nonexistent'"):
        package.nonexistent  # noqa: B018

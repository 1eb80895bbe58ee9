"""What the parent, the worker and the tools share: where things are,
how the environment is pinned, and the metric lists of BENCHMARK.json.
Standard library only."""

from __future__ import annotations

import json
import os
import re
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"
SPEC_PATH = ROOT / "BENCHMARK.json"

#: One BLAS thread per process.  On a 2-core box the default OpenBLAS
#: pool makes the d=2 mp step measure the OS scheduler (1.5-6.4 s per
#: step) instead of the program (0.72-0.77 s); see README.
BLAS_ENV = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}

METRIC_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")


def pinned_env() -> dict[str, str]:
    """Environment for every process the benchmark starts: BLAS pinned,
    the checkout's ``src`` first on the import path."""
    env = dict(os.environ)
    env.update(BLAS_ENV)
    env["PYTHONPATH"] = str(SRC) + (
        os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else ""
    )
    return env


def load_spec() -> dict:
    with open(SPEC_PATH, encoding="utf-8") as fh:
        return json.load(fh)


def workload_names(spec: dict) -> list[str]:
    return [w["name"] for w in spec["workloads"]]


def metric_units(spec: dict, section: str) -> dict[str, str]:
    """``name -> unit`` of ``end_to_end`` or ``per_layer``."""
    return {m["name"]: m["unit"] for m in spec[section]}


#: A per-layer metric is measured by the workload whose run exercises
#: its layer, told by the metric's prefix; every workload measures its
#: own tracing overhead and iteration time.
OWNED_PREFIXES = {
    "train_ptd": ("train_", "nn.block_", "nn.head_", "nn.adam_", "nn.gemm_",
                  "comm.", "schedule.", "parallel.", "obs.profile_"),
    "sim_plan": ("sim_", "sim.", "perf.", "cli."),
    "serve_decode": ("serve_", "serve.", "ttft_", "tpot_", "nn.decode_"),
    "serve_prefill": ("serve_", "serve.", "ttft_", "tpot_", "nn.prefill_"),
}
OWNED_BY_ALL = ("obs.trace_", "iter_ms_p50")


def owned(workload: str, names) -> list[str]:
    prefixes = OWNED_BY_ALL + OWNED_PREFIXES[workload]
    return [name for name in names if name.startswith(prefixes)]

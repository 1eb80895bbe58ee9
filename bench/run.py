"""The benchmark of record: one command that measures, prints every
metric by name with its unit, and checks that the outputs are correct.

    python3 bench/run.py --workload train_ptd --seed 0 --seconds 15 --trace 0

prints the end-to-end metrics of one workload and, as the last line of
standard output, one JSON object ``{"correct", "attempted", "failed",
"metrics"}``.  ``--trace 1`` prints the per-layer metrics instead, from
one traced pass plus the probes of the layers the workload owns; in the
JSON object a per-layer metric owned by another workload reads 0 (the
driver wants every name from every workload), and the printed table and
``--out`` leave it out.  Without ``--workload`` all workloads of
``BENCHMARK.json`` run in turn (``--repeat N`` runs each N times on
seeds ``seed .. seed+N-1``) and ``--out FILE`` keeps every run for
``compare.py``.  The exit code is non-zero when an output check fails
or a worker dies.

This process never imports numpy or the program.  Every workload runs
in a fresh subprocess whose environment pins BLAS to one thread before
numpy is imported (see ``common.BLAS_ENV``).
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
import time

from common import (
    BENCH_DIR,
    OUT_DIR,
    ROOT,
    load_spec,
    metric_units,
    owned,
    pinned_env,
    workload_names,
)
from pins import SEED


def run_worker(workload: str, seed: int, seconds: float, trace: int) -> dict:
    argv = [
        sys.executable, str(BENCH_DIR / "worker.py"),
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
        "--spans-out", str(OUT_DIR / f"spans_{workload}.json"),
        # perf_counter is CLOCK_MONOTONIC, one clock for every process.
        "--started", repr(time.perf_counter()),
    ]
    done = subprocess.run(argv, cwd=ROOT, env=pinned_env(),
                          stdout=subprocess.PIPE, text=True)
    if done.returncode != 0:
        raise RuntimeError(
            f"worker for {workload} exited with {done.returncode}")
    return json.loads(done.stdout.splitlines()[-1])


def run_once(spec: dict, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """One run of one workload: what the worker measured, as ``name ->
    {value, unit}``, plus what ``--out`` keeps."""
    section = "per_layer" if trace else "end_to_end"
    units = metric_units(spec, section)
    result = run_worker(workload, seed, seconds, trace)
    values = result[section]
    wrong = sorted(
        set(values) ^ set(owned(workload, units) if trace else units))
    if wrong:
        raise RuntimeError(
            f"{workload}: metrics measured and metrics BENCHMARK.json "
            f"gives this workload differ: {wrong}")
    return {
        "workload": workload, "seed": seed, "trace": trace,
        "correct": not result["problems"],
        "attempted": result["attempted"], "failed": result["failed"],
        "metrics": {name: {"value": values[name], "unit": units[name]}
                    for name in units if name in values},
        "problems": result["problems"],
        "versions": result["versions"],
        "loadavg_1m": result["loadavg_1m"],
        "machine_speed": result["machine_speed"],
    }


def driver_line(spec: dict, run: dict) -> str:
    """The result object the driver reads.  It wants every per-layer
    name from every workload, so one this workload does not own is 0."""
    section = "per_layer" if run["trace"] else "end_to_end"
    metrics = {
        name: run["metrics"].get(name, {"value": 0, "unit": unit})
        for name, unit in metric_units(spec, section).items()
    }
    return json.dumps({
        "correct": run["correct"], "attempted": run["attempted"],
        "failed": run["failed"], "metrics": metrics,
    })


def report(run: dict) -> None:
    for name, metric in run["metrics"].items():
        print(f"{run['workload']:<14} {name:<36} "
              f"{metric['value']:>16.6g} {metric['unit']}")
    status = "ok" if run["correct"] else "WRONG OUTPUT"
    print(f"{run['workload']:<14} {status}: {run['failed']} of "
          f"{run['attempted']} operations failed (seed {run['seed']})")
    for problem in run["problems"]:
        print(f"{run['workload']:<14} check failed: {problem}")
    sys.stdout.flush()


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, check=True)
    except (OSError, subprocess.CalledProcessError):
        return None  # the driver's checkout is not a git repository
    return done.stdout.strip()


def main(argv=None) -> int:
    spec = load_spec()
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawTextHelpFormatter)
    parser.add_argument("--workload", choices=workload_names(spec))
    parser.add_argument("--seed", type=int, default=SEED)
    parser.add_argument("--seconds", type=float,
                        default=float(spec["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--out", help="write every run here as JSON")
    parser.add_argument("--selftest", action="store_true")
    args = parser.parse_args(argv)

    if args.selftest:
        return subprocess.run(
            [sys.executable, str(BENCH_DIR / "selftest.py")],
            cwd=ROOT, env=pinned_env()).returncode

    workloads = [args.workload] if args.workload else workload_names(spec)
    load_start = os.getloadavg()[0]
    runs = []
    try:
        for workload in workloads:
            for repeat in range(args.repeat):
                run = run_once(spec, workload, args.seed + repeat,
                               args.seconds, args.trace)
                report(run)
                runs.append(run)
    except RuntimeError as error:
        print(f"error: {error}", file=sys.stderr)
        return 2
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            json.dump({
                "fingerprint": {
                    "nproc": os.cpu_count(),
                    "git_sha": git_sha(),
                    **runs[-1]["versions"],
                    "loadavg_1m": [load_start, os.getloadavg()[0]],
                },
                "seconds": args.seconds,
                "runs": runs,
            }, fh, indent=1)
    if args.workload and args.repeat == 1:
        print(driver_line(spec, runs[0]))
    return 0 if all(run["correct"] for run in runs) else 1


if __name__ == "__main__":
    sys.exit(main())

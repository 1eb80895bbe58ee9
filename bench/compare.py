"""Compare two ``run.py --out`` files: ``compare.py A.json B.json``.

For every pairing of end-to-end metric and workload it takes the median
over the runs of each file and holds B's against A's by the metric's
bound from ``BENCHMARK.json``.  One row per workload and metric, every
ratio with its base.  A pairing whose run-to-run spread (quartile
distance over median, in either file) exceeds the bound is reported
*unresolved*, not *unchanged*.  Exit code 1 on a regression or when
more operations failed in B than in A.
"""

from __future__ import annotations

import json
import sys
from statistics import median

from common import load_spec
from stats import quartile_spread


def load_runs(path: str) -> dict[str, list[dict]]:
    with open(path, encoding="utf-8") as fh:
        runs = json.load(fh)["runs"]
    by_workload: dict[str, list[dict]] = {}
    for run in runs:
        if not run["trace"]:
            by_workload.setdefault(run["workload"], []).append(run)
    return by_workload


def spread(values: list[float]) -> float:
    return quartile_spread(values) if len(values) >= 2 else 0.0


def verdict(metric: dict, a: list[float], b: list[float]) -> str:
    """What B's median being worse than A's by some share of A's means
    against the metric's bound."""
    base, new = median(a), median(b)
    change = (new - base) / base
    worse_by = change if metric["better"] == "lower" else -change
    if worse_by > metric["bound"]:
        return "REGRESSION"
    if max(spread(a), spread(b)) > metric["bound"]:
        return "unresolved"
    return "ok"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = load_spec()
    a_runs, b_runs = load_runs(argv[0]), load_runs(argv[1])
    bad = False
    print(f"{'workload':<14} {'metric':<12} {'A median':>12} {'B median':>12}"
          f" {'B/A':>7} {'spread A':>9} {'spread B':>9} {'bound':>6}  verdict")
    for workload in (w["name"] for w in spec["workloads"]):
        if workload not in a_runs or workload not in b_runs:
            print(f"{workload:<14} missing from one file")
            bad = True
            continue
        for metric in spec["end_to_end"]:
            a, b = ([run["metrics"][metric["name"]]["value"] for run in runs]
                    for runs in (a_runs[workload], b_runs[workload]))
            outcome = verdict(metric, a, b)
            bad |= outcome == "REGRESSION"
            print(f"{workload:<14} {metric['name']:<12} {median(a):>12.5g} "
                  f"{median(b):>12.5g} {median(b) / median(a):>7.3f} "
                  f"{spread(a):>9.3f} {spread(b):>9.3f} "
                  f"{metric['bound']:>6.2f}  {outcome} "
                  f"(n={len(a)},{len(b)} {metric['unit']})")
        failed = [sum(run["failed"] for run in runs) /
                  sum(run["attempted"] for run in runs)
                  for runs in (a_runs[workload], b_runs[workload])]
        wrong = [sum(not run["correct"] for run in runs)
                 for runs in (a_runs[workload], b_runs[workload])]
        higher = failed[1] > failed[0] or wrong[1] > wrong[0]
        bad |= higher
        print(f"{workload:<14} {'failed_share':<12} {failed[0]:>12.5g} "
              f"{failed[1]:>12.5g} {'':>7} {'':>9} {'':>9} {0:>6.2f}  "
              f"{'HIGHER' if higher else 'ok'} "
              f"(runs with a failed check: {wrong[0]}, {wrong[1]})")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())

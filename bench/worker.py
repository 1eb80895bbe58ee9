"""One workload in one fresh process.  ``run.py`` starts it with the
environment already pinned (``common.pinned_env``) and reads one JSON
object from its standard output.

``--trace 0`` sets up, runs the measured passes and checks the outputs.
``--trace 1`` does the same, then runs one more pass under the span
recorder and the per-layer probes of the layers this workload owns.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys
import time

from speed import SpeedMeter


def build(workload: str, seed: int, meter: SpeedMeter):
    if workload == "train_ptd":
        from wl_train import TrainPTD
        return TrainPTD(seed, meter)
    if workload == "sim_plan":
        from wl_sim import SimPlan
        return SimPlan(seed, meter)
    from wl_serve import Serve
    return Serve(workload, seed, meter)


def peak_rss_mb() -> float:
    """Peak resident set of this process plus that of its largest
    waited-for child (``ru_maxrss`` is in KiB on Linux)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024


def versions() -> dict[str, str]:
    import numpy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name', '?')} {blas.get('version', '?')}",
    }


def per_layer(workload, out_path: str) -> dict[str, float]:
    """One traced pass plus the workload's probes -> the per-layer
    metrics this workload owns."""
    from statistics import median

    from spans import SpanRecorder

    recorder = SpanRecorder()
    traced_s, metrics = workload.traced_pass(recorder)
    by_name = recorder.by_name()  # asserts sum(self) == sum(roots)
    roots = recorder.root_ns()
    metrics["obs.trace_overhead_share"] = (
        traced_s / workload.unit_seconds() - 1)
    metrics["obs.trace_spans"] = len(recorder.spans)
    metrics["iter_ms_p50"] = median(
        recorder.durations_ms(workload.iteration_span))
    for span, metric in workload.share_of_span.items():
        metrics[metric] = by_name[span]["self_ns"] / roots
    metrics.update(workload.probes())
    os.makedirs(os.path.dirname(out_path), exist_ok=True)
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump({"fields": ["name", "start_ns", "end_ns", "parent",
                              "request", "count"],
                   "spans": recorder.spans}, fh)
    return metrics


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--started", type=float, required=True,
                        help="time.perf_counter() when run.py started us")
    parser.add_argument("--spans-out", default="")
    args = parser.parse_args(argv)

    load_start = os.getloadavg()[0]
    meter = SpeedMeter()
    meter.start_timer()
    try:
        workload = build(args.workload, args.seed, meter)
        setup_end = time.perf_counter()
        result = {}
        try:
            workload.measure(args.seconds, args.trace)
            result["end_to_end"] = workload.end_to_end()
            # Now, so that the samples after the set-up count too.
            result["end_to_end"]["setup_s"] = meter.seconds(
                args.started, setup_end)
            if args.trace:
                result["per_layer"] = per_layer(workload, args.spans_out)
        finally:
            workload.close()
    finally:
        meter.stop_timer()
    attempted, failed, problems = workload.check()
    result["end_to_end"]["peak_rss_mb"] = peak_rss_mb()
    result.update(
        attempted=attempted, failed=failed, problems=problems,
        versions=versions(),
        loadavg_1m=[load_start, os.getloadavg()[0]],
        machine_speed=meter.summary(),
    )
    json.dump(result, sys.stdout)
    sys.stdout.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())

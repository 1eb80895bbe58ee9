"""``run.py --selftest``: the benchmark's own instruments, checked on
synthetic data and tiny shapes in a few seconds."""

from __future__ import annotations

import sys

import numpy as np

import wl_serve
import wl_train
from common import (
    METRIC_NAME,
    OWNED_PREFIXES,
    load_spec,
    metric_units,
    owned,
)
from spans import SpanRecorder
from speed import NOMINAL_S, SpeedMeter
from stats import timing_percentile


def expect_raises(error, fn, what: str) -> None:
    try:
        fn()
    except error:
        return
    raise AssertionError(f"{what}: expected {error.__name__}")


def check_span_recorder() -> None:
    ticks = iter(range(0, 10_000, 7))
    recorder = SpanRecorder(clock=lambda: next(ticks))
    root = recorder.open("root", request="r1")
    for _ in range(3):
        child = recorder.open("child")
        leaf = recorder.open("leaf")
        recorder.close(leaf, count=2)
        recorder.close(child)
    recorder.close(root)
    other = recorder.open("root")
    recorder.close(other)
    self_ns = recorder.self_times()
    assert sum(self_ns) == recorder.root_ns() > 0
    by_name = recorder.by_name()
    assert by_name["leaf"]["count"] == 6 and by_name["root"]["calls"] == 2
    assert all(s[4] == "r1" for s in recorder.spans[:-1]), "request inherited"
    assert recorder.spans[-1][4] is None

    recorder.spans[1][2] = recorder.spans[0][2] + 1  # child outlives parent
    expect_raises(AssertionError, recorder.self_times, "leaking child")
    open_span = SpanRecorder()
    open_span.open("never closed")
    expect_raises(RuntimeError, open_span.self_times, "open span")


def check_percentile() -> None:
    expect_raises(ValueError, lambda: timing_percentile(range(99), 90),
                  "p90 of 99 samples")
    assert timing_percentile(range(100), 90) == 89
    expect_raises(ValueError, lambda: timing_percentile(range(19), 50),
                  "p50 of 19 samples")


def check_seeded_inputs() -> None:
    for name in wl_serve.SHAPES:
        first = wl_serve.generated_inputs(name, 7)
        assert first == wl_serve.generated_inputs(name, 7), name
        assert first != wl_serve.generated_inputs(name, 8), name
    first, again, other = (wl_train.make_batch(seed) for seed in (7, 7, 8))
    for a, b, c in zip(first, again, other):
        assert a.tobytes() == b.tobytes() and a.tobytes() != c.tobytes()


def check_speed_meter() -> None:
    """An interval on a machine running the reference kernel 1.4x slower
    than nominal reads 1.4x shorter, net of the samples inside it."""
    meter = SpeedMeter()
    slow = 1.4 * NOMINAL_S
    for index in range(100):
        meter.starts.append(index * 0.025)
        meter.timed.append(meter.timed[-1] + slow)
        meter.cost.append(meter.cost[-1] + 2 * slow)
    got = meter.seconds(1.0, 1.5)  # holds the 20 samples of [1.0, 1.5)
    assert abs(got - (0.5 - 40 * slow) / 1.4) < 1e-12, got
    expect_raises(RuntimeError, lambda: SpeedMeter().seconds(0.0, 1.0),
                  "interval with no sample near it")


def check_metric_names() -> None:
    spec = load_spec()
    end_to_end = set(metric_units(spec, "end_to_end"))
    per_layer = set(metric_units(spec, "per_layer"))
    for name in end_to_end | per_layer:
        assert METRIC_NAME.match(name), name
    for workload in spec["workloads"]:
        assert METRIC_NAME.match(workload["name"]), workload
    assert {w["name"] for w in spec["workloads"]} == set(OWNED_PREFIXES)
    owners = {name: [w for w in OWNED_PREFIXES if owned(w, [name])]
              for name in per_layer}
    orphans = sorted(name for name, ws in owners.items() if not ws)
    assert not orphans, f"per-layer metrics no workload measures: {orphans}"

    tiny = wl_serve.ServeShape(
        vocab=64, requests=24, rate=0.5, prompt_len=(4, 8), max_new=(3, 6),
        temperature=1.0, top_k=5, checksums=True, warm_requests=1,
        passes_per_20s=(8, 8), oracle_samples=24, slo_ms=(1e9, 1e9))
    meter = SpeedMeter()
    meter.start_timer()
    try:
        serve = wl_serve.Serve("tiny", 3, meter, shape=tiny)
        serve.measure(20.0, trace=1)
        measured = set(serve.end_to_end()) | {"setup_s", "peak_rss_mb"}
        assert measured == end_to_end, measured ^ end_to_end
        recorder = SpanRecorder()
        _, traced = serve.traced_pass(recorder)
    finally:
        meter.stop_timer()
    recorder.self_times()
    assert {s[4] for s in recorder.spans if s[0] == "DecodeSession.step"} == {
        r.request_id for r in serve.trace}, "spans carry their request"
    emitted = set(traced) | set(serve.share_of_span.values())
    mine = set(owned("serve_decode", per_layer))
    assert emitted <= mine, emitted - mine
    assert traced["serve.slo_ok_share"] == 1.0
    attempted, failed, problems = serve.check()
    assert (attempted, failed, problems) == (24 * 9, 0, []), problems

    # A wrong stream must be caught.
    request_id = serve.trace[0].request_id
    serve.passes[0]["outputs"][request_id] = np.zeros(3, dtype=np.int64)
    _, failed, problems = serve.check()
    assert failed >= 2 and problems, "corrupted stream went unnoticed"


def main() -> int:
    for check in (check_span_recorder, check_percentile, check_speed_meter,
                  check_seeded_inputs, check_metric_names):
        check()
        print(f"selftest {check.__name__}: ok")
    return 0


if __name__ == "__main__":
    sys.exit(main())

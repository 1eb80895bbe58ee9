"""The eight run-log detectors as they were before they shared a base,
their code kept verbatim as the oracle for
``tests/test_monitor_differential.py``.

Each class takes its thresholds as constructor arguments, the
defaults being the values :mod:`repro.obs.monitor` now holds as class
constants; the differential builds these with the live constants so a
test that patches one compares like with like.
"""

from __future__ import annotations

import statistics
from collections import deque

from repro.obs.monitor import Alert


class Detector:
    """Base class: feed events, collect alerts.

    ``observe`` returns the alerts this event triggered (usually 0 or
    1).  Detectors are stream-online: no lookahead, state only.
    """

    name = "detector"


class LossSpikeDetector(Detector):
    """Robust z-score of the loss vs a rolling median/MAD window.

    The MAD is scaled by the 1.4826 normal-consistency constant; a
    floor keeps the score finite on near-constant windows (early
    training on a tiny model is *very* flat).
    """

    name = "loss-spike"

    def __init__(self, window: int = 16, z_threshold: float = 8.0,
                 min_points: int = 4):
        if window < 2:
            raise ValueError(f"window must be >= 2, got {window}")
        if z_threshold <= 0:
            raise ValueError(f"z_threshold must be > 0, got {z_threshold}")
        self.window: deque[float] = deque(maxlen=window)
        self.z_threshold = z_threshold
        self.min_points = max(2, min_points)

    def observe(self, event: dict) -> list[Alert]:
        if event["type"] != "iteration" or event.get("loss") is None:
            return []
        loss = float(event["loss"])
        alerts: list[Alert] = []
        if len(self.window) >= self.min_points:
            med = statistics.median(self.window)
            mad = statistics.median(abs(x - med) for x in self.window)
            scale = 1.4826 * mad + 1e-3 * max(abs(med), 1e-9)
            z = (loss - med) / scale
            if z > self.z_threshold:
                alerts.append(Alert(
                    detector=self.name, severity="critical",
                    iteration=int(event["iteration"]),
                    seq=int(event["seq"]),
                    message=(f"loss {loss:.4g} is {z:.1f} MADs above "
                             f"rolling median {med:.4g}"),
                    evidence={"loss": loss, "median": med, "mad": mad,
                              "z": z},
                ))
        if not alerts:
            # Spikes stay out of the baseline so one blow-up does not
            # widen the window enough to mask the next.
            self.window.append(loss)
        return alerts


class ThroughputCollapseDetector(Detector):
    """tokens/s against the run's expected throughput.

    ``expected_tokens_per_s`` (from the run manifest, where the
    simulator records its eq. (3)-derived analytic rate) pins the
    baseline; without it the detector self-calibrates on a rolling
    median of healthy iterations.  The collapse must *persist* for
    ``min_consecutive`` records before the (once-per-episode) alert
    fires — a single slow iteration on a busy machine is scheduler
    jitter, not a collapse.
    """

    name = "throughput-collapse"

    def __init__(self, collapse_fraction: float = 0.5, window: int = 8,
                 min_points: int = 3, min_consecutive: int = 2):
        if not 0 < collapse_fraction < 1:
            raise ValueError(
                f"collapse_fraction must be in (0, 1), got {collapse_fraction}"
            )
        if min_consecutive < 1:
            raise ValueError(
                f"min_consecutive must be >= 1, got {min_consecutive}"
            )
        self.collapse_fraction = collapse_fraction
        self.window: deque[float] = deque(maxlen=window)
        self.min_points = max(1, min_points)
        self.min_consecutive = min_consecutive
        self.expected: float | None = None
        self._below = 0
        self._declared = False

    def observe(self, event: dict) -> list[Alert]:
        if event["type"] == "run-start":
            expected = event.get("expected_tokens_per_s")
            self.expected = float(expected) if expected else None
            return []
        if event["type"] != "iteration":
            return []
        rate = event.get("tokens_per_s")
        if rate is None:
            return []
        rate = float(rate)
        if self.expected is not None:
            baseline = self.expected
        elif len(self.window) >= self.min_points:
            baseline = statistics.median(self.window)
        else:
            baseline = None
        alerts: list[Alert] = []
        if baseline is not None and rate < self.collapse_fraction * baseline:
            self._below += 1
            if self._below >= self.min_consecutive and not self._declared:
                self._declared = True
                alerts.append(Alert(
                    detector=self.name, severity="critical",
                    iteration=int(event["iteration"]),
                    seq=int(event["seq"]),
                    message=(f"throughput {rate:.4g} tokens/s below "
                             f"{self.collapse_fraction:.0%} of expected "
                             f"{baseline:.4g} for {self._below} "
                             f"consecutive records"),
                    evidence={"tokens_per_s": rate, "expected": baseline,
                              "fraction": (rate / baseline) if baseline
                              else 0.0,
                              "consecutive": self._below},
                ))
        else:
            self._below = 0
            self._declared = False
            self.window.append(rate)  # healthy samples calibrate
        return alerts


class StragglerDetector(Detector):
    """Per-rank span self-time skew, leave-one-out median.

    A rank is a straggler when its busy time exceeds ``skew_threshold``
    times the median of the *other* ranks' busy times for
    ``min_consecutive`` consecutive iteration records — synchronous
    training paces every iteration at the slowest rank, so this is
    exactly the skew that costs goodput, and demanding persistence
    keeps one jittery record from raising a false alarm.
    """

    name = "straggler"

    def __init__(self, skew_threshold: float = 3.0, min_ranks: int = 2,
                 min_consecutive: int = 2):
        if skew_threshold <= 1:
            raise ValueError(
                f"skew_threshold must be > 1, got {skew_threshold}"
            )
        if min_consecutive < 1:
            raise ValueError(
                f"min_consecutive must be >= 1, got {min_consecutive}"
            )
        self.skew_threshold = skew_threshold
        self.min_ranks = max(2, min_ranks)
        self.min_consecutive = min_consecutive
        self._skewed_rounds: dict[int, int] = {}
        self.stragglers: set[int] = set()  # declared (persistent) ranks

    def observe(self, event: dict) -> list[Alert]:
        if event["type"] != "iteration":
            return []
        busy = event.get("rank_busy")
        if not busy or len(busy) < self.min_ranks:
            return []
        busy = {int(r): float(v) for r, v in busy.items()}
        alerts: list[Alert] = []
        for rank, t in busy.items():
            others = [v for r, v in busy.items() if r != rank]
            med = statistics.median(others)
            if med > 0 and t > self.skew_threshold * med:
                rounds = self._skewed_rounds.get(rank, 0) + 1
                self._skewed_rounds[rank] = rounds
                if (rounds >= self.min_consecutive
                        and rank not in self.stragglers):
                    self.stragglers.add(rank)  # alert once per episode
                    alerts.append(Alert(
                        detector=self.name, severity="warning",
                        iteration=int(event["iteration"]),
                        seq=int(event["seq"]),
                        message=(f"rank {rank} busy {t:.4g}s is "
                                 f"{t / med:.1f}x the other ranks' "
                                 f"median {med:.4g}s "
                                 f"({rounds} consecutive records)"),
                        evidence={"rank": rank, "busy": t, "median": med,
                                  "skew": t / med, "consecutive": rounds},
                    ))
            else:
                self._skewed_rounds[rank] = 0
                self.stragglers.discard(rank)
        return alerts


class HeartbeatGapDetector(Detector):
    """Consecutive missed liveness rounds declare a rank dead.

    The stream twin of the heartbeat latency model
    (:class:`repro.resilience.detect.HeartbeatDetector`): a rank absent
    from ``missed_threshold`` consecutive ``heartbeat`` rounds raises a
    critical alert.  Recovery events (restore/reshard/restart) reset
    the roster — after a reshard the world legitimately shrinks.
    """

    name = "heartbeat-gap"

    _RESETS = ("restore", "reshard", "restart-from-scratch")

    def __init__(self, missed_threshold: int = 2):
        if missed_threshold < 1:
            raise ValueError(
                f"missed_threshold must be >= 1, got {missed_threshold}"
            )
        self.missed_threshold = missed_threshold
        self.missed: dict[int, int] = {}
        self.declared: set[int] = set()

    def _reset(self) -> None:
        self.missed.clear()
        self.declared.clear()

    def observe(self, event: dict) -> list[Alert]:
        if event["type"] == "run-start":
            self._reset()
            return []
        if event["type"] == "recovery" and event.get("kind") in self._RESETS:
            self._reset()
            return []
        if event["type"] != "heartbeat":
            return []
        alive = set(int(r) for r in event["ranks"])
        for rank in alive:
            self.missed[rank] = 0
            self.declared.discard(rank)
        alerts: list[Alert] = []
        for rank in set(self.missed) - alive:
            self.missed[rank] += 1
            if (self.missed[rank] >= self.missed_threshold
                    and rank not in self.declared):
                self.declared.add(rank)
                alerts.append(Alert(
                    detector=self.name, severity="critical",
                    iteration=int(event.get("iteration", -1)),
                    seq=int(event["seq"]),
                    message=(f"rank {rank} silent for "
                             f"{self.missed[rank]} heartbeat rounds"),
                    evidence={"rank": rank, "missed": self.missed[rank]},
                ))
        return alerts


class CheckpointHealthDetector(Detector):
    """Checkpoint-layer trouble: transient save retries (warning) and
    corrupted snapshots skipped during restore (critical — the run just
    lost committed progress to bit-rot)."""

    name = "checkpoint"

    def __init__(self):
        self._seen: set[tuple[str, int]] = set()  # dedup per (kind, it)

    def observe(self, event: dict) -> list[Alert]:
        if event["type"] != "recovery":
            return []
        kind = event.get("kind")
        if kind not in ("save-retry", "checkpoint-skipped"):
            return []
        iteration = int(event.get("iteration", -1))
        key = (kind, iteration)
        if key in self._seen:
            return []
        self._seen.add(key)
        critical = kind == "checkpoint-skipped"
        return [Alert(
            detector=self.name,
            severity="critical" if critical else "warning",
            iteration=iteration, seq=int(event["seq"]),
            message=(
                f"restore skipped corrupted checkpoint at iteration "
                f"{iteration}" if critical else
                f"checkpoint save at iteration {iteration} needed a retry"
            ),
            evidence={"kind": kind, "detail": event.get("detail", "")},
        )]


class QueueGrowthDetector(Detector):
    """Admission starvation: the waiting queue both deep and
    non-decreasing for ``min_consecutive`` consecutive serve iteration
    records.

    Depth alone is not a signal under bursty arrivals (a burst drains);
    a deep queue that *keeps not draining* is -- the symptom of an
    allocator-exhaustion storm or a stuck scheduler.  Alerts once per
    episode; the episode ends when the queue dips below ``min_depth``.
    """

    name = "queue-growth"

    def __init__(self, min_depth: int = 6, min_consecutive: int = 3):
        if min_depth < 1:
            raise ValueError(f"min_depth must be >= 1, got {min_depth}")
        if min_consecutive < 1:
            raise ValueError(
                f"min_consecutive must be >= 1, got {min_consecutive}"
            )
        self.min_depth = min_depth
        self.min_consecutive = min_consecutive
        self._last: int | None = None
        self._rounds = 0
        self._declared = False

    def observe(self, event: dict) -> list[Alert]:
        if event["type"] != "iteration" or event.get("waiting") is None:
            return []
        waiting = int(event["waiting"])
        alerts: list[Alert] = []
        grown = self._last is not None and waiting >= self._last
        if waiting >= self.min_depth and grown:
            self._rounds += 1
            if self._rounds >= self.min_consecutive and not self._declared:
                self._declared = True
                alerts.append(Alert(
                    detector=self.name, severity="critical",
                    iteration=int(event["iteration"]),
                    seq=int(event["seq"]),
                    message=(f"waiting queue at {waiting} and "
                             f"non-decreasing for {self._rounds} "
                             f"consecutive ticks"),
                    evidence={"waiting": waiting,
                              "consecutive": self._rounds},
                ))
        else:
            self._rounds = 0
            if waiting < self.min_depth:
                self._declared = False
        self._last = waiting
        return alerts


class TtftSloDetector(Detector):
    """Time-to-first-token past the SLO, on the engine's virtual clock.

    Fires on the late ``first-token`` itself, or on a ``timeout`` of a
    request that never produced one (a crash-looped or starved request
    breaches the SLO without ever reaching ``first-token``).  At most
    one alert per request.
    """

    name = "ttft-slo"

    def __init__(self, slo_steps: int = 32):
        if slo_steps < 1:
            raise ValueError(f"slo_steps must be >= 1, got {slo_steps}")
        self.slo_steps = slo_steps
        self._arrived: dict[str, int] = {}
        self._alerted: set[str] = set()

    def observe(self, event: dict) -> list[Alert]:
        if event["type"] != "request":
            return []
        phase, rid = event.get("phase"), event.get("request_id")
        step = int(event.get("step", 0))
        if phase == "arrive":
            self._arrived[rid] = step
            return []
        if rid not in self._arrived or rid in self._alerted:
            return []
        if phase == "first-token":
            ttft = step - self._arrived[rid]
        elif phase == "timeout":
            ttft = step - self._arrived[rid]  # never served at all
        else:
            return []
        if ttft <= self.slo_steps:
            return []
        self._alerted.add(rid)
        starved = phase == "timeout"
        return [Alert(
            detector=self.name, severity="critical",
            iteration=step, seq=int(event["seq"]),
            message=(f"request {rid} "
                     + ("timed out with no first token after"
                        if starved else "first token after")
                     + f" {ttft} steps (SLO {self.slo_steps})"),
            evidence={"request_id": rid, "ttft_steps": ttft,
                      "slo_steps": self.slo_steps, "starved": starved},
        )]


class PreemptionStormDetector(Detector):
    """Preempt/retry churn clustered in a sliding virtual-clock window.

    Healthy continuous batching preempts occasionally; ``threshold``
    such events inside ``window_steps`` is thrash -- repeated fault
    recovery (KV corruption retries) or a pool far too small.  Alerts
    once per episode; the episode ends when the window empties.
    """

    name = "preemption-storm"

    def __init__(self, window_steps: int = 8, threshold: int = 4):
        if window_steps < 1:
            raise ValueError(
                f"window_steps must be >= 1, got {window_steps}"
            )
        if threshold < 1:
            raise ValueError(f"threshold must be >= 1, got {threshold}")
        self.window_steps = window_steps
        self.threshold = threshold
        self._events: deque[int] = deque()
        self._declared = False

    def observe(self, event: dict) -> list[Alert]:
        if event["type"] != "request":
            return []
        phase = event.get("phase")
        if phase not in ("preempt", "retry"):
            return []
        step = int(event.get("step", 0))
        self._events.append(step)
        while self._events and self._events[0] < step - self.window_steps:
            self._events.popleft()
        count = len(self._events)
        if count < self.threshold:
            self._declared = False  # the storm abated; episode over
            return []
        if self._declared:
            return []
        self._declared = True
        return [Alert(
            detector=self.name, severity="warning",
            iteration=step, seq=int(event["seq"]),
            message=(f"{count} preempt/retry events within "
                     f"{self.window_steps} steps"),
            evidence={"count": count, "window_steps": self.window_steps},
        )]


def default_detectors() -> list[Detector]:
    """The default-threshold detector set the acceptance grid scores.

    Includes the serve-side detectors: they key on fields only the
    serve engine emits (``waiting`` iteration counts, ``request``
    events), so they are inert on training streams.
    """
    return [
        LossSpikeDetector(),
        ThroughputCollapseDetector(),
        StragglerDetector(),
        HeartbeatGapDetector(),
        CheckpointHealthDetector(),
        QueueGrowthDetector(),
        TtftSloDetector(),
        PreemptionStormDetector(),
    ]


# -- not part of the copy: the reference set at the live thresholds ----------


def reference_detectors() -> list[Detector]:
    """The old detectors, one of each in ``repro.obs.monitor.DETECTORS``
    order, built with the thresholds the new classes hold right now."""
    from repro.obs import monitor as new

    return [
        LossSpikeDetector(window=new.LossSpikeDetector.WINDOW,
                          z_threshold=new.LossSpikeDetector.Z_THRESHOLD,
                          min_points=new.LossSpikeDetector.MIN_POINTS),
        ThroughputCollapseDetector(
            collapse_fraction=new.ThroughputCollapseDetector.COLLAPSE_FRACTION,
            window=new.ThroughputCollapseDetector.WINDOW,
            min_points=new.ThroughputCollapseDetector.MIN_POINTS,
            min_consecutive=new.ThroughputCollapseDetector.CONSECUTIVE),
        StragglerDetector(
            skew_threshold=new.StragglerDetector.SKEW_THRESHOLD,
            min_ranks=new.StragglerDetector.MIN_RANKS,
            min_consecutive=new.StragglerDetector.CONSECUTIVE),
        HeartbeatGapDetector(
            missed_threshold=new.HeartbeatGapDetector.CONSECUTIVE),
        CheckpointHealthDetector(),
        QueueGrowthDetector(
            min_depth=new.QueueGrowthDetector.MIN_DEPTH,
            min_consecutive=new.QueueGrowthDetector.CONSECUTIVE),
        TtftSloDetector(slo_steps=new.TtftSloDetector.SLO_STEPS),
        PreemptionStormDetector(
            window_steps=new.PreemptionStormDetector.WINDOW_STEPS,
            threshold=new.PreemptionStormDetector.THRESHOLD),
    ]

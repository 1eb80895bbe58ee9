"""Mission control: online anomaly detectors over a run event stream.

The detectors consume the telemetry events of a :mod:`repro.obs.runlog`
stream (``iteration``, ``heartbeat``, ``recovery``, ``checkpoint``) one
at a time — never the ground-truth ``fault`` events — and emit typed
:class:`Alert` records with severity and evidence.  Each one emulates a
diagnostic MegaScale (arXiv 2402.15627) runs in production:

- :class:`LossSpikeDetector` — robust z-score of the loss against a
  rolling median/MAD window (MegaScale's loss-blowup monitor);
- :class:`ThroughputCollapseDetector` — tokens/s against the run's
  expected throughput: the eq. (3) analytic expectation when the
  manifest carries one (simulator runs), else a self-calibrated
  rolling median (MegaScale's "performance degradation" dashboards);
- :class:`StragglerDetector` — per-rank span self-time skew,
  leave-one-out median (MegaScale's straggler hunter);
- :class:`HeartbeatGapDetector` — consecutive missed liveness rounds,
  the stream twin of the
  :class:`repro.resilience.detect.HeartbeatDetector` latency model;
- :class:`CheckpointHealthDetector` — save retries (flaky filesystem)
  and corrupted-snapshot skips during restore.

Serve-side detectors watch the same stream when it comes from the
continuous-batching engine (``request`` lifecycle events plus
``iteration`` records carrying ``waiting``/``tokens`` counts); they
no-op on training streams:

- :class:`QueueGrowthDetector` — the waiting queue deep *and*
  non-decreasing for several consecutive ticks (admission starvation,
  e.g. an allocator-exhaustion storm);
- :class:`TtftSloDetector` — a request's time-to-first-token past its
  SLO, or timed out without ever producing a token (decode crashes
  push the victim's TTFT through backoff);
- :class:`PreemptionStormDetector` — preempt/retry events clustered
  inside a sliding step window (cache thrash or repeated fault
  recovery).

All eight share :class:`Detector`, which builds their alerts and fires
each once per episode; their thresholds are class constants.
:class:`Monitor` drives one of each (:data:`DETECTORS`) over a stream
(live, as a :class:`~repro.obs.runlog.RunLogger` observer, or offline
over a log file) and keeps the state the ``python -m repro monitor``
dashboard renders: metric histories, per-rank health, the alert feed,
and acknowledgements.

Because the chaos harness writes ground-truth ``fault`` events into the
same log, detector quality is *measurable*: :func:`score_run` matches
alerts to injected faults and reports per-detector precision, recall,
and detection latency — the scoreboard ``repro chaos --monitor``
prints and exports via ``--metrics-out``.
"""

from __future__ import annotations

import statistics
from collections import deque
from dataclasses import dataclass, field

from .metrics import MetricsRegistry

SEVERITIES = ("warning", "critical")

#: Ground-truth fault kinds → the detector expected to catch them.
EXPECTED_DETECTOR = {
    "kill": "heartbeat-gap",
    "loss-spike": "loss-spike",
    "stall": "throughput-collapse",
    "rank-stall": "straggler",
    "save-failure": "checkpoint",
    "corrupt-checkpoint": "checkpoint",
    # serve-side chaos (repro.resilience.serve_chaos)
    "alloc-exhaustion": "queue-growth",
    "decode-crash": "ttft-slo",
    "kv-corruption": "preemption-storm",
}


@dataclass(frozen=True)
class Alert:
    """One detector firing: what, when, how bad, and the evidence."""

    detector: str
    severity: str  # warning | critical
    iteration: int
    seq: int       # event sequence number at which the detector fired
    message: str
    evidence: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.severity not in SEVERITIES:
            raise ValueError(
                f"severity must be one of {SEVERITIES}, got {self.severity!r}"
            )

    def describe(self) -> str:
        flag = "!!" if self.severity == "critical" else " !"
        return (f"{flag} it={self.iteration:>4} [{self.detector}] "
                f"{self.message}")


class Detector:
    """Base class: feed events, collect alerts.

    ``observe`` returns the alerts this event triggered (usually 0 or
    1).  Detectors are stream-online: no lookahead, state only.

    The base holds the episode bookkeeping the detectors share.  Per
    key -- a rank, a request, a checkpoint, or ``None`` for the whole
    run -- it counts consecutive bad records and remembers whether the
    key's current episode has alerted: :meth:`_bad` fires once, on the
    ``CONSECUTIVE``-th bad record in a row, and stays quiet until
    :meth:`_good` ends the episode.
    """

    name = "detector"
    severity = "critical"
    #: Consecutive bad records before an episode's one alert.
    CONSECUTIVE = 1

    def __init__(self) -> None:
        self.rounds: dict = {}      # key -> consecutive bad records
        self.declared: set = set()  # keys whose episode has alerted

    def _bad(self, key=None) -> int:
        """Count one more bad record for ``key``; returns that count if
        this record fires the episode's alert, else 0."""
        rounds = self.rounds.get(key, 0) + 1
        self.rounds[key] = rounds
        if rounds < self.CONSECUTIVE or key in self.declared:
            return 0
        self.declared.add(key)
        return rounds

    def _good(self, key=None, *, episode_over: bool = True) -> None:
        """A healthy record: the count restarts, and unless the
        detector says otherwise the episode ends (the next one alerts)."""
        self.rounds[key] = 0
        if episode_over:
            self.declared.discard(key)

    def _alert(self, event: dict, message: str, *,
               severity: str | None = None, iteration: int | None = None,
               **evidence) -> Alert:
        """This detector's alert, fired at ``event``."""
        return Alert(
            detector=self.name, severity=severity or self.severity,
            iteration=(int(event["iteration"]) if iteration is None
                       else iteration),
            seq=int(event["seq"]), message=message, evidence=evidence,
        )


class LossSpikeDetector(Detector):
    """Robust z-score of the loss vs a rolling median/MAD window.

    The MAD is scaled by the 1.4826 normal-consistency constant; a
    floor keeps the score finite on near-constant windows (early
    training on a tiny model is *very* flat).
    """

    name = "loss-spike"
    WINDOW = 16
    Z_THRESHOLD = 8.0
    MIN_POINTS = 4

    def __init__(self) -> None:
        super().__init__()
        self.window: deque[float] = deque(maxlen=self.WINDOW)

    def observe(self, event: dict) -> list[Alert]:
        if event["type"] != "iteration" or event.get("loss") is None:
            return []
        loss = float(event["loss"])
        if len(self.window) >= self.MIN_POINTS:
            med = statistics.median(self.window)
            mad = statistics.median(abs(x - med) for x in self.window)
            scale = 1.4826 * mad + 1e-3 * max(abs(med), 1e-9)
            z = (loss - med) / scale
            if z > self.Z_THRESHOLD:
                # Spikes stay out of the baseline so one blow-up does
                # not widen the window enough to mask the next.
                return [self._alert(
                    event, f"loss {loss:.4g} is {z:.1f} MADs above "
                           f"rolling median {med:.4g}",
                    loss=loss, median=med, mad=mad, z=z,
                )]
        self.window.append(loss)
        return []


class ThroughputCollapseDetector(Detector):
    """tokens/s against the run's expected throughput.

    ``expected_tokens_per_s`` (from the run manifest, where the
    simulator records its eq. (3)-derived analytic rate) pins the
    baseline; without it the detector self-calibrates on a rolling
    median of healthy iterations.  The collapse must *persist* for
    ``CONSECUTIVE`` records before the (once-per-episode) alert fires
    — a single slow iteration on a busy machine is scheduler jitter,
    not a collapse.
    """

    name = "throughput-collapse"
    COLLAPSE_FRACTION = 0.5
    WINDOW = 8
    MIN_POINTS = 3
    CONSECUTIVE = 2

    def __init__(self) -> None:
        super().__init__()
        self.window: deque[float] = deque(maxlen=self.WINDOW)
        self.expected: float | None = None

    def observe(self, event: dict) -> list[Alert]:
        if event["type"] == "run-start":
            expected = event.get("expected_tokens_per_s")
            self.expected = float(expected) if expected else None
            return []
        if event["type"] != "iteration" or event.get("tokens_per_s") is None:
            return []
        rate = float(event["tokens_per_s"])
        if self.expected is not None:
            baseline = self.expected
        elif len(self.window) >= self.MIN_POINTS:
            baseline = statistics.median(self.window)
        else:
            baseline = None
        if not (baseline is not None
                and rate < self.COLLAPSE_FRACTION * baseline):
            self._good()
            self.window.append(rate)  # healthy samples calibrate
            return []
        below = self._bad()
        if not below:
            return []
        return [self._alert(
            event, f"throughput {rate:.4g} tokens/s below "
                   f"{self.COLLAPSE_FRACTION:.0%} of expected "
                   f"{baseline:.4g} for {below} consecutive records",
            tokens_per_s=rate, expected=baseline,
            fraction=(rate / baseline) if baseline else 0.0,
            consecutive=below,
        )]


class StragglerDetector(Detector):
    """Per-rank span self-time skew, leave-one-out median.

    A rank is a straggler when its busy time exceeds ``SKEW_THRESHOLD``
    times the median of the *other* ranks' busy times for
    ``CONSECUTIVE`` consecutive iteration records — synchronous
    training paces every iteration at the slowest rank, so this is
    exactly the skew that costs goodput, and demanding persistence
    keeps one jittery record from raising a false alarm.
    """

    name = "straggler"
    severity = "warning"
    SKEW_THRESHOLD = 3.0
    MIN_RANKS = 2
    CONSECUTIVE = 2

    @property
    def stragglers(self) -> set[int]:
        """The ranks declared (persistently) slow."""
        return self.declared

    def observe(self, event: dict) -> list[Alert]:
        if event["type"] != "iteration":
            return []
        busy = event.get("rank_busy")
        if not busy or len(busy) < self.MIN_RANKS:
            return []
        busy = {int(r): float(v) for r, v in busy.items()}
        alerts: list[Alert] = []
        for rank, t in busy.items():
            others = [v for r, v in busy.items() if r != rank]
            med = statistics.median(others)
            if not (med > 0 and t > self.SKEW_THRESHOLD * med):
                self._good(rank)
                continue
            rounds = self._bad(rank)
            if rounds:
                alerts.append(self._alert(
                    event, f"rank {rank} busy {t:.4g}s is {t / med:.1f}x "
                           f"the other ranks' median {med:.4g}s "
                           f"({rounds} consecutive records)",
                    rank=rank, busy=t, median=med, skew=t / med,
                    consecutive=rounds,
                ))
        return alerts


class HeartbeatGapDetector(Detector):
    """Consecutive missed liveness rounds declare a rank dead.

    The stream twin of the heartbeat latency model
    (:class:`repro.resilience.detect.HeartbeatDetector`): a rank absent
    from ``CONSECUTIVE`` consecutive ``heartbeat`` rounds raises a
    critical alert.  Recovery events (restore/reshard/restart) reset
    the roster — after a reshard the world legitimately shrinks.
    """

    name = "heartbeat-gap"
    CONSECUTIVE = 2

    _RESETS = ("restore", "reshard", "restart-from-scratch")

    def observe(self, event: dict) -> list[Alert]:
        if event["type"] == "run-start" or (
                event["type"] == "recovery"
                and event.get("kind") in self._RESETS):
            self.rounds.clear()
            self.declared.clear()
            return []
        if event["type"] != "heartbeat":
            return []
        alive = set(int(r) for r in event["ranks"])
        for rank in alive:
            self._good(rank)
        alerts: list[Alert] = []
        for rank in set(self.rounds) - alive:
            missed = self._bad(rank)
            if missed:
                alerts.append(self._alert(
                    event, f"rank {rank} silent for {missed} heartbeat "
                           "rounds",
                    iteration=int(event.get("iteration", -1)),
                    rank=rank, missed=missed,
                ))
        return alerts


class CheckpointHealthDetector(Detector):
    """Checkpoint-layer trouble: transient save retries (warning) and
    corrupted snapshots skipped during restore (critical — the run just
    lost committed progress to bit-rot).  One alert per (kind,
    iteration)."""

    name = "checkpoint"

    def observe(self, event: dict) -> list[Alert]:
        if event["type"] != "recovery":
            return []
        kind = event.get("kind")
        if kind not in ("save-retry", "checkpoint-skipped"):
            return []
        iteration = int(event.get("iteration", -1))
        if not self._bad((kind, iteration)):
            return []
        critical = kind == "checkpoint-skipped"
        return [self._alert(
            event,
            f"restore skipped corrupted checkpoint at iteration "
            f"{iteration}" if critical else
            f"checkpoint save at iteration {iteration} needed a retry",
            severity="critical" if critical else "warning",
            iteration=iteration, kind=kind, detail=event.get("detail", ""),
        )]


class QueueGrowthDetector(Detector):
    """Admission starvation: the waiting queue both deep and
    non-decreasing for ``CONSECUTIVE`` consecutive serve iteration
    records.

    Depth alone is not a signal under bursty arrivals (a burst drains);
    a deep queue that *keeps not draining* is -- the symptom of an
    allocator-exhaustion storm or a stuck scheduler.  Alerts once per
    episode; the episode ends when the queue dips below ``MIN_DEPTH``,
    not on a tick where a still-deep queue shrank.
    """

    name = "queue-growth"
    MIN_DEPTH = 6
    CONSECUTIVE = 3

    def __init__(self) -> None:
        super().__init__()
        self._last: int | None = None

    def observe(self, event: dict) -> list[Alert]:
        if event["type"] != "iteration" or event.get("waiting") is None:
            return []
        waiting = int(event["waiting"])
        grown = self._last is not None and waiting >= self._last
        self._last = waiting
        if not (waiting >= self.MIN_DEPTH and grown):
            self._good(episode_over=waiting < self.MIN_DEPTH)
            return []
        rounds = self._bad()
        if not rounds:
            return []
        return [self._alert(
            event, f"waiting queue at {waiting} and non-decreasing for "
                   f"{rounds} consecutive ticks",
            waiting=waiting, consecutive=rounds,
        )]


class TtftSloDetector(Detector):
    """Time-to-first-token past the SLO, on the engine's virtual clock.

    Fires on the late ``first-token`` itself, or on a ``timeout`` of a
    request that never produced one (a crash-looped or starved request
    breaches the SLO without ever reaching ``first-token``).  At most
    one alert per request.
    """

    name = "ttft-slo"
    SLO_STEPS = 32

    def __init__(self) -> None:
        super().__init__()
        self._arrived: dict[str, int] = {}

    def observe(self, event: dict) -> list[Alert]:
        if event["type"] != "request":
            return []
        phase, rid = event.get("phase"), event.get("request_id")
        step = int(event.get("step", 0))
        if phase == "arrive":
            self._arrived[rid] = step
            return []
        if rid not in self._arrived or phase not in ("first-token",
                                                     "timeout"):
            return []
        ttft = step - self._arrived[rid]
        if ttft <= self.SLO_STEPS or not self._bad(rid):
            return []
        starved = phase == "timeout"  # never served at all
        return [self._alert(
            event, f"request {rid} "
                   + ("timed out with no first token after"
                      if starved else "first token after")
                   + f" {ttft} steps (SLO {self.SLO_STEPS})",
            iteration=step, request_id=rid, ttft_steps=ttft,
            slo_steps=self.SLO_STEPS, starved=starved,
        )]


class PreemptionStormDetector(Detector):
    """Preempt/retry churn clustered in a sliding virtual-clock window.

    Healthy continuous batching preempts occasionally; ``THRESHOLD``
    such events inside ``WINDOW_STEPS`` is thrash -- repeated fault
    recovery (KV corruption retries) or a pool far too small.  Alerts
    once per episode; the episode ends when the window thins out.
    """

    name = "preemption-storm"
    severity = "warning"
    WINDOW_STEPS = 8
    THRESHOLD = 4

    def __init__(self) -> None:
        super().__init__()
        self._events: deque[int] = deque()

    def observe(self, event: dict) -> list[Alert]:
        if (event["type"] != "request"
                or event.get("phase") not in ("preempt", "retry")):
            return []
        step = int(event.get("step", 0))
        self._events.append(step)
        while self._events and self._events[0] < step - self.WINDOW_STEPS:
            self._events.popleft()
        count = len(self._events)
        if count < self.THRESHOLD:
            self._good()
            return []
        if not self._bad():
            return []
        return [self._alert(
            event, f"{count} preempt/retry events within "
                   f"{self.WINDOW_STEPS} steps",
            iteration=step, count=count, window_steps=self.WINDOW_STEPS,
        )]


#: Every :class:`Monitor` runs one of each.  The serve-side detectors
#: key on fields only the serve engine emits (``waiting`` iteration
#: counts, ``request`` events), so they are inert on training streams.
DETECTORS = (
    LossSpikeDetector,
    ThroughputCollapseDetector,
    StragglerDetector,
    HeartbeatGapDetector,
    CheckpointHealthDetector,
    QueueGrowthDetector,
    TtftSloDetector,
    PreemptionStormDetector,
)


# ---------------------------------------------------------------------------
# the monitor
# ---------------------------------------------------------------------------


@dataclass
class RankHealth:
    """Dashboard state for one rank."""

    rank: int
    status: str = "ok"  # ok | slow | silent | lost
    last_busy: float | None = None


class Monitor:
    """Drives one of each of :data:`DETECTORS` over a run event stream.

    Use live by attaching :meth:`observe` as a
    :class:`~repro.obs.runlog.RunLogger` observer, or offline via
    :func:`run_monitor` over a parsed log.  Keeps everything the TTY
    dashboard renders: manifest, metric histories, per-rank health,
    alert feed, acknowledgements.
    """

    def __init__(self) -> None:
        self.detectors = [cls() for cls in DETECTORS]
        self.alerts: list[Alert] = []
        self.acks: list[tuple[str, int]] = []  # (detector, ack seq)
        self.manifest: dict = {}
        self.losses: list[float] = []
        self.tokens_per_s: list[float] = []
        self.mfu: list[float] = []
        self.iterations = 0
        self.checkpoints = 0
        self.recoveries = 0
        self.faults_injected = 0
        self.status = "running"
        self.ranks: dict[int, RankHealth] = {}
        self.events_seen = 0

    # -- stream consumption -------------------------------------------------
    def observe(self, event: dict) -> list[Alert]:
        """Feed one event; returns the alerts it triggered."""
        self.events_seen += 1
        etype = event["type"]
        if etype == "run-start":
            self.manifest = event
        elif etype == "iteration":
            self.iterations = max(self.iterations,
                                  int(event["iteration"]) + 1)
            if event.get("loss") is not None:
                self.losses.append(float(event["loss"]))
            if event.get("tokens_per_s") is not None:
                self.tokens_per_s.append(float(event["tokens_per_s"]))
            if event.get("mfu") is not None:
                self.mfu.append(float(event["mfu"]))
            for r, v in (event.get("rank_busy") or {}).items():
                health = self.ranks.setdefault(int(r), RankHealth(int(r)))
                health.last_busy = float(v)
        elif etype == "heartbeat":
            for r in event["ranks"]:
                self.ranks.setdefault(int(r), RankHealth(int(r)))
        elif etype == "checkpoint":
            self.checkpoints += 1
        elif etype == "recovery":
            self.recoveries += 1
            if event.get("kind") == "reshard":
                self.ranks.clear()  # world changed; roster rebuilds
        elif etype == "fault":
            self.faults_injected += 1
        elif etype == "ack":
            self.acks.append((event["detector"], int(event["seq"])))
        elif etype == "run-end":
            self.status = event.get("status", "completed")
        fired: list[Alert] = []
        for detector in self.detectors:
            fired.extend(detector.observe(event))
        self.alerts.extend(fired)
        self._update_health(fired, event)
        return fired

    def _update_health(self, fired: list[Alert], event: dict) -> None:
        for alert in fired:
            rank = alert.evidence.get("rank")
            if rank is None:
                continue
            health = self.ranks.setdefault(int(rank), RankHealth(int(rank)))
            if alert.detector == "heartbeat-gap":
                health.status = "silent"
            elif alert.detector == "straggler":
                health.status = "slow"
        if event["type"] == "heartbeat":
            for r in event["ranks"]:
                health = self.ranks[int(r)]
                if health.status == "silent":
                    health.status = "ok"
        if event["type"] == "iteration":
            # A full iteration record means the job is making progress;
            # straggler status refreshes per record.
            straggling = next(d for d in self.detectors
                              if isinstance(d, StragglerDetector)).stragglers
            for health in self.ranks.values():
                if health.status == "slow" and health.rank not in straggling:
                    health.status = "ok"

    # -- acknowledgement ----------------------------------------------------
    def acknowledged(self, alert: Alert,
                     extra_acks: set[str] = frozenset()) -> bool:
        """An alert is acknowledged by a later ``ack`` event for its
        detector, or by a CLI-side ``--ack DETECTOR`` flag."""
        if alert.detector in extra_acks:
            return True
        return any(det == alert.detector and seq > alert.seq
                   for det, seq in self.acks)

    def unacknowledged_critical(
        self, extra_acks: set[str] = frozenset()
    ) -> list[Alert]:
        return [a for a in self.alerts
                if a.severity == "critical"
                and not self.acknowledged(a, extra_acks)]


def run_monitor(events: list[dict]) -> Monitor:
    """Replay a complete (or in-progress) log through a fresh monitor."""
    monitor = Monitor()
    for event in events:
        monitor.observe(event)
    return monitor


# ---------------------------------------------------------------------------
# scoreboard: detector quality vs injected ground truth
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DetectorScore:
    """Precision/recall/latency of one detector on one scored run."""

    name: str
    tp: int
    fp: int
    fn: int
    latency_events: float  # mean alert.seq - fault.seq over matches
    latency_iterations: float

    @property
    def precision(self) -> float:
        return self.tp / (self.tp + self.fp) if (self.tp + self.fp) else 1.0

    @property
    def recall(self) -> float:
        return self.tp / (self.tp + self.fn) if (self.tp + self.fn) else 1.0


@dataclass
class Scoreboard:
    """Per-detector quality on a run with injected ground truth."""

    scores: list[DetectorScore]
    faults: int
    alerts: int

    def describe(self) -> str:
        header = (f"{'detector':<20} {'prec':>6} {'recall':>7} {'tp':>4} "
                  f"{'fp':>4} {'fn':>4} {'latency(evt)':>13} "
                  f"{'latency(it)':>12}")
        lines = [
            f"detector scoreboard: {self.faults} injected faults, "
            f"{self.alerts} alerts",
            header,
            "-" * len(header),
        ]
        for s in self.scores:
            lines.append(
                f"{s.name:<20} {s.precision:>6.2f} {s.recall:>7.2f} "
                f"{s.tp:>4} {s.fp:>4} {s.fn:>4} "
                f"{s.latency_events:>13.2f} {s.latency_iterations:>12.2f}"
            )
        return "\n".join(lines)

    def publish(self, metrics: MetricsRegistry) -> None:
        """Export as ``monitor.*`` gauges, the shared ``--metrics-out``
        schema."""
        for s in self.scores:
            g = f"monitor.{s.name}"
            metrics.gauge(f"{g}.precision").set(s.precision)
            metrics.gauge(f"{g}.recall").set(s.recall)
            metrics.gauge(f"{g}.tp").set(s.tp)
            metrics.gauge(f"{g}.fp").set(s.fp)
            metrics.gauge(f"{g}.fn").set(s.fn)
            metrics.gauge(f"{g}.latency_events").set(s.latency_events)
            metrics.gauge(f"{g}.latency_iterations").set(
                s.latency_iterations
            )
        metrics.gauge("monitor.faults").set(self.faults)
        metrics.gauge("monitor.alerts").set(self.alerts)


def score_run(events: list[dict],
              alerts: list[Alert] | None = None) -> Scoreboard:
    """Match alerts to injected ground-truth faults.

    Each ``fault`` event names the detector expected to catch it
    (``expect``).  Matching is greedy per detector in stream order:
    a fault consumes the earliest unmatched alert of its expected
    detector with ``alert.seq >= fault.seq``.  Unmatched faults are
    false negatives; unmatched alerts are false positives.
    """
    if alerts is None:
        alerts = run_monitor(events).alerts
    faults = [e for e in events if e["type"] == "fault"]
    names: list[str] = []
    for a in alerts:
        if a.detector not in names:
            names.append(a.detector)
    for f in faults:
        expect = f.get("expect") or EXPECTED_DETECTOR.get(f.get("kind"), "?")
        if expect not in names:
            names.append(expect)
    scores = []
    for name in names:
        mine = sorted((a for a in alerts if a.detector == name),
                      key=lambda a: a.seq)
        expected = sorted(
            (f for f in faults
             if (f.get("expect")
                 or EXPECTED_DETECTOR.get(f.get("kind"))) == name),
            key=lambda f: f["seq"],
        )
        used: set[int] = set()
        lat_e: list[int] = []
        lat_i: list[int] = []
        fn = 0
        for f in expected:
            match = next(
                (a for a in mine
                 if a.seq >= f["seq"] and a.seq not in used), None
            )
            if match is None:
                fn += 1
                continue
            used.add(match.seq)
            lat_e.append(match.seq - int(f["seq"]))
            lat_i.append(match.iteration - int(f["iteration"]))
        tp = len(used)
        fp = len(mine) - tp
        scores.append(DetectorScore(
            name=name, tp=tp, fp=fp, fn=fn,
            latency_events=(sum(lat_e) / len(lat_e)) if lat_e else 0.0,
            latency_iterations=(sum(lat_i) / len(lat_i)) if lat_i else 0.0,
        ))
    return Scoreboard(scores=sorted(scores, key=lambda s: s.name),
                      faults=len(faults), alerts=len(alerts))


# ---------------------------------------------------------------------------
# TTY dashboard
# ---------------------------------------------------------------------------

_BLOCKS = "▁▂▃▄▅▆▇█"


def sparkline(values: list[float], width: int = 48) -> str:
    """Unicode block sparkline of the last ``width`` values."""
    if not values:
        return "(no data)"
    tail = values[-width:]
    lo, hi = min(tail), max(tail)
    if hi == lo:
        return _BLOCKS[0] * len(tail)
    span = hi - lo
    return "".join(
        _BLOCKS[min(len(_BLOCKS) - 1,
                    int((v - lo) / span * (len(_BLOCKS) - 1) + 0.5))]
        for v in tail
    )


_STATUS_CELL = {"ok": "ok", "slow": "SLOW", "silent": "SILENT",
                "lost": "LOST"}

#: How many of the newest alerts the dashboard's feed shows.
_FEED = 12


def render_dashboard(monitor: Monitor) -> str:
    """The ``repro monitor`` TTY view of one run."""
    m = monitor.manifest
    lines = []
    lines.append(
        f"run {m.get('run_id', '?')}  source={m.get('source', '?')}  "
        f"status={monitor.status}"
    )
    model = m.get("model") or {}
    parallel = m.get("parallel") or {}
    if model or parallel:
        model_s = " ".join(f"{k}={v}" for k, v in sorted(model.items()))
        par_s = " ".join(f"{k}={v}" for k, v in sorted(parallel.items()))
        lines.append(f"model: {model_s}")
        lines.append(f"parallel: {par_s}")
    lines.append(
        f"iterations={monitor.iterations}  "
        f"checkpoints={monitor.checkpoints}  "
        f"recoveries={monitor.recoveries}  "
        f"faults(injected)={monitor.faults_injected}"
    )
    lines.append("")
    if monitor.losses:
        lines.append(f"loss      {sparkline(monitor.losses)}  "
                     f"last={monitor.losses[-1]:.5g}")
    if monitor.tokens_per_s:
        lines.append(f"tokens/s  {sparkline(monitor.tokens_per_s)}  "
                     f"last={monitor.tokens_per_s[-1]:.5g}")
    if monitor.mfu:
        lines.append(f"mfu       {sparkline(monitor.mfu)}  "
                     f"last={monitor.mfu[-1]:.3%}")
    if monitor.ranks:
        lines.append("")
        lines.append("rank health:")
        cells = []
        for rank in sorted(monitor.ranks):
            health = monitor.ranks[rank]
            cells.append(f"r{rank}:{_STATUS_CELL[health.status]}")
        for i in range(0, len(cells), 8):
            lines.append("  " + "  ".join(cells[i:i + 8]))
    lines.append("")
    critical = [a for a in monitor.alerts if a.severity == "critical"]
    unack = monitor.unacknowledged_critical()
    lines.append(
        f"alerts: {len(monitor.alerts)} total, {len(critical)} critical, "
        f"{len(unack)} critical unacknowledged"
    )
    for alert in monitor.alerts[-_FEED:]:
        suffix = ""
        if alert.severity == "critical" and monitor.acknowledged(alert):
            suffix = "  [ack]"
        lines.append("  " + alert.describe() + suffix)
    return "\n".join(lines)

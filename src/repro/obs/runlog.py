"""Structured run event logs: append-only JSONL + a run registry.

MegaScale (arXiv 2402.15627) attributes a large share of its sustained
MFU at 10k+ GPUs to in-depth observability: every run writes a
diagnostic log a "mission control" monitor can tail, and anomalies are
detected *while the run is alive*, not from a post-mortem.  This module
is that substrate for the reproduction:

- :class:`RunLogger` — a schema-versioned, **append-only JSONL** event
  stream.  One JSON object per line, flushed per event, so a live
  ``python -m repro monitor --follow`` can tail a run the trainer is
  still writing.  Event types:

  ===============  ========================================================
  ``run-start``    run manifest: run id, source (engine/sim/chaos), model
                   + parallel fingerprint, env fingerprint, expected
                   throughput (eq. (3) analytic, when the source knows it)
  ``iteration``    per-iteration record: loss, measured seconds, tokens/s,
                   MFU, grad norm, per-rank span self-times
  ``heartbeat``    one liveness round: the ranks that pinged
  ``checkpoint``   a checkpoint committed (or GC'd)
  ``fault``        **ground truth**: an injected fault, with the detector
                   expected to catch it (written only by the chaos layer)
  ``recovery``     operational recovery telemetry: save-retry,
                   checkpoint-skipped, restore, reshard, ...
  ``alert``        an anomaly detector fired (written by live monitors)
  ``ack``          a human/CI acknowledged alerts from one detector
  ``run-end``      final status
  ``request``      one serving-request lifecycle transition (arrive /
                   admit / first-token / preempt / resume / finish),
                   written by the ``repro.serve`` engine
  ===============  ========================================================

  Every event carries the schema version ``v``, a monotone sequence
  number ``seq``, and a wall-clock (or injected-clock) timestamp ``t``.

- an **active-logger stack** mirroring :mod:`repro.obs.tracer`:
  ``with run_logging(logger): ...`` makes
  :meth:`repro.parallel.trainer.PTDTrainer.train_step`, the
  discrete-event simulator, and the chaos harness emit events; when no
  logger is active every hook is one truthiness check, so the hot path
  stays inside the tracing overhead budget
  (``benchmarks/bench_monitor_overhead.py``).

- :class:`RunRegistry` — a ``runs/`` directory of per-run folders with
  a ``LATEST`` pointer advanced by atomic write-then-rename (the
  checkpoint store's commit idiom), ``list``/``show``/``gc``.

Detectors never read ``fault`` events — those are the injected ground
truth the scoreboard (:func:`repro.obs.monitor.score_run`) grades
detector precision/recall/latency against.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import sys
import time
from dataclasses import dataclass
from typing import Callable, Iterable, Iterator, TextIO

#: Version of the run-log JSONL format.  Bump on breaking changes; the
#: reader refuses events from a different major version so a monitor
#: never silently misreads a stream.
RUNLOG_SCHEMA_VERSION = 1

_LATEST = "LATEST"

EVENT_TYPES = (
    "run-start", "iteration", "heartbeat", "checkpoint", "fault",
    "recovery", "alert", "ack", "run-end", "request",
)


class RunLogError(ValueError):
    """A run log (or one of its events) is malformed or unreadable."""


def _number(value) -> bool:
    """A JSON number ``float()`` takes (not an int past 1e308)."""
    return isinstance(value, float) or (
        isinstance(value, int) and abs(value) <= sys.float_info.max)


def _finite(value) -> bool:
    """A number ``int()`` takes."""
    return _number(value) and math.isfinite(value)


def _is(kind):
    return lambda value: isinstance(value, kind)


_int, _str, _dict = _is(int), _is(str), _is(dict)


def _ranks(value) -> bool:
    return isinstance(value, list) and all(map(_int, value))


def _rank_busy(value) -> bool:
    """``{rank: seconds}`` with string keys ``int()`` takes."""
    if not isinstance(value, dict):
        return False
    for rank, busy in value.items():
        try:
            int(rank)
        except ValueError:
            return False
        if not _number(busy):
            return False
    return True


def _or_none(check):
    return lambda value: value is None or check(value)


#: Per event type, the fields the monitor, its detectors, the
#: scoreboard and the registry read: ``{field: (required, check)}``.
#: :func:`parse_events` refuses an event that lacks a required field or
#: holds a value a reader would trip on.
_FIELDS: dict[str, dict] = {
    "run-start": {"t": (False, _number),
                  "expected_tokens_per_s": (False, _or_none(_number)),
                  "model": (False, _or_none(_dict)),
                  "parallel": (False, _or_none(_dict))},
    "iteration": {"iteration": (True, _int),
                  "loss": (False, _or_none(_number)),
                  "tokens_per_s": (False, _or_none(_number)),
                  "mfu": (False, _or_none(_number)),
                  "rank_busy": (False, _or_none(_rank_busy)),
                  "waiting": (False, _or_none(_int))},
    "heartbeat": {"ranks": (True, _ranks), "iteration": (False, _int)},
    "recovery": {"iteration": (False, _int)},
    "request": {"request_id": (False, _or_none(_str)),
                "step": (False, _finite)},
    "ack": {"detector": (True, _str)},
    "fault": {"kind": (True, _str), "iteration": (True, _int),
              "expect": (False, _or_none(_str))},
}


def _check_event(event: dict) -> None:
    """Raise :class:`RunLogError`, naming the event's ``seq`` and the
    field, unless every reader of ``event`` can take it."""
    seq = event.get("seq")
    if not _int(seq):
        raise RunLogError(f"run-log event has no integer seq: {seq!r}")
    etype = event["type"]
    if etype not in EVENT_TYPES:
        raise RunLogError(f"run-log event seq {seq}: unknown type {etype!r}")
    for name, (required, check) in _FIELDS.get(etype, {}).items():
        if name not in event:
            if required:
                raise RunLogError(
                    f"run-log event seq {seq}: {etype} lacks field {name!r}"
                )
        elif not check(event[name]):
            raise RunLogError(
                f"run-log event seq {seq}: {etype} field {name!r} holds "
                f"{event[name]!r:.80}"
            )


def _atomic_write(path: str, text: str) -> None:
    """Write-then-rename publish (the checkpoint store's commit idiom):
    a reader never observes a half-written file."""
    tmp = path + ".tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
        fh.flush()
        os.fsync(fh.fileno())
    os.replace(tmp, path)


class RunLogger:
    """Appends schema-versioned events to one run's JSONL stream.

    Parameters
    ----------
    stream:
        Open text file (or file-like) the events append to.  The logger
        flushes after every event so the log is tail-able mid-run.
    run_id:
        Identity of the run; stamped on the manifest.
    clock:
        Zero-argument callable for event timestamps (defaults to
        :func:`time.time`; tests inject deterministic clocks).
    observers:
        Callables invoked with every event dict *after* it is written
        — the hook live in-process monitors
        (:class:`repro.obs.monitor.Monitor`) attach to.
    """

    def __init__(
        self,
        stream: TextIO,
        run_id: str,
        *,
        clock: Callable[[], float] | None = None,
        observers: Iterable[Callable[[dict], None]] = (),
    ):
        self.stream = stream
        self.run_id = run_id
        self.clock = clock if clock is not None else time.time
        self.observers = list(observers)
        self.seq = 0
        self.iterations_logged = 0
        self.closed = False

    # -- core emission ------------------------------------------------------
    def emit(self, type: str, **fields) -> dict:
        """Append one event; returns the event dict written."""
        if type not in EVENT_TYPES:
            raise RunLogError(f"unknown run-log event type {type!r}")
        if self.closed:
            raise RunLogError(
                f"run {self.run_id!r} already ended; log is append-only "
                "and sealed by run-end"
            )
        event = {
            "v": RUNLOG_SCHEMA_VERSION,
            "seq": self.seq,
            "t": float(self.clock()),
            "type": type,
        }
        event.update(fields)
        self.stream.write(json.dumps(event, sort_keys=False) + "\n")
        self.stream.flush()
        self.seq += 1
        for observer in self.observers:
            observer(event)
        return event

    # -- typed helpers ------------------------------------------------------
    def start(self, source: str, *, model: dict | None = None,
              parallel: dict | None = None, env: dict | None = None,
              **extra) -> dict:
        """The run manifest: always the first event of a log."""
        if self.seq != 0:
            raise RunLogError("run-start must be the first event")
        return self.emit(
            "run-start", run_id=self.run_id, source=source,
            model=model or {}, parallel=parallel or {}, env=env or {},
            **extra,
        )

    def iteration(self, iteration: int, loss: float | None,
                  seconds: float,
                  *, tokens_per_s: float | None = None,
                  mfu: float | None = None,
                  grad_norm: float | None = None,
                  rank_busy: dict[int, float] | None = None,
                  **extra) -> dict:
        self.iterations_logged += 1
        return self.emit(
            "iteration", iteration=iteration,
            loss=None if loss is None else float(loss),
            seconds=float(seconds), tokens_per_s=tokens_per_s, mfu=mfu,
            grad_norm=grad_norm,
            rank_busy=(
                {str(r): float(v) for r, v in rank_busy.items()}
                if rank_busy else None
            ),
            **extra,
        )

    def heartbeat(self, ranks: Iterable[int], iteration: int) -> dict:
        """One liveness round: every rank in ``ranks`` pinged."""
        return self.emit(
            "heartbeat", ranks=sorted(int(r) for r in ranks),
            iteration=iteration,
        )

    def checkpoint(self, iteration: int, path: str = "") -> dict:
        return self.emit("checkpoint", iteration=iteration, path=path)

    def fault(self, kind: str, iteration: int, *, expect: str,
              **detail) -> dict:
        """Ground truth: an injected fault and the detector expected to
        catch it.  Detectors must never read these."""
        return self.emit(
            "fault", kind=kind, iteration=iteration, expect=expect,
            **detail,
        )

    def recovery(self, kind: str, iteration: int, detail: str = "") -> dict:
        return self.emit(
            "recovery", kind=kind, iteration=iteration, detail=detail
        )

    def request(self, phase: str, request_id: str, step: float,
                **detail) -> dict:
        """One serving-request lifecycle transition (written by
        :class:`repro.serve.engine.ServeEngine`): ``phase`` is one of
        arrive/admit/first-token/preempt/resume/finish (the healthy
        path) or reject/cancel/timeout/fault/retry (typed degradation:
        admission-control shedding, client cancellation, deadline or
        queue-TTL expiry, an injected decode fault, and its backoff
        retry), ``step`` the engine's (virtual) clock at the
        transition."""
        return self.emit(
            "request", phase=phase, request_id=request_id,
            step=float(step), **detail,
        )

    def end(self, status: str = "completed", **extra) -> dict:
        event = self.emit("run-end", status=status, **extra)
        self.closed = True
        return event


# -- reading ----------------------------------------------------------------


def parse_events(lines: Iterable[str]) -> Iterator[dict]:
    """Parse JSONL lines into validated event dicts.

    Tolerates a trailing partial line (a run mid-write) by stopping at
    the first unparseable *final* fragment; an unparseable line in the
    middle of the stream is corruption and raises.  So does an event
    of an unknown type, or one lacking a field the monitor reads for
    its type or holding a value it cannot take (``_FIELDS``): a
    :class:`RunLogError` naming the event's ``seq`` and the field.
    """
    pending: str | None = None
    for line in lines:
        if pending is not None:
            raise RunLogError(
                f"corrupt run log: unparseable line {pending!r} before "
                "end of stream"
            )
        line = line.strip()
        if not line:
            continue
        try:
            event = json.loads(line)
        except json.JSONDecodeError:
            pending = line[:80]
            continue
        if not isinstance(event, dict) or "type" not in event:
            raise RunLogError(f"run-log events must be objects: {line[:80]!r}")
        if event.get("v") != RUNLOG_SCHEMA_VERSION:
            raise RunLogError(
                f"unsupported run-log schema version {event.get('v')!r} "
                f"(this build reads version {RUNLOG_SCHEMA_VERSION})"
            )
        _check_event(event)
        yield event


def read_events(path: str) -> list[dict]:
    """All events of one run log file."""
    with open(path, "r", encoding="utf-8") as fh:
        return list(parse_events(fh))


def manifest_of(events: list[dict]) -> dict:
    """The run-start manifest, or an empty dict for a headerless log."""
    for event in events:
        if event["type"] == "run-start":
            return event
    return {}


# -- the registry -----------------------------------------------------------

EVENTS_FILE = "events.jsonl"


@dataclass(frozen=True)
class RunInfo:
    """One registry entry, as ``repro monitor --list`` shows it."""

    run_id: str
    path: str
    source: str
    events: int
    status: str  # running | completed | failed | <run-end status>
    started_unix: float

    def describe(self) -> str:
        started = time.strftime(
            "%Y-%m-%d %H:%M:%S", time.localtime(self.started_unix)
        )
        return (f"{self.run_id:<32} {self.source:<8} {self.status:<10} "
                f"{self.events:>6} events  {started}")


class RunRegistry:
    """``runs/`` directory of per-run folders + atomic ``LATEST`` pointer.

    Layout::

        <root>/
          LATEST                      # run id of the newest run (atomic)
          <run_id>/events.jsonl       # the run's append-only event log
    """

    def __init__(self, root: str):
        self.root = root

    # -- creation -----------------------------------------------------------
    def create(self, source: str, *, run_id: str | None = None,
               clock: Callable[[], float] | None = None,
               observers: Iterable[Callable[[dict], None]] = (),
               ) -> tuple[RunLogger, TextIO]:
        """Open a new run: returns ``(logger, file)``; the caller owns
        closing the file (``with contextlib.closing(fh):``).  The
        ``LATEST`` pointer advances immediately so a monitor started a
        moment later tails this run."""
        if run_id is None:
            stamp = time.strftime("%Y%m%d-%H%M%S")
            run_id = f"{source}-{stamp}-{os.getpid()}"
            n = 0
            while os.path.exists(os.path.join(self.root, run_id)):
                n += 1
                run_id = f"{source}-{stamp}-{os.getpid()}.{n}"
        run_dir = os.path.join(self.root, run_id)
        os.makedirs(run_dir, exist_ok=False)
        fh = open(os.path.join(run_dir, EVENTS_FILE), "a", encoding="utf-8")
        _atomic_write(os.path.join(self.root, _LATEST), run_id + "\n")
        return RunLogger(fh, run_id, clock=clock, observers=observers), fh

    # -- resolution ---------------------------------------------------------
    def latest(self) -> str | None:
        """Run id the ``LATEST`` pointer names (verified to exist)."""
        pointer = os.path.join(self.root, _LATEST)
        if not os.path.exists(pointer):
            return None
        with open(pointer, "r", encoding="utf-8") as fh:
            run_id = fh.read().strip()
        if run_id and os.path.isdir(os.path.join(self.root, run_id)):
            return run_id
        return None

    def events_path(self, run_id: str) -> str:
        path = os.path.join(self.root, run_id, EVENTS_FILE)
        if not os.path.exists(path):
            raise RunLogError(
                f"no run {run_id!r} under {self.root} (no {EVENTS_FILE})"
            )
        return path

    # -- listing ------------------------------------------------------------
    def _info(self, run_id: str) -> RunInfo:
        events = read_events(self.events_path(run_id))
        manifest = manifest_of(events)
        status = "running"
        for event in reversed(events):
            if event["type"] == "run-end":
                status = event.get("status", "completed")
                break
        return RunInfo(
            run_id=run_id,
            path=os.path.join(self.root, run_id),
            source=manifest.get("source", "?"),
            events=len(events),
            status=status,
            started_unix=float(manifest.get("t", 0.0)),
        )

    def list(self) -> list[RunInfo]:
        """Every registered run, oldest first (by manifest time)."""
        if not os.path.isdir(self.root):
            return []
        infos = []
        for name in sorted(os.listdir(self.root)):
            if os.path.exists(os.path.join(self.root, name, EVENTS_FILE)):
                infos.append(self._info(name))
        return sorted(infos, key=lambda i: (i.started_unix, i.run_id))

    # -- retention ----------------------------------------------------------
    def gc(self, keep_last: int) -> list[str]:
        """Drop all but the newest ``keep_last`` runs; the ``LATEST``
        target is never removed.  Returns the dropped run ids."""
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        import shutil

        infos = self.list()
        latest = self.latest()
        keep = {i.run_id for i in infos[-keep_last:]}
        if latest is not None:
            keep.add(latest)
        dropped = []
        for info in infos:
            if info.run_id not in keep:
                shutil.rmtree(info.path)
                dropped.append(info.run_id)
        return dropped


# -- the active-logger stack (tracer idiom) ---------------------------------

_ACTIVE: list[RunLogger] = []


def current_run_logger() -> RunLogger | None:
    """Innermost active run logger (None when run logging is off)."""
    return _ACTIVE[-1] if _ACTIVE else None


@contextlib.contextmanager
def run_logging(logger: RunLogger) -> Iterator[RunLogger]:
    """Activate ``logger`` so instrumented sites emit into it
    (nestable, exception-safe; pop-by-identity like the tracer)."""
    _ACTIVE.append(logger)
    try:
        yield logger
    finally:
        for i in range(len(_ACTIVE) - 1, -1, -1):
            if _ACTIVE[i] is logger:
                del _ACTIVE[i]
                break

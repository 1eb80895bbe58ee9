"""Declarative chaos plans for the *live* numeric engine.

A :class:`ChaosPlan` lists what goes wrong in one run; every entry is
injected into the real :class:`~repro.parallel.trainer.PTDTrainer` loop
or the real checkpoint writer by
:class:`~repro.resilience.harness.ChaosHarness`.  Three species:

- :class:`Kill` — raise :class:`RankFailureError` out of
  ``train_step`` once committed progress reaches ``at_iteration``
  (``permanent=True`` means the rank is lost for good, forcing a
  resharded resume on a smaller parallel configuration).  The goodput
  model (:func:`~repro.resilience.goodput.simulate_goodput`) prices
  the same species, restarts only;
- :class:`CorruptCheckpoint` — after the checkpoint committed at
  ``at_iteration`` is verified and published, damage one of its files
  on disk (bit-flip / truncate / delete), modelling post-commit
  bit-rot that a later restore must detect and skip;
- :class:`SaveFailure` — make the checkpoint writer fail transiently
  (``times`` consecutive :class:`TransientSaveError` raises at the
  ``at_iteration`` boundary, before anything is published), modelling
  a flaky parallel filesystem the harness must retry through.

Two further species are **telemetry-layer** faults: they perturb what
the run *reports* into its :mod:`repro.obs.runlog` stream, not the
training computation, so every bit-exactness guarantee of the harness
is untouched while the anomaly detectors
(:mod:`repro.obs.monitor`) get measurable ground truth:

- :class:`LossSpike` — the reported loss at ``at_iteration`` is
  multiplied by ``factor`` (a numeric blow-up as mission control would
  see it);
- :class:`Stall` — ``seconds`` of stall are added to the reported
  iteration time (``rank=None``: whole-job stall, a throughput
  collapse) or to one rank's reported busy time (``rank=r``: a
  straggler).

Plans round-trip through JSON (``python -m repro chaos --plan``) by
:class:`PlanCodec`, which the serving plan shares.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import asdict, dataclass, fields
from typing import ClassVar

CORRUPT_MODES = ("flip", "truncate", "delete")


class RankFailureError(RuntimeError):
    """A rank died: the synchronous PTD-P job cannot continue around a
    hole, so this aborts the training step it interrupts.

    What a :class:`Kill` raises: ``iteration`` counts committed
    iterations at the instant of death, ``rank`` labels the trace span,
    and ``permanent`` marks a rank that will not come back (the recovery
    policy reshards onto fewer ranks).
    """

    def __init__(self, iteration: int, rank: int = 0,
                 permanent: bool = False):
        self.iteration = iteration
        self.rank = rank
        self.permanent = permanent
        kind = "permanently lost" if permanent else "failed"
        super().__init__(
            f"rank {rank} {kind} at iteration {iteration}"
        )


class TransientSaveError(OSError):
    """A checkpoint save failed in a retryable way (flaky filesystem)."""


@dataclass(frozen=True)
class Kill:
    """Kill ``rank`` once committed progress reaches ``at_iteration``:
    after any checkpoint due at that boundary is written, before the
    next iteration runs.  Fires once.  Any death restarts the whole
    synchronous job, so in the goodput model ``rank`` only labels the
    event."""

    at_iteration: int
    rank: int = 0
    permanent: bool = False

    def __post_init__(self) -> None:
        if self.at_iteration < 0:
            raise ValueError(
                f"at_iteration must be >= 0, got {self.at_iteration}"
            )
        if self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")


@dataclass(frozen=True)
class CorruptCheckpoint:
    """Damage ``file`` inside the checkpoint committed at
    ``at_iteration``, after it has been verified and published."""

    at_iteration: int
    file: str = "model.npz"
    mode: str = "flip"

    def __post_init__(self) -> None:
        if self.at_iteration < 0:
            raise ValueError(
                f"at_iteration must be >= 0, got {self.at_iteration}"
            )
        if self.mode not in CORRUPT_MODES:
            raise ValueError(
                f"mode must be one of {CORRUPT_MODES}, got {self.mode!r}"
            )
        if os.sep in self.file or self.file in ("", ".", ".."):
            raise ValueError(f"file must be a plain filename, got {self.file!r}")


@dataclass(frozen=True)
class SaveFailure:
    """The checkpoint save at the ``at_iteration`` boundary fails
    transiently ``times`` times before succeeding."""

    at_iteration: int
    times: int = 1

    def __post_init__(self) -> None:
        if self.at_iteration < 0:
            raise ValueError(
                f"at_iteration must be >= 0, got {self.at_iteration}"
            )
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")


@dataclass(frozen=True)
class LossSpike:
    """Telemetry-layer fault: the loss *reported* at ``at_iteration``
    is multiplied by ``factor``.  Training is untouched (bit-exactness
    holds); only the run-log stream carries the blow-up."""

    at_iteration: int
    factor: float = 100.0

    def __post_init__(self) -> None:
        if self.at_iteration < 0:
            raise ValueError(
                f"at_iteration must be >= 0, got {self.at_iteration}"
            )
        if self.factor <= 1:
            raise ValueError(f"factor must be > 1, got {self.factor}")


@dataclass(frozen=True)
class Stall:
    """Telemetry-layer fault: ``seconds`` of stall in the reported
    telemetry for ``iterations`` consecutive records starting at
    ``at_iteration``.  ``rank=None`` stretches the iteration time (a
    throughput collapse); ``rank=r`` inflates only that rank's busy
    time (a straggler).  The default span of 2 matches the stream
    detectors, which demand the skew *persist* before alerting (one
    jittery record is noise, not a straggler)."""

    at_iteration: int
    seconds: float = 1.0
    rank: int | None = None
    iterations: int = 2

    def __post_init__(self) -> None:
        if self.at_iteration < 0:
            raise ValueError(
                f"at_iteration must be >= 0, got {self.at_iteration}"
            )
        if self.seconds <= 0:
            raise ValueError(f"seconds must be > 0, got {self.seconds}")
        if self.rank is not None and self.rank < 0:
            raise ValueError(f"rank must be >= 0, got {self.rank}")
        if self.iterations < 1:
            raise ValueError(
                f"iterations must be >= 1, got {self.iterations}"
            )


#: A field's annotation -> (whether a JSON value fits it, what it is
#: called in an error).  ``type``, not isinstance: a bool is an int
#: subclass.  Every int is finite; ``abs(nan) < inf`` is False.
_FIELD_TYPES = {
    "int": (lambda v: type(v) is int, "an integer"),
    "int | None": (lambda v: type(v) is int or v is None, "an integer"),
    "float": (lambda v: type(v) in (int, float) and abs(v) < math.inf,
              "a finite number"),
    "bool": (lambda v: type(v) is bool, "a boolean"),
    "str": (lambda v: type(v) is str, "a string"),
    "str | None": (lambda v: type(v) is str or v is None, "a string"),
}


class PlanCodec:
    """The JSON codec every chaos plan shares.

    A plan is a frozen dataclass with one tuple of entries per key of
    ``ENTRIES`` (plan key -> entry class, and what one entry is called
    in an error); ``KIND`` names the plan in its errors.  Loading
    parses or raises ``ValueError``, never anything else; an ``int``
    field takes only a JSON integer (not a float or a bool), a
    ``float`` field only a finite JSON number (not a bool), and a
    ``bool`` or ``str`` field only its own JSON type.
    """

    KIND: ClassVar[str]
    ENTRIES: ClassVar[dict[str, tuple[type, str]]]

    def to_json(self) -> str:
        return json.dumps(
            {key: [asdict(entry) for entry in getattr(self, key)]
             for key in self.ENTRIES},
            indent=2,
        )

    @classmethod
    def from_json(cls, text: str):
        try:
            raw = json.loads(text)
        except (json.JSONDecodeError, RecursionError) as exc:
            raise ValueError(f"unparseable {cls.KIND}: {exc}") from exc
        if not isinstance(raw, dict):
            raise ValueError(f"{cls.KIND} must be a JSON object")
        unknown = set(raw) - set(cls.ENTRIES)
        if unknown:
            raise ValueError(
                f"unknown {cls.KIND} keys: {', '.join(sorted(unknown))}"
            )
        return cls(**{key: cls._build(key, raw.get(key, []))
                      for key in cls.ENTRIES})

    @classmethod
    def _build(cls, key: str, entries) -> tuple:
        entry_cls, what = cls.ENTRIES[key]
        if not isinstance(entries, list):
            raise ValueError(f"{key} must be a list")
        types = {f.name: _FIELD_TYPES[f.type] for f in fields(entry_cls)}
        out = []
        for index, entry in enumerate(entries):
            if not isinstance(entry, dict):
                raise ValueError(f"{what} entries must be objects")
            for name, (takes, called) in types.items():
                if name in entry and not takes(entry[name]):
                    raise ValueError(
                        f"{cls.KIND} {what} {index}: {name} must be "
                        f"{called}, got {entry[name]!r}"
                    )
            try:
                out.append(entry_cls(**entry))
            except TypeError as exc:
                raise ValueError(f"bad {what} entry: {exc}") from exc
        return tuple(out)


@dataclass(frozen=True)
class ChaosPlan(PlanCodec):
    """Everything that goes wrong during one *live* training run."""

    KIND: ClassVar[str] = "chaos plan"
    ENTRIES: ClassVar[dict[str, tuple[type, str]]] = {
        "kills": (Kill, "kill"),
        "corruptions": (CorruptCheckpoint, "corruption"),
        "save_failures": (SaveFailure, "save_failure"),
        "loss_spikes": (LossSpike, "loss_spike"),
        "stalls": (Stall, "stall"),
    }

    kills: tuple[Kill, ...] = ()
    corruptions: tuple[CorruptCheckpoint, ...] = ()
    save_failures: tuple[SaveFailure, ...] = ()
    loss_spikes: tuple[LossSpike, ...] = ()
    stalls: tuple[Stall, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "kills",
            tuple(sorted(self.kills, key=lambda k: k.at_iteration)),
        )
        object.__setattr__(self, "corruptions", tuple(self.corruptions))
        object.__setattr__(self, "save_failures", tuple(self.save_failures))
        object.__setattr__(self, "loss_spikes", tuple(self.loss_spikes))
        object.__setattr__(self, "stalls", tuple(self.stalls))
        seen = set()
        for sf in self.save_failures:
            if sf.at_iteration in seen:
                raise ValueError(
                    f"duplicate save_failure at iteration {sf.at_iteration}"
                )
            seen.add(sf.at_iteration)
        seen = set()
        for ls in self.loss_spikes:
            if ls.at_iteration in seen:
                raise ValueError(
                    f"duplicate loss_spike at iteration {ls.at_iteration}"
                )
            seen.add(ls.at_iteration)

    def loss_spike_at(self, iteration: int) -> LossSpike | None:
        for ls in self.loss_spikes:
            if ls.at_iteration == iteration:
                return ls
        return None

    def save_failure_budget(self) -> dict[int, int]:
        """Mutable ``{iteration: remaining transient failures}`` map
        (one per run; the harness decrements it as failures fire)."""
        return {sf.at_iteration: sf.times for sf in self.save_failures}


def corrupt_file(path: str, mode: str = "flip") -> None:
    """Damage one file on disk the way the chaos plan asks.

    ``flip`` XORs a handful of bytes spread through the file (silent
    bit-rot: the file still exists with the right size), ``truncate``
    cuts it in half (a torn write), ``delete`` removes it.
    """
    if mode not in CORRUPT_MODES:
        raise ValueError(f"mode must be one of {CORRUPT_MODES}, got {mode!r}")
    if not os.path.exists(path):
        raise FileNotFoundError(f"cannot corrupt missing file {path}")
    if mode == "delete":
        os.remove(path)
        return
    size = os.path.getsize(path)
    if mode == "truncate":
        with open(path, "r+b") as f:
            f.truncate(size // 2)
        return
    with open(path, "r+b") as f:
        for offset in {size // 4, size // 2, (3 * size) // 4}:
            f.seek(min(offset, max(size - 1, 0)))
            byte = f.read(1)
            if not byte:
                continue
            f.seek(-1, os.SEEK_CUR)
            f.write(bytes([byte[0] ^ 0xFF]))

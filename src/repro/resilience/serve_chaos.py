"""Declarative chaos plans for the continuous-batching serve engine.

:class:`~repro.resilience.chaos.ChaosPlan` shakes the *training* loop;
:class:`ServeChaosPlan` is its serving twin, aimed at the request
lifecycle of :class:`~repro.serve.engine.ServeEngine`.  Three species,
each modelling a production failure MegaScale-style fault attribution
cares about:

- :class:`DecodeCrash` — a decode step dies before producing its token
  (the serving analogue of a rank failure).  Raised as
  :class:`DecodeCrashError` *before* the sampling rng is consumed, so
  the engine's recompute-restart retry replays the exact oracle stream.
- :class:`KVCorruption` — the first block of a running request's slot
  is perturbed in place
  (silent memory bit-rot).  Requires a checksummed
  :class:`~repro.serve.kv_cache.PagedKVCache`: the next ``gather``
  touching the block raises
  :class:`~repro.serve.kv_cache.KVCorruptionError` instead of feeding
  garbage into a forward pass.
- :class:`AllocExhaustion` — a storm holds a count of free cache
  blocks for a span of steps (a co-tenant burst / memory-pressure
  event), starving admission and forcing preemptions; it returns them
  when it ends, so the zero-leak invariant must still hold afterwards.

All faults are injected on the engine's deterministic virtual clock, so
a faulted run replays bit-exactly.  Plans round-trip through JSON
(``repro serve --chaos-plan``) by the codec the training plan uses
(:class:`~repro.resilience.chaos.PlanCodec`).
:class:`ServeChaosInjector` executes a plan against one engine run and
emits one ground-truth ``fault`` run-log event per plan entry
(``expect=`` names the monitor detector that should catch it, exactly
like the training chaos harness), which the scoreboard scores detectors
against.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import ClassVar

from repro.serve.kv_cache import DecodeCrashError  # noqa: F401 (re-export)

from .chaos import PlanCodec


@dataclass(frozen=True)
class DecodeCrash:
    """Crash ``times`` consecutive matching decode attempts, starting
    with the first attempt at or after ``at_step``.  ``request_id=None``
    matches whichever request decodes next (an unlucky-victim crash);
    naming a request pins every crash of this entry to it."""

    at_step: int
    request_id: str | None = None
    times: int = 1

    def __post_init__(self) -> None:
        if self.at_step < 0:
            raise ValueError(f"at_step must be >= 0, got {self.at_step}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")


@dataclass(frozen=True)
class KVCorruption:
    """Corrupt one live cache block per step, ``times`` times, starting
    at the first step >= ``at_step`` with an eligible victim (a running
    request holding cached blocks; ``request_id`` pins the victim).
    Stays armed until applied."""

    at_step: int
    request_id: str | None = None
    times: int = 1

    def __post_init__(self) -> None:
        if self.at_step < 0:
            raise ValueError(f"at_step must be >= 0, got {self.at_step}")
        if self.times < 1:
            raise ValueError(f"times must be >= 1, got {self.times}")


@dataclass(frozen=True)
class AllocExhaustion:
    """Hold up to ``blocks`` free cache blocks (``None`` = every free
    block) for ``steps`` engine steps starting at ``at_step``."""

    at_step: int
    steps: int = 4
    blocks: int | None = None

    def __post_init__(self) -> None:
        if self.at_step < 0:
            raise ValueError(f"at_step must be >= 0, got {self.at_step}")
        if self.steps < 1:
            raise ValueError(f"steps must be >= 1, got {self.steps}")
        if self.blocks is not None and self.blocks < 1:
            raise ValueError(f"blocks must be >= 1, got {self.blocks}")


@dataclass(frozen=True)
class ServeChaosPlan(PlanCodec):
    """Everything that goes wrong during one serve-engine run."""

    KIND: ClassVar[str] = "serve chaos plan"
    ENTRIES: ClassVar[dict[str, tuple[type, str]]] = {
        "crashes": (DecodeCrash, "crash"),
        "corruptions": (KVCorruption, "corruption"),
        "exhaustions": (AllocExhaustion, "exhaustion"),
    }

    crashes: tuple[DecodeCrash, ...] = ()
    corruptions: tuple[KVCorruption, ...] = ()
    exhaustions: tuple[AllocExhaustion, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(
            self,
            "crashes",
            tuple(sorted(self.crashes, key=lambda c: c.at_step)),
        )
        object.__setattr__(
            self,
            "corruptions",
            tuple(sorted(self.corruptions, key=lambda c: c.at_step)),
        )
        object.__setattr__(
            self,
            "exhaustions",
            tuple(sorted(self.exhaustions, key=lambda e: e.at_step)),
        )
        # Sorted by start, storms overlap only if a neighbour pair does;
        # comparing ends keeps a storm of 10**18 steps as cheap as one.
        for before, storm in zip(self.exhaustions, self.exhaustions[1:]):
            if storm.at_step < before.at_step + before.steps:
                raise ValueError(
                    f"overlapping exhaustion storms at step {storm.at_step}"
                )


class ServeChaosInjector:
    """Executes one :class:`ServeChaosPlan` against one engine run.

    The engine drives it at two points: :meth:`begin_step` at the top
    of every tick (storms start/end, corruption lands) and
    :meth:`before_decode` just before each session's decode step
    (crashes fire).  :meth:`finish` returns any storm-held blocks so
    the zero-leak invariant survives early run termination; the engine
    calls it from a ``finally``.

    Ground truth: the first firing of each plan entry emits one
    ``fault`` run-log event (``expect=`` the detector that should
    notice), mirroring the training :class:`ChaosHarness` contract the
    scoreboard scores against.
    """

    def __init__(self, plan: ServeChaosPlan, cache, *, logger=None):
        if plan.corruptions and not getattr(cache, "checksums", False):
            raise ValueError(
                "KVCorruption requires a checksummed PagedKVCache "
                "(checksums=True); without checksums the corruption "
                "would silently poison the token stream"
            )
        self.plan = plan
        self.cache = cache
        self.logger = logger
        self._crash_left = {i: c.times for i, c in enumerate(plan.crashes)}
        self._corrupt_left = {
            i: c.times for i, c in enumerate(plan.corruptions)
        }
        self._announced: set[tuple[str, int]] = set()
        self._storms_started: set[int] = set()
        # storm index -> (release_step, blocks it holds)
        self._held: dict[int, tuple[int, int]] = {}

    # -- ground truth --------------------------------------------------------
    def _announce(self, kind: str, index: int, step: int, expect: str,
                  **detail) -> None:
        if (kind, index) in self._announced:
            return
        self._announced.add((kind, index))
        if self.logger is not None:
            self.logger.fault(kind, step, expect=expect, **detail)

    # -- engine hooks --------------------------------------------------------
    def begin_step(self, engine, step: int) -> None:
        """Start/stop storms and land armed corruptions for ``step``."""
        for index, (release_step, blocks) in list(self._held.items()):
            if step >= release_step:
                self.cache.unhold(blocks)
                del self._held[index]
        for index, storm in enumerate(self.plan.exhaustions):
            if step < storm.at_step or index in self._storms_started:
                continue
            self._storms_started.add(index)
            want = storm.blocks
            n = self.cache.free_blocks if want is None else min(
                want, self.cache.free_blocks
            )
            self.cache.hold(n)
            self._held[index] = (step + storm.steps, n)
            self._announce(
                "alloc-exhaustion", index, step, "queue-growth",
                blocks=n, steps=storm.steps,
            )
        for index, corruption in enumerate(self.plan.corruptions):
            if step < corruption.at_step or not self._corrupt_left[index]:
                continue
            victim = self._corruption_victim(engine, corruption)
            if victim is None:
                continue  # stays armed until a victim holds blocks
            self.cache.corrupt_block(victim.session.handle.slot, 0)
            self._corrupt_left[index] -= 1
            self._announce(
                "kv-corruption", index, step, "preemption-storm",
                request_id=victim.trace.request_id,
            )

    def _corruption_victim(self, engine, corruption):
        for entry in engine.running:
            if corruption.request_id is not None and (
                entry.trace.request_id != corruption.request_id
            ):
                continue
            if entry.session.live_blocks > 0:
                return entry
        return None

    def before_decode(self, engine, step: int, entry) -> None:
        """Raise :class:`DecodeCrashError` if a crash matches this
        decode attempt."""
        for index, crash in enumerate(self.plan.crashes):
            if step < crash.at_step or not self._crash_left[index]:
                continue
            rid = entry.trace.request_id
            if crash.request_id is not None and rid != crash.request_id:
                continue
            self._crash_left[index] -= 1
            self._announce("decode-crash", index, step, "ttft-slo",
                           request_id=rid)
            raise DecodeCrashError(step, rid)

    def finish(self) -> None:
        """Release every storm-held block (idempotent)."""
        for _, blocks in self._held.values():
            self.cache.unhold(blocks)
        self._held.clear()

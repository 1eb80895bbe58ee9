"""Continuous-batching serve engine: FIFO admission, capacity-aware
preemption, one token per running request per step.

The scheduling loop is Orca/vLLM-style *iteration-level* batching: the
engine advances on a deterministic virtual clock (one unit per
:meth:`ServeEngine.tick`), and at every tick

1. **expires** requests past their deadline (total sojourn bound) or
   queue TTL (time-to-first-admission bound) with a typed ``timeout``
   outcome, scanning every live request;
2. **admits** from the strict FIFO head of the waiting queue, in one
   walk that stops at the first request that does not fit -- a request
   behind it never jumps it (no starvation by overtaking).  The one
   documented exception: a request serving a chaos-retry backoff steps
   aside until its ``not_before`` step, so a crashed request cannot
   head-block healthy traffic;
3. **decodes** one token for every running request, oldest first:
   *plan → one batched forward → sample*.  The walk makes a sequential
   loop's decisions but only collects requests in the cached
   single-token regime into the tick's open batch, which
   :func:`repro.serve.decode.decode_batch` runs as one ragged forward;
   then one :func:`repro.nn.generate.sample_rows` pass per sampling
   setting picks every row's token, each request drawing from its own
   rng.  The walk may only *add* to the batch: before anything else
   (a block check that fails, a preemption, a retry, a prefill or
   sliding-window step) the batch is flushed, so metrics, streams and
   the run log are the sequential loop's.  A request whose next step
   needs blocks the pool cannot provide triggers preemption of the
   *youngest-admitted* block-holding request that is younger than
   itself (recompute-style: blocks released, the victim re-queues by
   arrival order and re-prefills on resume).  The oldest request is
   therefore never preempted and always progresses.

Overload degrades gracefully instead of growing without bound: with
``max_queue`` set, admission control sheds load at the door -- either
the newcomer (``reject-newest``) or the least-urgent queued request
(``edf``: latest deadline sheds first, no deadline counts as infinitely
late, ties shed the newest arrival).  Clients can walk away via
:meth:`cancel`.  Every terminal request carries a typed outcome
(``completed`` / ``timeout`` / ``rejected`` / ``cancelled`` /
``failed``).

Fault tolerance: an optional
:class:`~repro.resilience.serve_chaos.ServeChaosPlan` injects decode
crashes, KV-block corruption (caught by cache checksums), and
allocator-exhaustion storms.  Recovery is supervised recompute-restart:
the faulted session drops its blocks (rng untouched -- the retried
stream still equals the per-request oracle) and re-queues under
capped-exponential backoff on the virtual clock (:data:`BACKOFF_BASE`
steps, doubling up to :data:`BACKOFF_CAP`); a request past
:data:`MAX_RETRIES` retries fails with outcome ``failed``.

Determinism: requests sample from their own seeded generators
(:class:`repro.serve.decode.DecodeSession`), preemption recomputes
rather than checkpoints, faults fire on the virtual clock, and
admission order is a pure function of the trace -- so replaying a trace
(chaos included) reproduces token streams, preemption pattern and
virtual-clock metrics bit-exactly.

A live request is in ``waiting`` or in ``running``, and its entry's
one ``running`` field says which; nothing else shadows the queues.

Every lifecycle transition is emitted as a ``request`` run-log event and
each tick as an ``iteration`` event (token counts included), which is
what the token-conservation invariant test audits.

Capacity safety: ``submit`` rejects any request whose *peak* block need
exceeds the whole pool -- every admitted request can always finish.
"""

from __future__ import annotations

import time
from collections import deque
from dataclasses import dataclass
from typing import TYPE_CHECKING

import numpy as np

from repro.nn.generate import sample_rows
from repro.nn.transformer import GPTModel
from repro.obs.tracer import span

from .decode import DecodeSession, decode_batch
from .kv_cache import DecodeCrashError, KVCorruptionError, PagedKVCache
from .metrics import RequestMetrics, ServeReport
from .traffic import TraceRequest

if TYPE_CHECKING:  # serving without a fault plan loads neither
    from repro.obs.runlog import RunLogger
    from repro.resilience.serve_chaos import ServeChaosPlan

SHED_POLICIES = ("reject-newest", "edf")
#: Retries of one faulted request before it fails.
MAX_RETRIES = 5
#: First retry backoff, in virtual-clock steps; it doubles per retry.
BACKOFF_BASE = 2
#: Ceiling of the retry backoff, in virtual-clock steps.
BACKOFF_CAP = 16


@dataclass
class _Entry:
    """Engine-internal state of one submitted request."""

    trace: TraceRequest
    arrival_seq: int
    session: DecodeSession
    deadline_step: int | None  # absolute finish-by step
    ttl_step: int | None  # absolute admit-by step
    admit_step: int | None = None
    first_token_step: int | None = None
    admissions: int = 0
    retries: int = 0
    not_before: int = 0  # chaos-retry backoff gate
    running: bool = False  # in ``ServeEngine.running``, else waiting


class ServeEngine:
    """Continuous batching over one model and one shared paged cache."""

    def __init__(
        self,
        model: GPTModel,
        cache: PagedKVCache,
        *,
        logger: RunLogger | None = None,
        max_queue: int | None = None,
        shed_policy: str = "reject-newest",
        chaos: ServeChaosPlan | None = None,
    ):
        if cache.num_layers != len(model.blocks):
            raise ValueError(
                f"cache has {cache.num_layers} layers, model has "
                f"{len(model.blocks)}"
            )
        if max_queue is not None and max_queue < 1:
            raise ValueError(f"max_queue must be >= 1, got {max_queue}")
        if shed_policy not in SHED_POLICIES:
            raise ValueError(
                f"shed_policy must be one of {SHED_POLICIES}, "
                f"got {shed_policy!r}"
            )
        self.model = model
        self.cache = cache
        self.logger = logger
        self.max_queue = max_queue
        self.shed_policy = shed_policy
        self.step_count = 0  # the virtual clock
        self.waiting: deque[_Entry] = deque()  # sorted by arrival_seq
        self.running: list[_Entry] = []  # admission order
        self.finished: list[RequestMetrics] = []
        self.outputs: dict[str, np.ndarray] = {}  # completed request streams
        self._next_seq = 0
        self._submitted: set[str] = set()  # every id ever queued or shed
        self._queued_new = 0  # waiting entries never admitted (the "queue")
        self._injector = None
        if chaos is not None:
            from repro.resilience.serve_chaos import ServeChaosInjector

            self._injector = ServeChaosInjector(chaos, cache, logger=logger)

    # -- submission ---------------------------------------------------------
    def peak_blocks(self, req: TraceRequest) -> int:
        """Upper bound on blocks the request ever holds at once."""
        window = self.model.config.seq_length
        if len(req.prompt) > window:
            return 0  # sliding-window recompute path: never cached
        return self.cache.blocks_for(
            min(window, len(req.prompt) + req.max_new_tokens)
        )

    def submit(self, req: TraceRequest) -> bool:
        """Queue a request (validated now; admitted FIFO later).

        Returns ``True`` if the request was queued, ``False`` if
        admission control shed it (outcome ``rejected``).  Structurally
        impossible requests (peak block need above the whole pool) and
        a ``request_id`` this engine already took still raise
        ``ValueError`` -- that is a caller bug, not overload.
        """
        if req.request_id in self._submitted:
            raise ValueError(
                f"request id {req.request_id!r} was already submitted"
            )
        session = DecodeSession(
            self.model, self.cache, np.array(req.prompt), req.max_new_tokens,
            temperature=req.temperature, top_k=req.top_k,
            rng=np.random.default_rng(req.seed), stop_ids=req.stop_ids,
        )
        peak = self.peak_blocks(req)
        if peak > self.cache.capacity:
            raise ValueError(
                f"request {req.request_id!r} needs {peak} blocks at peak; "
                f"cache capacity is {self.cache.capacity}"
            )
        entry = _Entry(
            trace=req, arrival_seq=self._next_seq, session=session,
            deadline_step=(None if req.deadline_steps is None
                           else req.arrival_step + req.deadline_steps),
            ttl_step=(None if req.queue_ttl is None
                      else req.arrival_step + req.queue_ttl),
        )
        self._next_seq += 1
        self._submitted.add(req.request_id)
        self._emit(
            "arrive", entry,
            prompt_tokens=len(req.prompt),
            max_new_tokens=req.max_new_tokens,
        )
        if self.max_queue is not None and self._queued_new >= self.max_queue:
            victim = self._shed_victim(entry)
            if victim is entry:
                self._reject(entry)
                return False
            self.waiting.remove(victim)
            self._queued_new -= 1
            self._reject(victim)
        self.waiting.append(entry)
        self._queued_new += 1
        return True

    def _shed_victim(self, newcomer: _Entry) -> _Entry:
        """Who gets shed when the bounded queue is full.

        ``reject-newest`` sheds the newcomer.  ``edf`` keeps the most
        urgent work: the candidate with the *latest* deadline is shed
        (no deadline = infinitely late = first to go); ties shed the
        newest arrival, so two equal-deadline requests keep FIFO order.
        Only never-admitted entries are candidates -- requests already
        in service (preempted or backing off) are past the door.
        """
        if self.shed_policy == "reject-newest":
            return newcomer
        candidates = [w for w in self.waiting if w.admit_step is None]
        candidates.append(newcomer)
        return max(
            candidates,
            key=lambda e: (
                float("inf") if e.deadline_step is None else e.deadline_step,
                e.arrival_seq,
            ),
        )

    def _reject(self, entry: _Entry) -> None:
        entry.session.release()
        self._record(entry, self.step_count, "rejected")
        self._emit("reject", entry, queue=self._queued_new,
                   max_queue=self.max_queue, policy=self.shed_policy)

    # -- client-facing cancellation -----------------------------------------
    def cancel(self, request_id: str) -> bool:
        """Cancel a live request (waiting, backing off, or running).

        Returns ``True`` if the request was live and is now terminal
        with outcome ``cancelled``; ``False`` if no live request has
        that id (already finished, shed, or never submitted -- client
        races make those indistinguishable, so none of them raise).
        """
        entry = next(
            (e for e in self.waiting if e.trace.request_id == request_id),
            None,
        ) or next(
            (e for e in self.running if e.trace.request_id == request_id),
            None,
        )
        if entry is None:
            return False
        self._remove(entry)
        entry.session.release()
        self._record(entry, self.step_count, "cancelled")
        self._emit("cancel", entry, generated=entry.session.generated)
        return True

    # -- the scheduling loop ------------------------------------------------
    def tick(self) -> int:
        """One engine step; returns tokens generated this step."""
        step = self.step_count
        t0 = time.perf_counter()
        tokens = 0
        batch: list[_Entry] = []  # the open decode batch ...
        reserved = 0  # ... and the blocks it is going to allocate
        with span("plan", phase="serve"):
            if self._injector is not None:
                self._injector.begin_step(self, step)
            self._expire(step)
            self._admit_waiting(step)
            for entry in list(self.running):  # oldest-admitted first
                if not entry.running:
                    continue  # preempted by an earlier request this tick
                session = entry.session
                if not (session.batchable and session.blocks_for_next_step()
                        <= self.cache.free_blocks - reserved):
                    # Only joining the batch can wait for it: run it,
                    # then decide on the state a sequential loop sees.
                    tokens += self._flush(batch, step)
                    reserved = 0
                    if session.done:  # max_new_tokens=0: nothing to do
                        self._finish(entry, step)
                        continue
                    if not self._make_room(entry, step):
                        continue
                if self._injector is not None:
                    try:
                        self._injector.before_decode(self, step, entry)
                    except DecodeCrashError as fault:
                        tokens += self._flush(batch, step)
                        reserved = 0
                        self._retry(entry, step, fault)
                        continue
                if session.batchable:
                    batch.append(entry)
                    reserved += session.blocks_for_next_step()
                else:
                    session.step()  # prefill or sliding-window recompute
                    tokens += 1
                    self._stepped(entry, step)
            tokens += self._flush(batch, step)
        with span("bookkeeping", phase="serve"):
            if self.logger is not None:
                self.logger.iteration(
                    iteration=step, loss=None,
                    seconds=time.perf_counter() - t0,
                    tokens=tokens, running=len(self.running),
                    waiting=len(self.waiting), queued=self._queued_new,
                )
        self.step_count += 1
        return tokens

    def _make_room(self, entry: _Entry, step: int) -> bool:
        """Preempt younger block-holders until ``entry``'s next step
        fits in the pool; False if ``entry`` itself had to go."""
        while entry.session.blocks_for_next_step() > self.cache.free_blocks:
            # No younger block-holder: requeue this request itself (it
            # is never the oldest -- the oldest's peak fits by
            # submit-time validation).
            victim = self._pick_victim(entry) or entry
            self._preempt(victim, step)
            if victim is entry:
                return False
        return True

    def _flush(self, batch: list[_Entry], step: int) -> int:
        """Run and empty the open batch -- one forward, one sampling pass
        per (temperature, top-k) among its requests, then book each
        request in order; returns the tokens generated.  A request whose
        cache fails its checksum retries alone, between the requests
        before and after it."""
        todo = batch[:]
        batch.clear()
        if not todo:
            return 0
        try:
            logits = decode_batch([e.session for e in todo])
        except KVCorruptionError as fault:
            bad = next(i for i, e in enumerate(todo)
                       if e.session.handle.slot == fault.slot)
            done = self._flush(todo[:bad], step)
            self._retry(todo[bad], step, fault)
            return done + self._flush(todo[bad + 1:], step)
        with span("sample", phase="serve"):
            groups: dict[tuple, list[int]] = {}  # settings -> batch rows
            for row, entry in enumerate(todo):
                session = entry.session
                groups.setdefault((session.temperature, session.top_k),
                                  []).append(row)
            for (temperature, top_k), rows in groups.items():
                sessions = [todo[row].session for row in rows]
                tokens = sample_rows(logits[rows], temperature, top_k,
                                     [session.rng for session in sessions])
                for session, token in zip(sessions, tokens.tolist()):
                    session.take(token)
        with span("bookkeeping", phase="serve"):
            for entry in todo:
                self._stepped(entry, step)
        return len(todo)

    def _stepped(self, entry: _Entry, step: int) -> None:
        """Book one generated token."""
        if entry.first_token_step is None:
            entry.first_token_step = step
            self._emit("first-token", entry)
        if entry.session.done:
            self._finish(entry, step)

    def _expire(self, step: int) -> None:
        """Time out requests past their deadline or queue TTL."""
        expired = [
            (e, "deadline") if (e.deadline_step is not None
                                and step > e.deadline_step)
            else (e, "queue-ttl")
            for e in [*self.waiting, *self.running]
            if (e.deadline_step is not None and step > e.deadline_step)
            or (e.admit_step is None and e.ttl_step is not None
                and step > e.ttl_step)
        ]
        for entry, why in expired:
            self._remove(entry)
            entry.session.release()
            self._record(entry, step, "timeout")
            self._emit("timeout", entry, why=why,
                       generated=entry.session.generated)

    def _admit_waiting(self, step: int) -> None:
        """Strict head-of-line FIFO admission, up to the first entry
        that does not fit; an entry inside its chaos-retry backoff
        window steps aside without unblocking anyone behind it."""
        aside: list[_Entry] = []
        while self.waiting:
            entry = self.waiting[0]
            if entry.not_before > step:
                aside.append(self.waiting.popleft())
            elif (entry.session.blocks_for_next_step()
                    > self.cache.free_blocks):
                break
            else:
                self._admit(self.waiting.popleft(), step)
        self.waiting.extendleft(reversed(aside))

    def _admit(self, entry: _Entry, step: int) -> None:
        entry.running = True
        self.running.append(entry)
        entry.admissions += 1
        if entry.admit_step is None:
            entry.admit_step = step
            self._queued_new -= 1
            self._emit("admit", entry)
        else:
            self._emit("resume", entry, generated=entry.session.generated)

    def _pick_victim(self, requester: _Entry) -> _Entry | None:
        """Youngest-admitted running request that holds blocks and is
        younger than ``requester`` (never preempt an older request)."""
        candidates = [
            e for e in self.running
            if e is not requester
            and e.arrival_seq > requester.arrival_seq
            and e.session.live_blocks > 0
        ]
        if not candidates:
            return None
        return max(candidates, key=lambda e: e.arrival_seq)

    def _preempt(self, entry: _Entry, step: int) -> None:
        released = entry.session.live_blocks
        entry.session.preempt()
        self._remove(entry)
        self._requeue(entry)
        self._emit(
            "preempt", entry,
            generated=entry.session.generated,
            blocks_released=released,
        )

    def _requeue(self, entry: _Entry) -> None:
        # Re-queue in arrival order.  Anything already waiting arrived
        # later than any admitted request (strict FIFO admission), but
        # two same-tick preemptions can land out of order -- insert by
        # arrival_seq to keep the queue sorted.
        idx = len(self.waiting)
        for i, other in enumerate(self.waiting):
            if other.arrival_seq > entry.arrival_seq:
                idx = i
                break
        self.waiting.insert(idx, entry)

    def _retry(self, entry: _Entry, step: int,
               fault: Exception) -> None:
        """Supervised recovery from an injected decode fault:
        recompute-restart under capped-exponential virtual-clock
        backoff, or a typed ``failed`` outcome once out of budget."""
        kind = ("decode-crash" if isinstance(fault, DecodeCrashError)
                else "kv-corruption")
        entry.session.recover()
        self._remove(entry)
        entry.retries += 1
        if entry.retries > MAX_RETRIES:
            self._emit("fault", entry, kind=kind, error=str(fault),
                       gave_up=True, retries=entry.retries - 1)
            self._record(entry, step, "failed")
            return
        self._emit("fault", entry, kind=kind, error=str(fault))
        delay = min(BACKOFF_CAP, BACKOFF_BASE * 2 ** (entry.retries - 1))
        entry.not_before = step + delay
        self._requeue(entry)
        self._emit("retry", entry, attempt=entry.retries,
                   not_before=entry.not_before, backoff=delay)

    def _remove(self, entry: _Entry) -> None:
        """Detach a live entry from whichever queue holds it."""
        if entry.running:
            entry.running = False
            self.running.remove(entry)
            return
        self.waiting.remove(entry)
        if entry.admit_step is None:
            self._queued_new -= 1

    def _record(self, entry: _Entry, step: int, outcome: str,
                finish_reason: str | None = None) -> RequestMetrics:
        session = entry.session
        metrics = RequestMetrics(
            request_id=entry.trace.request_id,
            prompt_tokens=session.prompt_len,
            generated_tokens=session.generated,
            arrival_step=entry.trace.arrival_step,
            admit_step=entry.admit_step,
            first_token_step=entry.first_token_step,
            finish_step=step,
            preemptions=session.preemptions,
            finish_reason=finish_reason,
            outcome=outcome,
            retries=entry.retries,
        )
        self.finished.append(metrics)
        return metrics

    def _finish(self, entry: _Entry, step: int) -> None:
        session = entry.session
        session.release()
        self._remove(entry)
        metrics = self._record(
            entry, step, "completed",
            finish_reason=session.finish_reason or "length",
        )
        self.outputs[entry.trace.request_id] = session.output()
        self._emit(
            "finish", entry,
            generated=session.generated,
            reason=metrics.finish_reason,
            preemptions=session.preemptions,
        )

    def _emit(self, phase: str, entry: _Entry, **detail) -> None:
        if self.logger is not None:
            self.logger.request(
                phase, entry.trace.request_id, self.step_count, **detail
            )

    # -- trace driver -------------------------------------------------------
    def run(
        self,
        trace: list[TraceRequest],
        *,
        max_steps: int | None = None,
    ) -> ServeReport:
        """Drive a whole trace to completion; returns the report.

        Arrivals are honored on the virtual clock; when the engine is
        idle it fast-forwards to the next arrival.  ``max_steps`` is a
        livelock guard (defaults to a generous bound derived from the
        trace plus chaos-recovery slack).
        """
        pending = sorted(trace, key=lambda r: (r.arrival_step, r.request_id))
        if max_steps is None:
            work = sum(len(r.prompt) + r.max_new_tokens for r in pending)
            horizon = max((r.arrival_step for r in pending), default=0)
            max_steps = horizon + 8 * work + 64
            if self._injector is not None:
                plan = self._injector.plan
                max_steps += sum(e.steps for e in plan.exhaustions)
                max_steps += (MAX_RETRIES + 1) * BACKOFF_CAP * len(pending)
        t0 = time.perf_counter()
        i = 0
        try:
            while i < len(pending) or self.waiting or self.running:
                if not self.waiting and not self.running and i < len(pending):
                    # Idle: jump to the next arrival.
                    self.step_count = max(
                        self.step_count, pending[i].arrival_step
                    )
                while i < len(pending) and (
                    pending[i].arrival_step <= self.step_count
                ):
                    self.submit(pending[i])
                    i += 1
                self.tick()
                if self.step_count > max_steps:
                    raise RuntimeError(
                        f"engine exceeded {max_steps} steps -- scheduler "
                        f"livelock; state: step={self.step_count} "
                        f"free_blocks={self.cache.free_blocks}"
                        f"/{self.cache.capacity} "
                        f"waiting={[e.trace.request_id for e in self.waiting]} "
                        f"running={[e.trace.request_id for e in self.running]} "
                        f"finished={len(self.finished)}"
                    )
        finally:
            if self._injector is not None:
                self._injector.finish()
        return ServeReport(
            requests=self.finished,
            steps=self.step_count,
            wall_seconds=time.perf_counter() - t0,
        )

"""Seeded request traffic: Poisson open-loop traces + JSON replay.

A trace is a list of :class:`TraceRequest` -- everything the engine
needs to run a request, including its *own sampling seed*, so a trace
replays bit-exactly: same arrivals, same prompts, same token streams,
same preemption pattern (the engine's virtual clock is deterministic).

:func:`poisson_trace` draws inter-arrival gaps from a seeded exponential
(the open-loop arrival model serving benchmarks standardize on);
:func:`save_trace`/:func:`load_trace` round-trip a trace through JSON so
CI and the ``repro serve`` CLI can pin a workload.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

TRACE_SCHEMA_VERSION = 1


@dataclass(frozen=True)
class TraceRequest:
    """One request of a serving workload."""

    request_id: str
    arrival_step: int
    prompt: tuple[int, ...]
    max_new_tokens: int
    temperature: float = 0.0
    top_k: int | None = None
    seed: int = 0
    stop_ids: tuple[int, ...] = ()
    # SLO knobs (both in virtual engine steps, relative to arrival_step;
    # None = unbounded).  ``deadline_steps`` bounds total sojourn time --
    # the request must *finish* by ``arrival_step + deadline_steps`` or it
    # is timed out wherever it is (queued, backing off, or decoding).
    # ``queue_ttl`` bounds time-to-first-admission only.
    deadline_steps: int | None = None
    queue_ttl: int | None = None

    def __post_init__(self):
        if self.deadline_steps is not None and self.deadline_steps < 0:
            raise ValueError(
                f"deadline_steps must be >= 0, got {self.deadline_steps}"
            )
        if self.queue_ttl is not None and self.queue_ttl < 0:
            raise ValueError(
                f"queue_ttl must be >= 0, got {self.queue_ttl}"
            )

    def to_dict(self) -> dict:
        return {
            "request_id": self.request_id,
            "arrival_step": self.arrival_step,
            "prompt": list(self.prompt),
            "max_new_tokens": self.max_new_tokens,
            "temperature": self.temperature,
            "top_k": self.top_k,
            "seed": self.seed,
            "stop_ids": list(self.stop_ids),
            "deadline_steps": self.deadline_steps,
            "queue_ttl": self.queue_ttl,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "TraceRequest":
        """Load one request; an integer field must be a JSON integer
        (not a float, a bool or a string), or this raises ``ValueError``
        naming the request and the field."""

        def integer(key, value):
            if type(value) is not int:  # bool is an int subclass
                raise ValueError(f"{key} must be an integer, got {value!r}")
            return value

        def optional(key):
            value = obj.get(key)
            return None if value is None else integer(key, value)

        try:
            return cls(
                request_id=str(obj["request_id"]),
                arrival_step=integer("arrival_step", obj["arrival_step"]),
                prompt=tuple(integer("prompt", t) for t in obj["prompt"]),
                max_new_tokens=integer("max_new_tokens",
                                       obj["max_new_tokens"]),
                temperature=float(obj.get("temperature", 0.0)),
                top_k=optional("top_k"),
                seed=integer("seed", obj.get("seed", 0)),
                stop_ids=tuple(integer("stop_ids", t)
                               for t in obj.get("stop_ids", ())),
                deadline_steps=optional("deadline_steps"),
                queue_ttl=optional("queue_ttl"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            rid = obj.get("request_id") if isinstance(obj, dict) else None
            raise ValueError(
                f"malformed trace request {rid!r}: {exc}"
            ) from exc


def poisson_trace(
    num_requests: int,
    rate: float,
    *,
    vocab_size: int,
    seed: int = 0,
    prompt_len: tuple[int, int] = (2, 6),
    max_new: tuple[int, int] = (2, 8),
    temperature: float = 0.0,
    top_k: int | None = None,
    stop_ids: tuple[int, ...] = (),
    deadline_steps: int | None = None,
    queue_ttl: int | None = None,
) -> list[TraceRequest]:
    """Seeded open-loop Poisson workload.

    ``rate`` is the mean arrival rate in requests per engine step;
    prompt lengths and decode budgets are uniform over the given
    inclusive ranges.  Every request gets its own derived sampling seed
    so engine-side decoding matches the per-request oracle.
    """
    if num_requests < 1:
        raise ValueError(f"num_requests must be >= 1, got {num_requests}")
    if rate <= 0:
        raise ValueError(f"rate must be > 0, got {rate}")
    rng = np.random.default_rng(seed)
    trace = []
    clock = 0.0
    for i in range(num_requests):
        clock += rng.exponential(1.0 / rate)
        n_prompt = int(rng.integers(prompt_len[0], prompt_len[1] + 1))
        prompt = tuple(
            int(t) for t in rng.integers(0, vocab_size, size=n_prompt)
        )
        trace.append(TraceRequest(
            request_id=f"req-{i:04d}",
            arrival_step=int(clock),
            prompt=prompt,
            max_new_tokens=int(rng.integers(max_new[0], max_new[1] + 1)),
            temperature=temperature,
            top_k=top_k,
            seed=int(rng.integers(0, 2**31)),
            stop_ids=stop_ids,
            deadline_steps=deadline_steps,
            queue_ttl=queue_ttl,
        ))
    return trace


# -- JSON round-trip ---------------------------------------------------------


def trace_to_json(trace: list[TraceRequest]) -> str:
    return json.dumps({
        "schema_version": TRACE_SCHEMA_VERSION,
        "requests": [r.to_dict() for r in trace],
    }, indent=2)


def trace_from_json(text: str) -> list[TraceRequest]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"unparseable trace JSON: {exc}") from exc
    if not isinstance(obj, dict) or "requests" not in obj:
        raise ValueError("trace JSON must be an object with 'requests'")
    if obj.get("schema_version") != TRACE_SCHEMA_VERSION:
        raise ValueError(
            f"unsupported trace schema version {obj.get('schema_version')!r}"
        )
    trace = [TraceRequest.from_dict(r) for r in obj["requests"]]
    seen: set[str] = set()
    for request in trace:
        if request.request_id in seen:
            raise ValueError(
                f"trace repeats request id {request.request_id!r}"
            )
        seen.add(request.request_id)
    return trace


def save_trace(trace: list[TraceRequest], path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(trace_to_json(trace) + "\n")


def load_trace(path: str) -> list[TraceRequest]:
    with open(path, "r", encoding="utf-8") as fh:
        return trace_from_json(fh.read())

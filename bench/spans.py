"""In-memory span recorder for the traced pass.

The recorder lives in the benchmark, not the program: in the traced
pass only, it wraps public entry points (``ServeEngine.tick``,
``GPTModel.forward_step``, ``simulate_iteration`` ...) with a timer and
restores them afterwards.  Spans are kept in memory and written out by
the caller when the run ends; end-to-end metrics never come from a pass
that ran with the wrappers installed.

A span is ``[name, start_ns, end_ns, parent, request, count]``:
``parent`` is the index of the span that was open when this one started
(-1 for a root), ``request`` an identifier shared by all spans of one
request (inherited from the parent when not given), ``count`` an
optional work count measured at the same boundary (e.g. positions run
through a forward call).
"""

from __future__ import annotations

import functools
import time

NAME, START, END, PARENT, REQUEST, COUNT = range(6)


class SpanRecorder:
    def __init__(self, clock=time.perf_counter_ns):
        self.clock = clock
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    # -- recording ----------------------------------------------------------
    def open(self, name: str, request=None) -> int:
        parent = self._stack[-1] if self._stack else -1
        if request is None and parent >= 0:
            request = self.spans[parent][REQUEST]
        index = len(self.spans)
        self.spans.append([name, 0, None, parent, request, None])
        self._stack.append(index)
        self.spans[index][START] = self.clock()
        return index

    def close(self, index: int, count=None) -> None:
        end = self.clock()
        if not self._stack or self._stack[-1] != index:
            raise RuntimeError(
                f"span {self.spans[index][NAME]!r} closed out of order"
            )
        self._stack.pop()
        span = self.spans[index]
        span[END] = end
        span[COUNT] = count

    # -- wrapping public entry points ---------------------------------------
    def wrap(self, owner, attr: str, name: str, *, request_of=None,
             count_of=None) -> None:
        """Replace ``owner.attr`` by a timed wrapper until
        :meth:`unwrap_all`.  ``request_of(*args, **kwargs)`` names the
        request a call serves; ``count_of(result, *args, **kwargs)``
        counts the work it did."""
        original = getattr(owner, attr)

        @functools.wraps(original)
        def timed(*args, **kwargs):
            request = request_of(*args, **kwargs) if request_of else None
            index = self.open(name, request)
            result = None
            try:
                result = original(*args, **kwargs)
                return result
            finally:
                self.close(
                    index,
                    count_of(result, *args, **kwargs)
                    if count_of and result is not None else None,
                )

        self._patches.append((owner, attr, original))
        setattr(owner, attr, timed)

    def unwrap_all(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    # -- attribution --------------------------------------------------------
    def self_times(self) -> list[int]:
        """Per span: duration minus the part its children cover.
        Asserts the exact integer identity ``sum(self) == sum(roots)``."""
        if self._stack:
            raise RuntimeError(f"{len(self._stack)} spans still open")
        self_ns = [s[END] - s[START] for s in self.spans]
        roots = 0
        for index, span in enumerate(self.spans):
            duration = span[END] - span[START]
            if span[PARENT] < 0:
                roots += duration
            else:
                parent = self.spans[span[PARENT]]
                if span[START] < parent[START] or span[END] > parent[END]:
                    raise AssertionError(
                        f"span {span[NAME]!r} #{index} leaks out of its "
                        f"parent {parent[NAME]!r}"
                    )
                self_ns[span[PARENT]] -= duration
        if min(self_ns, default=0) < 0:
            raise AssertionError("children cover more than their parent")
        if sum(self_ns) != roots:
            raise AssertionError(
                f"self-time invariant broken: sum(self)={sum(self_ns)} "
                f"!= sum(roots)={roots}"
            )
        return self_ns

    def root_ns(self) -> int:
        return sum(s[END] - s[START] for s in self.spans if s[PARENT] < 0)

    def by_name(self) -> dict[str, dict]:
        """``name -> {calls, total_ns, self_ns, count}`` over all spans."""
        out: dict[str, dict] = {}
        for span, self_ns in zip(self.spans, self.self_times()):
            row = out.setdefault(
                span[NAME],
                {"calls": 0, "total_ns": 0, "self_ns": 0, "count": 0},
            )
            row["calls"] += 1
            row["total_ns"] += span[END] - span[START]
            row["self_ns"] += self_ns
            row["count"] += span[COUNT] or 0
        return out

    def durations_ms(self, name: str) -> list[float]:
        return [(s[END] - s[START]) / 1e6 for s in self.spans
                if s[NAME] == name]

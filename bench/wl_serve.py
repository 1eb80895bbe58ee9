"""Workloads ``serve_decode`` and ``serve_prefill``.

Both run a seeded Poisson trace through ``ServeEngine`` on one L4 h128
a4 model with a 256-token window and a pool of 96 blocks of 16.

- ``serve_decode`` is decode-bound: short prompts (8-16), long outputs
  (96-160), sampling with ``temperature=1, top_k=5``.  More than 90% of
  positions are single-token steps against a long context, so
  per-request ``forward_step`` dispatch, ``PagedKVCache.gather`` and
  the K/V concatenate do the work.
- ``serve_prefill`` is prefill-bound: long prompts (128-224), 2-6
  output tokens, V2048, ``checksums=True``.  It runs GEMMs over 128-224
  rows and the full-vocabulary head over every prompt position, and
  uses the KV layer the other way round: block-table writes plus a CRC
  per written block instead of reads.

Load is open-loop on the engine's *virtual* clock: arrivals are fixed
per step by the trace, so the generator is never late.  The benchmark
drives ``submit``/``tick`` itself, as ``ServeEngine.run`` does, and
takes wall timestamps around each ``tick``.  A request is due at the
start of the first tick at or after its ``arrival_step``.
"""

from __future__ import annotations

import dataclasses
import hashlib
import time
from dataclasses import dataclass
from statistics import median

import numpy as np

from repro.config import GPTConfig
from repro.nn.generate import generate
from repro.nn.transformer import GPTModel
from repro.serve import PagedKVCache, ServeEngine, poisson_trace
from repro.serve.decode import DecodeSession
from repro.serve.traffic import trace_to_json

import pins
from spans import COUNT, NAME, PARENT
from stats import quantile, timing_percentile

NUM_BLOCKS = 96
BLOCK_SIZE = 16
#: Seed of the Poisson draw that fixes both traffic shapes.  On
#: serve_decode it gives 568 virtual steps, 4276 tokens and 2
#: preemptions, so the recompute path runs too.
TRACE_SHAPE_SEED = 2
#: A p90 has ten samples beyond it from this many on.
P90_REQUESTS = 100


@dataclass(frozen=True)
class ServeShape:
    vocab: int
    requests: int
    rate: float
    prompt_len: tuple[int, int]
    max_new: tuple[int, int]
    temperature: float
    top_k: int | None
    checksums: bool
    warm_requests: int  # the warm-up serves this prefix of the trace
    #: measured passes in a 20 s run, (``--trace 0``, ``--trace 1``)
    passes_per_20s: tuple[int, int]
    oracle_samples: int  # requests re-generated by nn.generate.generate
    #: TTFT and TPOT limits for ``serve.slo_ok_share``: twice the p90
    #: measured when the benchmark was defined.
    slo_ms: tuple[float, float]


SHAPES = {
    "serve_decode": ServeShape(
        vocab=512, requests=32, rate=0.08, prompt_len=(8, 16),
        max_new=(96, 160), temperature=1.0, top_k=5, checksums=False,
        warm_requests=3, passes_per_20s=(3, 4),
        # The oracle recomputes the whole context per token: ~1 s per
        # request here, so fewer than the eight prefill can afford.
        oracle_samples=2,
        slo_ms=(59.0, 44.0),
    ),
    "serve_prefill": ServeShape(
        vocab=2048, requests=96, rate=0.5, prompt_len=(128, 224),
        max_new=(2, 6), temperature=0.0, top_k=None, checksums=True,
        warm_requests=8, passes_per_20s=(4, 2), oracle_samples=8,
        slo_ms=(204.0, 99.0),
    ),
}


def make_model(shape: ServeShape) -> GPTModel:
    config = GPTConfig(num_layers=4, hidden_size=128, num_attention_heads=4,
                       vocab_size=shape.vocab, seq_length=256,
                       name="bench-serve")
    return GPTModel(config, seed=0)


def make_trace(shape: ServeShape, seed: int):
    """The traffic shape (arrival steps, prompt and output lengths) is
    the workload and is the same for every seed; ``seed`` draws what the
    requests say: prompt tokens and per-request sampling seeds."""
    rng = np.random.default_rng(seed)
    return [
        dataclasses.replace(
            request,
            prompt=tuple(int(t) for t in rng.integers(
                0, shape.vocab, size=len(request.prompt))),
            seed=int(rng.integers(0, 2**31)),
        )
        for request in poisson_trace(
            shape.requests, shape.rate, vocab_size=shape.vocab,
            seed=TRACE_SHAPE_SEED, prompt_len=shape.prompt_len,
            max_new=shape.max_new, temperature=shape.temperature,
            top_k=shape.top_k,
        )
    ]


def streams_digest(outputs: dict[str, np.ndarray]) -> str:
    digest = hashlib.sha256()
    for request_id in sorted(outputs):
        digest.update(request_id.encode())
        digest.update(np.asarray(outputs[request_id], dtype=np.int64).tobytes())
    return digest.hexdigest()


class Serve:
    iteration_span = "ServeEngine.tick"
    #: self time of each wrapped entry point as a share of the traced pass
    share_of_span = {
        "ServeEngine.tick": "serve.engine_overhead_share",
        "DecodeSession.step": "serve.session_step_share",
        "GPTModel.forward_step": "serve.forward_share",
        "PagedKVCache.gather": "serve.gather_share",
        "PagedKVCache.append": "serve.append_share",
    }

    def __init__(self, name: str, seed: int, meter,
                 shape: ServeShape | None = None):
        self.name = name
        self.seed = seed
        self.meter = meter
        self.shape = shape or SHAPES[name]  # the selftest passes a tiny one
        self.model = make_model(self.shape)
        self.trace = make_trace(self.shape, seed)
        self.passes: list[dict] = []
        self.run_pass(self.trace[:self.shape.warm_requests])

    # -- one pass -----------------------------------------------------------
    def run_pass(self, trace, observe=None) -> dict:
        """Serve ``trace`` on a fresh cache and engine.  ``observe`` is
        called after every submit and tick in the traced pass."""
        cache = PagedKVCache.for_model(
            self.model, num_blocks=NUM_BLOCKS, block_size=BLOCK_SIZE,
            checksums=self.shape.checksums,
        )
        engine = ServeEngine(self.model, cache)
        pending = sorted(trace, key=lambda r: (r.arrival_step, r.request_id))
        due_tick: dict[str, int] = {}  # request -> index of its due tick
        tick_of_step: dict[int, int] = {}
        ticks: list[tuple[float, float]] = []  # (start, end) stamps
        clock = time.perf_counter
        i = 0
        start = clock()
        while i < len(pending) or engine.waiting or engine.running:
            if not engine.waiting and not engine.running:
                engine.step_count = max(engine.step_count,
                                        pending[i].arrival_step)
            while (i < len(pending)
                   and pending[i].arrival_step <= engine.step_count):
                engine.submit(pending[i])
                due_tick[pending[i].request_id] = len(ticks)
                if observe is not None:
                    observe("submit", engine, pending[i])
                i += 1
            tick_of_step[engine.step_count] = len(ticks)
            t0 = clock()
            engine.tick()
            ticks.append((t0, clock()))
            if observe is not None:
                observe("tick", engine, None)
        cache.assert_empty()
        return {
            "stamps": (start, ticks[-1][1]),
            "ticks": ticks,
            # request -> (due tick, first-token tick, finish tick, tokens)
            "requests": {
                r.request_id: (
                    due_tick[r.request_id], tick_of_step[r.first_token_step],
                    tick_of_step[r.finish_step], r.generated_tokens)
                for r in engine.finished if r.outcome == "completed"
            },
            "queue_wait_steps": [r.admit_step - r.arrival_step
                                 for r in engine.finished
                                 if r.outcome == "completed"],
            "generated": sum(r.generated_tokens for r in engine.finished),
            "prompt_tokens": sum(r.prompt_tokens for r in engine.finished),
            "preemptions": sum(r.preemptions for r in engine.finished),
            "outputs": engine.outputs,
        }

    def measure(self, seconds: float, trace: int) -> None:
        passes = max(1, round(
            self.shape.passes_per_20s[trace] * seconds / 20))
        if trace:  # whatever --seconds is, enough requests for the p90
            passes = max(passes, -(-P90_REQUESTS // len(self.trace)))
        for _ in range(passes):
            self.passes.append(self.run_pass(self.trace))
        self.measured = len(self.passes)  # a traced pass may follow

    # -- timings, all at nominal machine speed ------------------------------
    def wall_s(self, result: dict) -> float:
        return self.meter.seconds(*result["stamps"])

    def unit_seconds(self) -> float:
        return median(self.wall_s(p) for p in self.passes[:self.measured])

    def latencies_ms(self) -> list[tuple[float, float | None]]:
        """``(TTFT, TPOT)`` of every completed request of every measured
        pass.  TTFT runs from the start of the request's due tick to
        the end of the tick holding its first token; TPOT from there to
        the end of its last tick, per further token, preemption stalls
        included.  One token has no gap to measure: TPOT ``None``."""
        out = []
        for result in self.passes[:self.measured]:
            ticks = result["ticks"]
            for due, first, last, tokens in result["requests"].values():
                ttft = self.meter.seconds(ticks[due][0], ticks[first][1])
                tpot = None
                if tokens > 1:
                    tpot = self.meter.seconds(
                        ticks[first][1], ticks[last][1]) / (tokens - 1) * 1e3
                out.append((ttft * 1e3, tpot))
        return out

    def tokens_per_s(self) -> float:
        return median(p["generated"] / self.wall_s(p)
                      for p in self.passes[:self.measured])

    def end_to_end(self) -> dict[str, float]:
        latencies = self.latencies_ms()
        ttft = [a for a, _ in latencies]
        tpot = [b for _, b in latencies if b is not None]
        return {
            "work_per_s": self.tokens_per_s(),
            "wait_ms": timing_percentile(ttft, 50),
            "pace_ms": timing_percentile(tpot, 50),
        }

    # -- per-layer ----------------------------------------------------------
    def traced_pass(self, recorder):
        request_of_session: dict[int, str] = {}
        blocks_peak = 0
        occupancy: list[float] = []

        def observe(event, engine, request):
            nonlocal blocks_peak
            if event == "submit":
                request_of_session[id(engine.waiting[-1].session)] = (
                    request.request_id)
                return
            blocks_peak = max(blocks_peak, engine.cache.live_blocks)
            handles = [e.session.handle for e in engine.running
                       if e.session.handle is not None]
            reserved = sum(h.live_blocks for h in handles) * BLOCK_SIZE
            if reserved:
                occupancy.append(sum(h.length for h in handles) / reserved)

        new_positions = lambda result, model, token_ids, *a, **k: (
            np.asarray(token_ids).shape[1])
        recorder.wrap(ServeEngine, "tick", self.iteration_span)
        recorder.wrap(
            DecodeSession, "step", "DecodeSession.step",
            request_of=lambda session: request_of_session.get(id(session)))
        recorder.wrap(GPTModel, "forward_step", "GPTModel.forward_step",
                      count_of=new_positions)
        recorder.wrap(PagedKVCache, "gather", "PagedKVCache.gather")
        recorder.wrap(PagedKVCache, "append", "PagedKVCache.append")
        try:
            traced = self.run_pass(self.trace, observe)
        finally:
            recorder.unwrap_all()
        self.passes.append(traced)  # its streams are checked too

        ticks = len(traced["ticks"])
        positions = recorder.by_name()["GPTModel.forward_step"]["count"]
        # Without recomputation a request runs its prompt once and
        # every generated token but the last as a single new position.
        useful = (traced["prompt_tokens"] + traced["generated"]
                  - len(traced["requests"]))
        # A prefill is a forward call that gathered nothing.
        gathered = {s[PARENT] for s in recorder.spans
                    if s[NAME] == "PagedKVCache.gather"}
        decode_positions = sum(
            s[COUNT] for s in recorder.spans
            if s[NAME] == "GPTModel.forward_step" and s[PARENT] in gathered)
        # Everything timed comes from the passes that ran untraced.
        latencies = self.latencies_ms()
        ttft = [a for a, _ in latencies]
        tpot = [b for _, b in latencies if b is not None]
        tick_ms = [self.meter.seconds(t0, t1) * 1e3
                   for p in self.passes[:self.measured]
                   for t0, t1 in p["ticks"]]
        ttft_limit, tpot_limit = self.shape.slo_ms
        within = sum(a <= ttft_limit and (b is None or b <= tpot_limit)
                     for a, b in latencies)
        return self.wall_s(traced), {
            "serve_tokens_per_s": self.tokens_per_s(),
            "ttft_ms_p50": timing_percentile(ttft, 50),
            "ttft_ms_p90": timing_percentile(ttft, 90),
            "tpot_ms_p50": timing_percentile(tpot, 50),
            "tpot_ms_p90": timing_percentile(tpot, 90),
            "serve.tick_ms_p50": timing_percentile(tick_ms, 50),
            "serve.tick_ms_p95": timing_percentile(tick_ms, 95),
            "serve.ticks": ticks,
            "serve.batch_mean": traced["generated"] / ticks,
            "serve.prompt_positions": traced["prompt_tokens"],
            "serve.decode_positions": decode_positions,
            "serve.recomputed_positions": positions - useful,
            "serve.useful_position_share": useful / positions,
            "serve.preemptions": traced["preemptions"],
            "serve.queue_wait_steps_p50": quantile(
                traced["queue_wait_steps"], 50),
            "serve.queue_wait_steps_p90": quantile(
                traced["queue_wait_steps"], 90),
            "serve.kv_blocks_peak": blocks_peak,
            "serve.kv_occupancy_mean": sum(occupancy) / len(occupancy),
            # of the requests sent: one that did not complete missed
            "serve.slo_ok_share": within / (len(self.trace) * self.measured),
        }

    def probes(self) -> dict[str, float]:
        import probes  # here, so that set-up does not pay for its imports

        return {**probes.probe_kv(self.meter),
                **probes.PROBE_NN_SERVE[self.name](self.meter)}

    def close(self) -> None:
        pass

    # -- correctness --------------------------------------------------------
    def check(self):
        """A request fails if it did not complete or its stream is
        wrong: differs from another pass, or from the oracle."""
        problems = []
        reference = self.passes[0]["outputs"]
        failed = 0
        for number, result in enumerate(self.passes):
            wrong = len(self.trace) - len(result["requests"])
            wrong += sum(
                1 for rid, stream in result["outputs"].items()
                if rid not in reference
                or not np.array_equal(stream, reference[rid]))
            if wrong:
                failed += wrong
                problems.append(
                    f"pass {number}: {wrong} requests incomplete or "
                    "with a stream that differs from the first pass")
        rng = np.random.default_rng(self.seed)
        sampled = rng.choice(len(self.trace), self.shape.oracle_samples,
                             replace=False)
        for index in sorted(int(i) for i in sampled):
            req = self.trace[index]
            oracle = generate(
                self.model, np.array(req.prompt), req.max_new_tokens,
                temperature=req.temperature, top_k=req.top_k,
                rng=np.random.default_rng(req.seed),
            )
            if not np.array_equal(reference.get(req.request_id), oracle):
                failed += 1
                problems.append(
                    f"{req.request_id}: stream differs from nn.generate")
        if self.seed == pins.SEED and self.shape is SHAPES.get(self.name):
            digest = streams_digest(reference)
            if digest != pins.SERVE_DIGESTS[self.name]:
                problems.append(
                    f"stream digest {digest} != pinned "
                    f"{pins.SERVE_DIGESTS[self.name]}")
        return len(self.trace) * len(self.passes), failed, problems


def generated_inputs(name: str, seed: int) -> bytes:
    """The inputs ``--seed`` generates, for the selftest's
    same-seed-same-bytes check."""
    return trace_to_json(make_trace(SHAPES[name], seed)).encode()

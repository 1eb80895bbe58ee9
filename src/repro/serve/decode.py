"""Incremental decode sessions over the paged KV cache.

A :class:`DecodeSession` owns one request's decoding state: the token
history, the sampling configuration with a *per-request* random
generator, and a :class:`~repro.serve.kv_cache.KVHandle` into the shared
pool.  Once a session's context is cached, its next token comes out of
:func:`decode_batch`: one ragged
:meth:`repro.nn.transformer.GPTModel.forward_step` for any number of
sessions, reading K/V in place through views of their cache slots and
writing the new token's K/V straight into them.  :meth:`step` is the
batch of one.  Every token is picked by
:func:`repro.nn.generate.sample_rows`, the function the full-recompute
oracle samples with: the engine hands it every row of a tick that
shares a temperature and top-k at once, and each row draws from its
own request's rng, which :meth:`DecodeSession.take` then books -- so a
stream equals ``generate(model, prompt, n, rng=default_rng(seed))``
exactly, independent of how the engine batches, interleaves or
preempts it.

Sliding-window handling: the model uses *learned absolute* position
embeddings, so once the context reaches ``seq_length`` the window slides
and every position's embedding changes each step.  Cached K/V is then
invalid by construction; the session releases its blocks and recomputes
the shifted window per step, as the oracle does, so its stream on that
segment equals the oracle's.

Preemption is recompute-style (the vLLM default): ``preempt()`` releases
all blocks; the next ``step`` re-prefills prompt + generated-so-far.
The per-request rng is untouched, so the resumed stream is the one an
uninterrupted run would have produced.
"""

from __future__ import annotations

import numpy as np

from repro.nn.generate import sample_rows
from repro.nn.transformer import GPTModel
from repro.obs.tracer import span

from .kv_cache import PagedKVCache


class DecodeSession:
    """One request's incremental decode over a shared paged cache."""

    def __init__(
        self,
        model: GPTModel,
        cache: PagedKVCache,
        prompt_ids,
        max_new_tokens: int,
        *,
        temperature: float = 1.0,
        top_k: int | None = None,
        rng: np.random.Generator | None = None,
        stop_ids=None,
    ):
        prompt_ids = np.asarray(prompt_ids)
        if prompt_ids.ndim != 1 or prompt_ids.size == 0:
            raise ValueError("prompt_ids must be a non-empty 1-D array")
        if max_new_tokens < 0:
            raise ValueError("max_new_tokens must be >= 0")
        if temperature < 0:
            raise ValueError("temperature must be >= 0")
        if top_k is not None and top_k < 1:
            raise ValueError("top_k must be >= 1")
        vocab = model.config.vocab_size
        if prompt_ids.min() < 0 or prompt_ids.max() >= vocab:
            raise ValueError("prompt token out of range")
        self.stop_ids = frozenset(int(t) for t in stop_ids) if stop_ids else frozenset()
        if any(t < 0 or t >= vocab for t in self.stop_ids):
            raise ValueError("stop token out of range")
        self.model = model
        self.cache = cache
        self.window = model.config.seq_length
        self.tokens: list[int] = [int(t) for t in prompt_ids]
        self.prompt_len = len(self.tokens)
        self.max_new_tokens = max_new_tokens
        self.temperature = temperature
        self.top_k = top_k
        self.rng = rng if rng is not None else np.random.default_rng(0)
        self.generated = 0
        self.preemptions = 0
        self.finish_reason: str | None = (
            "length" if max_new_tokens == 0 else None
        )
        self.handle = None

    # -- state --------------------------------------------------------------
    @property
    def done(self) -> bool:
        return self.finish_reason is not None

    @property
    def live_blocks(self) -> int:
        return self.handle.live_blocks if self.handle is not None else 0

    def blocks_for_next_step(self) -> int:
        """Blocks the shared pool must still provide for the next step
        (0 on the sliding-window recompute path)."""
        n = len(self.tokens)
        if n > self.window:
            return 0
        return self.cache.blocks_for(n) - self.live_blocks

    @property
    def batchable(self) -> bool:
        """In the cached single-token regime: the whole context but the
        newest token is in the cache, so :func:`decode_batch` can run
        this session's next step together with other requests'."""
        return bool(self.handle and self.handle.length
                    and len(self.tokens) <= self.window)

    # -- decoding -----------------------------------------------------------
    def step(self) -> int:
        """Generate one token; returns it.  Raises if already done."""
        if self.done:
            raise RuntimeError("session already finished")
        if self.batchable:
            return self.sample(decode_batch([self])[0])
        # The context: a prompt, everything so far after a preemption
        # or retry, or the sliding window.  Past the window absolute
        # positions shift every step, so nothing cached can be reused.
        fits = len(self.tokens) <= self.window
        if not fits:
            self._drop_cache()
        elif self.handle is None:
            self.handle = self.cache.create()
        x, new_kvs = self.model.hidden_step(
            np.array(self.tokens[-self.window:])[None, :])
        if fits:
            self.cache.append(self.handle, new_kvs)
        logits, _ = self.model.head.forward(x)  # the sampled row only
        return self.sample(logits[0, -1])

    def sample(self, logits: np.ndarray) -> int:
        """Pick the next token from its logits row with this request's
        own sampling settings and rng, and book it; returns it."""
        return self.take(int(sample_rows(
            logits[None], self.temperature, self.top_k, [self.rng])[0]))

    def take(self, token: int) -> int:
        """Book ``token``, drawn with this request's settings and rng, as
        its next one; returns it."""
        self.tokens.append(token)
        self.generated += 1
        if token in self.stop_ids:
            self.finish_reason = "stop"
        elif self.generated >= self.max_new_tokens:
            self.finish_reason = "length"
        return token

    # -- lifecycle ----------------------------------------------------------
    def preempt(self) -> None:
        """Release every block; the next step re-prefills prompt +
        generated tokens (recompute-style resume).  The rng is
        untouched, so the resumed stream continues exactly."""
        self._drop_cache()
        self.preemptions += 1

    def recover(self) -> None:
        """Recompute-restart after an injected fault (decode crash or
        KV corruption): drop every cached block so the next step
        re-prefills from scratch.  Unlike :meth:`preempt` this does not
        count as a scheduler preemption -- the engine tracks it as a
        retry.  A fault always fires *before* the sampling rng is
        consumed for the failed step, so the retried stream still
        equals the per-request oracle."""
        self._drop_cache()

    def release(self) -> None:
        """Return all blocks to the pool (request finished)."""
        self._drop_cache()

    def _drop_cache(self) -> None:
        if self.handle is not None:
            self.cache.free(self.handle)
            self.handle = None

    def output(self) -> np.ndarray:
        return np.array(self.tokens, dtype=np.int64)


def decode_batch(sessions: list[DecodeSession]) -> np.ndarray:
    """One batched forward for ``sessions`` (all :attr:`batchable`, one
    model and cache): returns their next-token logits, ``(B, V)``.

    Every request has its own context length, and its K/V is read where
    it lives: :meth:`PagedKVCache.gather` (which raises
    :class:`KVCorruptionError` before anything ran or changed) hands the
    forward views of the requests' slots, the forward writes each new
    token's K/V into them in place and attends once per run of
    consecutive slots, and :meth:`PagedKVCache.append` books it.
    """
    model, cache = sessions[0].model, sessions[0].cache
    handles = [s.handle for s in sessions]
    past = cache.gather(handles)
    with span("forward", phase="serve"):
        logits, _ = model.forward_step(
            np.array([s.tokens[-1:] for s in sessions]), past,
            start=np.array([h.length for h in handles]),
        )
        cache.append(handles)
    return logits[:, -1]


def cached_generate(
    model: GPTModel,
    prompt_ids,
    max_new_tokens: int,
    *,
    temperature: float = 1.0,
    top_k: int | None = None,
    rng: np.random.Generator | None = None,
    stop_ids=None,
    cache: PagedKVCache | None = None,
    block_size: int = 4,
) -> np.ndarray:
    """Drop-in, KV-cached counterpart of :func:`repro.nn.generate.generate`.

    Runs a single :class:`DecodeSession` to completion (allocating a
    right-sized private pool when ``cache`` is not given) and returns
    the same token stream as the full-recompute oracle.
    """
    own = cache is None
    if own:
        prompt_len = int(np.asarray(prompt_ids).size)
        peak = min(model.config.seq_length, prompt_len + max_new_tokens)
        cache = PagedKVCache.for_model(
            model,
            num_blocks=max(1, -(-peak // block_size)),
            block_size=block_size,
        )
    session = DecodeSession(
        model, cache, prompt_ids, max_new_tokens,
        temperature=temperature, top_k=top_k, rng=rng, stop_ids=stop_ids,
    )
    while not session.done:
        session.step()
    session.release()
    if own:
        cache.assert_empty()
    return session.output()

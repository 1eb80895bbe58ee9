"""Autoregressive text generation from a trained GPT.

Greedy decoding and temperature/top-k sampling.  Generation is the
consumer-facing half of a language model; having it in the library lets
the examples demonstrate that models trained through the PTD-P engine
actually produce the structure they were trained on.

Decoding recomputes the full forward per step (no KV cache) -- fine for
the model sizes the numeric engine runs, and guaranteed consistent with
the training-path numerics.
"""

from __future__ import annotations

import numpy as np

from .transformer import GPTModel


def generate(
    model: GPTModel,
    prompt_ids: np.ndarray,
    max_new_tokens: int,
    *,
    temperature: float = 1.0,
    top_k: int | None = None,
    rng: np.random.Generator | None = None,
    stop_ids: set[int] | frozenset[int] | None = None,
) -> np.ndarray:
    """Continue ``prompt_ids`` (1-D int array) by ``max_new_tokens``.

    ``model`` is anything with a ``config`` and a ``forward(context,
    training=False)`` whose first result is the full-vocabulary logits
    (a :class:`GPTModel`, or a tensor-parallel
    :class:`~repro.serve.tp.TensorParallelDecoder`).

    ``temperature = 0`` selects greedy decoding; otherwise logits are
    divided by the temperature and sampled (restricted to the ``top_k``
    most likely tokens when given).  The context window slides so inputs
    never exceed the model's ``seq_length``.

    ``stop_ids`` ends generation early: the first *generated* token that
    is in the set is kept in the output and decoding stops.  Prompt
    tokens never trigger a stop, and ``max_new_tokens=0`` returns the
    prompt unchanged regardless of ``stop_ids``.
    """
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
    stop_ids = frozenset(int(t) for t in stop_ids) if stop_ids else frozenset()
    if any(t < 0 or t >= vocab for t in stop_ids):
        raise ValueError("stop token out of range")
    rng = rng or np.random.default_rng(0)
    window = model.config.seq_length
    out = list(prompt_ids)
    for _ in range(max_new_tokens):
        context = np.array(out[-window:])[None, :]
        logits, _ = model.forward(context, training=False)
        step = logits[0, -1]
        token = _pick(step, temperature, top_k, rng)
        out.append(token)
        if token in stop_ids:
            break
    return np.array(out, dtype=np.int64)


def _pick(
    logits: np.ndarray,
    temperature: float,
    top_k: int | None,
    rng: np.random.Generator,
) -> int:
    if temperature == 0.0:
        return int(np.argmax(logits))
    scaled = logits / temperature
    if top_k is not None and top_k < scaled.size:
        # Keep exactly top_k indices.  A threshold test (scaled >= cutoff)
        # would keep *more* than top_k candidates when logits tie at the
        # cutoff value; argpartition breaks ties by index instead.
        keep = np.argpartition(scaled, -top_k)[-top_k:]
        mask = np.full_like(scaled, -np.inf)
        mask[keep] = scaled[keep]
        scaled = mask
    scaled = scaled - scaled.max()
    probs = np.exp(scaled)
    probs /= probs.sum()
    return int(rng.choice(scaled.size, p=probs))


def perplexity(model: GPTModel, ids: np.ndarray, targets: np.ndarray) -> float:
    """exp(mean token cross-entropy) on a batch -- the standard LM metric."""
    loss, _ = model.loss(ids, targets, training=False)
    return float(np.exp(loss))

"""Autoregressive text generation from a trained GPT.

Greedy decoding and temperature/top-k sampling.  Generation is the
consumer-facing half of a language model; having it in the library lets
the examples demonstrate that models trained through the PTD-P engine
actually produce the structure they were trained on.

Decoding recomputes the full forward per step (no KV cache) -- fine for
the model sizes the numeric engine runs, and guaranteed consistent with
the training-path numerics.  Every sampled token in the library comes
from :func:`sample_rows`: this oracle calls it with one row, and the
serving engine with every row of a decode tick that shares a
temperature and top-k, so a request's stream does not depend on what
it was batched with.
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
        # the last row alone outlives the call: the next forward runs
        # without this one's logits
        last = model.forward(context, training=False)[0][0, -1:].copy()
        token = int(sample_rows(last, temperature, top_k, [rng])[0])
        out.append(token)
        if token in stop_ids:
            break
    return np.array(out, dtype=np.int64)


def sample_rows(
    logits: np.ndarray,
    temperature: float,
    top_k: int | None,
    rngs,
) -> np.ndarray:
    """Next tokens of ``logits`` ``(n, V)``, row ``i`` drawing from
    ``rngs[i]``, every row with one ``temperature`` and ``top_k``.

    ``temperature = 0`` is greedy and draws nothing.  Otherwise the rows
    are divided by the temperature, cut to their ``top_k`` largest
    (``argpartition``, so ties at the cutoff keep exactly ``top_k``),
    and softmaxed and summed into a CDF in one pass over every row.
    Each row then draws one ``rng.random()``, and its token is the count
    of its CDF entries at or below the draw: the ``searchsorted(...,
    side="right")`` that ``Generator.choice(V, p=probs)`` does on the
    same CDF, so the token and the rng's next state are what one
    ``choice`` per row gives.  Probabilities that are not finite raise
    ``ValueError`` before any row draws.
    """
    if temperature == 0.0:
        return np.argmax(logits, axis=1)
    scaled = logits / temperature
    n, vocab = scaled.shape
    keep = None  # every column
    if top_k is not None and top_k < vocab:
        # Keep exactly top_k indices.  A threshold test (scaled >= cutoff)
        # would keep *more* than top_k candidates when logits tie at the
        # cutoff value; argpartition breaks ties by index instead.  The
        # rest of the row is exp(-inf) = 0, so in column order the kept
        # columns' CDF is the whole row's at them.
        keep = np.sort(np.argpartition(scaled, -top_k, axis=1)[:, -top_k:],
                       axis=1)
        scaled = np.take_along_axis(scaled, keep, axis=1)
    scaled -= scaled.max(axis=1, keepdims=True)
    probs = np.exp(scaled, out=scaled)
    row = probs
    if keep is not None:
        # The sum runs over the whole row, zeros included: numpy's
        # pairwise sum groups columns by position, and so rounds by it.
        row = np.zeros((n, vocab))
        np.put_along_axis(row, keep, probs, axis=1)
    probs /= row.sum(axis=1, keepdims=True)
    if not np.isfinite(probs).all():
        raise ValueError("Probabilities contain NaN")
    cdf = probs.cumsum(axis=1)
    cdf /= cdf[:, -1:]
    draws = np.array([rng.random() for rng in rngs])
    picked = (cdf <= draws[:, None]).sum(axis=1)
    return picked if keep is None else keep[np.arange(n), picked]


def perplexity(model: GPTModel, ids: np.ndarray, targets: np.ndarray) -> float:
    """exp(mean token cross-entropy) on a batch -- the standard LM metric."""
    loss, _ = model.loss(ids, targets, training=False)
    return float(np.exp(loss))

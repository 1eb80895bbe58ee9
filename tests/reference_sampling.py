"""The one-row sampler that ``repro.nn.generate`` used before
``sample_rows`` picked a whole decode tick's tokens in one pass, kept
verbatim as the oracle.

It divides one logits row by the temperature, keeps its ``top_k``
largest by ``argpartition``, softmaxes, and hands the probabilities to
``Generator.choice``.  ``tests/test_generate.py`` holds ``sample_rows``
to it: the same tokens, and every rng left in the same state.  It
shares no code with ``repro.nn.generate`` on purpose.
"""

from __future__ import annotations

import numpy as np


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

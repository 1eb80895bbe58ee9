"""Token datasets for language-model training.

The paper's throughput experiments train GPT on tokenized text with
sequence length 2048; end-to-end throughput "includes all operations
including data loading" (§5.1).  Since the corpus content never affects
throughput (and the real 300B-token corpus is proprietary), this module
provides:

- :class:`TokenDataset`: a flat token stream sliced into fixed-length
  training sequences with next-token-prediction targets -- the standard
  GPT data layout where sample i is ``tokens[i*s : i*s + s + 1]``;
- :func:`synthetic_corpus`: a deterministic synthetic stream with a
  Zipfian unigram distribution and short-range repetition structure, so
  models trained on it have a learnable signal (losses drop -- used by
  the convergence tests and examples).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def synthetic_corpus(
    num_tokens: int,
    vocab_size: int,
    *,
    seed: int = 0,
    zipf_exponent: float = 1.1,
    repeat_prob: float = 0.3,
) -> np.ndarray:
    """A deterministic synthetic token stream.

    Unigram frequencies follow a Zipf law (like natural text); with
    probability ``repeat_prob`` a token copies the token 2 positions
    back, giving the stream learnable local structure.
    """
    if num_tokens < 1:
        raise ValueError("num_tokens must be >= 1")
    if vocab_size < 2:
        raise ValueError("vocab_size must be >= 2")
    if not 0 <= repeat_prob < 1:
        raise ValueError("repeat_prob must be in [0, 1)")
    rng = np.random.default_rng(seed)
    ranks = np.arange(1, vocab_size + 1, dtype=np.float64)
    probs = ranks**-zipf_exponent
    probs /= probs.sum()
    tokens = rng.choice(vocab_size, size=num_tokens, p=probs).astype(np.int32)
    repeat = rng.random(num_tokens) < repeat_prob
    repeat[:2] = False
    idx = np.nonzero(repeat)[0]
    tokens[idx] = tokens[idx - 2]
    return tokens


@dataclass
class TokenDataset:
    """A flat token stream sliced into training sequences.

    Sample ``i`` is ``(tokens[i*s : i*s+s], tokens[i*s+1 : i*s+s+1])``
    -- inputs and next-token targets.
    """

    tokens: np.ndarray
    seq_length: int

    def __post_init__(self) -> None:
        self.tokens = np.asarray(self.tokens)
        if self.tokens.ndim != 1:
            raise ValueError("tokens must be a 1-D stream")
        if self.seq_length < 1:
            raise ValueError("seq_length must be >= 1")
        if len(self) < 1:
            raise ValueError(
                f"stream of {self.tokens.size} tokens too short for even one "
                f"sequence of length {self.seq_length}"
            )

    def __len__(self) -> int:
        # +1 because targets are shifted by one token.
        return (self.tokens.size - 1) // self.seq_length

    def __getitem__(self, index: int) -> tuple[np.ndarray, np.ndarray]:
        if not 0 <= index < len(self):
            raise IndexError(f"sample {index} out of range [0, {len(self)})")
        s = self.seq_length
        start = index * s
        chunk = self.tokens[start : start + s + 1]
        return chunk[:-1].copy(), chunk[1:].copy()

    def batch(self, indices: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
        """Gather a batch of samples: returns (B, s) inputs and targets."""
        pairs = [self[int(i)] for i in np.asarray(indices).ravel()]
        ids = np.stack([p[0] for p in pairs])
        targets = np.stack([p[1] for p in pairs])
        return ids, targets

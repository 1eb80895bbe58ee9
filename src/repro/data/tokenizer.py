"""Byte-pair-encoding tokenizer.

GPT models train on BPE-tokenized text (GPT-2's 50,257-token vocabulary
is why the paper rounds V up to 51,200, "a multiple of 1024").  The
paper's end-to-end throughput includes data processing, so the pipeline
substrate carries a real tokenizer: a compact byte-level BPE with the
standard greedy merge-training loop, deterministic and dependency-free.

- :meth:`BPETokenizer.train` learns merges from text by repeatedly
  fusing the most frequent adjacent symbol pair (ties broken
  lexicographically for determinism);
- :meth:`encode` applies the learned merges in training order (the
  standard BPE encode);
- :meth:`decode` inverts exactly: ``decode(encode(text)) == text`` for
  any input, because the base alphabet is all 256 bytes.
"""

from __future__ import annotations

from collections import Counter


class BPETokenizer:
    """Byte-level BPE: 256 base tokens + learned merges."""

    def __init__(self, merges: list[tuple[int, int]] | None = None):
        self.merges: list[tuple[int, int]] = list(merges or [])
        self._rebuild_tables()

    def _rebuild_tables(self) -> None:
        #: merge pair -> new token id (256 + merge index)
        self.merge_ranks: dict[tuple[int, int], int] = {
            pair: 256 + i for i, pair in enumerate(self.merges)
        }
        #: token id -> bytes
        self.token_bytes: list[bytes] = [bytes([i]) for i in range(256)]
        for a, b in self.merges:
            self.token_bytes.append(self.token_bytes[a] + self.token_bytes[b])

    @property
    def vocab_size(self) -> int:
        return 256 + len(self.merges)

    # -- training -----------------------------------------------------------
    @classmethod
    def train(cls, text: str | bytes, vocab_size: int) -> "BPETokenizer":
        """Learn merges until the vocabulary reaches ``vocab_size``.

        Greedy BPE: each round fuses the most frequent adjacent pair
        (smallest pair wins ties, so training is deterministic).
        """
        if vocab_size < 256:
            raise ValueError("vocab_size must be >= 256 (the byte alphabet)")
        data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
        seq = list(data)
        tok = cls()
        while tok.vocab_size < vocab_size:
            counts = Counter(zip(seq, seq[1:]))
            if not counts:
                break
            best_count = max(counts.values())
            if best_count < 2:
                break  # nothing repeats; further merges are useless
            pair = min(p for p, c in counts.items() if c == best_count)
            new_id = tok.vocab_size
            tok.merges.append(pair)
            tok._rebuild_tables()
            seq = _apply_merge(seq, pair, new_id)
        return tok

    # -- encode / decode ------------------------------------------------------
    def encode(self, text: str | bytes) -> list[int]:
        """Tokenize by applying merges in learned (rank) order."""
        data = text.encode("utf-8") if isinstance(text, str) else bytes(text)
        seq = list(data)
        while len(seq) >= 2:
            pairs = set(zip(seq, seq[1:]))
            ranked = [
                (self.merge_ranks[p], p) for p in pairs if p in self.merge_ranks
            ]
            if not ranked:
                break
            rank, pair = min(ranked)
            seq = _apply_merge(seq, pair, rank)
        return seq

    def decode(self, token_ids: list[int]) -> str:
        out = bytearray()
        for t in token_ids:
            if not 0 <= t < self.vocab_size:
                raise ValueError(f"token id {t} out of range [0, {self.vocab_size})")
            out.extend(self.token_bytes[t])
        return out.decode("utf-8", errors="replace")


def _apply_merge(seq: list[int], pair: tuple[int, int], new_id: int) -> list[int]:
    """Replace every non-overlapping occurrence of ``pair`` with ``new_id``."""
    out: list[int] = []
    i = 0
    n = len(seq)
    a, b = pair
    while i < n:
        if i + 1 < n and seq[i] == a and seq[i + 1] == b:
            out.append(new_id)
            i += 2
        else:
            out.append(seq[i])
            i += 1
    return out

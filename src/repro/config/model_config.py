"""GPT model configuration and the paper's closed-form size formulas.

The paper (§5.1) parameterizes GPT models by number of layers ``l``,
hidden size ``h``, attention heads ``a``, vocabulary size ``V`` and
sequence length ``s``, and gives the parameter count

    P = 12 l h^2 (1 + 13/(12h) + (V + s)/(12 l h))        (eq. 2)

and the per-iteration FLOP count (with activation recomputation)

    F = 96 B s l h^2 (1 + s/(6h) + V/(16 l h))            (eq. 3)

Both are implemented here so every experiment shares one definition.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class GPTConfig:
    """Architecture of a GPT-style decoder-only transformer.

    Attributes
    ----------
    num_layers:
        Number of transformer layers (``l`` in the paper).
    hidden_size:
        Model hidden dimension (``h``).
    num_attention_heads:
        Number of attention heads (``a``); must divide ``hidden_size``.
    vocab_size:
        Vocabulary size (``V``). The paper uses 51,200 (multiple of 1024)
        for all evaluation models.
    seq_length:
        Training sequence length (``s``). The paper uses 2048.
    ffn_hidden_size:
        MLP intermediate size; the paper's models use ``4 h``.
    name:
        Optional human-readable label (e.g. ``"GPT-175B"``).
    """

    num_layers: int
    hidden_size: int
    num_attention_heads: int
    vocab_size: int = 51200
    seq_length: int = 2048
    ffn_hidden_size: int | None = None
    name: str = ""

    def __post_init__(self) -> None:
        if self.num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {self.num_layers}")
        if self.hidden_size < 1:
            raise ValueError(f"hidden_size must be >= 1, got {self.hidden_size}")
        if self.num_attention_heads < 1:
            raise ValueError(
                f"num_attention_heads must be >= 1, got {self.num_attention_heads}"
            )
        if self.hidden_size % self.num_attention_heads != 0:
            raise ValueError(
                "hidden_size must be divisible by num_attention_heads "
                f"({self.hidden_size} % {self.num_attention_heads} != 0)"
            )
        if self.vocab_size < 1:
            raise ValueError(f"vocab_size must be >= 1, got {self.vocab_size}")
        if self.seq_length < 1:
            raise ValueError(f"seq_length must be >= 1, got {self.seq_length}")
        if self.ffn_hidden_size is None:
            object.__setattr__(self, "ffn_hidden_size", 4 * self.hidden_size)

    @property
    def head_dim(self) -> int:
        """Per-head dimension ``h / a``."""
        return self.hidden_size // self.num_attention_heads

    def num_parameters(self) -> int:
        """Parameter count from eq. (2) of the paper.

        This is the formula the paper uses for Table 1's "Number of
        parameters" column (it counts transformer weights + biases, the
        token/position embeddings and the tied output layer).
        """
        l, h = self.num_layers, self.hidden_size
        V, s = self.vocab_size, self.seq_length
        return round(12 * l * h * h * (1 + 13 / (12 * h) + (V + s) / (12 * l * h)))

    def num_parameters_exact(self) -> int:
        """Exact parameter count by summing each weight/bias tensor.

        Counts, per layer: QKV projection (h x 3h + 3h), attention output
        (h x h + h), MLP up (h x 4h + 4h), MLP down (4h x h + h), and two
        LayerNorms (2h each); plus final LayerNorm, token embedding
        (V x h, tied with the output logits) and position embedding
        (s x h).  For ffn = 4h this equals eq. (2) plus the final
        LayerNorm's 2h parameters, which the paper's formula omits.
        """
        h = self.hidden_size
        f = self.ffn_hidden_size
        per_layer = (
            (h * 3 * h + 3 * h)  # QKV
            + (h * h + h)  # attention output projection
            + (h * f + f)  # MLP h -> f
            + (f * h + h)  # MLP f -> h
            + 4 * h  # two LayerNorms (scale + bias each)
        )
        embeddings = self.vocab_size * h + self.seq_length * h
        final_ln = 2 * h
        return self.num_layers * per_layer + embeddings + final_ln

    def flops_per_iteration(self, batch_size: int, *, with_recompute: bool = True) -> int:
        """Model FLOPs per training iteration, eq. (3) of the paper.

        With activation recomputation (the paper's default for large
        models) each transformer layer costs 4x its forward FLOPs
        (1 fwd + 2 bwd + 1 recompute fwd); without recomputation, 3x.
        The logit layer contributes ``6 B s h V`` either way (its inputs
        are not recomputed).
        """
        B, s = batch_size, self.seq_length
        l, h, V = self.num_layers, self.hidden_size, self.vocab_size
        fwd_all_layers = l * (24 * B * s * h * h + 4 * B * s * s * h)
        factor = 4 if with_recompute else 3
        logit = 6 * B * s * h * V
        return factor * fwd_all_layers + logit

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        label = self.name or "GPT"
        billions = self.num_parameters() / 1e9
        return (
            f"{label}(l={self.num_layers}, h={self.hidden_size}, "
            f"a={self.num_attention_heads}, P={billions:.1f}B)"
        )

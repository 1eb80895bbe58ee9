"""GPT transformer: attention, MLP, block, embedding and head stages.

The model is organized as a flat list of *pipeline-able layers*
(:attr:`GPTModel.layers`): an embedding stage, ``l`` transformer blocks,
and an output head.  Every layer implements the uniform
``forward -> (y, cache)`` / ``backward(dy, cache) -> dx`` protocol, so
the pipeline-parallel engine can split the list at any block boundary
(§2.2's "each device can be assigned an equal number of transformer
layers").

The output head ties its projection to the token-embedding matrix by
sharing the same :class:`Parameter` (gradients from both uses accumulate
into one tensor), matching Megatron's weight tying.  When the model is
split across pipeline stages the tie becomes two copies synchronized by
an all-reduce -- see ``repro.parallel.pipeline_parallel``.
"""

from __future__ import annotations

import numpy as np

from repro.config import GPTConfig

from . import functional as F
from .layers import Dropout, Embedding, GeLU, LayerNorm, Linear, default_init
from .profiler import matmul_flops, record_gemm_flops
from .module import Module, Parameter


class CausalSelfAttention(Module):
    """Multi-head self-attention with implicit causal masking.

    QKV weight layout is ``concat([Wq, Wk, Wv], axis=1)`` with heads
    occupying contiguous column blocks -- the layout Megatron's
    column-parallel split assumes.
    """

    def __init__(
        self,
        hidden_size: int,
        num_heads: int,
        *,
        attention_dropout: float = 0.0,
        rng: np.random.Generator | None = None,
        qkv_weight: np.ndarray | None = None,
        qkv_bias: np.ndarray | None = None,
        proj_weight: np.ndarray | None = None,
        proj_bias: np.ndarray | None = None,
    ):
        if hidden_size % num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")
        rng = rng or np.random.default_rng(0)
        self.hidden_size = hidden_size
        self.num_heads = num_heads
        self.head_dim = hidden_size // num_heads
        self.qkv = Linear(
            hidden_size,
            3 * hidden_size,
            rng=rng,
            weight=qkv_weight,
            bias_value=qkv_bias,
        )
        self.proj = Linear(
            hidden_size,
            hidden_size,
            rng=rng,
            weight=proj_weight,
            bias_value=proj_bias,
        )
        self.attn_dropout = Dropout(attention_dropout)

    def forward(self, x, *, training=True, rng=None):
        b, s, h = x.shape
        a, dk = self.num_heads, self.head_dim
        qkv, qkv_cache = self.qkv.forward(x)
        # (b, s, 3h) -> q, k, v of (b, a, s, dk) each: one view
        q, k, v = qkv.reshape(b, s, 3, a, dk).transpose(2, 0, 3, 1, 4)
        probs = F.scale_mask_softmax(q @ k.transpose(0, 1, 3, 2), dk)
        dropped, drop_mask = self.attn_dropout.forward(probs, training=training, rng=rng)
        ctx = dropped @ v  # (b, a, s, dk)
        record_gemm_flops("attention", 2 * matmul_flops(b, a, s, dk, s))
        merged = ctx.transpose(0, 2, 1, 3).reshape(b, s, h)
        out, proj_cache = self.proj.forward(merged)
        cache = (qkv_cache, q, k, v, probs, drop_mask, dropped, proj_cache, (b, s))
        return out, cache

    def forward_step(self, x, past_kv=None, lengths=0):
        """Inference-only incremental forward over cached keys/values.

        ``x`` holds the ``s_new`` *newest* tokens' hidden states
        (b, s_new, h), and row ``i`` has ``lengths[i]`` positions already
        decoded.  ``past_kv`` is ``None`` at prefill; or ``(k, v)``, each
        (b, a, S, dk), row ``i`` holding its past; or a list of runs
        ``(rows, k, v)`` covering the batch, as ``PagedKVCache.gather``
        hands out views of its store.  The new keys/values go into the
        positions behind each row's past -- in place when they exist
        there (the cache's views), else into buffers an exact-length past
        is copied into once -- and query ``j`` of row ``i`` attends to
        columns ``<= lengths[i] + j``, one attention per run, so a
        prefill computes exactly what :meth:`forward` computes in
        inference mode.  Returns ``(out, (k_new, v_new))`` -- only the
        *new* tokens' keys/values, for a caller's cache to absorb.
        """
        b, s_new, h = x.shape
        a, dk = self.num_heads, self.head_dim
        qkv, _ = self.qkv.forward(x)
        q, k, v = qkv.reshape(b, s_new, 3, a, dk).transpose(2, 0, 3, 1, 4)
        lengths = np.asarray(lengths)
        if not lengths.ndim:  # one start for every row
            lengths = np.full(b, lengths)
        if past_kv is None:
            ctx = self._attend(q, k, v, lengths)
        else:
            if not isinstance(past_kv, list):  # one run of every row
                past_kv = [(slice(None), *past_kv)]
            ctx = np.empty((b, a, s_new, dk))
            for rows, *run in past_kv:
                ctx[rows] = self._attend_past(
                    q[rows], k[rows], v[rows], run, lengths[rows])
        merged = ctx.transpose(0, 2, 1, 3).reshape(b, s_new, h)
        out, _ = self.proj.forward(merged)
        return out, (k, v)

    def _attend_past(self, q, k, v, past_kv, lengths):
        """Write the new ``k``, ``v`` behind each row's past, then attend."""
        n, a, s_new, dk = q.shape
        k_all, v_all = past_kv
        s_past, s_total = k_all.shape[2], lengths.max() + s_new
        if s_past < s_total:  # an exact-length past
            k_all, v_all = np.empty((2, n, a, s_total, dk))
            k_all[:, :, :s_past], v_all[:, :, :s_past] = past_kv
        rows = np.arange(n)[:, None]
        slots = lengths[:, None] + np.arange(s_new)  # behind the past
        k_all[rows, :, slots] = k.transpose(0, 2, 1, 3)
        v_all[rows, :, slots] = v.transpose(0, 2, 1, 3)
        return self._attend(q, k_all, v_all, lengths)

    def _attend(self, q, k_all, v_all, lengths):
        # The kernel forward() runs, on the causal rows of these
        # positions: that is what keeps a prefill bit-identical to it.
        n, a, s_new, dk = q.shape
        probs = F.scale_mask_softmax(
            q @ k_all.transpose(0, 1, 3, 2), dk, lengths
        )
        record_gemm_flops(
            "attention", 2 * matmul_flops(n, a, s_new, dk, k_all.shape[2])
        )
        return probs @ v_all  # (n, a, s_new, dk)

    def backward(self, dy, cache):
        qkv_cache, q, k, v, probs, drop_mask, dropped, proj_cache, (b, s) = cache
        a, dk = self.num_heads, self.head_dim
        dmerged = self.proj.backward(dy, proj_cache)
        dctx = dmerged.reshape(b, s, a, dk).transpose(0, 2, 1, 3)
        # The forward's q/k/v view, of the gradient: each product lands
        # where qkv.backward reads it.
        dqkv = np.empty((b, s, 3, a, dk))
        dq, dk_grad, dv = dqkv.transpose(2, 0, 3, 1, 4)
        ddropped = dctx @ v.transpose(0, 1, 3, 2)
        np.matmul(dropped.transpose(0, 1, 3, 2), dctx, out=dv)
        dprobs = self.attn_dropout.backward(ddropped, drop_mask)
        dscores = F.softmax_backward(dprobs, probs)
        dscores /= np.sqrt(dk)
        np.matmul(dscores, k, out=dq)
        np.matmul(dscores.transpose(0, 1, 3, 2), q, out=dk_grad)
        record_gemm_flops("attention", 4 * matmul_flops(b, a, s, dk, s))
        return self.qkv.backward(dqkv.reshape(b, s, -1), qkv_cache)


class MLP(Module):
    """Two-layer feed-forward: h -> ffn -> h with GeLU."""

    def __init__(
        self,
        hidden_size: int,
        ffn_hidden_size: int,
        *,
        rng: np.random.Generator | None = None,
        fc1_weight: np.ndarray | None = None,
        fc1_bias: np.ndarray | None = None,
        fc2_weight: np.ndarray | None = None,
        fc2_bias: np.ndarray | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.fc1 = Linear(
            hidden_size, ffn_hidden_size, rng=rng, weight=fc1_weight, bias_value=fc1_bias
        )
        self.act = GeLU()
        self.fc2 = Linear(
            ffn_hidden_size, hidden_size, rng=rng, weight=fc2_weight, bias_value=fc2_bias
        )

    def forward(self, x, *, training=True, rng=None):
        u, c1 = self.fc1.forward(x)
        g, c2 = self.act.forward(u)
        y, c3 = self.fc2.forward(g)
        return y, (c1, c2, c3)

    def backward(self, dy, cache):
        c1, c2, c3 = cache
        dg = self.fc2.backward(dy, c3)
        du = self.act.backward(dg, c2)
        return self.fc1.backward(du, c1)


class TransformerBlock(Module):
    """Pre-LayerNorm transformer block (GPT-2 style):

        x = x + Dropout(Attn(LN1(x)))
        x = x + Dropout(MLP(LN2(x)))
    """

    def __init__(
        self,
        hidden_size: int,
        num_heads: int,
        ffn_hidden_size: int | None = None,
        *,
        dropout: float = 0.0,
        attention_dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        ffn_hidden_size = ffn_hidden_size or 4 * hidden_size
        self.ln1 = LayerNorm(hidden_size)
        self.attn = CausalSelfAttention(
            hidden_size, num_heads, attention_dropout=attention_dropout, rng=rng
        )
        self.drop1 = Dropout(dropout)
        self.ln2 = LayerNorm(hidden_size)
        self.mlp = MLP(hidden_size, ffn_hidden_size, rng=rng)
        self.drop2 = Dropout(dropout)

    def forward(self, x, *, training=True, rng=None):
        # A sub-layer's output is a fresh array no cache holds (a no-op
        # Dropout hands it on as it is), so the residual lands in it.
        a, c_ln1 = self.ln1.forward(x)
        b, c_attn = self.attn.forward(a, training=training, rng=rng)
        d, m1 = self.drop1.forward(b, training=training, rng=rng)
        x1 = np.add(x, d, out=d)
        e, c_ln2 = self.ln2.forward(x1)
        f, c_mlp = self.mlp.forward(e, training=training, rng=rng)
        g, m2 = self.drop2.forward(f, training=training, rng=rng)
        y = np.add(x1, g, out=g)
        return y, (c_ln1, c_attn, m1, c_ln2, c_mlp, m2)

    def forward_step(self, x, past_kv=None, lengths=0):
        """Inference-only incremental forward (see CausalSelfAttention).

        Dropout is a no-op in inference mode, so it is skipped outright;
        the arithmetic matches :meth:`forward` with ``training=False``.
        """
        a, _ = self.ln1.forward(x)
        b, kv = self.attn.forward_step(a, past_kv, lengths)
        x1 = np.add(x, b, out=b)
        e, _ = self.ln2.forward(x1)
        f, _ = self.mlp.forward(e)
        return np.add(x1, f, out=f), kv

    def backward(self, dy, cache):
        c_ln1, c_attn, m1, c_ln2, c_mlp, m2 = cache
        dg = self.drop2.backward(dy, m2)
        df = self.mlp.backward(dg, c_mlp)
        dx1 = self.ln2.backward(df, c_ln2)  # the kernel's own array
        dx1 += dy
        dd = self.drop1.backward(dx1, m1)
        db = self.attn.backward(dd, c_attn)
        dx = self.ln1.backward(db, c_ln1)
        dx += dx1
        return dx


class EmbeddingStage(Module):
    """Token + learned position embeddings, with embedding dropout."""

    def __init__(
        self,
        vocab_size: int,
        hidden_size: int,
        max_seq_length: int,
        *,
        dropout: float = 0.0,
        rng: np.random.Generator | None = None,
    ):
        rng = rng or np.random.default_rng(0)
        self.wte = Embedding(vocab_size, hidden_size, rng=rng)
        self.wpe = Embedding(max_seq_length, hidden_size, rng=rng)
        self.drop = Dropout(dropout)
        self.vocab_size = vocab_size
        self.max_seq_length = max_seq_length

    def forward(self, token_ids, *, training=True, rng=None):
        token_ids = np.asarray(token_ids)
        b, s = token_ids.shape
        if s > self.max_seq_length:
            raise ValueError(f"sequence length {s} exceeds max {self.max_seq_length}")
        tok, c_tok = self.wte.forward(token_ids)
        positions = np.arange(s)
        pos, c_pos = self.wpe.forward(positions)
        x = tok + pos  # pos broadcasts over batch
        y, mask = self.drop.forward(x, training=training, rng=rng)
        return y, (c_tok, c_pos, mask, b)

    def forward_step(self, token_ids, start=0):
        """Inference-only embedding of tokens at positions ``start..``.

        ``token_ids`` is (b, s_new); the learned position embeddings are
        taken from ``start + arange(s_new)`` -- ``start`` is one int, or
        one int per row for a ragged batch -- so cached decode can embed
        only the newest tokens.  ``start=0`` with the full context
        matches :meth:`forward` in inference mode exactly.
        """
        token_ids = np.asarray(token_ids)
        b, s = token_ids.shape
        positions = np.asarray(start)[..., None] + np.arange(s)
        if positions.max() >= self.max_seq_length:
            raise ValueError(
                f"positions up to {positions.max() + 1} exceed max "
                f"{self.max_seq_length}"
            )
        tok, _ = self.wte.forward(token_ids)
        pos, _ = self.wpe.forward(positions)
        return tok + pos

    def backward(self, dy, cache):
        c_tok, c_pos, mask, b = cache
        dx = self.drop.backward(dy, mask)
        self.wte.backward(dx, c_tok)
        self.wpe.backward(dx.sum(axis=0), c_pos)
        return np.zeros(c_tok.shape)  # token ids: no gradient


class OutputHead(Module):
    """Final LayerNorm + logits against the (tied) embedding matrix."""

    def __init__(self, hidden_size: int, tied_embedding: Parameter):
        self.ln_f = LayerNorm(hidden_size)
        self.tied = tied_embedding  # shared Parameter (V, h)

    def forward(self, x, *, training=True, rng=None):
        xn, c_ln = self.ln_f.forward(x)
        logits = F.flat_matmul(xn, self.tied.data.T)
        record_gemm_flops(
            "logit", matmul_flops(xn.size // xn.shape[-1], *self.tied.data.shape)
        )
        return logits, (c_ln, xn)

    def backward(self, dlogits, cache):
        c_ln, xn = cache
        dxn = F.flat_matmul(dlogits, self.tied.data)
        flat_x = xn.reshape(-1, xn.shape[-1])
        flat_dl = dlogits.reshape(-1, dlogits.shape[-1])
        self.tied.grad += flat_dl.T @ flat_x
        record_gemm_flops(
            "logit", 2 * matmul_flops(flat_x.shape[0], *self.tied.data.shape)
        )
        return self.ln_f.backward(dxn, c_ln)


class GPTModel(Module):
    """A complete GPT: embedding stage, blocks, output head.

    Built deterministically from a seed so that tensor/pipeline-parallel
    builders can reconstruct identical full weights and shard them.
    """

    def __init__(
        self,
        config: GPTConfig,
        *,
        seed: int = 0,
        dropout: float = 0.0,
        attention_dropout: float = 0.0,
    ):
        self.config = config
        rng = np.random.default_rng(seed)
        self.embedding = EmbeddingStage(
            config.vocab_size,
            config.hidden_size,
            config.seq_length,
            dropout=dropout,
            rng=rng,
        )
        self.blocks = [
            TransformerBlock(
                config.hidden_size,
                config.num_attention_heads,
                config.ffn_hidden_size,
                dropout=dropout,
                attention_dropout=attention_dropout,
                rng=rng,
            )
            for _ in range(config.num_layers)
        ]
        self.head = OutputHead(config.hidden_size, self.embedding.wte.weight)

    @property
    def layers(self) -> list[Module]:
        """Pipeline-able layer list: [embedding, block_0..block_{l-1}, head]."""
        return [self.embedding, *self.blocks, self.head]

    def forward(self, token_ids, *, training=True, rng=None):
        caches = []
        x = token_ids
        for layer in self.layers:
            x, c = layer.forward(x, training=training, rng=rng)
            caches.append(c)
        return x, caches

    def hidden_step(self, token_ids, past_kvs=None, *, start=0):
        """:meth:`forward_step` below the head: ``(x, new_kvs)`` with
        ``x`` the final hidden states (b, s_new, h).  Serving applies
        the head to the one position it samples from."""
        past_kvs = past_kvs or [None] * len(self.blocks)
        x = self.embedding.forward_step(token_ids, start=start)
        new_kvs = []
        for block, past_kv in zip(self.blocks, past_kvs):
            x, kv = block.forward_step(x, past_kv, start)
            new_kvs.append(kv)
        return x, new_kvs

    def forward_step(self, token_ids, past_kvs=None, *, start=0):
        """Inference-only incremental forward with cached keys/values.

        ``token_ids`` is (b, s_new) holding only the *new* tokens;
        ``start`` is the absolute position of the first one (an int, or
        one per row for a batch of requests) and ``past_kvs`` yields
        each block's ``(k, v)`` of the ``start`` positions before it,
        or is ``None`` at prefill.  Returns ``(logits, new_kvs)`` where
        ``logits`` is (b, s_new, V) and ``new_kvs`` lists each block's
        keys/values for the new tokens only.  A prefill call
        (``past_kvs=None``, ``start=0``) is bit-identical to
        ``forward(token_ids, training=False)``.
        """
        x, new_kvs = self.hidden_step(token_ids, past_kvs, start=start)
        logits, _ = self.head.forward(x)
        return logits, new_kvs

    def backward(self, dlogits, caches):
        dy = dlogits
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            dy = layer.backward(dy, cache)
        return dy

    def loss(
        self, token_ids, targets, *, training=True, rng=None
    ) -> tuple[float, list]:
        """Cross-entropy loss; returns (loss, caches-with-loss-cache)."""
        logits, caches = self.forward(token_ids, training=training, rng=rng)
        loss, ce_cache = F.cross_entropy_forward(logits, targets)
        caches.append(ce_cache)
        return loss, caches

    def loss_backward(self, caches, scale: float = 1.0):
        ce_cache = caches[-1]
        dlogits = F.cross_entropy_backward(ce_cache, scale)
        return self.backward(dlogits, caches[:-1])

"""Tensor (intra-layer) model parallelism -- §2.3, Figure 5.

Implements Megatron's partitioning of the transformer layer over a
tensor-parallel group of ``t`` ranks:

- **MLP**: first GEMM column-split (``A = [A_1, A_2]``) so GeLU applies
  independently per shard; second GEMM row-split so partial outputs are
  summed by a single all-reduce (the ``g`` operator) in the forward
  pass.  The conjugate ``f`` operator all-reduces input gradients in the
  backward pass.
- **Self-attention**: Q, K, V projections column-split *by head*; each
  rank runs attention for its ``a/t`` heads; the output projection is
  row-split with the same ``g`` all-reduce.
- **Embedding / output head**: the (tied) vocabulary matrix is split
  along the vocab dimension; embedding lookups mask out-of-shard tokens
  and all-reduce partial results; the cross-entropy loss is computed
  *without* gathering full logits, using all-reduced per-token max and
  sum-exp statistics (Megatron's vocab-parallel cross entropy).

Representation: the engine is single-process, so a tensor that is
*replicated* across the group is stored once, and a *partitioned* tensor
is stored as a list of per-rank shards.  Every collective is executed by
the real ring primitives in :mod:`repro.comm.primitives`, so the
numerics and the per-rank byte counts are exactly those of the
multi-process system (2 all-reduces in forward + 2 in backward per layer).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from repro.comm import Backend, TrafficKind, TrafficLog, get_backend
from repro.config import GPTConfig
from repro.nn import functional as F
from repro.nn.layers import Dropout, LayerNorm
from repro.nn.module import Module, Parameter
from repro.nn.profiler import matmul_flops, record_gemm_flops
from repro.nn.transformer import (
    CausalSelfAttention,
    EmbeddingStage,
    GPTModel,
    MLP,
    OutputHead,
    TransformerBlock,
)


@dataclass
class TensorParallelGroup:
    """The tensor-parallel group a sharded layer communicates in.

    ``backend`` (the coop oracle unless given) moves the all-reduce's
    bytes; the arithmetic and traffic accounting are backend-invariant.
    """

    ranks: list[int]
    log: TrafficLog = field(default_factory=TrafficLog)
    backend: Backend = field(default_factory=get_backend)

    @property
    def size(self) -> int:
        return len(self.ranks)

    def all_reduce(self, partials: list[np.ndarray], tag: str) -> np.ndarray:
        """Sum partial results; returns the replicated array.

        The ring really runs (and is logged); all outputs are equal so
        one array represents the replicated result.
        """
        if len(partials) != self.size:
            raise ValueError(
                f"{len(partials)} partials for group of {self.size}"
            )
        if self.size == 1:
            return partials[0]
        return self.backend.all_reduce(
            partials, self.ranks, self.log, TrafficKind.TENSOR_PARALLEL, tag
        )[0]


class ColumnParallelLinear(Module):
    """Linear with the weight split along output columns.

    Input is replicated; each rank computes its output shard.  No
    forward communication (the ``f`` identity); the backward all-reduce
    of input gradients is performed by the enclosing layer, which owns
    the full set of partial ``dx`` contributions.
    """

    def __init__(self, full_weight: np.ndarray, full_bias: np.ndarray | None, t: int):
        in_f, out_f = full_weight.shape
        if out_f % t != 0:
            raise ValueError(f"out_features {out_f} not divisible by t={t}")
        self.t = t
        self.weight_shards = [  # contiguous, so a flat slice is a view
            Parameter(np.ascontiguousarray(w))
            for w in np.split(full_weight, t, axis=1)
        ]
        self.bias_shards = (
            [Parameter(b) for b in np.split(full_bias, t)] if full_bias is not None else None
        )
        self.in_features, self.out_features = in_f, out_f

    def forward_shards(self, x: np.ndarray) -> tuple[list[np.ndarray], Any]:
        outs, caches = [], []
        for i in range(self.t):
            b = self.bias_shards[i].data if self.bias_shards else None
            y, c = F.linear_forward(x, self.weight_shards[i].data, b)
            outs.append(y)
            caches.append(c)
        return outs, caches

    def backward_shards(self, dys: list[np.ndarray], caches: Any) -> list[np.ndarray]:
        """Per-shard dx partials (caller all-reduces: the ``f`` backward)."""
        dxs = []
        for i, (dy, c) in enumerate(zip(dys, caches)):
            dx, dw, db = F.linear_backward(dy, c)
            self.weight_shards[i].grad += dw
            if self.bias_shards:
                self.bias_shards[i].grad += db
            dxs.append(dx)
        return dxs


class RowParallelLinear(Module):
    """Linear with the weight split along input rows.

    Input is partitioned (one shard per rank); outputs are partial sums
    combined by the group all-reduce (the ``g`` forward).  The bias is
    added once after the reduction.
    """

    def __init__(self, full_weight: np.ndarray, full_bias: np.ndarray | None, t: int):
        in_f, out_f = full_weight.shape
        if in_f % t != 0:
            raise ValueError(f"in_features {in_f} not divisible by t={t}")
        self.t = t
        self.weight_shards = [
            Parameter(w) for w in np.split(full_weight, t, axis=0)
        ]
        self.bias = Parameter(full_bias) if full_bias is not None else None
        self.in_features, self.out_features = in_f, out_f

    def forward_partials(self, xs: list[np.ndarray]) -> tuple[list[np.ndarray], Any]:
        outs, caches = [], []
        for i in range(self.t):
            y, c = F.linear_forward(xs[i], self.weight_shards[i].data, None)
            outs.append(y)
            caches.append(c)
        return outs, caches

    def add_bias(self, reduced: np.ndarray) -> np.ndarray:
        """Add the bias into ``reduced``: the all-reduce of partials the
        caller just made, so an array it owns."""
        if self.bias is not None:
            reduced += self.bias.data
        return reduced

    def backward_partials(self, dy: np.ndarray, caches: Any) -> list[np.ndarray]:
        """dy is replicated; returns per-rank input-shard gradients."""
        if self.bias is not None:
            self.bias.grad += dy.reshape(-1, dy.shape[-1]).sum(axis=0)
        dxs = []
        for i, c in enumerate(caches):
            dx, dw, _ = F.linear_backward(dy, c)
            self.weight_shards[i].grad += dw
            dxs.append(dx)
        return dxs


class ParallelMLP(Module):
    """Figure 5(a): column-parallel fc1 + GeLU, row-parallel fc2, g/f ops."""

    def __init__(self, serial: MLP, group: TensorParallelGroup):
        t = group.size
        self.group = group
        self.fc1 = ColumnParallelLinear(
            serial.fc1.weight.data, serial.fc1.bias.data, t
        )
        self.fc2 = RowParallelLinear(
            serial.fc2.weight.data, serial.fc2.bias.data, t
        )

    def forward(self, x, *, training=True, rng=None):
        u_shards, c1 = self.fc1.forward_shards(x)
        g_shards, c_act = [], []
        for u in u_shards:
            g, c = F.gelu_forward(u)
            g_shards.append(g)
            c_act.append(c)
        z_partials, c2 = self.fc2.forward_partials(g_shards)
        z = self.group.all_reduce(z_partials, tag="mlp.g")  # g: fwd all-reduce
        return self.fc2.add_bias(z), (c1, c_act, c2)

    def backward(self, dy, cache):
        c1, c_act, c2 = cache
        dg_shards = self.fc2.backward_partials(dy, c2)
        du_shards = [
            F.gelu_backward(dg, c) for dg, c in zip(dg_shards, c_act)
        ]
        dx_partials = self.fc1.backward_shards(du_shards, c1)
        # f: bwd all-reduce of input gradients.
        return self.group.all_reduce(dx_partials, tag="mlp.f")


class ParallelAttention(Module):
    """Figure 5(b): head-partitioned attention with row-parallel output."""

    def __init__(self, serial: CausalSelfAttention, group: TensorParallelGroup):
        t = group.size
        if serial.num_heads % t != 0:
            raise ValueError(
                f"{serial.num_heads} heads not divisible by t={t}"
            )
        self.group = group
        self.num_heads = serial.num_heads
        self.heads_per_rank = serial.num_heads // t
        self.head_dim = serial.head_dim
        self.hidden_size = serial.hidden_size
        h = serial.hidden_size
        # Serial QKV weight is concat([Wq, Wk, Wv], axis=1); re-split it
        # so each rank gets its heads' q, k, v columns.
        wq, wk, wv = np.split(serial.qkv.weight.data, 3, axis=1)
        bq, bk, bv = np.split(serial.qkv.bias.data, 3)
        self.qkv_shards = []
        self.qkv_bias_shards = []
        hp = h // t  # columns per rank within each of q, k, v
        for i in range(t):
            sl = slice(i * hp, (i + 1) * hp)
            self.qkv_shards.append(
                Parameter(np.concatenate([wq[:, sl], wk[:, sl], wv[:, sl]], axis=1))
            )
            self.qkv_bias_shards.append(
                Parameter(np.concatenate([bq[sl], bk[sl], bv[sl]]))
            )
        self.proj = RowParallelLinear(
            serial.proj.weight.data, serial.proj.bias.data, t
        )
        self.attn_dropout = Dropout(serial.attn_dropout.p)

    def forward(self, x, *, training=True, rng=None):
        b, s, h = x.shape
        t = self.group.size
        ar, dk = self.heads_per_rank, self.head_dim
        ctx_shards, caches = [], []
        for i in range(t):
            qkv, c_qkv = F.linear_forward(
                x, self.qkv_shards[i].data, self.qkv_bias_shards[i].data
            )
            q, k, v = qkv.reshape(b, s, 3, ar, dk).transpose(2, 0, 3, 1, 4)
            probs = F.scale_mask_softmax(q @ k.transpose(0, 1, 3, 2), dk)
            dropped, mask = self.attn_dropout.forward(probs, training=training, rng=rng)
            ctx = (dropped @ v).transpose(0, 2, 1, 3).reshape(b, s, ar * dk)
            record_gemm_flops("attention", 2 * matmul_flops(b, ar, s, dk, s))
            ctx_shards.append(ctx)
            caches.append((c_qkv, q, k, v, probs, mask, dropped))
        z_partials, c_proj = self.proj.forward_partials(ctx_shards)
        z = self.group.all_reduce(z_partials, tag="attn.g")
        return self.proj.add_bias(z), (caches, c_proj, (b, s))

    def backward(self, dy, cache):
        caches, c_proj, (b, s) = cache
        ar, dk = self.heads_per_rank, self.head_dim
        dctx_shards = self.proj.backward_partials(dy, c_proj)
        dx_partials = []
        for i, ((c_qkv, q, k, v, probs, mask, dropped), dctx) in enumerate(
            zip(caches, dctx_shards)
        ):
            dctx = dctx.reshape(b, s, ar, dk).transpose(0, 2, 1, 3)
            # As in CausalSelfAttention.backward: the forward's view, of
            # the gradient.
            dqkv = np.empty((b, s, 3, ar, dk))
            dq, dkk, dv = dqkv.transpose(2, 0, 3, 1, 4)
            ddropped = dctx @ v.transpose(0, 1, 3, 2)
            np.matmul(dropped.transpose(0, 1, 3, 2), dctx, out=dv)
            dprobs = self.attn_dropout.backward(ddropped, mask)
            dscores = F.softmax_backward(dprobs, probs)
            dscores /= np.sqrt(dk)
            np.matmul(dscores, k, out=dq)
            np.matmul(dscores.transpose(0, 1, 3, 2), q, out=dkk)
            record_gemm_flops("attention", 4 * matmul_flops(b, ar, s, dk, s))
            dx, dw, db = F.linear_backward(dqkv.reshape(b, s, -1), c_qkv)
            self.qkv_shards[i].grad += dw
            self.qkv_bias_shards[i].grad += db
            dx_partials.append(dx)
        return self.group.all_reduce(dx_partials, tag="attn.f")


class ParallelTransformerBlock(Module):
    """Transformer block with tensor-parallel attention and MLP.

    LayerNorms, residuals and dropout act on replicated tensors (every
    rank computes them identically; computed once here).
    """

    def __init__(self, serial: TransformerBlock, group: TensorParallelGroup):
        self.ln1 = LayerNorm(serial.ln1.gamma.size)
        self.ln1.gamma.data[...] = serial.ln1.gamma.data
        self.ln1.beta.data[...] = serial.ln1.beta.data
        self.attn = ParallelAttention(serial.attn, group)
        self.drop1 = Dropout(serial.drop1.p)
        self.ln2 = LayerNorm(serial.ln2.gamma.size)
        self.ln2.gamma.data[...] = serial.ln2.gamma.data
        self.ln2.beta.data[...] = serial.ln2.beta.data
        self.mlp = ParallelMLP(serial.mlp, group)
        self.drop2 = Dropout(serial.drop2.p)

    def forward(self, x, *, training=True, rng=None):
        # As in TransformerBlock: the residual lands in the sub-layer's
        # output, a fresh array no cache holds.
        a, c_ln1 = self.ln1.forward(x)
        b, c_attn = self.attn.forward(a, training=training, rng=rng)
        d, m1 = self.drop1.forward(b, training=training, rng=rng)
        x1 = np.add(x, d, out=d)
        e, c_ln2 = self.ln2.forward(x1)
        f_, c_mlp = self.mlp.forward(e, training=training, rng=rng)
        g, m2 = self.drop2.forward(f_, training=training, rng=rng)
        return np.add(x1, g, out=g), (c_ln1, c_attn, m1, c_ln2, c_mlp, m2)

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


class VocabParallelEmbedding(Module):
    """Token embedding split along the vocabulary dimension.

    Each rank owns rows ``[i*V/t, (i+1)*V/t)``; out-of-shard lookups
    contribute zeros and the partial embeddings are all-reduced.
    Position embeddings are replicated (no communication).
    """

    def __init__(self, serial: EmbeddingStage, group: TensorParallelGroup):
        t = group.size
        V = serial.vocab_size
        if V % t != 0:
            raise ValueError(f"vocab {V} not divisible by t={t}")
        self.group = group
        self.vocab_size = V
        self.shard_size = V // t
        self.wte_shards = [
            Parameter(w) for w in np.split(serial.wte.weight.data, t, axis=0)
        ]
        self.wpe = Parameter(serial.wpe.weight.data.copy())
        self.drop = Dropout(serial.drop.p)
        self.max_seq_length = serial.max_seq_length

    def forward(self, token_ids, *, training=True, rng=None):
        token_ids = np.asarray(token_ids)
        b, s = token_ids.shape
        if s > self.max_seq_length:
            raise ValueError("sequence too long")
        partials, masks = [], []
        for i, shard in enumerate(self.wte_shards):
            lo = i * self.shard_size
            in_shard = (token_ids >= lo) & (token_ids < lo + self.shard_size)
            local = np.where(in_shard, token_ids - lo, 0)
            part = shard.data[local] * in_shard[..., None]
            partials.append(part)
            masks.append((local, in_shard))
        tok = self.group.all_reduce(partials, tag="embed")
        pos = self.wpe.data[np.arange(s)]
        y, dmask = self.drop.forward(tok + pos, training=training, rng=rng)
        return y, (masks, dmask, b, s)

    def backward(self, dy, cache):
        masks, dmask, b, s = cache
        dx = self.drop.backward(dy, dmask)
        for shard, (local, in_shard) in zip(self.wte_shards, masks):
            contrib = dx * in_shard[..., None]
            np.add.at(shard.grad, local[in_shard], contrib[in_shard])
        self.wpe.grad[np.arange(s)] += dx.sum(axis=0)
        return np.zeros((b, s))


class VocabParallelOutputHead(Module):
    """Final LayerNorm + vocab-sharded logits, tied to the embedding shards.

    ``forward`` returns the *sharded* logits (list of (b, s, V/t)); use
    :meth:`loss` for Megatron's vocab-parallel cross-entropy, which
    communicates only per-token scalars (max and sum-exp), never the
    full logits.
    """

    def __init__(
        self,
        serial: OutputHead,
        group: TensorParallelGroup,
        tied_shards: list[Parameter],
    ):
        self.group = group
        self.ln_f = LayerNorm(serial.ln_f.gamma.size)
        self.ln_f.gamma.data[...] = serial.ln_f.gamma.data
        self.ln_f.beta.data[...] = serial.ln_f.beta.data
        self.tied_shards = tied_shards
        self.shard_size = tied_shards[0].data.shape[0]

    def forward(self, x, *, training=True, rng=None):
        xn, c_ln = self.ln_f.forward(x)
        logits_shards = [F.flat_matmul(xn, p.data.T) for p in self.tied_shards]
        rows = xn.size // xn.shape[-1]
        for p in self.tied_shards:
            record_gemm_flops("logit", matmul_flops(rows, *p.data.shape))
        return logits_shards, (c_ln, xn)

    def backward(self, dlogits_shards, cache):
        c_ln, xn = cache
        flat_x = xn.reshape(-1, xn.shape[-1])
        dxn_partials = []
        for p, dl in zip(self.tied_shards, dlogits_shards):
            dxn_partials.append(F.flat_matmul(dl, p.data))
            flat_dl = dl.reshape(-1, dl.shape[-1])
            p.grad += flat_dl.T @ flat_x
            record_gemm_flops(
                "logit", 2 * matmul_flops(flat_x.shape[0], *p.data.shape)
            )
        dxn = self.group.all_reduce(dxn_partials, tag="head.f")
        return self.ln_f.backward(dxn, c_ln)

    def loss(
        self, logits_shards: list[np.ndarray], targets: np.ndarray
    ) -> tuple[float, Any]:
        """Vocab-parallel cross entropy (mean over tokens).

        Per-token max and sum-exp are all-reduced (tiny messages); the
        target logit is owned by exactly one shard and all-reduced too.
        """
        targets = np.asarray(targets)
        flat_t = targets.reshape(-1)
        n_tok = flat_t.shape[0]
        flats = [ls.reshape(n_tok, -1) for ls in logits_shards]
        # max over shards (emulating an all-reduce MAX of scalars/token).
        maxes = [fl.max(axis=1) for fl in flats]
        self._log_scalar_allreduce(n_tok, tag="ce.max")
        gmax = np.max(maxes, axis=0)
        exps = [fl - gmax[:, None] for fl in flats]
        for e in exps:
            np.exp(e, out=e)
        self._log_scalar_allreduce(n_tok, tag="ce.sumexp")
        sumexp = np.sum([e.sum(axis=1) for e in exps], axis=0)
        # target logit: owned by one shard each.
        picked = np.zeros(n_tok)
        owners = []
        for i, fl in enumerate(flats):
            lo = i * self.shard_size
            owned = (flat_t >= lo) & (flat_t < lo + self.shard_size)
            owners.append(owned)
            picked[owned] = fl[owned, flat_t[owned] - lo]
        self._log_scalar_allreduce(n_tok, tag="ce.target")
        loss = float(np.mean(np.log(sumexp) + gmax - picked))
        return loss, (exps, flat_t, sumexp, owners, targets.shape)

    def loss_backward(self, cache, scale: float = 1.0) -> list[np.ndarray]:
        exps, flat_t, sumexp, owners, tgt_shape = cache
        n_tok = flat_t.shape[0]
        out = []
        for i, (e, owned) in enumerate(zip(exps, owners)):
            probs = e / sumexp[:, None]  # the softmax, from loss()'s exp
            lo = i * self.shard_size
            probs[owned, flat_t[owned] - lo] -= 1.0
            probs *= scale / n_tok
            out.append(probs.reshape(*tgt_shape, -1))
        return out

    def _log_scalar_allreduce(self, n_tok: int, tag: str) -> None:
        if self.group.size > 1:
            # 8-byte scalar per token around the ring, both phases.
            per_rank = 2 * (self.group.size - 1) / self.group.size * n_tok * 8
            for r_idx, rank in enumerate(self.group.ranks):
                dst = self.group.ranks[(r_idx + 1) % self.group.size]
                self.group.log.add(
                    rank, dst, int(per_rank), TrafficKind.TENSOR_PARALLEL, tag
                )


class TensorParallelGPT(Module):
    """A full GPT with every layer tensor-parallel over one group.

    Built by sharding a serial :class:`GPTModel` constructed with the
    same seed, so ``gather_state_dict`` reassembles weights bit-equal to
    the serial model's (the basis of the §2.3 exactness tests).
    """

    def __init__(self, config: GPTConfig, group: TensorParallelGroup, *, seed: int = 0,
                 dropout: float = 0.0, attention_dropout: float = 0.0):
        serial = GPTModel(
            config, seed=seed, dropout=dropout, attention_dropout=attention_dropout
        )
        self.config = config
        self.group = group
        self.embedding = VocabParallelEmbedding(serial.embedding, group)
        self.blocks = [
            ParallelTransformerBlock(blk, group) for blk in serial.blocks
        ]
        self.head = VocabParallelOutputHead(
            serial.head, group, self.embedding.wte_shards
        )

    @property
    def layers(self) -> list[Module]:
        return [self.embedding, *self.blocks, self.head]

    def forward(self, token_ids, *, training=True, rng=None):
        caches = []
        x = token_ids
        for layer in self.layers:
            x, c = layer.forward(x, training=training, rng=rng)
            caches.append(c)
        return x, caches  # x is the sharded-logit list

    def gather_state_dict(self) -> dict[str, np.ndarray]:
        """Reassemble full (serial-layout) weights from the shards."""
        out: dict[str, np.ndarray] = {}
        out["embedding.wte.weight"] = np.concatenate(
            [p.data for p in self.embedding.wte_shards], axis=0
        )
        out["embedding.wpe.weight"] = self.embedding.wpe.data.copy()
        for li, blk in enumerate(self.blocks):
            pre = f"blocks.{li}."
            out[pre + "ln1.gamma"] = blk.ln1.gamma.data.copy()
            out[pre + "ln1.beta"] = blk.ln1.beta.data.copy()
            out[pre + "ln2.gamma"] = blk.ln2.gamma.data.copy()
            out[pre + "ln2.beta"] = blk.ln2.beta.data.copy()
            # QKV: per-rank [q_i | k_i | v_i] columns -> serial [Q | K | V].
            qs, ks, vs = [], [], []
            qbs, kbs, vbs = [], [], []
            for w, bias in zip(blk.attn.qkv_shards, blk.attn.qkv_bias_shards):
                q, k, v = np.split(w.data, 3, axis=1)
                qs.append(q), ks.append(k), vs.append(v)
                qb, kb, vb = np.split(bias.data, 3)
                qbs.append(qb), kbs.append(kb), vbs.append(vb)
            out[pre + "attn.qkv.weight"] = np.concatenate(
                [np.concatenate(qs, axis=1), np.concatenate(ks, axis=1),
                 np.concatenate(vs, axis=1)], axis=1,
            )
            out[pre + "attn.qkv.bias"] = np.concatenate(
                [np.concatenate(qbs), np.concatenate(kbs), np.concatenate(vbs)]
            )
            out[pre + "attn.proj.weight"] = np.concatenate(
                [p.data for p in blk.attn.proj.weight_shards], axis=0
            )
            out[pre + "attn.proj.bias"] = blk.attn.proj.bias.data.copy()
            out[pre + "mlp.fc1.weight"] = np.concatenate(
                [p.data for p in blk.mlp.fc1.weight_shards], axis=1
            )
            out[pre + "mlp.fc1.bias"] = np.concatenate(
                [p.data for p in blk.mlp.fc1.bias_shards]
            )
            out[pre + "mlp.fc2.weight"] = np.concatenate(
                [p.data for p in blk.mlp.fc2.weight_shards], axis=0
            )
            out[pre + "mlp.fc2.bias"] = blk.mlp.fc2.bias.data.copy()
        out["head.ln_f.gamma"] = self.head.ln_f.gamma.data.copy()
        out["head.ln_f.beta"] = self.head.ln_f.beta.data.copy()
        return out

    def load_gathered_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`gather_state_dict`: shard serial-layout
        weights back onto the tensor-parallel shards.

        Used by checkpoint resharding: a checkpoint written under one
        (p, t, d) can be loaded under any other.
        """
        t = self.group.size
        for i, shard in enumerate(
            np.split(state["embedding.wte.weight"], t, axis=0)
        ):
            self.embedding.wte_shards[i].data[...] = shard
        self.embedding.wpe.data[...] = state["embedding.wpe.weight"]
        for li, blk in enumerate(self.blocks):
            pre = f"blocks.{li}."
            blk.ln1.gamma.data[...] = state[pre + "ln1.gamma"]
            blk.ln1.beta.data[...] = state[pre + "ln1.beta"]
            blk.ln2.gamma.data[...] = state[pre + "ln2.gamma"]
            blk.ln2.beta.data[...] = state[pre + "ln2.beta"]
            wq, wk, wv = np.split(state[pre + "attn.qkv.weight"], 3, axis=1)
            bq, bk, bv = np.split(state[pre + "attn.qkv.bias"], 3)
            h = wq.shape[0]
            hp = h // t
            for i in range(t):
                sl = slice(i * hp, (i + 1) * hp)
                blk.attn.qkv_shards[i].data[...] = np.concatenate(
                    [wq[:, sl], wk[:, sl], wv[:, sl]], axis=1
                )
                blk.attn.qkv_bias_shards[i].data[...] = np.concatenate(
                    [bq[sl], bk[sl], bv[sl]]
                )
            for i, shard in enumerate(
                np.split(state[pre + "attn.proj.weight"], t, axis=0)
            ):
                blk.attn.proj.weight_shards[i].data[...] = shard
            blk.attn.proj.bias.data[...] = state[pre + "attn.proj.bias"]
            for i, shard in enumerate(
                np.split(state[pre + "mlp.fc1.weight"], t, axis=1)
            ):
                blk.mlp.fc1.weight_shards[i].data[...] = shard
            for i, shard in enumerate(
                np.split(state[pre + "mlp.fc1.bias"], t)
            ):
                blk.mlp.fc1.bias_shards[i].data[...] = shard
            for i, shard in enumerate(
                np.split(state[pre + "mlp.fc2.weight"], t, axis=0)
            ):
                blk.mlp.fc2.weight_shards[i].data[...] = shard
            blk.mlp.fc2.bias.data[...] = state[pre + "mlp.fc2.bias"]
        self.head.ln_f.gamma.data[...] = state["head.ln_f.gamma"]
        self.head.ln_f.beta.data[...] = state["head.ln_f.beta"]
        # Tied head shards: if the pipeline engine untied them, refresh
        # the copies from the embedding values.
        if self.head.tied_shards is not self.embedding.wte_shards:
            for dst, shard in zip(
                self.head.tied_shards,
                np.split(state["embedding.wte.weight"], t, axis=0),
            ):
                dst.data[...] = shard

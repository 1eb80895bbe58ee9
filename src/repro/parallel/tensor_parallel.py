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

Layout: every module allocates its shards by shape and names, in
:meth:`ShardedModule.layout`, the serial weight each shard list cuts and
how (vocab rows, columns, rows, the per-head ``[q_i | k_i | v_i]``
interleave, or replicated).  :meth:`~ShardedModule.load_gathered_state_dict`
and :meth:`~ShardedModule.gather_state_dict` are the one cut and the one
join over that table; :class:`TensorParallelGPT` fills itself from a
serial :class:`GPTModel` through it.  ``t = 1`` is a group of one: every
list holds one shard, every all-reduce returns its one partial, and the
arithmetic is the serial model's.

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
from repro.nn.transformer import GPTModel


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


#: How a serial weight is cut into a module's shard list: along its
#: rows, along its last axis, per head (serial ``[Q | K | V]`` columns,
#: shard ``i`` holding ``[q_i | k_i | v_i]``), or not at all (one shard).
ROWS, COLUMNS, HEADS, REPLICATED = "rows", "columns", "heads", "replicated"


def _split(kind: str, full: np.ndarray, t: int) -> list[np.ndarray]:
    """Views of ``full``, one per shard; a ``HEADS`` view is shaped
    ``(..., 3, h/t)``, the shard's ``[q_i | k_i | v_i]`` row by row."""
    if kind == HEADS:
        qkv = full.reshape(*full.shape[:-1], 3, t, -1)
        return [qkv[..., i, :] for i in range(t)]
    return np.split(full, t, axis=-1 if kind == COLUMNS else 0)


def _join(kind: str, shards: list[np.ndarray]) -> np.ndarray:
    if kind == HEADS:
        lead = shards[0].shape[:-1]
        qkv = [s.reshape(*lead, 3, -1) for s in shards]
        return np.stack(qkv, axis=-2).reshape(*lead, -1)
    return np.concatenate(shards, axis=-1 if kind == COLUMNS else 0)


def _joined_shape(kind: str, shards: list[Parameter]) -> tuple[int, ...]:
    first = shards[0].shape
    if kind in (COLUMNS, HEADS):
        return (*first[:-1], sum(s.shape[-1] for s in shards))
    return (sum(s.shape[0] for s in shards), *first[1:])


def _replicated(module: Module, prefix: str):
    """Layout entries of a module every rank holds whole (a LayerNorm)."""
    for name, p in module.named_parameters(prefix):
        yield name, REPLICATED, [p]


class ShardedModule(Module):
    """A module whose parameters are shards of serial-layout weights.

    Each subclass's ``layout(prefix="")`` yields ``(serial name, kind,
    shards)`` for every weight it holds; the cut, the join and their
    checks are written once, here.
    """

    def gather_state_dict(self) -> dict[str, np.ndarray]:
        """Reassemble full (serial-layout) weights from the shards."""
        return {
            name: _join(kind, [p.data for p in shards])
            for name, kind, shards in self.layout()
        }

    def load_gathered_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`gather_state_dict`: cut serial-layout
        weights onto the shards.  A missing name or a wrong shape
        raises ``ValueError`` naming the weight, before any shard is
        written; names the layout does not hold are ignored."""
        layout = list(self.layout())
        for name, kind, shards in layout:
            if name not in state:
                raise ValueError(f"missing parameter {name}")
            want = _joined_shape(kind, shards)
            if np.shape(state[name]) != want:
                raise ValueError(
                    f"shape mismatch for {name}: {want} vs "
                    f"{np.shape(state[name])}"
                )
        for name, kind, shards in layout:
            for p, part in zip(shards, _split(kind, state[name], len(shards))):
                p.data.reshape(part.shape)[...] = part


def _shards(t: int, *shape: int) -> list[Parameter]:
    return [Parameter(np.zeros(shape)) for _ in range(t)]


class ColumnParallelLinear(ShardedModule):
    """Linear with the weight split along output columns.

    Input is replicated; each rank computes its output shard.  No
    forward communication (the ``f`` identity); the backward all-reduce
    of input gradients is performed by the enclosing layer, which owns
    the full set of partial ``dx`` contributions.
    """

    def __init__(self, in_f: int, out_f: int, t: int):
        if out_f % t != 0:
            raise ValueError(f"out_features {out_f} not divisible by t={t}")
        self.t = t
        self.weight_shards = _shards(t, in_f, out_f // t)
        self.bias_shards = _shards(t, out_f // t)
        self.in_features, self.out_features = in_f, out_f

    def layout(self, prefix=""):
        yield prefix + "weight", COLUMNS, self.weight_shards
        yield prefix + "bias", COLUMNS, self.bias_shards

    def forward_shards(self, x: np.ndarray) -> tuple[list[np.ndarray], Any]:
        outs, caches = [], []
        for w, b in zip(self.weight_shards, self.bias_shards):
            y, c = F.linear_forward(x, w.data, b.data)
            outs.append(y)
            caches.append(c)
        return outs, caches

    def backward_shards(self, dys: list[np.ndarray], caches: Any) -> list[np.ndarray]:
        """Per-shard dx partials (caller all-reduces: the ``f`` backward)."""
        dxs = []
        for i, (dy, c) in enumerate(zip(dys, caches)):
            dx, dw, db = F.linear_backward(dy, c)
            self.weight_shards[i].grad += dw
            self.bias_shards[i].grad += db
            dxs.append(dx)
        return dxs


class RowParallelLinear(ShardedModule):
    """Linear with the weight split along input rows.

    Input is partitioned (one shard per rank); outputs are partial sums
    combined by the group all-reduce (the ``g`` forward).  The bias is
    added once after the reduction.
    """

    def __init__(self, in_f: int, out_f: int, t: int):
        if in_f % t != 0:
            raise ValueError(f"in_features {in_f} not divisible by t={t}")
        self.t = t
        self.weight_shards = _shards(t, in_f // t, out_f)
        self.bias = Parameter(np.zeros(out_f))
        self.in_features, self.out_features = in_f, out_f

    def layout(self, prefix=""):
        yield prefix + "weight", ROWS, self.weight_shards
        yield prefix + "bias", REPLICATED, [self.bias]

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
        reduced += self.bias.data
        return reduced

    def backward_partials(self, dy: np.ndarray, caches: Any) -> list[np.ndarray]:
        """dy is replicated; returns per-rank input-shard gradients."""
        self.bias.grad += dy.reshape(-1, dy.shape[-1]).sum(axis=0)
        dxs = []
        for i, c in enumerate(caches):
            dx, dw, _ = F.linear_backward(dy, c)
            self.weight_shards[i].grad += dw
            dxs.append(dx)
        return dxs


class ParallelMLP(ShardedModule):
    """Figure 5(a): column-parallel fc1 + GeLU, row-parallel fc2, g/f ops."""

    def __init__(self, hidden_size: int, ffn_hidden_size: int,
                 group: TensorParallelGroup):
        self.group = group
        self.fc1 = ColumnParallelLinear(hidden_size, ffn_hidden_size, group.size)
        self.fc2 = RowParallelLinear(ffn_hidden_size, hidden_size, group.size)

    def layout(self, prefix=""):
        yield from self.fc1.layout(prefix + "fc1.")
        yield from self.fc2.layout(prefix + "fc2.")

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


class ParallelAttention(ShardedModule):
    """Figure 5(b): head-partitioned attention with row-parallel output."""

    def __init__(self, hidden_size: int, num_heads: int,
                 group: TensorParallelGroup, *, attention_dropout: float = 0.0):
        t = group.size
        if hidden_size % num_heads != 0:
            raise ValueError("hidden_size must be divisible by num_heads")
        if num_heads % t != 0:
            raise ValueError(f"{num_heads} heads not divisible by t={t}")
        self.group = group
        self.num_heads = num_heads
        self.heads_per_rank = num_heads // t
        self.head_dim = hidden_size // num_heads
        self.hidden_size = hidden_size
        # each rank's q, k and v columns for its heads, side by side
        self.qkv_shards = _shards(t, hidden_size, 3 * hidden_size // t)
        self.qkv_bias_shards = _shards(t, 3 * hidden_size // t)
        self.proj = RowParallelLinear(hidden_size, hidden_size, t)
        self.attn_dropout = Dropout(attention_dropout)

    def layout(self, prefix=""):
        yield prefix + "qkv.weight", HEADS, self.qkv_shards
        yield prefix + "qkv.bias", HEADS, self.qkv_bias_shards
        yield from self.proj.layout(prefix + "proj.")

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


class ParallelTransformerBlock(ShardedModule):
    """Transformer block with tensor-parallel attention and MLP.

    LayerNorms, residuals and dropout act on replicated tensors (every
    rank computes them identically; computed once here).
    """

    def __init__(self, hidden_size: int, num_heads: int,
                 group: TensorParallelGroup, ffn_hidden_size: int | None = None,
                 *, dropout: float = 0.0, attention_dropout: float = 0.0):
        self.ln1 = LayerNorm(hidden_size)
        self.attn = ParallelAttention(hidden_size, num_heads, group,
                                      attention_dropout=attention_dropout)
        self.drop1 = Dropout(dropout)
        self.ln2 = LayerNorm(hidden_size)
        self.mlp = ParallelMLP(hidden_size, ffn_hidden_size or 4 * hidden_size,
                               group)
        self.drop2 = Dropout(dropout)

    def layout(self, prefix=""):
        yield from _replicated(self.ln1, prefix + "ln1.")
        yield from self.attn.layout(prefix + "attn.")
        yield from _replicated(self.ln2, prefix + "ln2.")
        yield from self.mlp.layout(prefix + "mlp.")

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


class VocabParallelEmbedding(ShardedModule):
    """Token embedding split along the vocabulary dimension.

    Each rank owns rows ``[i*V/t, (i+1)*V/t)``; out-of-shard lookups
    contribute zeros and the partial embeddings are all-reduced.
    Position embeddings are replicated (no communication).
    """

    def __init__(self, vocab_size: int, hidden_size: int, max_seq_length: int,
                 group: TensorParallelGroup, *, dropout: float = 0.0):
        t = group.size
        if vocab_size % t != 0:
            raise ValueError(f"vocab {vocab_size} not divisible by t={t}")
        self.group = group
        self.vocab_size = vocab_size
        self.shard_size = vocab_size // t
        self.wte_shards = _shards(t, self.shard_size, hidden_size)
        self.wpe = Parameter(np.zeros((max_seq_length, hidden_size)))
        self.drop = Dropout(dropout)
        self.max_seq_length = max_seq_length

    def layout(self, prefix=""):
        yield prefix + "wte.weight", ROWS, self.wte_shards
        yield prefix + "wpe.weight", REPLICATED, [self.wpe]

    def forward(self, token_ids, *, training=True, rng=None):
        token_ids = np.asarray(token_ids)
        b, s = token_ids.shape
        if s > self.max_seq_length:
            raise ValueError(
                f"sequence length {s} exceeds max {self.max_seq_length}"
            )
        if token_ids.min() < 0 or token_ids.max() >= self.vocab_size:
            raise ValueError("embedding ids out of range")
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


class VocabParallelOutputHead(ShardedModule):
    """Final LayerNorm + vocab-sharded logits, tied to the embedding shards.

    ``forward`` returns the *sharded* logits (list of (b, s, V/t)); use
    :meth:`loss` for Megatron's vocab-parallel cross-entropy, which
    communicates only per-token scalars (max and sum-exp), never the
    full logits.
    """

    def __init__(
        self,
        hidden_size: int,
        group: TensorParallelGroup,
        tied_shards: list[Parameter],
    ):
        self.group = group
        self.ln_f = LayerNorm(hidden_size)
        self.tied_shards = tied_shards
        self.shard_size = tied_shards[0].data.shape[0]

    def layout(self, prefix=""):
        # the tied shards are the embedding's (or a copy of them)
        return _replicated(self.ln_f, prefix + "ln_f.")

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


class TensorParallelGPT(ShardedModule):
    """A full GPT with every layer tensor-parallel over one group.

    Filled from a serial :class:`GPTModel` built with the same seed, so
    ``gather_state_dict`` reassembles weights bit-equal to the serial
    model's (the basis of the §2.3 exactness tests).  A group of one is
    the serial model: the same parameters in the same order and shapes,
    and the same arithmetic.
    """

    def __init__(self, config: GPTConfig, group: TensorParallelGroup, *, seed: int = 0,
                 dropout: float = 0.0, attention_dropout: float = 0.0):
        # Built before the shards: built after them, train_ptd's peak
        # RSS read 11% higher under the trainer's heap policy.
        serial = GPTModel(config, seed=seed)
        self.config = config
        self.group = group
        h = config.hidden_size
        self.embedding = VocabParallelEmbedding(
            config.vocab_size, h, config.seq_length, group, dropout=dropout
        )
        self.blocks = [
            ParallelTransformerBlock(
                h, config.num_attention_heads, group, config.ffn_hidden_size,
                dropout=dropout, attention_dropout=attention_dropout,
            )
            for _ in range(config.num_layers)
        ]
        self.head = VocabParallelOutputHead(h, group, self.embedding.wte_shards)
        self.load_gathered_state_dict(
            {name: p.data for name, p in serial.named_parameters()}
        )

    @property
    def layers(self) -> list[Module]:
        return [self.embedding, *self.blocks, self.head]

    def layout(self, prefix=""):
        yield from self.embedding.layout(prefix + "embedding.")
        for i, block in enumerate(self.blocks):
            yield from block.layout(f"{prefix}blocks.{i}.")
        yield from self.head.layout(prefix + "head.")

    def forward(self, token_ids, *, training=True, rng=None):
        caches = []
        x = token_ids
        for layer in self.layers:
            x, c = layer.forward(x, training=training, rng=rng)
            caches.append(c)
        return x, caches  # x is the sharded-logit list

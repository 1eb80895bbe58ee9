"""Pipeline model parallelism -- §2.2.

A GPT's layer list (embedding, l blocks, head) is partitioned into
``p * v`` global stages (§2.2.2 interleaved layout: chunk c on pipeline
rank r is global stage ``c*p + r``).  A
:class:`~repro.schedule.ir.PipelineSchedule` drives execution through
the dependency executor: every forward/backward of every microbatch runs
in an order the validator proved legal, activations are stashed per
in-flight microbatch (exactly the memory the 1F1B schedule bounds), and
stage boundaries communicate through the logged p2p ``send`` primitive.

Features reproduced:

- strict optimizer semantics: a pipeline flush ends every iteration; the
  equivalence tests show training is bit-identical to serial execution;
- activation recomputation (§3.5): stash only stage inputs, re-run the
  stage forward before its backward (dropout rngs are re-derived from
  (stage, microbatch), so the replay is exact);
- tied embeddings across stages: the head's copy of the vocabulary
  matrix is synchronized with the first stage's by summing their
  gradients after the flush (Megatron's embedding all-reduce).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from repro.comm import TrafficKind, TrafficLog, ring_all_reduce, send
from repro.config import GPTConfig
from repro.nn.heap import unforked_zeros
from repro.nn.module import Module, Parameter
from repro.schedule import OpKind, PipelineSchedule, ScheduleOp, execute

from .tensor_parallel import TensorParallelGPT, TensorParallelGroup

#: Root of every stage's dropout streams: one (stage, microbatch) stream
#: is ``SeedSequence([STAGE_RNG_SEED, stage, microbatch])``.
STAGE_RNG_SEED = 1234


class PipelineStage:
    """The layers of one global pipeline stage, with microbatch state."""

    def __init__(
        self,
        stage_id: int,
        layers: list[Module],
        *,
        is_first: bool,
        is_last: bool,
        recompute: bool = False,
    ):
        self.stage_id = stage_id
        self.layers = layers
        self.is_first = is_first
        self.is_last = is_last
        self.recompute = recompute
        # Per-microbatch state: input + caches (or input only w/ recompute).
        self._stash: dict[int, tuple[Any, list | None]] = {}

    def _make_rng(self, microbatch: int) -> np.random.Generator:
        """Deterministic per-(stage, microbatch) stream; recomputation
        re-derives the identical stream (§3.5 exact replay)."""
        return np.random.default_rng(
            np.random.SeedSequence([STAGE_RNG_SEED, self.stage_id, microbatch])
        )

    def _run_forward(self, x: Any, microbatch: int) -> tuple[Any, list]:
        rng = self._make_rng(microbatch)
        caches = []
        for layer in self.layers:
            x, c = layer.forward(x, rng=rng)
            caches.append(c)
        return x, caches

    def forward_microbatch(self, microbatch: int, x: Any) -> Any:
        if microbatch in self._stash:
            raise RuntimeError(
                f"stage {self.stage_id}: microbatch {microbatch} already in flight"
            )
        out, caches = self._run_forward(x, microbatch)
        self._stash[microbatch] = (x, None if self.recompute else caches)
        return out

    def backward_microbatch(self, microbatch: int, dy: Any) -> Any:
        if microbatch not in self._stash:
            raise RuntimeError(
                f"stage {self.stage_id}: no stashed forward for microbatch {microbatch}"
            )
        x, caches = self._stash.pop(microbatch)
        if caches is None:  # activation recomputation
            _, caches = self._run_forward(x, microbatch)
        for layer, cache in zip(reversed(self.layers), reversed(caches)):
            dy = layer.backward(dy, cache)
        return dy

    @property
    def in_flight(self) -> int:
        return len(self._stash)

    def clear(self) -> None:
        """Drop every stashed microbatch."""
        self._stash.clear()

    def parameters(self) -> list[Parameter]:
        seen: set[int] = set()
        out: list[Parameter] = []
        for layer in self.layers:
            for p in layer.parameters():
                if id(p) not in seen:
                    seen.add(id(p))
                    out.append(p)
        return out


def split_layers_into_stages(
    layers: list[Module],
    num_stages: int,
    num_chunks: int,
    *,
    recompute: bool = False,
) -> list[PipelineStage]:
    """Partition [embedding, blocks..., head] into p*v global stages.

    Transformer blocks are split evenly (§2.2: "each device can be
    assigned an equal number of transformer layers"); the embedding
    joins the first stage, the head the last.
    """
    total = num_stages * num_chunks
    blocks = layers[1:-1]
    if len(blocks) % total != 0:
        raise ValueError(
            f"{len(blocks)} transformer layers cannot be split into "
            f"{total} equal stages"
        )
    per = len(blocks) // total
    stages = []
    for g in range(total):
        stage_layers: list[Module] = list(blocks[g * per : (g + 1) * per])
        if g == 0:
            stage_layers.insert(0, layers[0])
        if g == total - 1:
            stage_layers.append(layers[-1])
        stages.append(
            PipelineStage(
                g,
                stage_layers,
                is_first=(g == 0),
                is_last=(g == total - 1),
                recompute=recompute,
            )
        )
    return stages


class PipelineParallelGPT:
    """A tensor-parallel GPT executed under a pipeline schedule.

    Parameters
    ----------
    config:
        Model architecture.
    schedule:
        A validated :class:`PipelineSchedule`; its (p, v) determine the
        stage partitioning.
    tensor_parallel_size:
        t: every layer is sharded over a tensor-parallel group of t
        ranks (:class:`TensorParallelGPT`); t = 1 is a group of one.
    seed:
        Weight-init seed (must match the serial model to compare).
    recompute_activations:
        §3.5 activation recomputation.
    pipeline_ranks:
        Global device rank of each pipeline stage's tp-rank-0 GPU, for
        traffic logging (defaults to 0..p-1).
    buffer:
        Where the replica lays itself flat (:meth:`_lay_flat`): its
        gradients in the first P elements, its parameters in the next
        P.  A fresh zeroed vector by default, in a mapping a later fork
        does not copy (:func:`~repro.nn.heap.unforked_zeros`).
    """

    def __init__(
        self,
        config: GPTConfig,
        schedule: PipelineSchedule,
        *,
        tensor_parallel_size: int = 1,
        seed: int = 0,
        dropout: float = 0.0,
        attention_dropout: float = 0.0,
        recompute_activations: bool = False,
        log: TrafficLog | None = None,
        pipeline_ranks: list[int] | None = None,
        buffer: np.ndarray | None = None,
    ):
        self.config = config
        self.schedule = schedule
        self.t = tensor_parallel_size
        self.log = log if log is not None else TrafficLog()
        p = schedule.num_stages
        self.pipeline_ranks = pipeline_ranks or list(range(p))
        if len(self.pipeline_ranks) != p:
            raise ValueError("pipeline_ranks must have one entry per stage")

        self.tp_group = TensorParallelGroup(
            ranks=list(range(tensor_parallel_size)), log=self.log
        )
        self._model = TensorParallelGPT(
            config,
            self.tp_group,
            seed=seed,
            dropout=dropout,
            attention_dropout=attention_dropout,
        )

        layers = self._model.layers
        self.total_stages = schedule.total_stages
        # Tie handling: with >1 stages, give the head its own copy of the
        # embedding weights; gradients are summed after each flush.
        self.tied_pairs: list[tuple[Parameter, Parameter]] = []
        if self.total_stages > 1:
            self._untie_embeddings()
        self.stages = split_layers_into_stages(
            layers,
            schedule.num_stages,
            schedule.num_chunks,
            recompute=recompute_activations,
        )
        self._lay_flat(buffer)
        self._loss_cache: dict[int, Any] = {}
        self._losses: dict[int, float] = {}
        self._targets: dict[int, np.ndarray] = {}

    def _untie_embeddings(self) -> None:
        emb_shards = self._model.embedding.wte_shards
        new_shards = [Parameter(p.data.copy()) for p in emb_shards]
        self._model.head.tied_shards = new_shards
        self.tied_pairs = list(zip(emb_shards, new_shards))

    # -- iteration ----------------------------------------------------------
    def run_iteration(
        self,
        microbatches: list[tuple[np.ndarray, np.ndarray]],
        *,
        grad_scale: float | None = None,
    ) -> float:
        """Run one full batch (a list of (ids, targets) microbatches).

        Executes the schedule via the dependency executor, computing the
        loss on the last stage and back-propagating with per-microbatch
        gradient scale ``grad_scale`` (default ``1/m`` so the batch
        gradient is the gradient of the mean loss).  Returns mean loss.

        Per-iteration state (stage stashes, loss caches, targets) lives
        for the call: an iteration that raises leaves none of it behind,
        so the next one starts as on a fresh replica.
        """
        m = self.schedule.num_microbatches
        if len(microbatches) != m:
            raise ValueError(
                f"expected {m} microbatches, got {len(microbatches)}"
            )
        scale = grad_scale if grad_scale is not None else 1.0 / m
        self._loss_cache.clear()
        self._losses.clear()
        self._targets = {i: t for i, (_, t) in enumerate(microbatches)}
        inputs = {i: ids for i, (ids, _) in enumerate(microbatches)}
        act_inbox: dict[tuple[int, int], Any] = {}
        grad_inbox: dict[tuple[int, int], Any] = {}

        def handler(rank: int, op: ScheduleOp) -> None:
            stage_id = self.schedule.global_stage(rank, op.chunk)
            stage = self.stages[stage_id]
            mb = op.microbatch
            if op.kind is OpKind.FORWARD:
                if stage.is_first:
                    x = inputs[mb]
                else:
                    x = act_inbox.pop((mb, stage_id))
                out = stage.forward_microbatch(mb, x)
                if stage.is_last:
                    self._compute_loss(mb, out)
                else:
                    nxt = stage_id + 1
                    act_inbox[(mb, nxt)] = self._p2p(out, stage_id, nxt, "act")
            else:
                if stage.is_last:
                    dy = self._loss_grad(mb, scale)
                else:
                    dy = grad_inbox.pop((mb, stage_id))
                dx = stage.backward_microbatch(mb, dy)
                if not stage.is_first:
                    prev = stage_id - 1
                    grad_inbox[(mb, prev)] = self._p2p(dx, stage_id, prev, "grad")

        try:
            execute(self.schedule, handler, span_ranks=self.pipeline_ranks)
            if act_inbox or grad_inbox:
                raise RuntimeError("pipeline finished with undelivered tensors")
            for stage in self.stages:
                if stage.in_flight:
                    raise RuntimeError(
                        f"stage {stage.stage_id} finished with stashed "
                        "activations"
                    )
        finally:
            for stage in self.stages:
                stage.clear()
            self._loss_cache.clear()
            self._targets = {}
        self._sync_tied_embeddings()
        return float(np.mean([self._losses[i] for i in range(m)]))

    def _compute_loss(self, mb: int, out: Any) -> None:
        loss, cache = self._model.head.loss(out, self._targets[mb])
        self._losses[mb] = loss
        self._loss_cache[mb] = cache

    def _loss_grad(self, mb: int, scale: float) -> Any:
        return self._model.head.loss_backward(self._loss_cache.pop(mb), scale)

    def _p2p(self, tensor: Any, src_stage: int, dst_stage: int, tag: str) -> Any:
        """Send one stage-boundary tensor; logs bytes between the stages'
        pipeline ranks (per tensor-parallel rank pair, §4.1's redundancy)."""
        src_rank = self.pipeline_ranks[src_stage % self.schedule.num_stages]
        dst_rank = self.pipeline_ranks[dst_stage % self.schedule.num_stages]
        if src_rank == dst_rank:
            return np.asarray(tensor).copy()
        arr = np.asarray(tensor)
        for _ in range(self.t):
            out = send(arr, src_rank, dst_rank, self.log,
                       TrafficKind.PIPELINE_P2P, tag)
        return out

    def _sync_tied_embeddings(self) -> None:
        """Megatron's embedding-gradient all-reduce between the first and
        last pipeline stages (keeps the two tied copies identical)."""
        if not self.tied_pairs:
            return
        first = self.pipeline_ranks[0]
        last = self.pipeline_ranks[-1]
        ranks = [first, last] if first != last else [first]
        for emb_p, head_p in self.tied_pairs:
            if len(ranks) == 1:
                total = emb_p.grad + head_p.grad
            else:
                total = ring_all_reduce(
                    [emb_p.grad, head_p.grad], ranks, self.log,
                    TrafficKind.PIPELINE_P2P, "tied-embedding",
                )[0]
            emb_p.grad[...] = total
            head_p.grad[...] = total

    # -- parameter plumbing ---------------------------------------------------
    def parameters(self) -> list[Parameter]:
        seen: set[int] = set()
        out: list[Parameter] = []
        for stage in self.stages:
            for p in stage.parameters():
                if id(p) not in seen:
                    seen.add(id(p))
                    out.append(p)
        return out

    def zero_grad(self) -> None:
        self.flat_grad.fill(0.0)

    def _lay_flat(self, buffer: np.ndarray | None) -> None:
        """Move every parameter into ``buffer`` (2P float64 or more):
        gradients, zero, in its first P elements and data in the next P,
        each end to end in :meth:`parameters` order.  Every
        ``Parameter.data`` / ``.grad`` becomes a reshaped view of its
        range, its values copied in."""
        params = self.parameters()
        n = sum(p.size for p in params)
        if buffer is None:
            # outside the heap, so that no worker forked later carries a
            # copy
            buffer = unforked_zeros(2 * n)
        self.flat_grad, self.flat_data = buffer[:n], buffer[n:2 * n]
        offset = 0
        for p in params:
            view = self.flat_data[offset:offset + p.size].reshape(p.shape)
            view[...] = p.data
            p.data = view
            p.grad = self.flat_grad[offset:offset + p.size].reshape(p.shape)
            offset += p.size

    def parameters_for_norm(self) -> list[Parameter]:
        """Parameters entering the global gradient norm.

        The head's copy of each tied embedding holds the same (synced)
        gradient as the first stage's copy; counting both would square
        the tied parameter's contribution twice, so the head copies are
        excluded -- matching the serial model where the tie is a single
        Parameter.
        """
        head_copies = {id(head_p) for _, head_p in self.tied_pairs}
        return [p for p in self.parameters() if id(p) not in head_copies]

    def gather_state_dict(self) -> dict[str, np.ndarray]:
        """Full serial-layout weights (tied copies collapse to one)."""
        return self._model.gather_state_dict()

    def load_gathered_state_dict(self, state: dict[str, np.ndarray]) -> None:
        """Load serial-layout weights, re-sharding as needed.

        Accepts the output of :meth:`gather_state_dict` from *any*
        parallel configuration of the same architecture (checkpoint
        resharding).  A missing or wrong-shaped weight raises
        ``ValueError`` naming it.
        """
        self._model.load_gathered_state_dict(state)
        self.retie_embeddings()

    def retie_embeddings(self) -> None:
        """Give the head's copy of each tied embedding parameter the
        first stage's values.  Training keeps the two equal only up to
        the data-parallel ring: at d >= 3 the copies' gradients are
        summed in different orders (their ranges of the flat gradient
        vector fall in different ring chunks), so their updates can
        differ in the last bits."""
        for emb_p, head_p in self.tied_pairs:
            head_p.data[...] = emb_p.data


def make_microbatches(
    ids: np.ndarray,
    targets: np.ndarray,
    num_microbatches: int,
) -> list[tuple[np.ndarray, np.ndarray]]:
    """Split a batch along axis 0 into equal microbatches."""
    if ids.shape[0] % num_microbatches != 0:
        raise ValueError(
            f"batch of {ids.shape[0]} not divisible into {num_microbatches} "
            "microbatches"
        )
    return list(
        zip(np.split(ids, num_microbatches), np.split(targets, num_microbatches))
    )

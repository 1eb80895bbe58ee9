"""``price_iteration`` and the leaves it calls as they stood before PR 23,
kept as the oracle.

Until then every candidate of a configuration search paid for its whole
pricing: a roofline evaluation of the transformer layer per distinct
stage shape, eight range-checked ``node_of`` calls per stage-boundary
direction, one ``rank_of`` with three checks per group member.
``repro.sim.price_iteration`` now computes each *factor* once -- the
leaf costs per distinct argument tuple, a boundary per pipeline-rank
pair and link class, a group's geometry per group -- and this module is
the old code, verbatim, for ``tests/test_pricing_exact.py`` to compare
against with ``==``: ``ClusterTopology`` (rank geometry and link
classification), ``cluster_for_gpus``, ``CommCostModel``,
``ProcessGroups`` (coordinates and the three groups), the three leaf
layer costs, ``stage_compute_cost`` and ``price_iteration`` itself.  It
imports only what PR 23 did not touch (the frozen specs, the GEMM and
elementwise enumerations, the memory model, ``IterationPricing``) and
shares no code with the modules it mirrors, on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Sequence

from repro.config import GPTConfig, ParallelConfig
from repro.hardware import ComputeModel, GemmShape, NodeSpec, dgx_a100
from repro.perf.layer_costs import (
    LayerCost,
    StageCost,
    transformer_layer_elementwise,
    transformer_layer_gemms,
)
from repro.perf.memory import MODEL_STATE_BYTES_PER_PARAM, parameters_per_rank
from repro.sim.trainer_sim import IterationPricing, SimOptions


# -- repro.hardware.topology ---------------------------------------------------
@dataclass(frozen=True)
class ClusterTopology:
    """A cluster of multi-GPU nodes on a fat-tree network.

    GPUs are identified by *global rank* in ``[0, num_gpus)``; rank r
    lives on node ``r // gpus_per_node`` at local index
    ``r % gpus_per_node`` (the standard Megatron rank order).
    """

    num_nodes: int
    node: NodeSpec = field(default_factory=dgx_a100)
    nodes_per_leaf: int = 16
    leaves_per_spine_group: int = 8

    def __post_init__(self) -> None:
        if self.num_nodes < 1:
            raise ValueError("num_nodes must be >= 1")

    # -- rank geometry ----------------------------------------------------
    @property
    def gpus_per_node(self) -> int:
        return self.node.gpus_per_node

    @property
    def num_gpus(self) -> int:
        return self.num_nodes * self.gpus_per_node

    def node_of(self, rank: int) -> int:
        self._check_rank(rank)
        return rank // self.gpus_per_node

    def local_index(self, rank: int) -> int:
        self._check_rank(rank)
        return rank % self.gpus_per_node

    def same_node(self, rank_a: int, rank_b: int) -> bool:
        return self.node_of(rank_a) == self.node_of(rank_b)

    def leaf_of(self, node_id: int) -> int:
        return node_id // self.nodes_per_leaf

    def spine_group_of(self, node_id: int) -> int:
        return self.leaf_of(node_id) // self.leaves_per_spine_group

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_gpus:
            raise ValueError(f"rank {rank} out of range [0, {self.num_gpus})")

    # -- link classification ----------------------------------------------
    def hop_count(self, rank_a: int, rank_b: int) -> int:
        """Switch hops between two GPUs (0 = same node via NVSwitch)."""
        if rank_a == rank_b:
            return 0
        na, nb = self.node_of(rank_a), self.node_of(rank_b)
        if na == nb:
            return 0
        if self.leaf_of(na) == self.leaf_of(nb):
            return 2  # up to leaf, down
        if self.spine_group_of(na) == self.spine_group_of(nb):
            return 4  # leaf -> spine -> leaf
        return 6  # leaf -> spine -> core -> spine -> leaf

    def link_bandwidth(self, rank_a: int, rank_b: int) -> float:
        """Point-to-point bandwidth between two GPUs, bytes/s.

        Same node: NVLink.  Different nodes: this GPU's share of the
        node's NIC capacity -- one full HCA on a DGX (one 25 GB/s card
        per GPU), or a fraction when fewer NICs than GPUs share the node
        (cloud-style instances).  The fat-tree is full-bisection, so
        per-flow inter-node bandwidth is NIC-limited, not tree-limited.
        """
        if self.same_node(rank_a, rank_b):
            return self.node.nvlink_bandwidth
        return min(
            self.node.ib_bandwidth_per_hca,
            self.node.inter_node_bandwidth_per_gpu(),
        )

    def link_latency(self, rank_a: int, rank_b: int) -> float:
        if self.same_node(rank_a, rank_b):
            return self.node.nvlink_latency
        hops = self.hop_count(rank_a, rank_b)
        return self.node.ib_latency * max(1, hops // 2)


def cluster_for_gpus(num_gpus: int, node: NodeSpec | None = None) -> ClusterTopology:
    """Smallest cluster holding ``num_gpus`` GPUs (last node may be partial
    in rank arithmetic, so we require divisibility for clarity)."""
    node = node or dgx_a100()
    if num_gpus < node.gpus_per_node:
        # Sub-node jobs still live on one node.
        return ClusterTopology(num_nodes=1, node=node)
    if num_gpus % node.gpus_per_node != 0:
        raise ValueError(
            f"num_gpus={num_gpus} is not a multiple of gpus_per_node="
            f"{node.gpus_per_node}"
        )
    return ClusterTopology(num_nodes=num_gpus // node.gpus_per_node, node=node)


# -- repro.comm.cost_model ----------------------------------------------------
@dataclass(frozen=True)
class CommCostModel:
    """Prices communication operations on a :class:`ClusterTopology`."""

    topology: ClusterTopology

    # -- point-to-point ---------------------------------------------------
    def p2p_time(self, src: int, dst: int, nbytes: float) -> float:
        """One send: latency + bytes / link bandwidth."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if src == dst:
            return 0.0
        bw = self.topology.link_bandwidth(src, dst)
        return self.topology.link_latency(src, dst) + nbytes / bw

    def pipeline_p2p_time(
        self,
        src: int,
        dst: int,
        nbytes: float,
        tensor_parallel_size: int = 1,
        scatter_gather: bool = False,
    ) -> float:
        """Send one stage-boundary tensor between pipeline peers.

        Without the optimization every tensor-parallel rank redundantly
        sends the full ``nbytes`` over its own link (we price one send;
        the peers' copies travel concurrently on their own HCAs).

        With ``scatter_gather=True`` (§4.1) the sender scatters into
        ``t`` chunks, so only ``nbytes / t`` crosses InfiniBand, and the
        receiver all-gathers the chunks over NVLink.  Intra-node pipeline
        links gain nothing (NVLink is not the bottleneck), so the
        optimization is only applied on inter-node hops, as in the paper.
        """
        if tensor_parallel_size < 1:
            raise ValueError("tensor_parallel_size must be >= 1")
        if not scatter_gather or tensor_parallel_size == 1:
            return self.p2p_time(src, dst, nbytes)
        if self.topology.same_node(src, dst):
            return self.p2p_time(src, dst, nbytes)
        t = tensor_parallel_size
        ib_time = self.p2p_time(src, dst, nbytes / t)
        # NVLink all-gather of the other (t-1)/t of the tensor.
        nvlink_bw = self.topology.node.nvlink_bandwidth
        gather_time = (
            self.topology.node.nvlink_latency * (t - 1)
            + (nbytes * (t - 1) / t) / nvlink_bw
        )
        return ib_time + gather_time

    # -- collectives --------------------------------------------------------
    def _group_geometry(self, ranks: Sequence[int]) -> tuple[int, int]:
        """(members per node, number of nodes) for a group.

        Groups built from the Megatron rank grid are node-symmetric
        (every node hosts the same number of members); we take the
        minimum for safety with irregular groups.
        """
        counts: dict[int, int] = {}
        for r in ranks:
            node = self.topology.node_of(r)
            counts[node] = counts.get(node, 0) + 1
        return min(counts.values()), len(counts)

    def _phase_times(
        self, ranks: Sequence[int], nbytes: float, channels: int | None = None
    ) -> tuple[float, float]:
        """(intra-node, inter-node) time of one ring traversal of
        ``nbytes`` (the reduce-scatter *or* all-gather half).

        Models NCCL's hierarchical rings: inside a node the ring runs on
        NVLink; across nodes each node drives up to ``channels`` IB HCAs
        (bounded by its group members -- one HCA per GPU on a DGX), so
        the inter-node bandwidth is ``min(g, channels) * hca_bw`` capped
        at the node's total.  Large fused buffers (data-parallel gradient
        all-reduce) saturate all HCAs; small latency-bound per-layer
        collectives (tensor parallelism across nodes) run on few NCCL
        channels -- callers pass ``channels`` accordingly.
        """
        k = len(ranks)
        node = self.topology.node
        g, num_nodes = self._group_geometry(ranks)
        intra = inter = 0.0
        if g > 1:
            intra = (
                (g - 1) * node.nvlink_latency
                + (g - 1) / g * nbytes / node.nvlink_bandwidth
            )
        if num_nodes > 1:
            lanes = g if channels is None else min(g, channels)
            bw = min(lanes * node.ib_bandwidth_per_hca, node.total_ib_bandwidth)
            inter = (
                (num_nodes - 1) * node.ib_latency
                + (num_nodes - 1) / num_nodes * nbytes / bw
            )
        if g == 1 and num_nodes == 1 and k > 1:
            # Degenerate: multiple ranks mapped to one GPU's node slot
            # cannot happen with distinct ranks; keep NVLink ring.
            intra = (
                (k - 1) * node.nvlink_latency
                + (k - 1) / k * nbytes / node.nvlink_bandwidth
            )
        return intra, inter

    def all_reduce_time(
        self, ranks: Sequence[int], nbytes: float, channels: int | None = None
    ) -> float:
        """Hierarchical ring all-reduce: reduce-scatter + all-gather.

        The ``(k-1)/k`` volume factors per phase are the §3.3.1 scaling
        argument: ring all-reduce time approaches a constant as the
        group grows.  ``channels`` caps the inter-node HCA fan-out (see
        :meth:`_phase_times`).
        """
        self._check(ranks, nbytes)
        if len(ranks) == 1:
            return 0.0
        intra, inter = self._phase_times(ranks, nbytes, channels)
        return 2 * (intra + inter)

    def all_gather_time(
        self, ranks: Sequence[int], nbytes: float, channels: int | None = None
    ) -> float:
        """Hierarchical ring all-gather of a full output of ``nbytes``.

        ``channels=1`` models a flat ring (each rank ingests through a
        single HCA), the pattern of non-hierarchical implementations.
        """
        self._check(ranks, nbytes)
        if len(ranks) == 1:
            return 0.0
        intra, inter = self._phase_times(ranks, nbytes, channels)
        return intra + inter

    def reduce_scatter_time(
        self, ranks: Sequence[int], nbytes: float, channels: int | None = None
    ) -> float:
        """Hierarchical ring reduce-scatter of a ``nbytes`` input."""
        return self.all_gather_time(ranks, nbytes, channels)

    def broadcast_time(self, ranks: Sequence[int], nbytes: float) -> float:
        """Pipelined ring broadcast ~ one traversal of the buffer."""
        self._check(ranks, nbytes)
        k = len(ranks)
        if k == 1:
            return 0.0
        g, num_nodes = self._group_geometry(ranks)
        node = self.topology.node
        if num_nodes == 1:
            return (k - 1) * node.nvlink_latency + nbytes / node.nvlink_bandwidth
        bw = min(g * node.ib_bandwidth_per_hca, node.total_ib_bandwidth)
        return (num_nodes - 1) * node.ib_latency + nbytes / bw

    @staticmethod
    def _check(ranks: Sequence[int], nbytes: float) -> None:
        if len(ranks) == 0:
            raise ValueError("empty process group")
        if len(set(ranks)) != len(ranks):
            raise ValueError("duplicate ranks in group")
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")


# -- repro.comm.groups ---------------------------------------------------------
class ProcessGroups:
    """All tensor/data/pipeline groups for a :class:`ParallelConfig`."""

    def __init__(self, parallel: ParallelConfig):
        self.parallel = parallel
        self.p = parallel.pipeline_parallel_size
        self.t = parallel.tensor_parallel_size
        self.d = parallel.data_parallel_size
        self.world_size = parallel.world_size

    # -- coordinate transforms -------------------------------------------
    def rank_of(self, pp: int, dp: int, tp: int) -> int:
        self._check(pp, self.p, "pp")
        self._check(dp, self.d, "dp")
        self._check(tp, self.t, "tp")
        return pp * (self.t * self.d) + dp * self.t + tp

    def coord_of(self, rank: int) -> RankCoord:
        if not 0 <= rank < self.world_size:
            raise ValueError(f"rank {rank} out of range [0, {self.world_size})")
        pp, rem = divmod(rank, self.t * self.d)
        dp, tp = divmod(rem, self.t)
        return RankCoord(pp=pp, dp=dp, tp=tp)

    # -- groups ------------------------------------------------------------
    def tensor_group(self, pp: int, dp: int) -> list[int]:
        """The t ranks that jointly hold one layer's tensor shards."""
        return [self.rank_of(pp, dp, tp) for tp in range(self.t)]

    def data_group(self, pp: int, tp: int) -> list[int]:
        """The d ranks holding replicas of the same model shard."""
        return [self.rank_of(pp, dp, tp) for dp in range(self.d)]

    def pipeline_group(self, dp: int, tp: int) -> list[int]:
        """The p ranks forming one pipeline, first stage to last."""
        return [self.rank_of(pp, dp, tp) for pp in range(self.p)]

    @staticmethod
    def _check(value: int, bound: int, name: str) -> None:
        if not 0 <= value < bound:
            raise ValueError(f"{name} rank {value} out of range [0, {bound})")


# -- repro.perf.layer_costs ----------------------------------------------------
def transformer_layer_cost(
    model: ComputeModel,
    b: int,
    s: int,
    h: int,
    a: int,
    t: int = 1,
    ffn: int | None = None,
    *,
    fused: bool = True,
) -> LayerCost:
    """Forward-pass cost of one layer for one microbatch on one rank."""
    gemms = transformer_layer_gemms(b, s, h, a, t, ffn)
    gemm_time = sum(model.gemm_time(g) for g in gemms)
    gemm_flops = sum(g.flops for g in gemms)
    ew = transformer_layer_elementwise(b, s, h, a, t, ffn, fused)
    ew_time = sum(model.elementwise_time(n, p) for n, p in ew)
    return LayerCost(gemm_time=gemm_time, elementwise_time=ew_time,
                     gemm_flops=gemm_flops)


def logit_layer_cost(
    model: ComputeModel, b: int, s: int, h: int, vocab: int, t: int = 1
) -> LayerCost:
    """Output-head cost: final LayerNorm + the (b s, h, V/t) logit GEMM
    + vocab-parallel cross entropy (memory-bound over the logits)."""
    if vocab % t:
        raise ValueError(f"vocab={vocab} must be divisible by t={t}")
    g = GemmShape(m=b * s, k=h, n=vocab // t)
    gemm_time = model.gemm_time(g)
    ew = [
        (b * s * h, 3.0),            # final LayerNorm
        (b * s * (vocab // t), 3.0), # softmax statistics + loss
    ]
    ew_time = sum(model.elementwise_time(n, p) for n, p in ew)
    return LayerCost(gemm_time=gemm_time, elementwise_time=ew_time,
                     gemm_flops=g.flops)


def embedding_cost(model: ComputeModel, b: int, s: int, h: int) -> LayerCost:
    """Embedding lookup + position add + dropout: pure memory traffic."""
    ew_time = model.elementwise_time(b * s * h, 4.0)
    return LayerCost(gemm_time=0.0, elementwise_time=ew_time, gemm_flops=0)


def stage_compute_cost(
    model: ComputeModel,
    config: GPTConfig,
    layers_in_stage: int,
    b: int,
    t: int = 1,
    *,
    is_first: bool = False,
    is_last: bool = False,
    fused: bool = True,
    recompute: bool = True,
) -> StageCost:
    """Compute-only (no communication) cost of one stage, one microbatch.

    Backward = 2x forward GEMM work (+ the recomputation forward when
    enabled, §3.5); elementwise backward ~= forward's traffic.
    """
    if layers_in_stage < 0:
        raise ValueError("layers_in_stage must be >= 0")
    s, h, a = config.seq_length, config.hidden_size, config.num_attention_heads
    layer = transformer_layer_cost(
        model, b, s, h, a, t, config.ffn_hidden_size, fused=fused
    )
    fwd = layers_in_stage * layer.total
    fwd_flops = layers_in_stage * layer.gemm_flops
    bwd = layers_in_stage * (2 * layer.gemm_time + layer.elementwise_time)
    bwd_flops = 2 * fwd_flops
    if recompute:
        bwd += fwd
        bwd_flops += fwd_flops
    if is_first:
        emb = embedding_cost(model, b, s, h)
        fwd += emb.total
        bwd += emb.total  # scatter-add back into the embedding
    if is_last:
        logit = logit_layer_cost(model, b, s, h, config.vocab_size, t)
        fwd += logit.total
        bwd += 2 * logit.gemm_time + logit.elementwise_time
        fwd_flops += logit.gemm_flops
        bwd_flops += 2 * logit.gemm_flops
    return StageCost(
        forward=fwd, backward=bwd,
        forward_flops=fwd_flops, backward_flops=bwd_flops,
    )


# -- repro.sim.trainer_sim -----------------------------------------------------
def price_iteration(
    config: GPTConfig,
    parallel: ParallelConfig,
    options: SimOptions,
    node: NodeSpec,
    topology: ClusterTopology | None = None,
) -> IterationPricing:
    """Price one iteration of ``config`` under ``parallel``: per-stage
    op durations and the three terms that follow the pipeline flush."""
    parallel.validate_for_model(config)
    topo = topology or cluster_for_gpus(max(parallel.world_size, 1), node)
    compute = ComputeModel(device=node.device)
    comm = CommCostModel(topo)
    groups = ProcessGroups(parallel)

    p, t, d, v = parallel.p, parallel.t, parallel.d, parallel.v
    b, s, h = parallel.b, config.seq_length, config.hidden_size

    # -- per-stage compute + TP-collective durations -----------------------
    layers_per_stage = config.num_layers // (p * v)
    tp_ranks = groups.tensor_group(pp=0, dp=0)
    boundary_bytes = b * s * h * options.activation_dtype_size
    tp_ar_bytes = boundary_bytes  # each of the 2 per-layer all-reduces
    # Per-layer TP collectives are latency-bound and run on few NCCL
    # channels when the group spans nodes -- they cannot saturate the
    # node's 8 HCAs the way the fused DP gradient buffer does.
    tp_ar_time = (
        comm.all_reduce_time(tp_ranks, tp_ar_bytes, channels=options.tp_channels)
        if t > 1
        else 0.0
    )

    # Interior stages all cost the same; only the first and last carry
    # embedding / logit extras.
    total_stages = p * v
    stages = range(total_stages)
    last = total_stages - 1
    bwd_ars = 2 + (2 if options.recompute_activations else 0)
    tp_time = (
        2 * layers_per_stage * tp_ar_time,
        bwd_ars * layers_per_stage * tp_ar_time,
    )
    cost = {
        ends: stage_compute_cost(
            compute, config, layers_per_stage, b, t,
            is_first=ends[0], is_last=ends[1],
            fused=options.fused_kernels,
            recompute=options.recompute_activations,
        )
        for ends in {(g == 0, g == last) for g in stages}
    }
    costs = [cost[g == 0, g == last] for g in stages]

    # -- pipeline ranks (dp=0, tp=0 representative pipeline) ---------------
    pipe_ranks = groups.pipeline_group(dp=0, tp=0)

    def edge_time(src_stage: int, dst_stage: int) -> float:
        """Transfer time of one stage-boundary tensor: nothing past
        either end of the pipeline, between chunks of one device, or
        when p2p is modelled as overlapped with compute."""
        if options.overlap_p2p or not (
            0 <= src_stage <= last and 0 <= dst_stage <= last
        ):
            return 0.0
        src, dst = pipe_ranks[src_stage % p], pipe_ranks[dst_stage % p]
        if src == dst:
            return 0.0
        return comm.pipeline_p2p_time(
            src, dst, boundary_bytes, t, scatter_gather=options.scatter_gather
        )

    # Transfers occupy both endpoints (synchronous, non-overlapped p2p,
    # as in Megatron's interleaved schedule): the consuming op's
    # duration grows by its receive and the producing op's by its send.
    # The §4.1 scatter/gather optimization shrinks exactly these terms
    # on inter-node hops.  Each boundary is priced once per direction:
    # ``into[g]`` is the activation arriving at stage ``g``, ``back[g]``
    # the gradient leaving it for stage ``g - 1``.
    into = [edge_time(g - 1, g) for g in range(total_stages + 1)]
    back = [edge_time(g, g - 1) for g in range(total_stages + 1)]
    comm_time = (
        [into[g] + into[g + 1] for g in stages],
        [back[g + 1] + back[g] for g in stages],
    )
    dur = (
        [c.forward + tp_time[0] + x for c, x in zip(costs, comm_time[0])],
        [c.backward + tp_time[1] + x for c, x in zip(costs, comm_time[1])],
    )

    # -- data-parallel gradient all-reduce + embedding sync -----------------
    params_rank = parameters_per_rank(config, parallel)
    dp_time = 0.0
    if d > 1:
        dp_ranks = groups.data_group(pp=0, tp=0)
        dp_time = comm.all_reduce_time(
            dp_ranks, params_rank * options.grad_dtype_size
        )
    embed_time = 0.0
    if p > 1:
        emb_bytes = (
            config.vocab_size // t * h * options.grad_dtype_size
        )
        embed_time = comm.all_reduce_time(
            [pipe_ranks[0], pipe_ranks[-1]], emb_bytes
        )

    # -- optimizer step: memory-bound pass over the model state -------------
    opt_time = compute.memory_time(params_rank * MODEL_STATE_BYTES_PER_PARAM)
    return IterationPricing(
        stage_costs=costs, tp_time=tp_time, comm_time=comm_time, dur=dur,
        pipe_ranks=pipe_ranks, params_rank=params_rank,
        dp_time=dp_time, embed_time=embed_time, opt_time=opt_time,
    )

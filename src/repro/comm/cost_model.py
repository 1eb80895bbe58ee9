"""Alpha-beta communication time models over the cluster topology.

Used by the discrete-event simulator to price the transfers the
primitives perform.  Ring collectives are priced at the classic
bandwidth-optimal volumes with the ring's *bottleneck* link setting the
bandwidth term -- for a tensor-parallel group inside one node that is
NVLink; for a data-parallel group spanning nodes it is one InfiniBand
HCA, which is exactly why the paper keeps tensor parallelism intra-node
(Takeaway #1).

The scatter/gather optimization (§4.1) is modelled in
:meth:`CommCostModel.pipeline_p2p_time`: with ``t`` tensor-parallel
ranks per stage, the tensor is split ``t`` ways so each IB card carries
``bytes / t``, followed by an NVLink all-gather to rematerialize.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from repro.hardware import ClusterTopology
from repro.hardware.topology import Link


@dataclass(frozen=True)
class CommCostModel:
    """Prices communication operations on a :class:`ClusterTopology`."""

    topology: ClusterTopology

    # -- point-to-point ---------------------------------------------------
    def _wire_time(self, link: Link, nbytes: float) -> float:
        """One send over a classified link: latency + bytes / bandwidth."""
        return link.latency + nbytes / link.bandwidth

    def p2p_time(self, src: int, dst: int, nbytes: float) -> float:
        """One send: latency + bytes / link bandwidth."""
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        if src == dst:
            return 0.0
        return self._wire_time(self.topology.link(src, dst), nbytes)

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
        link = self.topology.link(src, dst)
        if link.hops == 0:  # NVLink is not the bottleneck
            return self.p2p_time(src, dst, nbytes)
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")
        t = tensor_parallel_size
        ib_time = self._wire_time(link, nbytes / t)
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
        topo = self.topology
        if min(ranks) < 0 or max(ranks) >= topo.num_gpus:
            for r in ranks:  # raises, naming the first rank out of range
                topo.node_of(r)
        per_node = topo.gpus_per_node
        counts: dict[int, int] = {}
        for r in ranks:
            node = r // per_node
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

    @staticmethod
    def _check(ranks: Sequence[int], nbytes: float) -> None:
        if len(ranks) == 0:
            raise ValueError("empty process group")
        if len(set(ranks)) != len(ranks):
            raise ValueError("duplicate ranks in group")
        if nbytes < 0:
            raise ValueError("nbytes must be >= 0")

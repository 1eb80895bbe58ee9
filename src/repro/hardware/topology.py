"""Cluster network topology: a three-level fat-tree like Selene.

The paper's machine (§5) connects 384 DGX A100 nodes in a three-level
(leaf, spine, core) fat-tree with 850 switches, chosen for efficient
all-reduce traffic.  We model its geometry (nodes under leaves under
spine groups under one core), which lets us

- classify any (rank, rank) pair as NVLink (same node) or InfiniBand
  (different nodes) with a hop count for the latency term, and
- state the bisection bandwidth the §5.9 experiment compares against.

The default dimensions give a full-bisection tree for up to 1024 nodes,
more than covering the paper's 384.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import lru_cache
from typing import NamedTuple

from .node import NodeSpec, dgx_a100


class Link(NamedTuple):
    """The link between two GPUs, classified: NVLink inside a node
    (``hops == 0``) or InfiniBand across 2, 4 or 6 switch hops."""

    hops: int
    latency: float  # seconds per message
    bandwidth: float  # bytes/s, nominal


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

    def leaf_of(self, node_id: int) -> int:
        return node_id // self.nodes_per_leaf

    def spine_group_of(self, node_id: int) -> int:
        return self.leaf_of(node_id) // self.leaves_per_spine_group

    def _check_rank(self, rank: int) -> None:
        if not 0 <= rank < self.num_gpus:
            raise ValueError(f"rank {rank} out of range [0, {self.num_gpus})")

    # -- link classification ----------------------------------------------
    def _node_hops(self, na: int, nb: int) -> int:
        """Switch hops between two nodes (0 = the same node)."""
        if na == nb:
            return 0
        if self.leaf_of(na) == self.leaf_of(nb):
            return 2  # up to leaf, down
        if self.spine_group_of(na) == self.spine_group_of(nb):
            return 4  # leaf -> spine -> leaf
        return 6  # leaf -> spine -> core -> spine -> leaf

    def hop_count(self, rank_a: int, rank_b: int) -> int:
        """Switch hops between two GPUs (0 = same node via NVSwitch).

        This is a link's *class*: latency and bandwidth depend on the
        two ranks through it alone (:meth:`link`)."""
        if rank_a == rank_b:
            return 0
        return self._node_hops(self.node_of(rank_a), self.node_of(rank_b))

    def link(self, rank_a: int, rank_b: int) -> Link:
        """The link between two GPUs, classified once.

        Same node: NVLink.  Different nodes: this GPU's share of the
        node's NIC capacity -- one full HCA on a DGX (one 25 GB/s card
        per GPU), or a fraction when fewer NICs than GPUs share the node
        (cloud-style instances) -- and one InfiniBand latency per switch
        level crossed.  The fat-tree is full-bisection, so per-flow
        inter-node bandwidth is NIC-limited, not tree-limited.
        """
        hops = self._node_hops(self.node_of(rank_a), self.node_of(rank_b))
        node = self.node
        if hops == 0:
            return Link(0, node.nvlink_latency, node.nvlink_bandwidth)
        return Link(
            hops,
            node.ib_latency * max(1, hops // 2),
            min(node.ib_bandwidth_per_hca, node.inter_node_bandwidth_per_gpu()),
        )

    # -- bisection ----------------------------------------------------------
    def bisection_bandwidth(self) -> float:
        """Bandwidth across the cut between the first and second half of
        the nodes.

        Every uplink is provisioned for full bisection, so the narrowest
        cut is the smaller half's own injection links: ``⌊n/2⌋`` nodes'
        aggregate IB bandwidth.  Inside one node it is NVSwitch, half the
        GPUs to the other half.
        """
        if self.num_nodes == 1:
            return self.node.nvlink_bandwidth * (self.gpus_per_node // 2)
        return self.node.total_ib_bandwidth * (self.num_nodes // 2)


@lru_cache(maxsize=256)
def cluster_for_gpus(num_gpus: int, node: NodeSpec | None = None) -> ClusterTopology:
    """Smallest cluster holding ``num_gpus`` GPUs (last node may be partial
    in rank arithmetic, so we require divisibility for clarity).

    Memoised on its frozen arguments; the topology it returns is frozen
    too, and equal calls share it."""
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

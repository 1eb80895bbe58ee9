"""Cluster network topology: a three-level fat-tree like Selene.

The paper's machine (§5) connects 384 DGX A100 nodes in a three-level
(leaf, spine, core) fat-tree with 850 switches, chosen for efficient
all-reduce traffic.  We model the topology as a networkx graph whose
edges carry bandwidth capacities, which lets us

- classify any (rank, rank) pair as NVLink (same node) or InfiniBand
  (different nodes) with a hop count for the latency term, and
- compute bisection bandwidth by min-cut, used by the §5.9 experiment.

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

    def link_bandwidth(self, rank_a: int, rank_b: int) -> float:
        """Point-to-point bandwidth between two GPUs, bytes/s."""
        return self.link(rank_a, rank_b).bandwidth

    def link_latency(self, rank_a: int, rank_b: int) -> float:
        return self.link(rank_a, rank_b).latency

    # -- graph / bisection --------------------------------------------------
    def build_graph(self) -> nx.Graph:
        """Fat-tree graph: node/leaf/spine/core vertices, capacity edges.

        Each compute node connects to its leaf switch with its aggregate
        IB bandwidth; uplinks are provisioned for full bisection.
        """
        import networkx as nx  # only the §5.9 experiment needs it

        g = nx.Graph()
        node_bw = self.node.total_ib_bandwidth
        num_leaves = -(-self.num_nodes // self.nodes_per_leaf)
        num_spine_groups = -(-num_leaves // self.leaves_per_spine_group)
        for nid in range(self.num_nodes):
            g.add_edge(f"node{nid}", f"leaf{self.leaf_of(nid)}", capacity=node_bw)
        for leaf in range(num_leaves):
            nodes_under = min(
                self.nodes_per_leaf, self.num_nodes - leaf * self.nodes_per_leaf
            )
            up = node_bw * nodes_under
            g.add_edge(
                f"leaf{leaf}",
                f"spine{leaf // self.leaves_per_spine_group}",
                capacity=up,
            )
        for sg in range(num_spine_groups):
            leaves_under = min(
                self.leaves_per_spine_group,
                num_leaves - sg * self.leaves_per_spine_group,
            )
            nodes_under = min(
                leaves_under * self.nodes_per_leaf,
                self.num_nodes - sg * self.leaves_per_spine_group * self.nodes_per_leaf,
            )
            g.add_edge(f"spine{sg}", "core", capacity=node_bw * max(nodes_under, 1))
        return g

    def bisection_bandwidth(self) -> float:
        """Min-cut bandwidth between the first and second half of nodes.

        Computed on the fat-tree graph with a super-source attached to
        nodes [0, n/2) and a super-sink attached to nodes [n/2, n).
        """
        if self.num_nodes == 1:
            # Bisection inside one node: NVSwitch, 4 GPUs vs 4 GPUs.
            return self.node.nvlink_bandwidth * (self.gpus_per_node // 2)
        import networkx as nx

        g = self.build_graph()
        half = self.num_nodes // 2
        inf = float("inf")
        for nid in range(half):
            g.add_edge("SRC", f"node{nid}", capacity=inf)
        for nid in range(half, self.num_nodes):
            g.add_edge(f"node{nid}", "SNK", capacity=inf)
        value, _ = nx.minimum_cut(g, "SRC", "SNK", capacity="capacity")
        return value


@lru_cache(maxsize=None)
def selene(num_nodes: int = 384) -> ClusterTopology:
    """A Selene-like cluster of DGX A100 nodes (default: the paper's 384)."""
    return ClusterTopology(num_nodes=num_nodes)


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

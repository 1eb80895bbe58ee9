"""Multi-GPU server (node) specifications.

The paper's cluster nodes are DGX A100s: 8 A100-80GB GPUs connected by
NVLink/NVSwitch (intra-node), and 8 Mellanox 200 Gbps HDR InfiniBand
HCAs for inter-node application communication (§5).  The per-node
aggregate IB bandwidth (8 x 25 GB/s) and the one-HCA-per-GPU pairing
matter for the scatter/gather optimization (§4.1).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .device import GB, DeviceSpec, a100_80gb


@dataclass(frozen=True)
class NodeSpec:
    """A multi-GPU server.

    Attributes
    ----------
    device:
        The GPU installed in this node.
    gpus_per_node:
        GPUs per server (``g`` in Takeaway #1).
    nvlink_bandwidth:
        Per-GPU intra-node interconnect bandwidth, bytes/s each
        direction (NVLink3 through NVSwitch: 300 GB/s per direction).
    ib_bandwidth_per_hca:
        Bandwidth of one InfiniBand HCA, bytes/s (HDR 200 Gbps = 25 GB/s).
    num_ib_hcas:
        Number of application-facing IB cards (8 on DGX A100); storage
        HCAs are modelled separately by the filesystem model.
    nvlink_latency / ib_latency:
        Per-message latencies (alpha terms) in seconds.
    """

    device: DeviceSpec = field(default_factory=a100_80gb)
    gpus_per_node: int = 8
    nvlink_bandwidth: float = 300 * GB
    ib_bandwidth_per_hca: float = 25 * GB
    num_ib_hcas: int = 8
    nvlink_latency: float = 2.0e-6
    ib_latency: float = 5.0e-6

    def __post_init__(self) -> None:
        if self.gpus_per_node < 1:
            raise ValueError("gpus_per_node must be >= 1")
        if self.num_ib_hcas < 1:
            raise ValueError("num_ib_hcas must be >= 1")
        if self.nvlink_bandwidth <= 0 or self.ib_bandwidth_per_hca <= 0:
            raise ValueError("bandwidths must be positive")

    @property
    def total_ib_bandwidth(self) -> float:
        """Aggregate inter-node bandwidth of one server, bytes/s."""
        return self.ib_bandwidth_per_hca * self.num_ib_hcas

    def inter_node_bandwidth_per_gpu(self) -> float:
        """Inter-node bandwidth available to one GPU when all GPUs on
        the node communicate simultaneously (one HCA per GPU on DGX)."""
        return self.total_ib_bandwidth / self.gpus_per_node


def dgx_a100() -> NodeSpec:
    """The paper's node: DGX A100 with 8x A100-80GB and 8x HDR IB."""
    return NodeSpec()

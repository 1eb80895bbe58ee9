"""Hardware models: devices, nodes, cluster topology, roofline timing."""

from .device import GB, TB, TFLOP, DeviceSpec, a100_80gb
from .node import NodeSpec, dgx_a100
from .roofline import ComputeModel, GemmShape
from .topology import ClusterTopology, cluster_for_gpus

__all__ = [
    "GB",
    "TB",
    "TFLOP",
    "DeviceSpec",
    "a100_80gb",
    "NodeSpec",
    "dgx_a100",
    "ComputeModel",
    "GemmShape",
    "ClusterTopology",
    "cluster_for_gpus",
]

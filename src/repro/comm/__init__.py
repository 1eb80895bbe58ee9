"""Communication substrate: collectives, process groups, traffic, cost."""

from .backend import BACKENDS, Backend, CoopBackend, MpBackend, get_backend
from .cost_model import CommCostModel
from .groups import ProcessGroups, RankCoord
from .primitives import (
    all_gather,
    broadcast,
    reduce_scatter,
    ring_all_gather_hops,
    ring_all_reduce,
    ring_all_reduce_hops,
    ring_reduce_scatter_hops,
    send,
)
from .traffic import TrafficKind, TrafficLog, TransferRecord

__all__ = [
    "BACKENDS",
    "Backend",
    "CoopBackend",
    "MpBackend",
    "get_backend",
    "ring_all_reduce_hops",
    "ring_all_gather_hops",
    "ring_reduce_scatter_hops",
    "CommCostModel",
    "ProcessGroups",
    "RankCoord",
    "ring_all_reduce",
    "all_gather",
    "reduce_scatter",
    "broadcast",
    "send",
    "TrafficKind",
    "TrafficLog",
    "TransferRecord",
]

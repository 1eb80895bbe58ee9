"""Communication substrate: collectives, process groups, traffic, cost.

The names below resolve on first use (:func:`repro.lazy_exports`): the
simulator prices links through :mod:`repro.comm.cost_model` without
loading the mp backend, ``shm_ring`` and ``multiprocessing``.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "backend": "BACKENDS Backend CoopBackend MpBackend get_backend",
    "primitives": "ring_all_reduce_hops ring_all_gather_hops "
                  "ring_reduce_scatter_hops ring_all_reduce all_gather "
                  "reduce_scatter broadcast send",
    "cost_model": "CommCostModel",
    "groups": "ProcessGroups",
    "traffic": "TrafficKind TrafficLog TransferRecord",
})

"""Restart-from-checkpoint recovery policy and optimal intervals.

The recovery model is the classic one the paper's §5.10 checkpoint
numbers exist to feed: on a rank failure the job pays

    detection latency  (``HeartbeatDetector``)
  + checkpoint load    (``io_sim.checkpoint.load_time``)
  + lost work          (everything since the last checkpoint, re-run)

and the steady-state knob is the checkpoint interval: save too often
and the 40%-of-peak write path eats the run; save too rarely and every
failure throws away hours.  The optimum is the Young/Daly interval
``sqrt(2 * save_cost * MTBF)`` (Young 1974; Daly 2006 adds higher-order
terms that matter only when the save cost approaches the MTBF).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

from repro.config import GPTConfig, ParallelConfig
from repro.io_sim import ParallelFilesystem, load_time, save_time

from .detect import HeartbeatDetector


def cluster_mtbf(node_mtbf_seconds: float, num_nodes: int) -> float:
    """Cluster MTBF assuming independent exponential node failures:
    ``node_mtbf / num_nodes``."""
    if node_mtbf_seconds <= 0:
        raise ValueError(
            f"node_mtbf_seconds must be > 0, got {node_mtbf_seconds}"
        )
    if num_nodes < 1:
        raise ValueError(f"num_nodes must be >= 1, got {num_nodes}")
    return node_mtbf_seconds / num_nodes


def young_daly_interval(mtbf_seconds: float, save_seconds: float) -> float:
    """Young's optimal checkpoint interval ``sqrt(2 * save * MTBF)``.

    This is the exact minimizer of the expected-overhead rate
    ``save/c + c/(2*MTBF)`` used by
    :func:`repro.resilience.goodput.expected_goodput`, so the analytic
    optimum and a sweep of that model agree by construction (Daly's
    higher-order correction only matters once ``save`` is a sizable
    fraction of the MTBF, outside this model's regime).
    """
    if mtbf_seconds <= 0:
        raise ValueError(f"mtbf_seconds must be > 0, got {mtbf_seconds}")
    if save_seconds <= 0:
        raise ValueError(f"save_seconds must be > 0, got {save_seconds}")
    return math.sqrt(2.0 * save_seconds * mtbf_seconds)


@dataclass(frozen=True)
class RecoveryEvent:
    """Accounting record of one failure -> restart cycle."""

    at_iteration: int  # committed progress when the failure struck
    rank: int  # which rank died (label only)
    failure_wall_seconds: float  # wall clock at the instant of death
    detection_seconds: float
    load_seconds: float
    lost_iterations: int  # iterations re-run after the restart
    lost_work_seconds: float

    @property
    def total_overhead_seconds(self) -> float:
        return self.detection_seconds + self.load_seconds + self.lost_work_seconds


@dataclass(frozen=True)
class RestartPolicy:
    """Restart-from-last-checkpoint: the costs one recovery cycle pays.

    ``save_seconds`` is also charged at every checkpoint boundary while
    the run is healthy — the two sides of the Young/Daly trade-off live
    in one object.
    """

    save_seconds: float
    load_seconds: float
    detector: HeartbeatDetector = field(default_factory=HeartbeatDetector)

    def __post_init__(self) -> None:
        if self.save_seconds <= 0:
            raise ValueError(
                f"save_seconds must be > 0, got {self.save_seconds}"
            )
        if self.load_seconds < 0:
            raise ValueError(
                f"load_seconds must be >= 0, got {self.load_seconds}"
            )

    @classmethod
    def from_io_model(
        cls,
        model: GPTConfig,
        parallel: ParallelConfig,
        num_nodes: int,
        fs: ParallelFilesystem | None = None,
        detector: HeartbeatDetector | None = None,
    ) -> "RestartPolicy":
        """Price save/load with the §5.10 parallel-filesystem model.

        The restart load is the full all-replica read (every
        data-parallel replica re-reads its model-parallel shard set,
        the paper's 'initial load by all 384 nodes' pattern).
        """
        return cls(
            save_seconds=save_time(model, parallel, num_nodes, fs)
            .duration_seconds,
            load_seconds=load_time(model, parallel, num_nodes, fs)
            .duration_seconds,
            detector=detector or HeartbeatDetector(),
        )

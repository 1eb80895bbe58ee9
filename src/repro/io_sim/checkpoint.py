"""Checkpoint save/load model (§5.10).

The paper: the trillion-parameter model's checkpoint is 13.8 TB; the
initial load by all 384 nodes reaches the parallel filesystem's peak
read bandwidth of 1 TB/s, and saves reach 40% of the peak write
bandwidth (273 GB/s).

The checkpoint holds, per parameter: fp16 weights (2 B) + fp32 master
weights (4 B) + fp32 Adam first/second moments (4 + 4 B) -- ~14 B per
parameter, which reproduces the 13.8 TB figure for the 1T model.
Checkpoints are sharded across the ``t * p`` model-parallel ranks
(data-parallel replicas hold identical state; only one replica writes).
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import GPTConfig, ParallelConfig
from repro.hardware import GB, TB

#: Checkpoint bytes per parameter: fp16 weight + fp32 master + Adam m, v.
CHECKPOINT_BYTES_PER_PARAM = 2 + 4 + 4 + 4


@dataclass(frozen=True)
class ParallelFilesystem:
    """An all-NVMe shared parallel filesystem (Selene's)."""

    peak_read_bandwidth: float = 1.0 * TB
    peak_write_bandwidth: float = 683 * GB  # 273 GB/s observed at 40%
    per_node_bandwidth: float = 50 * GB  # two dedicated storage HCAs
    write_efficiency: float = 0.40

    def __post_init__(self) -> None:
        if min(self.peak_read_bandwidth, self.peak_write_bandwidth,
               self.per_node_bandwidth) <= 0:
            raise ValueError("bandwidths must be positive")
        if not 0 < self.write_efficiency <= 1:
            raise ValueError("write_efficiency must be in (0, 1]")


def checkpoint_size_bytes(config: GPTConfig) -> int:
    """Total checkpoint size (weights + optimizer state)."""
    return config.num_parameters() * CHECKPOINT_BYTES_PER_PARAM


@dataclass(frozen=True)
class CheckpointIOReport:
    """Timing of a checkpoint load or save."""

    total_bytes: int
    achieved_bandwidth: float
    duration_seconds: float


def load_time(
    config: GPTConfig,
    parallel: ParallelConfig,
    num_nodes: int,
    fs: ParallelFilesystem | None = None,
    *,
    all_replicas: bool = True,
) -> CheckpointIOReport:
    """Initial checkpoint load.

    Every data-parallel replica reads the full model-parallel shard set
    (the paper's 'initial load ... by all 384 nodes'), so the read
    volume is ``d x`` the checkpoint size and the aggregate read rate is
    capped by the filesystem's peak.
    """
    fs = fs or ParallelFilesystem()
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    size = checkpoint_size_bytes(config)
    volume = size * (parallel.data_parallel_size if all_replicas else 1)
    bw = min(fs.peak_read_bandwidth, num_nodes * fs.per_node_bandwidth)
    return CheckpointIOReport(
        total_bytes=volume,
        achieved_bandwidth=bw,
        duration_seconds=volume / bw,
    )


def save_time(
    config: GPTConfig,
    parallel: ParallelConfig,
    num_nodes: int,
    fs: ParallelFilesystem | None = None,
) -> CheckpointIOReport:
    """Checkpoint save: one replica writes all model-parallel shards.

    Concurrent small-file writes from thousands of ranks reach only
    ``write_efficiency`` of the filesystem's peak (the paper observes
    40% / 273 GB/s).
    """
    fs = fs or ParallelFilesystem()
    if num_nodes < 1:
        raise ValueError("num_nodes must be >= 1")
    size = checkpoint_size_bytes(config)
    bw = fs.write_efficiency * min(
        fs.peak_write_bandwidth, num_nodes * fs.per_node_bandwidth
    )
    return CheckpointIOReport(
        total_bytes=size,
        achieved_bandwidth=bw,
        duration_seconds=size / bw,
    )

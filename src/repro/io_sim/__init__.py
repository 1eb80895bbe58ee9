"""Checkpoint and parallel-filesystem I/O models (§5.10)."""

from .checkpoint import (
    CHECKPOINT_BYTES_PER_PARAM,
    CheckpointIOReport,
    ParallelFilesystem,
    checkpoint_size_bytes,
    load_time,
    save_time,
)

__all__ = [
    "CHECKPOINT_BYTES_PER_PARAM",
    "CheckpointIOReport",
    "ParallelFilesystem",
    "checkpoint_size_bytes",
    "load_time",
    "save_time",
]

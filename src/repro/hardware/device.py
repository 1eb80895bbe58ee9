"""GPU device specifications.

The paper evaluates on NVIDIA 80-GB A100 GPUs (§5): 312 Tflop/s peak
with 16-bit precision, ~2.0 TB/s HBM bandwidth, 80 GB memory.  Specs are
plain dataclasses so alternative accelerators can be modelled (the
paper's discussion section notes the ideas are accelerator-agnostic).
"""

from __future__ import annotations

from dataclasses import dataclass

TFLOP = 1e12
GB = 1e9
TB = 1e12


@dataclass(frozen=True)
class DeviceSpec:
    """A single accelerator.

    Attributes
    ----------
    name:
        Device label.
    peak_flops:
        Peak throughput (FLOP/s) at the training precision.
    memory_bandwidth:
        Main-memory (HBM) bandwidth, bytes/s.
    memory_capacity:
        Device memory, bytes.
    kernel_launch_overhead:
        Fixed per-kernel overhead (seconds); dominates tiny GEMMs.
    """

    name: str
    peak_flops: float
    memory_bandwidth: float
    memory_capacity: float
    kernel_launch_overhead: float = 4.0e-6

    def __post_init__(self) -> None:
        if self.peak_flops <= 0:
            raise ValueError("peak_flops must be positive")
        if self.memory_bandwidth <= 0:
            raise ValueError("memory_bandwidth must be positive")
        if self.memory_capacity <= 0:
            raise ValueError("memory_capacity must be positive")


def a100_80gb() -> DeviceSpec:
    """NVIDIA A100-SXM 80 GB (the paper's GPU): 312 Tflop/s fp16 peak."""
    return DeviceSpec(
        name="A100-80GB",
        peak_flops=312 * TFLOP,
        memory_bandwidth=2.039 * TB,
        memory_capacity=80 * GB,
    )

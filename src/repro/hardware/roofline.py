"""Roofline timing model for GPU kernels.

The paper attributes its throughput to keeping "most of the computation
compute-bound as opposed to memory-bound" (§1, §4.2).  We model each
kernel with the classic roofline:

    time = max(flops / (peak * efficiency), bytes / memory_bandwidth)
           + launch_overhead

GEMM efficiency is a saturating function of the three matrix dimensions:
small/badly-shaped GEMMs (which appear when tensor parallelism slices h
and the head dimension ``t`` ways, §3.3.2) achieve a lower fraction of
peak, large GEMMs approach ``max_efficiency``.  This single mechanism
produces Figure 7 (throughput rises with microbatch size) and the
utilization growth across Table 1 (larger h => larger GEMMs => higher
fraction of peak).

Element-wise kernels (bias/GeLU/dropout/residual/LayerNorm/softmax) are
memory-bound: their time is bytes moved / HBM bandwidth.  Operator
fusion (§4.2) reduces the number of passes over the data, which is how
the §5.8 fused-operator experiment is reproduced.
"""

from __future__ import annotations

from dataclasses import dataclass

from .device import DeviceSpec


@dataclass(frozen=True)
class GemmShape:
    """C[m, n] = A[m, k] @ B[k, n]."""

    m: int
    k: int
    n: int
    batch: int = 1  # strided-batched GEMM count (e.g. attention heads)

    def __post_init__(self) -> None:
        if min(self.m, self.k, self.n, self.batch) < 1:
            raise ValueError(f"GEMM dims must be >= 1, got {self}")

    @property
    def flops(self) -> int:
        """Multiply-adds counted as 2 FLOPs (paper appendix convention)."""
        return 2 * self.m * self.k * self.n * self.batch

    def bytes_moved(self, dtype_size: int = 2) -> int:
        """Minimum DRAM traffic: read A and B, write C, per batch."""
        per = self.m * self.k + self.k * self.n + self.m * self.n
        return per * self.batch * dtype_size


def _saturation(x: float, x_half: float) -> float:
    """Smooth 0..1 ramp equal to 0.5 at ``x_half``; models tile-quantization
    and wave-quantization losses for small GEMM dimensions."""
    return x / (x + x_half)


@dataclass(frozen=True)
class ComputeModel:
    """Times kernels on a :class:`DeviceSpec` via the roofline.

    Attributes
    ----------
    device:
        Target accelerator.
    max_gemm_efficiency:
        Fraction of peak achieved by an ideally-shaped huge GEMM
        (cuBLAS fp16 on A100 reaches ~0.85-0.9).
    m_half / k_half / n_half:
        Dimension sizes at which the per-dimension efficiency factor
        reaches one half of its asymptote.  The reduction dimension (k)
        is most sensitive (main-loop efficiency), the output dims less.
    elementwise_dtype_size:
        Bytes per element for activation traffic (fp16 = 2).
    """

    device: DeviceSpec
    max_gemm_efficiency: float = 0.92
    m_half: float = 800.0
    k_half: float = 160.0
    n_half: float = 96.0
    elementwise_dtype_size: int = 2

    def gemm_efficiency(self, shape: GemmShape) -> float:
        """Achieved fraction of peak FLOP/s for this GEMM shape."""
        eff = (
            self.max_gemm_efficiency
            * _saturation(float(shape.m), self.m_half)
            * _saturation(float(shape.k), self.k_half)
            * _saturation(float(shape.n), self.n_half)
        )
        return eff

    def gemm_time(self, shape: GemmShape) -> float:
        """Roofline execution time of one (possibly batched) GEMM."""
        eff = self.gemm_efficiency(shape)
        compute = shape.flops / (self.device.peak_flops * eff)
        memory = shape.bytes_moved(self.elementwise_dtype_size) / (
            self.device.memory_bandwidth
        )
        return max(compute, memory) + self.device.kernel_launch_overhead

    def elementwise_time(self, num_elements: int, passes: float = 2.0) -> float:
        """Time of a memory-bound kernel touching ``num_elements``.

        ``passes`` counts reads+writes of the tensor (a simple unary op
        reads once and writes once => 2 passes).
        """
        if num_elements < 0:
            raise ValueError("num_elements must be >= 0")
        traffic = num_elements * passes * self.elementwise_dtype_size
        return traffic / self.device.memory_bandwidth + self.device.kernel_launch_overhead

    def memory_time(self, num_bytes: float) -> float:
        """Time to stream ``num_bytes`` through HBM (no launch overhead)."""
        if num_bytes < 0:
            raise ValueError("num_bytes must be >= 0")
        return num_bytes / self.device.memory_bandwidth

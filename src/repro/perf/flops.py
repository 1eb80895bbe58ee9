"""Training-time arithmetic (eq. 4)."""

from __future__ import annotations

SECONDS_PER_DAY = 86400.0


def training_time_days(
    num_parameters: float,
    tokens: float,
    num_gpus: int,
    achieved_flops_per_gpu: float,
) -> float:
    """Eq. (4): end-to-end training time ~= 8 T P / (n X), in days.

    The approximation holds when 6h >> s, 16lh >> V + s, 12lh >> V
    (true for all Table-1 configurations).
    """
    if num_parameters <= 0 or tokens <= 0:
        raise ValueError("num_parameters and tokens must be positive")
    if num_gpus < 1 or achieved_flops_per_gpu <= 0:
        raise ValueError("num_gpus and achieved_flops_per_gpu must be positive")
    seconds = 8 * tokens * num_parameters / (num_gpus * achieved_flops_per_gpu)
    return seconds / SECONDS_PER_DAY


"""Microbatch-size analysis (§3.4, Figures 7, 8, 16; Takeaway #3).

Equation (1): for a parallel configuration (p, t, d) and per-replica
batch ``b' = B/d``, the batch processing time (ignoring communication)
is

    ( b'/b + p - 1 ) * ( t_f(b) + t_b(b) )

``t_f``/``t_b`` come from the roofline kernel model, so the tension the
paper describes -- larger b raises arithmetic intensity but shrinks the
number of microbatches m and inflates the pipeline bubble -- emerges
from the same machinery the simulator uses.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.config import GPTConfig
from repro.hardware import ComputeModel

from .layer_costs import stage_compute_cost

#: The microbatch sizes both planners try: the exact search
#: (:func:`~repro.perf.autotune.enumerate_configs`) and the Takeaway
#: heuristics (:func:`~repro.perf.heuristics.suggest_parallel_config`).
MICROBATCH_CANDIDATES = (1, 2, 4, 8)


def microbatch_times(
    compute: ComputeModel,
    config: GPTConfig,
    b: int,
    *,
    tensor_parallel_size: int = 1,
    layers: int | None = None,
    fused: bool = True,
    recompute: bool = True,
) -> tuple[float, float]:
    """(t_f(b), t_b(b)) for one pipeline stage of ``layers`` layers."""
    layers = layers if layers is not None else config.num_layers
    cost = stage_compute_cost(
        compute, config, layers, b, tensor_parallel_size,
        fused=fused, recompute=recompute,
    )
    return cost.forward, cost.backward


def batch_time_eq1(
    b: int, b_prime: int, p: int, t_f: float, t_b: float
) -> float:
    """Equation (1): ``(b'/b + p - 1)(t_f + t_b)``."""
    if b < 1 or b_prime < 1 or p < 1:
        raise ValueError("b, b', p must be >= 1")
    if b_prime % b != 0:
        raise ValueError(f"b={b} must divide b'={b_prime}")
    return (b_prime / b + p - 1) * (t_f + t_b)


@dataclass(frozen=True)
class MicrobatchPoint:
    """One candidate microbatch size and its estimated performance."""

    microbatch_size: int
    batch_time: float
    throughput: float  # sequences / second
    t_f: float
    t_b: float


def sweep_microbatch_sizes(
    compute: ComputeModel,
    config: GPTConfig,
    *,
    p: int,
    t: int = 1,
    b_prime: int,
    candidates: tuple[int, ...] = (1, 2, 4, 8, 16),
    fused: bool = True,
    recompute: bool = True,
) -> list[MicrobatchPoint]:
    """Evaluate eq. (1) over candidate microbatch sizes.

    ``t_f``/``t_b`` are per-stage times: the whole model's forward /
    backward time divided by p (eq. (1) does not require an integral
    number of layers per stage -- the paper applies it to a 4-layer
    model with p = 8 in Figure 8).
    """
    points = []
    for b in candidates:
        if b_prime % b != 0:
            continue
        t_f_model, t_b_model = microbatch_times(
            compute, config, b, tensor_parallel_size=t,
            layers=config.num_layers, fused=fused, recompute=recompute,
        )
        t_f, t_b = t_f_model / p, t_b_model / p
        bt = batch_time_eq1(b, b_prime, p, t_f, t_b)
        points.append(
            MicrobatchPoint(
                microbatch_size=b,
                batch_time=bt,
                throughput=b_prime / bt,
                t_f=t_f,
                t_b=t_b,
            )
        )
    if not points:
        raise ValueError("no candidate microbatch size divides b'")
    return points


def optimal_microbatch_size(
    compute: ComputeModel,
    config: GPTConfig,
    *,
    p: int,
    t: int = 1,
    b_prime: int,
    candidates: tuple[int, ...] = (1, 2, 4, 8, 16),
    fused: bool = True,
    recompute: bool = True,
) -> MicrobatchPoint:
    """The highest-throughput candidate (Takeaway #3's recommendation)."""
    points = sweep_microbatch_sizes(
        compute, config, p=p, t=t, b_prime=b_prime,
        candidates=candidates, fused=fused, recompute=recompute,
    )
    return max(points, key=lambda pt: pt.throughput)

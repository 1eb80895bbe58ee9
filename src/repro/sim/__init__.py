"""Discrete-event performance simulation of PTD-P and ZeRO-3 training."""

from .trainer_sim import (
    IterationPricing,
    SimOptions,
    SimTimedOp,
    SimulationResult,
    price_iteration,
    render_simulated_timeline,
    simulate_iteration,
)
from .zero_sim import ZeroSimResult, simulate_zero3_iteration

__all__ = [
    "SimOptions",
    "SimTimedOp",
    "SimulationResult",
    "IterationPricing",
    "price_iteration",
    "simulate_iteration",
    "render_simulated_timeline",
    "ZeroSimResult",
    "simulate_zero3_iteration",
]

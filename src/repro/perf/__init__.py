"""Analytical performance models: FLOPs, memory, microbatch, heuristics."""

from .flops import training_time_days
from .analytic_time import AnalyticEstimate, estimate_iteration
from .autotune import (
    ScoredConfig,
    autotune,
    enumerate_configs,
    heuristic_gap,
    search_configs,
)
from .heuristics import suggest_parallel_config
from .layer_costs import (
    LayerCost,
    StageCost,
    embedding_cost,
    logit_layer_cost,
    stage_compute_cost,
    transformer_layer_cost,
    transformer_layer_elementwise,
    transformer_layer_gemms,
)
from .memory import (
    MODEL_STATE_BYTES_PER_PARAM,
    MemoryFootprint,
    activation_bytes_per_layer,
    fits_in_memory,
    in_flight_microbatches,
    memory_footprint,
    parameters_per_rank,
    stage_input_bytes,
)
from .microbatch import (
    MicrobatchPoint,
    batch_time_eq1,
    microbatch_times,
    optimal_microbatch_size,
    sweep_microbatch_sizes,
)

__all__ = [
    "training_time_days",
    "suggest_parallel_config",
    "AnalyticEstimate",
    "estimate_iteration",
    "ScoredConfig",
    "autotune",
    "enumerate_configs",
    "search_configs",
    "heuristic_gap",
    "LayerCost",
    "StageCost",
    "transformer_layer_gemms",
    "transformer_layer_elementwise",
    "transformer_layer_cost",
    "logit_layer_cost",
    "embedding_cost",
    "stage_compute_cost",
    "MODEL_STATE_BYTES_PER_PARAM",
    "MemoryFootprint",
    "activation_bytes_per_layer",
    "stage_input_bytes",
    "in_flight_microbatches",
    "memory_footprint",
    "fits_in_memory",
    "parameters_per_rank",
    "MicrobatchPoint",
    "batch_time_eq1",
    "microbatch_times",
    "sweep_microbatch_sizes",
    "optimal_microbatch_size",
]

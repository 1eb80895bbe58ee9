"""Exhaustive parallel-configuration search over the simulator.

The paper explicitly does *not* auto-explore the parallelism search
space ("we suggest heuristics that we found work well in practice",
§1), deferring to FlexFlow/PipeDream/DAPPLE-style planners.  This module
implements that deferred planner as an extension: enumerate every valid
(t, p, d, b, schedule, v) for a model and GPU budget, filter by the
memory model, time each candidate with the discrete-event simulator, and
rank by throughput.

It doubles as validation of the paper's Takeaways: the ablation bench
(`benchmarks/bench_autotune.py`) checks that the Takeaway-based
heuristic configuration lands within a few percent of the exhaustive
optimum.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.config import GPTConfig, ParallelConfig
from repro.hardware import NodeSpec, dgx_a100

from .memory import fits_in_memory

if TYPE_CHECKING:  # pragma: no cover - typing only
    from repro.sim import SimOptions, SimulationResult
else:  # repro.sim imports repro.perf.layer_costs; import it lazily to
    # avoid a package-initialization cycle.
    SimOptions = SimulationResult = None


@dataclass(frozen=True)
class ScoredConfig:
    """One candidate configuration with its simulated performance."""

    parallel: ParallelConfig
    options: "SimOptions"
    result: "SimulationResult"

    @property
    def tflops_per_gpu(self) -> float:
        return self.result.tflops_per_gpu

    def describe(self) -> str:
        return (
            f"{self.parallel.describe()} sched={self.options.schedule_name} "
            f"-> {self.tflops_per_gpu:.1f} Tflop/s/GPU"
        )


def _divisors(n: int) -> list[int]:
    return [x for x in range(1, n + 1) if n % x == 0]


def enumerate_configs(
    model: GPTConfig,
    num_gpus: int,
    global_batch_size: int,
    *,
    node: NodeSpec | None = None,
    microbatch_candidates: tuple[int, ...] = (1, 2, 4, 8),
    chunk_candidates: tuple[int, ...] = (1, 2),
    max_tensor_parallel: int | None = None,
    recompute: bool = True,
) -> Iterator[tuple[ParallelConfig, "SimOptions"]]:
    """Yield every valid, memory-feasible candidate configuration."""
    from repro.sim import SimOptions

    node = node or dgx_a100()
    t_cap = max_tensor_parallel or num_gpus
    for t in _divisors(num_gpus):
        if t > t_cap:
            continue
        if (
            model.num_attention_heads % t
            or model.ffn_hidden_size % t
            or model.vocab_size % t
        ):
            continue
        for p in _divisors(num_gpus // t):
            d = num_gpus // (t * p)
            if global_batch_size % d:
                continue
            for v in chunk_candidates:
                if model.num_layers % (p * v):
                    continue
                if v > 1 and p < 2:
                    continue
                for b in microbatch_candidates:
                    b_prime = global_batch_size // d
                    if b_prime % b:
                        continue
                    m = b_prime // b
                    if v > 1 and m % p:
                        continue
                    try:
                        parallel = ParallelConfig(
                            pipeline_parallel_size=p,
                            tensor_parallel_size=t,
                            data_parallel_size=d,
                            microbatch_size=b,
                            global_batch_size=global_batch_size,
                            num_model_chunks=v,
                        )
                    except ValueError:
                        continue
                    schedule = "interleaved" if v > 1 else "1f1b"
                    if not fits_in_memory(
                        model, parallel, node.device,
                        schedule_name=schedule, recompute=recompute,
                    ):
                        continue
                    yield parallel, SimOptions(
                        schedule_name=schedule,
                        recompute_activations=recompute,
                    )


def autotune(
    model: GPTConfig,
    num_gpus: int,
    global_batch_size: int,
    *,
    node: NodeSpec | None = None,
    top_k: int = 5,
    **enumerate_kwargs,
) -> list[ScoredConfig]:
    """Search every feasible configuration; return the best ``top_k``.

    Raises ``ValueError`` if ``top_k < 1`` or nothing fits device memory.
    """
    from repro.sim import simulate_iteration

    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    node = node or dgx_a100()
    scored: list[ScoredConfig] = []
    for parallel, options in enumerate_configs(
        model, num_gpus, global_batch_size, node=node, **enumerate_kwargs
    ):
        result = simulate_iteration(model, parallel, options=options, node=node)
        scored.append(ScoredConfig(parallel, options, result))
    if not scored:
        raise ValueError(
            f"no feasible configuration of {num_gpus} GPUs for "
            f"{model.name or 'the model'}"
        )
    scored.sort(key=lambda s: s.tflops_per_gpu, reverse=True)
    return scored[:top_k]


def heuristic_gap(
    model: GPTConfig,
    num_gpus: int,
    global_batch_size: int,
    *,
    node: NodeSpec | None = None,
    **enumerate_kwargs,
) -> tuple[float, ScoredConfig, "SimulationResult"]:
    """How far the Takeaway heuristic is from the exhaustive optimum.

    Returns (relative gap in [0, ...), best scored config, heuristic's
    simulation result).  Gap 0.05 means the heuristic achieves 95% of
    the exhaustive best throughput.
    """
    from repro.sim import SimOptions, simulate_iteration

    from .heuristics import suggest_parallel_config

    node = node or dgx_a100()
    best = autotune(
        model, num_gpus, global_batch_size, node=node, top_k=1,
        **enumerate_kwargs,
    )[0]
    heuristic = suggest_parallel_config(
        model, num_gpus, global_batch_size, node=node
    )
    h_result = simulate_iteration(
        model, heuristic, options=SimOptions(), node=node
    )
    gap = 1.0 - h_result.tflops_per_gpu / best.tflops_per_gpu
    return gap, best, h_result

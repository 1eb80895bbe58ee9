"""Exact parallel-configuration search: bound first, simulate the finalists.

The paper explicitly does *not* auto-explore the parallelism search
space ("we suggest heuristics that we found work well in practice",
§1), deferring to FlexFlow/PipeDream/DAPPLE-style planners.  This module
implements that deferred planner as an extension: enumerate every valid
(t, p, d, b, schedule, v) for a model and GPU budget, filter by the
memory model, and rank by simulated throughput.

The search is exact: every candidate is bounded, the contenders are
simulated.  The bound is the closed form the paper itself reasons with
(bubble ``(p - 1) / m``, per-microbatch ``t_f + t_b``, §3.2-3.3)
written for non-uniform stages; it is a lower bound on the
discrete-event simulator's iteration time, so a candidate whose bound
is already worse than the ``top_k``-th best simulated time is never
simulated, and the ranking is the one simulating everything returns
(DESIGN.md, "Bound first, simulate the finalists").

It doubles as validation of the paper's Takeaways: the ablation bench
(`benchmarks/bench_autotune.py`) checks that the Takeaway-based
heuristic configuration lands within a few percent of the searched
optimum.
"""

from __future__ import annotations

from bisect import insort
from dataclasses import dataclass
from typing import TYPE_CHECKING, Iterator

from repro.config import GPTConfig, ParallelConfig
from repro.hardware import NodeSpec, dgx_a100
from repro.obs.tracer import current_tracer

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


#: Relative slack of the pruning test.  The bound adds the critical path
#: up in another association than the simulator's sequential adds, so it
#: can land above the time it bounds: by up to 4.9e-15 on the ten Table-1
#: rows and 4.8e-14 over the 620 candidates of rows 0-6.  An exact ``>``
#: would prune one side of a tie the exhaustive ranking keeps.
BOUND_MARGIN = 1e-9


def search_configs(
    model: GPTConfig,
    num_gpus: int,
    global_batch_size: int,
    *,
    node: NodeSpec | None = None,
    top_k: int = 5,
    **enumerate_kwargs,
) -> tuple[list[ScoredConfig], int]:
    """Bound every feasible configuration, simulate the contenders.

    Candidates are visited in increasing order of their critical-path
    lower bound (:meth:`repro.sim.IterationPricing.critical_path_bound`)
    and the search stops at the first whose bound cannot beat the
    ``top_k``-th best simulated time; no later one can either.

    Returns the simulated candidates, best first -- the leading
    ``top_k`` are exactly those of simulating every candidate -- and the
    number of candidates bounded.  With a tracer active the two counts
    are added to ``perf.autotune.simulated`` / ``.candidates``.

    Raises ``ValueError`` if ``top_k < 1`` or nothing fits device memory.
    """
    from repro.sim import price_iteration, simulate_iteration

    if top_k < 1:
        raise ValueError("top_k must be >= 1")
    node = node or dgx_a100()
    candidates = list(enumerate_configs(
        model, num_gpus, global_batch_size, node=node, **enumerate_kwargs
    ))
    if not candidates:
        raise ValueError(
            f"no feasible configuration of {num_gpus} GPUs for "
            f"{model.name or 'the model'}"
        )
    bounds = [
        price_iteration(model, parallel, options, node)
        .critical_path_bound(parallel.num_microbatches)
        for parallel, options in candidates
    ]
    # One search's candidates share model FLOPs and GPU count, so the
    # Tflop/s/GPU ranking below is the iteration-time ranking pruned on.
    scored: dict[int, ScoredConfig] = {}
    times: list[float] = []  # simulated so far, ascending
    for i in sorted(range(len(candidates)), key=bounds.__getitem__):
        if len(times) >= top_k and bounds[i] > times[top_k - 1] * (
            1 + BOUND_MARGIN
        ):
            break
        parallel, options = candidates[i]
        result = simulate_iteration(model, parallel, options=options, node=node)
        scored[i] = ScoredConfig(parallel, options, result)
        insort(times, result.iteration_time)
    tracer = current_tracer()
    if tracer is not None:
        tracer.metrics.counter("perf.autotune.candidates").inc(len(candidates))
        tracer.metrics.counter("perf.autotune.simulated").inc(len(scored))
    # Back in enumeration order before the stable sort: ties break as
    # they do when every candidate is simulated.
    contenders = [scored[i] for i in sorted(scored)]
    contenders.sort(key=lambda s: s.tflops_per_gpu, reverse=True)
    return contenders, len(candidates)


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

    Exact: every candidate is bounded, the contenders are simulated
    (:func:`search_configs`).

    Raises ``ValueError`` if ``top_k < 1`` or nothing fits device memory.
    """
    contenders, _ = search_configs(
        model, num_gpus, global_batch_size, node=node, top_k=top_k,
        **enumerate_kwargs,
    )
    return contenders[:top_k]


def heuristic_gap(
    model: GPTConfig,
    num_gpus: int,
    global_batch_size: int,
    *,
    node: NodeSpec | None = None,
    **enumerate_kwargs,
) -> tuple[float, ScoredConfig, "SimulationResult"]:
    """How far the Takeaway heuristic is from the searched optimum.

    Returns (relative gap in [0, ...), best scored config, heuristic's
    simulation result).  Gap 0.05 means the heuristic achieves 95% of
    the best throughput any candidate reaches.
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

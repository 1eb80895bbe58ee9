"""Configuration heuristics implementing the paper's Takeaways.

Given a model, a GPU budget and a global batch size, pick (t, p, d, b):

- **Takeaway #1**: use tensor parallelism up to the node size ``g``
  (8 for DGX A100) before resorting to pipeline parallelism;
- **Takeaway #2**: make the total model-parallel size ``M = t p`` just
  large enough that the model (parameters + metadata + activation
  working set) fits in GPU memory, and spend the rest on data
  parallelism;
- **Takeaway #3**: choose the microbatch size by the eq. (1) sweep.
"""

from __future__ import annotations

from repro.config import GPTConfig, ParallelConfig
from repro.hardware import ComputeModel, NodeSpec, dgx_a100

from .memory import fits_in_memory
from .microbatch import MICROBATCH_CANDIDATES, optimal_microbatch_size


def _divisors_up_to(value: int, cap: int) -> list[int]:
    return [x for x in range(1, cap + 1) if value % x == 0]


def suggest_parallel_config(
    config: GPTConfig,
    num_gpus: int,
    global_batch_size: int,
    *,
    node: NodeSpec | None = None,
    schedule_name: str = "1f1b",
    recompute: bool = True,
) -> ParallelConfig:
    """Pick (t, p, d, b) for ``config`` on ``num_gpus`` GPUs.

    Searches the smallest model-parallel size M = t*p (with t maximal up
    to the node size, Takeaway #1) whose memory footprint fits, assigns
    the remaining GPUs to data parallelism (Takeaway #2), and sweeps the
    microbatch size (Takeaway #3).

    Raises ``ValueError`` if no valid configuration fits device memory.
    """
    node = node or dgx_a100()
    g = node.gpus_per_node
    compute = ComputeModel(device=node.device)
    t_candidates = [
        t
        for t in _divisors_up_to(min(g, num_gpus), min(g, num_gpus))
        if config.num_attention_heads % t == 0
        and config.ffn_hidden_size % t == 0
        and config.vocab_size % t == 0
    ]
    best: ParallelConfig | None = None
    # Grow the model-parallel size M until something fits; prefer larger
    # t at equal M (Takeaway #1: tensor parallelism first, intra-node).
    for M in range(1, num_gpus + 1):
        if num_gpus % M != 0:
            continue
        for t in sorted(t_candidates, reverse=True):
            if M % t != 0:
                continue
            p = M // t
            if config.num_layers % p != 0:
                continue
            d = num_gpus // M
            if global_batch_size % d != 0:
                continue
            candidate = ParallelConfig(
                pipeline_parallel_size=p,
                tensor_parallel_size=t,
                data_parallel_size=d,
                microbatch_size=1,
                global_batch_size=global_batch_size,
            )
            if fits_in_memory(
                config, candidate, node.device,
                schedule_name=schedule_name, recompute=recompute,
            ):
                best = candidate
                break
        if best is not None:
            break
    if best is None:
        raise ValueError(
            f"no (t, p, d) configuration of {num_gpus} GPUs fits "
            f"{config.name or 'the model'} in {node.device.memory_capacity/1e9:.0f} GB"
        )
    # Takeaway #3: sweep the microbatch size.
    b_prime = global_batch_size // best.data_parallel_size
    feasible_bs = []
    for b in MICROBATCH_CANDIDATES:
        if b_prime % b != 0:
            continue
        cand = ParallelConfig(
            pipeline_parallel_size=best.p,
            tensor_parallel_size=best.t,
            data_parallel_size=best.d,
            microbatch_size=b,
            global_batch_size=global_batch_size,
        )
        if fits_in_memory(
            config, cand, node.device,
            schedule_name=schedule_name, recompute=recompute,
        ):
            feasible_bs.append(b)
    if not feasible_bs:
        return best
    point = optimal_microbatch_size(
        compute, config, p=best.p, t=best.t, b_prime=b_prime,
        candidates=tuple(feasible_bs), recompute=recompute,
    )
    return ParallelConfig(
        pipeline_parallel_size=best.p,
        tensor_parallel_size=best.t,
        data_parallel_size=best.d,
        microbatch_size=point.microbatch_size,
        global_batch_size=global_batch_size,
    )

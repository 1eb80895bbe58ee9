"""``autotune``'s simulate-everything loop as it stood before PR 21,
kept as the oracle.

Until then the search ran the discrete-event simulator on every feasible
candidate and kept ``top_k``.  ``repro.perf.autotune`` now bounds every
candidate with the critical-path closed form and simulates only those
the bound cannot rule out; this module is the old loop, verbatim, for
the differential tests to compare against with ``==``.
"""

from __future__ import annotations

from repro.hardware import dgx_a100
from repro.perf.autotune import ScoredConfig, enumerate_configs


def autotune(model, num_gpus, global_batch_size, *, node=None, top_k=5,
             **enumerate_kwargs) -> list[ScoredConfig]:
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

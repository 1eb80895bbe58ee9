"""The single-rank reference: a :class:`GPTModel` trained by Adam directly.

Serial execution in the paper's sense -- one model, one optimizer, the
batch's microbatches accumulated in order -- with none of the parallel
engine's code (stages, shards, flat buffers, schedules).  The
conformance and chaos oracles compare the engine against it, so a defect
in the engine cannot also sit in its reference.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from repro.config import GPTConfig

from .optim import Adam
from .transformer import GPTModel


def train_serial(
    config: GPTConfig,
    batches: Iterable[tuple[np.ndarray, np.ndarray]],
    *,
    seed: int = 0,
    lr: float = 1e-2,
    num_microbatches: int = 1,
    reset_at: int | None = None,
) -> tuple[list[float], dict[str, np.ndarray]]:
    """Take one Adam step per ``(ids, targets)`` batch, each batch's
    gradient the mean over its ``num_microbatches`` equal microbatches.

    ``reset_at`` is the step before which Adam restarts from zero
    moments (where a resharded resume resets optimizer state).  Returns
    the per-step mean losses and the final weights in serial layout, the
    head's tied name left out, as ``gather_state_dict`` names them.
    """
    model = GPTModel(config, seed=seed)
    optimizer = Adam(model.parameters(), lr=lr)
    scale = 1.0 / num_microbatches
    losses = []
    for step, (ids, targets) in enumerate(batches):
        if step == reset_at:
            optimizer = Adam(model.parameters(), lr=lr)
        model.zero_grad()
        step_losses = []
        for mb_ids, mb_targets in zip(np.split(ids, num_microbatches),
                                      np.split(targets, num_microbatches)):
            loss, caches = model.loss(mb_ids, mb_targets)
            model.loss_backward(caches, scale)
            step_losses.append(loss)
        losses.append(float(np.mean(step_losses)))
        optimizer.step()
    state = model.state_dict()
    del state["head.tied"]
    return losses, state

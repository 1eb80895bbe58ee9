"""Tensor-parallel decode over the ``repro.comm`` backend abstraction.

Decode is the same §2.3 partitioning as training: every rank computes
its heads / MLP shard, forwards all-reduce through the ``g`` operator,
and the output head produces *vocab-sharded* logits.  Sampling needs the
full logit row, so the decoder concatenates the shards along the vocab
axis (each rank owns a contiguous ``[i*V/t, (i+1)*V/t)`` slice, so
concatenation *is* the all-gather) and decodes through the one
:func:`repro.nn.generate.generate` loop the single-rank paths use.

The all-reduce changes floating-point summation order, so TP logits
differ from single-rank logits at ulp level -- but the sampled *token
stream* is verified equal record-for-record by ``repro verify --only
serve`` on both the coop oracle and the real-process mp backend.

Decode here is full-recompute (the trusted-oracle shape): KV caching a
sharded model would multiply the surface of the differential tests
without exercising any new communication pattern.
"""

from __future__ import annotations

import numpy as np

from repro.comm import Backend, get_backend
from repro.config import GPTConfig
from repro.nn.generate import generate
from repro.parallel.tensor_parallel import (
    TensorParallelGPT,
    TensorParallelGroup,
)


class TensorParallelDecoder:
    """A sharded GPT plus the backend its collectives run over.

    ``backend`` may be a spec string (``"coop"``/``"mp"``), a live
    :class:`~repro.comm.Backend`, or ``None`` for the cooperative
    oracle.  A backend resolved *here* from a spec is owned by the
    decoder -- ``close()`` it (or use the decoder as a context manager).
    """

    def __init__(
        self,
        config: GPTConfig,
        *,
        world: int = 2,
        seed: int = 0,
        backend: str | Backend | None = None,
    ):
        if world < 1:
            raise ValueError(f"world must be >= 1, got {world}")
        self.backend = get_backend(backend)
        self._owns_backend = self.backend is not backend
        self.group = TensorParallelGroup(
            ranks=list(range(world)), backend=self.backend
        )
        self.model = TensorParallelGPT(config, self.group, seed=seed)
        self.config = config

    def close(self) -> None:
        if self._owns_backend:
            self.backend.close()

    def __enter__(self) -> "TensorParallelDecoder":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def forward(self, context: np.ndarray, *, training: bool = False):
        """Full-vocabulary logits ``(b, s, V)``: the sharded forward, its
        vocab shards concatenated.  With ``config`` this is the model
        :func:`repro.nn.generate.generate` decodes."""
        logits_shards, caches = self.model.forward(context, training=training)
        return np.concatenate(logits_shards, axis=-1), caches


def tp_generate(
    config: GPTConfig,
    prompt_ids,
    max_new_tokens: int,
    *,
    world: int = 2,
    seed: int = 0,
    backend: str | Backend | None = None,
    temperature: float = 1.0,
    top_k: int | None = None,
    rng: np.random.Generator | None = None,
    stop_ids=None,
) -> np.ndarray:
    """One-shot tensor-parallel decode (builds and closes the decoder)."""
    with TensorParallelDecoder(
        config, world=world, seed=seed, backend=backend
    ) as decoder:
        return generate(
            decoder, prompt_ids, max_new_tokens,
            temperature=temperature, top_k=top_k, rng=rng, stop_ids=stop_ids,
        )

"""Tensor-parallel decode over the ``repro.comm`` backend abstraction.

Decode is the same §2.3 partitioning as training: every rank computes
its heads / MLP shard, forwards all-reduce through the ``g`` operator,
and the output head produces *vocab-sharded* logits.  Sampling needs the
full logit row for one position, so TP decode concatenates the shards
along the vocab axis (each rank owns a contiguous ``[i*V/t, (i+1)*V/t)``
slice, so concatenation *is* the all-gather) and samples with the same
:func:`repro.nn.generate._pick` as the single-rank paths.

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
from repro.nn.generate import _pick
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

    # -- decoding -----------------------------------------------------------
    def logits_for(self, context: np.ndarray) -> np.ndarray:
        """Full last-position logit row: sharded forward + vocab concat."""
        logits_shards, _ = self.model.forward(context, training=False)
        return np.concatenate([ls[0, -1] for ls in logits_shards])

    def generate(
        self,
        prompt_ids,
        max_new_tokens: int,
        *,
        temperature: float = 1.0,
        top_k: int | None = None,
        rng: np.random.Generator | None = None,
        stop_ids=None,
    ) -> np.ndarray:
        """Tensor-parallel mirror of :func:`repro.nn.generate.generate`."""
        prompt_ids = np.asarray(prompt_ids)
        if prompt_ids.ndim != 1 or prompt_ids.size == 0:
            raise ValueError("prompt_ids must be a non-empty 1-D array")
        if max_new_tokens < 0:
            raise ValueError("max_new_tokens must be >= 0")
        if temperature < 0:
            raise ValueError("temperature must be >= 0")
        if top_k is not None and top_k < 1:
            raise ValueError("top_k must be >= 1")
        vocab = self.config.vocab_size
        if prompt_ids.min() < 0 or prompt_ids.max() >= vocab:
            raise ValueError("prompt token out of range")
        stop = frozenset(int(t) for t in stop_ids) if stop_ids else frozenset()
        if any(t < 0 or t >= vocab for t in stop):
            raise ValueError("stop token out of range")
        rng = rng if rng is not None else np.random.default_rng(0)
        window = self.config.seq_length
        out = [int(t) for t in prompt_ids]
        for _ in range(max_new_tokens):
            context = np.array(out[-window:])[None, :]
            token = _pick(self.logits_for(context), temperature, top_k, rng)
            out.append(token)
            if token in stop:
                break
        return np.array(out, dtype=np.int64)


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
        return decoder.generate(
            prompt_ids, max_new_tokens,
            temperature=temperature, top_k=top_k, rng=rng, stop_ids=stop_ids,
        )

"""Module base class and Parameter container.

The substrate uses *explicit* backward passes rather than an autograd
tape: every module implements ``forward(x) -> (y, cache)`` and
``backward(dy, cache) -> dx``, accumulating parameter gradients into
``Parameter.grad``.  This mirrors how pipeline parallelism actually
operates (§2.2): the engine stashes each microbatch's ``cache`` between
the forward and backward pass, which is precisely the "stashed
activations" whose count the 1F1B schedule bounds.

Stochastic modules (dropout) accept an optional ``rng`` in ``forward``;
activation recomputation (§3.5) replays the forward with the same rng
and must reproduce the original output bit-for-bit.
"""

from __future__ import annotations

from typing import Iterator

import numpy as np


class Parameter:
    """A trainable tensor with its gradient accumulator."""

    __slots__ = ("data", "grad")

    def __init__(self, data: np.ndarray):
        self.data = np.asarray(data, dtype=np.float64)
        self.grad = np.zeros_like(self.data)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def size(self) -> int:
        return self.data.size

    def zero_grad(self) -> None:
        self.grad.fill(0.0)


class Module:
    """Base class; subclasses define forward/backward and _parameters."""

    def named_parameters(self, prefix: str = "") -> Iterator[tuple[str, Parameter]]:
        """Yield (name, Parameter) pairs, recursing into child modules.

        Discovers attributes that are Parameters, Modules, or lists of
        Modules, in attribute-insertion order (deterministic).
        """
        for name, value in vars(self).items():
            full = f"{prefix}{name}"
            if isinstance(value, Parameter):
                yield full, value
            elif isinstance(value, Module):
                yield from value.named_parameters(f"{full}.")
            elif isinstance(value, (list, tuple)):
                for i, item in enumerate(value):
                    if isinstance(item, Module):
                        yield from item.named_parameters(f"{full}.{i}.")
                    elif isinstance(item, Parameter):
                        yield f"{full}.{i}", item

    def parameters(self) -> list[Parameter]:
        seen: set[int] = set()
        out = []
        for _, p in self.named_parameters():
            if id(p) not in seen:  # tied weights appear once
                seen.add(id(p))
                out.append(p)
        return out

    def zero_grad(self) -> None:
        for p in self.parameters():
            p.zero_grad()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {name: p.data.copy() for name, p in self.named_parameters()}

    def load_state_dict(self, state: dict[str, np.ndarray]) -> None:
        mine = dict(self.named_parameters())
        missing = set(mine) - set(state)
        extra = set(state) - set(mine)
        if missing or extra:
            raise ValueError(
                f"state dict mismatch: missing={sorted(missing)}, "
                f"unexpected={sorted(extra)}"
            )
        for name, p in mine.items():
            if p.data.shape != state[name].shape:
                raise ValueError(
                    f"shape mismatch for {name}: {p.data.shape} vs "
                    f"{state[name].shape}"
                )
            p.data[...] = state[name]

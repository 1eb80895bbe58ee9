"""The optimizer: Adam over :class:`~repro.nn.module.Parameter` lists."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from .heap import unforked_zeros
from .lr_scheduler import WarmupCosineSchedule, lr_at
from .module import Parameter


class Adam:
    """Adam with bias correction (the optimizer used for GPT training).

    ``owned[i]`` is the flat ``(lo, hi)`` slice of ``params[i]`` this
    optimizer keeps moments for and steps, the whole parameter by
    default; under the distributed optimizer a data-parallel replica
    owns one contiguous range of its flat parameter vector, and
    ``params`` are the parameters that range meets.  ``owned_data`` /
    ``owned_grads`` are those slices as views, so a parameter's storage
    must be contiguous.  The moments ``m`` and ``v`` are one vector each
    over the owned elements end to end, in a mapping a later fork does
    not copy (:func:`~repro.nn.heap.unforked_zeros`); ``_m[i]`` /
    ``_v[i]`` are the views of ``params[i]``'s slice.

    ``lr`` is a float or a schedule (anything with ``lr_at(step)``, such
    as :class:`~repro.nn.lr_scheduler.WarmupCosineSchedule`): step ``k``
    applies ``lr_at(k - 1)``, read at the optimizer's own ``step_count``.
    """

    def __init__(
        self,
        params: list[Parameter],
        lr: float | WarmupCosineSchedule = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
        owned: Sequence[tuple[int, int]] | None = None,
    ):
        if lr_at(lr, 0) <= 0:
            raise ValueError("lr must be positive")
        b1, b2 = betas
        if not (0 <= b1 < 1 and 0 <= b2 < 1):
            raise ValueError("betas must be in [0, 1)")
        self.params = list(params)
        self.lr = lr
        self.betas = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self.step_count = 0
        self.owned = (
            [(0, p.size) for p in self.params] if owned is None
            else list(owned)
        )
        self.owned_data = [
            np.reshape(p.data, -1, copy=False)[lo:hi]
            for p, (lo, hi) in zip(self.params, self.owned)
        ]
        self.owned_grads = [
            np.reshape(p.grad, -1, copy=False)[lo:hi]
            for p, (lo, hi) in zip(self.params, self.owned)
        ]
        n = sum(hi - lo for lo, hi in self.owned)
        moments = unforked_zeros(2 * n)
        self.m, self.v = moments[:n], moments[n:]
        self._m = _slices(self.m, self.owned)
        self._v = _slices(self.v, self.owned)

    def step(self) -> None:
        lr = lr_at(self.lr, self.step_count)
        self.step_count += 1
        b1, b2 = self.betas
        bc1 = 1.0 - b1**self.step_count
        bc2 = 1.0 - b2**self.step_count
        for x, g, m, v in zip(self.owned_data, self.owned_grads,
                              self._m, self._v):
            if self.weight_decay:
                g = g + self.weight_decay * x
            m *= b1
            m += (1 - b1) * g
            v *= b2
            v += (1 - b2) * g * g
            x -= lr * (m / bc1) / (np.sqrt(v / bc2) + self.eps)


def _slices(flat: np.ndarray, owned: Sequence[tuple[int, int]]
            ) -> list[np.ndarray]:
    """Consecutive views of ``flat``, one ``hi - lo`` long per range."""
    out = []
    offset = 0
    for lo, hi in owned:
        out.append(flat[offset:offset + hi - lo])
        offset += hi - lo
    return out

"""Tests for the Adam optimizer."""

import numpy as np
import pytest

from repro.nn import Adam
from repro.nn.module import Parameter


def quadratic_params(n=4, seed=0):
    r = np.random.default_rng(seed)
    p = Parameter(r.standard_normal(n))
    target = r.standard_normal(n)
    return p, target


def quad_step(p, target):
    """Gradient of 0.5 * ||p - target||^2."""
    p.zero_grad()
    p.grad += p.data - target
    return 0.5 * float(np.sum((p.data - target) ** 2))


class TestAdam:
    def test_converges_on_quadratic(self):
        p, target = quadratic_params()
        opt = Adam([p], lr=0.1)
        for _ in range(200):
            quad_step(p, target)
            opt.step()
        np.testing.assert_allclose(p.data, target, atol=1e-4)

    def test_first_step_is_lr_times_sign(self):
        """With bias correction, step 1 moves each weight by ~lr * sign(g)."""
        p = Parameter(np.array([1.0, -2.0]))
        p.grad += np.array([0.5, -3.0])
        before = p.data.copy()
        Adam([p], lr=0.01, eps=1e-12).step()
        np.testing.assert_allclose(
            before - p.data, 0.01 * np.sign([0.5, -3.0]), rtol=1e-6
        )

    def test_weight_decay(self):
        p = Parameter(np.array([10.0]))
        opt = Adam([p], lr=0.1, weight_decay=0.1)
        p.grad += np.array([0.0])
        opt.step()
        assert p.data[0] < 10.0

    def test_validates(self):
        p, _ = quadratic_params()
        with pytest.raises(ValueError):
            Adam([p], lr=-1)
        with pytest.raises(ValueError):
            Adam([p], betas=(1.0, 0.9))


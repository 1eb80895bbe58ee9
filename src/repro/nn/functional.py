"""Stateless forward/backward math kernels on numpy arrays.

Each ``*_forward`` returns ``(output, cache)``; the matching
``*_backward`` consumes the upstream gradient and the cache and returns
input gradients.  Everything is vectorized (no Python loops over batch
or sequence), per the project's HPC-Python guidelines.

GeLU uses the tanh approximation (the one Megatron's fused
bias-GeLU kernel implements); its derivative is exact for that
approximation, so gradient checks pass to machine precision.
"""

from __future__ import annotations

import numpy as np

from .profiler import matmul_flops, record_gemm_flops

SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
GELU_COEFF = 0.044715


def gelu_forward(x: np.ndarray) -> tuple[np.ndarray, tuple]:
    """Tanh-approximated GeLU: 0.5 x (1 + tanh(√(2/π)(x + 0.044715 x³)))."""
    u = SQRT_2_OVER_PI * (x + GELU_COEFF * x**3)
    t = np.tanh(u)
    y = 0.5 * x * (1.0 + t)
    return y, (x, t)


def gelu_backward(dy: np.ndarray, cache: tuple) -> np.ndarray:
    x, t = cache
    du_dx = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_COEFF * x**2)
    dt_dx = (1.0 - t**2) * du_dx
    dgelu = 0.5 * (1.0 + t) + 0.5 * x * dt_dx
    return dy * dgelu


def softmax_forward(x: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Numerically-stable softmax; cache is the output itself."""
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=axis, keepdims=True)
    return y, y


def softmax_backward(dy: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    inner = np.sum(dy * y, axis=axis, keepdims=True)
    return y * (dy - inner)


def layer_norm_forward(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> tuple[np.ndarray, tuple]:
    """LayerNorm over the last axis."""
    mu = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    y = xhat * gamma + beta
    return y, (xhat, inv_std, gamma)


def layer_norm_backward(
    dy: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (dx, dgamma, dbeta)."""
    xhat, inv_std, gamma = cache
    h = xhat.shape[-1]
    dgamma = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    dbeta = np.sum(dy, axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gamma
    dx = (
        dxhat
        - np.mean(dxhat, axis=-1, keepdims=True)
        - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
    ) * inv_std
    # h is unused directly but kept for clarity of the 1/h means above.
    del h
    return dx, dgamma, dbeta


def linear_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None
) -> tuple[np.ndarray, tuple]:
    """y = x @ W + b with x of shape (..., in), W of shape (in, out)."""
    y = x @ weight
    if bias is not None:
        y = y + bias
    rows = x.size // x.shape[-1]
    record_gemm_flops("linear", matmul_flops(rows, *weight.shape))
    return y, (x, weight, bias is not None)


def linear_backward(
    dy: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Returns (dx, dweight, dbias)."""
    x, weight, has_bias = cache
    dx = dy @ weight.T
    x2 = x.reshape(-1, x.shape[-1])
    dy2 = dy.reshape(-1, dy.shape[-1])
    dweight = x2.T @ dy2
    dbias = dy2.sum(axis=0) if has_bias else None
    record_gemm_flops("linear", 2 * matmul_flops(x2.shape[0], *weight.shape))
    return dx, dweight, dbias


def dropout_forward(
    x: np.ndarray, p: float, rng: np.random.Generator, training: bool = True
) -> tuple[np.ndarray, np.ndarray | None]:
    """Inverted dropout; cache is the scaled keep-mask (None if no-op)."""
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout p must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x, None
    mask = (rng.random(x.shape) >= p) / (1.0 - p)
    return x * mask, mask


def dropout_backward(dy: np.ndarray, mask: np.ndarray | None) -> np.ndarray:
    if mask is None:
        return dy
    return dy * mask


def cross_entropy_forward(
    logits: np.ndarray, targets: np.ndarray
) -> tuple[float, tuple]:
    """Mean token-level cross entropy.

    ``logits``: (..., V); ``targets``: integer array matching the leading
    shape.  Returns scalar loss and cache.
    """
    flat = logits.reshape(-1, logits.shape[-1])
    tgt = targets.reshape(-1)
    if tgt.shape[0] != flat.shape[0]:
        raise ValueError("targets shape does not match logits")
    shifted = flat - flat.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(shifted), axis=-1)) + flat.max(axis=-1)
    picked = flat[np.arange(flat.shape[0]), tgt]
    loss = float(np.mean(logsumexp - picked))
    return loss, (flat, tgt, logits.shape)


def cross_entropy_backward(cache: tuple, scale: float = 1.0) -> np.ndarray:
    """d(loss)/d(logits); ``scale`` multiplies the mean-normalized grad."""
    flat, tgt, shape = cache
    probs, _ = softmax_forward(flat, axis=-1)
    probs[np.arange(flat.shape[0]), tgt] -= 1.0
    probs *= scale / flat.shape[0]
    return probs.reshape(shape)


def causal_mask(seq_len: int) -> np.ndarray:
    """(s, s) additive mask: 0 on/below diagonal, -inf above."""
    mask = np.triu(np.ones((seq_len, seq_len), dtype=bool), k=1)
    out = np.zeros((seq_len, seq_len))
    out[mask] = -np.inf
    return out

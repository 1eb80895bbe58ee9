"""Stateless forward/backward math kernels on numpy arrays.

Each ``*_forward`` returns ``(output, cache)``; the matching
``*_backward`` consumes the upstream gradient and the cache and returns
input gradients.  Everything is vectorized (no Python loops over batch
or sequence), per the project's HPC-Python guidelines.

The kernels are fused in the sense of the paper's section 4.2: each runs
its whole element-wise chain through one or two arrays it allocates
itself instead of one temporary per operator.  The rules (DESIGN.md,
"kernel rules"): a kernel writes in place only into an array it
allocated in this call -- never into an argument, never into anything
it put in a cache; a backward leaves ``dy`` and the cache as it found
them, so it can be replayed on the same cache; and each element sees
the float64 operation sequence of the textbook expression
(``tests/reference_kernels.py`` holds those, compared bit for bit).

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
    """Tanh-approximated GeLU: 0.5 x (1 + tanh(√(2/π)(x + 0.044715 x³))).

    The cube is two multiplications: written as a power, numpy sends it
    through libm ``pow``, which costs 25 times the ``tanh`` next to it.
    """
    t = x * x
    t *= x
    t *= GELU_COEFF
    t += x
    t *= SQRT_2_OVER_PI
    np.tanh(t, out=t)
    y = t + 1.0
    y *= x
    y *= 0.5  # a power of two: exact wherever it is applied
    return y, (x, t)


def gelu_backward(dy: np.ndarray, cache: tuple) -> np.ndarray:
    x, t = cache
    du = x * x
    du *= 3.0 * GELU_COEFF
    du += 1.0
    du *= SQRT_2_OVER_PI  # du/dx
    dx = t * t
    np.subtract(1.0, dx, out=dx)
    dx *= du  # dt/dx
    np.multiply(x, 0.5, out=du)
    du *= dx  # 0.5 x dt/dx
    np.add(t, 1.0, out=dx)
    dx *= 0.5
    dx += du
    dx *= dy
    return dx


def _softmax(x: np.ndarray, axis: int, out: np.ndarray | None = None) -> np.ndarray:
    """Max/exp/normalise over ``axis``, every step in one array: ``out``
    (which may be ``x``, if the caller allocated it) or a fresh one."""
    y = np.subtract(x, np.max(x, axis=axis, keepdims=True), out=out)
    np.exp(y, out=y)
    y /= np.sum(y, axis=axis, keepdims=True)
    return y


def softmax_forward(x: np.ndarray, axis: int = -1) -> tuple[np.ndarray, np.ndarray]:
    """Numerically-stable softmax; cache is the output itself."""
    y = _softmax(x, axis)
    return y, y


def softmax_backward(dy: np.ndarray, y: np.ndarray, axis: int = -1) -> np.ndarray:
    dx = dy * y
    inner = np.sum(dx, axis=axis, keepdims=True)
    np.subtract(dy, inner, out=dx)
    dx *= y
    return dx


#: The largest causal mask built so far (read-only); :func:`causal_mask`
#: hands out views of it.  One mask, not one per length: the serve path
#: asks for every context length up to the window.  Never released: it
#: holds 8 s^2 bytes for the longest s seen (0.5 MB at this repo's
#: largest window, 256).
_causal = np.zeros((0, 0))


def causal_mask(seq_len: int) -> np.ndarray:
    """(s, s) additive mask: 0 on/below diagonal, -inf above.

    A read-only view of one shared mask, grown in steps of 64 rows.
    """
    global _causal
    if seq_len > _causal.shape[0]:
        size = -(-seq_len // 64) * 64
        mask = np.triu(np.full((size, size), -np.inf), k=1)
        mask.flags.writeable = False
        _causal = mask
    return _causal[:seq_len, :seq_len]


def scale_mask_softmax(
    scores: np.ndarray, dk: int, start: int | np.ndarray = 0
) -> np.ndarray:
    """Causal attention probabilities from the raw ``q @ k^T`` scores
    (..., s_new, s_total): divide by ``√dk``, add the causal rows,
    softmax over the last axis -- every step in the one array the
    division allocates.

    Query ``j`` sits at absolute position ``start + j`` and sees the
    columns up to it; ``start`` is 0 for a training forward or a
    prefill, or one int per row of the leading axis for a ragged batch
    of cached requests.
    """
    s_new, s_total = scores.shape[-2:]
    start = np.asarray(start)
    y = scores / np.sqrt(dk)
    if s_total - 1 > start.min():  # else every query sees every column
        mask = causal_mask(s_total)
        if start.ndim:
            y += mask[start[:, None] + np.arange(s_new)][:, None]
        else:
            y += mask[start:start + s_new]
    return _softmax(y, -1, out=y)


def _row_mean(x: np.ndarray) -> np.ndarray:
    """``np.mean`` over the last axis (``keepdims=True``) without its
    Python wrapper: the same pairwise ``add.reduce``, true-divided by
    the row length (numpy's own ``_mean`` body), so bit for bit the same."""
    mean = np.add.reduce(x, axis=-1, keepdims=True)
    mean /= x.shape[-1]
    return mean


def layer_norm_forward(
    x: np.ndarray, gamma: np.ndarray, beta: np.ndarray, eps: float = 1e-5
) -> tuple[np.ndarray, tuple]:
    """LayerNorm over the last axis, in one centred pass: the mean of
    the squared centred values is what ``np.var`` computes (same mean,
    same pairwise sum)."""
    xhat = x - _row_mean(x)
    y = xhat * xhat
    inv_std = 1.0 / np.sqrt(_row_mean(y) + eps)
    xhat *= inv_std
    np.multiply(xhat, gamma, out=y)
    y += beta
    return y, (xhat, inv_std, gamma)


def layer_norm_backward(
    dy: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Returns (dx, dgamma, dbeta)."""
    xhat, inv_std, gamma = cache
    lead = tuple(range(dy.ndim - 1))
    tmp = dy * xhat
    dgamma = np.sum(tmp, axis=lead)
    dbeta = np.sum(dy, axis=lead)
    dx = dy * gamma  # dxhat
    np.multiply(dx, xhat, out=tmp)
    np.multiply(xhat, _row_mean(tmp), out=tmp)
    dx -= _row_mean(dx)
    dx -= tmp
    dx *= inv_std
    return dx, dgamma, dbeta


def flat_matmul(x: np.ndarray, w: np.ndarray) -> np.ndarray:
    """``x @ w`` for x of shape (..., k) and a 2-D ``w``, as one GEMM over
    all ``x.size // k`` rows.

    ``matmul`` with a 3-D left operand is a loop of one BLAS call per
    leading index, each streaming the whole weight: a decode tick's
    (8, 1, h) activation ran as eight one-row products.  Both reshapes
    are views of a contiguous array.  The rows are cut by
    ``x.shape[-1]``, never by ``w.shape[0]``, so a wrong inner width
    still raises from the product.
    """
    return (x.reshape(-1, x.shape[-1]) @ w).reshape(*x.shape[:-1], w.shape[-1])


def linear_forward(
    x: np.ndarray, weight: np.ndarray, bias: np.ndarray | None
) -> tuple[np.ndarray, tuple]:
    """y = x @ W + b with x of shape (..., in), W of shape (in, out)."""
    y = flat_matmul(x, weight)
    if bias is not None:
        y += bias
    rows = x.size // x.shape[-1]
    record_gemm_flops("linear", matmul_flops(rows, *weight.shape))
    return y, (x, weight, bias is not None)


def linear_backward(
    dy: np.ndarray, cache: tuple
) -> tuple[np.ndarray, np.ndarray, np.ndarray | None]:
    """Returns (dx, dweight, dbias)."""
    x, weight, has_bias = cache
    dx = flat_matmul(dy, weight.T)
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
    top = flat.max(axis=-1, keepdims=True)
    e = flat - top
    np.exp(e, out=e)
    sumexp = np.sum(e, axis=-1)
    nll = np.log(sumexp)
    nll += top[:, 0]
    nll -= flat[np.arange(flat.shape[0]), tgt]
    return float(np.mean(nll)), (e, sumexp, tgt, logits.shape)


def cross_entropy_backward(cache: tuple, scale: float = 1.0) -> np.ndarray:
    """d(loss)/d(logits); ``scale`` multiplies the mean-normalized grad."""
    e, sumexp, tgt, shape = cache
    probs = e / sumexp[:, None]  # the softmax, from the forward's exp
    probs[np.arange(tgt.shape[0]), tgt] -= 1.0
    probs *= scale / tgt.shape[0]
    return probs.reshape(shape)

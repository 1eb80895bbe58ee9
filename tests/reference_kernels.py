"""The element-wise kernels as they stood before PR 19, kept as the oracle.

Until then ``repro.nn.functional`` spelled every kernel as the textbook
expression: one fresh temporary per operator, ``x**3`` through libm
``pow``, ``np.var`` next to ``np.mean``, a ``np.triu`` causal mask per
attention call.  ``repro.nn.functional`` now runs the same float64
operation sequence per element through one or two arrays it allocates
itself; this module is the old expressions, verbatim, for the
differential tests to compare against with ``np.array_equal`` (GeLU to a
few ulp: ``x*x*x`` is not ``pow(x, 3)`` in the last bit).  It shares no
code with ``repro.nn.functional`` on purpose.
"""

from __future__ import annotations

import numpy as np

SQRT_2_OVER_PI = np.sqrt(2.0 / np.pi)
GELU_COEFF = 0.044715


def gelu_forward(x):
    u = SQRT_2_OVER_PI * (x + GELU_COEFF * x**3)
    t = np.tanh(u)
    y = 0.5 * x * (1.0 + t)
    return y, (x, t)


def gelu_backward(dy, cache):
    x, t = cache
    du_dx = SQRT_2_OVER_PI * (1.0 + 3.0 * GELU_COEFF * x**2)
    dt_dx = (1.0 - t**2) * du_dx
    dgelu = 0.5 * (1.0 + t) + 0.5 * x * dt_dx
    return dy * dgelu


def softmax_forward(x, axis=-1):
    shifted = x - np.max(x, axis=axis, keepdims=True)
    e = np.exp(shifted)
    y = e / np.sum(e, axis=axis, keepdims=True)
    return y, y


def softmax_backward(dy, y, axis=-1):
    inner = np.sum(dy * y, axis=axis, keepdims=True)
    return y * (dy - inner)


def layer_norm_forward(x, gamma, beta, eps=1e-5):
    mu = np.mean(x, axis=-1, keepdims=True)
    var = np.var(x, axis=-1, keepdims=True)
    inv_std = 1.0 / np.sqrt(var + eps)
    xhat = (x - mu) * inv_std
    y = xhat * gamma + beta
    return y, (xhat, inv_std, gamma)


def layer_norm_backward(dy, cache):
    xhat, inv_std, gamma = cache
    dgamma = np.sum(dy * xhat, axis=tuple(range(dy.ndim - 1)))
    dbeta = np.sum(dy, axis=tuple(range(dy.ndim - 1)))
    dxhat = dy * gamma
    dx = (
        dxhat
        - np.mean(dxhat, axis=-1, keepdims=True)
        - xhat * np.mean(dxhat * xhat, axis=-1, keepdims=True)
    ) * inv_std
    return dx, dgamma, dbeta


def linear_forward(x, weight, bias):
    y = x @ weight
    if bias is not None:
        y = y + bias
    return y


def cross_entropy_forward(logits, targets):
    flat = logits.reshape(-1, logits.shape[-1])
    tgt = targets.reshape(-1)
    shifted = flat - flat.max(axis=-1, keepdims=True)
    logsumexp = np.log(np.sum(np.exp(shifted), axis=-1)) + flat.max(axis=-1)
    picked = flat[np.arange(flat.shape[0]), tgt]
    loss = float(np.mean(logsumexp - picked))
    return loss, (flat, tgt, logits.shape)


def cross_entropy_backward(cache, scale=1.0):
    flat, tgt, shape = cache
    probs, _ = softmax_forward(flat, axis=-1)
    probs[np.arange(flat.shape[0]), tgt] -= 1.0
    probs *= scale / flat.shape[0]
    return probs.reshape(shape)


def causal_mask(seq_len):
    mask = np.triu(np.ones((seq_len, seq_len), dtype=bool), k=1)
    out = np.zeros((seq_len, seq_len))
    out[mask] = -np.inf
    return out


def attention_probs(scores, dk):
    """Scale + mask + softmax as ``CausalSelfAttention.forward`` and
    ``ParallelAttention.forward`` spelled it on the raw ``q @ k^T``."""
    scores = scores / np.sqrt(dk)
    scores = scores + causal_mask(scores.shape[-1])
    return softmax_forward(scores)[0]


def attention_probs_step(scores, dk, lengths):
    """The same for ``CausalSelfAttention.forward_step``: row ``i``
    holds ``lengths[i]`` cached positions before its new queries."""
    s_new, s_total = scores.shape[-2:]
    lengths = np.broadcast_to(lengths, scores.shape[0])
    new = np.arange(s_new)
    scores = scores / np.sqrt(dk)
    if s_total - 1 > lengths.min():
        last = lengths[:, None, None, None] + new[:, None]
        scores = scores + np.where(np.arange(s_total) > last, -np.inf, 0.0)
    return softmax_forward(scores)[0]

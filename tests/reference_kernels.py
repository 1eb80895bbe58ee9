"""The kernels as they stood before PRs 19 and 20, kept as the oracle.

Until PR 19 ``repro.nn.functional`` spelled every kernel as the textbook
expression: one fresh temporary per operator, ``x**3`` through libm
``pow``, ``np.var`` next to ``np.mean``, a ``np.triu`` causal mask per
attention call.  ``repro.nn.functional`` now runs the same float64
operation sequence per element through one or two arrays it allocates
itself; this module is the old expressions, verbatim, for the
differential tests to compare against with ``np.array_equal`` (GeLU to a
few ulp: ``x*x*x`` is not ``pow(x, 3)`` in the last bit).  It shares no
code with ``repro.nn.functional`` on purpose.

PR 20 added the expressions it replaced -- ``np.split`` plus three
reshapes for q/k/v, three copies and a concatenate for their gradient
-- and restated one: ``linear_forward`` is the flat product (see its
docstring).
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
    """Restated in PR 20, the one reference that is not the pre-PR 19
    expression.  ``x @ weight`` with a 3-D ``x`` is a loop of one BLAS
    call per leading index (a decode tick of 8 requests ran 8 one-row
    products, each streaming the whole weight), so every linear and
    head product now multiplies the flat ``(rows, k)`` view once.  BLAS
    blocks by shape: for a leading batch > 1 the rows move in the last
    ulp against the per-sample loop; with one sample, or a 2-D ``x``,
    it is the same call (``test_kernels.py`` asserts both).
    ``linear_backward``'s ``dx`` is this with ``weight.T``."""
    y = (x.reshape(-1, x.shape[-1]) @ weight).reshape(
        *x.shape[:-1], weight.shape[-1])
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


def split_qkv(qkv, heads):
    """(b, s, 3h') -> q, k, v of (b, heads, s, dk) each, as the three
    attention forwards spelled it before PR 20."""
    b, s, width = qkv.shape
    dk = width // 3 // heads
    q, k, v = np.split(qkv, 3, axis=-1)
    q = q.reshape(b, s, heads, dk).transpose(0, 2, 1, 3)
    k = k.reshape(b, s, heads, dk).transpose(0, 2, 1, 3)
    v = v.reshape(b, s, heads, dk).transpose(0, 2, 1, 3)
    return q, k, v


def attention_forward(x, qkv_weight, qkv_bias, proj_weight, proj_bias, heads):
    """``CausalSelfAttention.forward`` without dropout, on the split
    above; returns ``(out, (q, k, v, probs))``."""
    b, s, h = x.shape
    q, k, v = split_qkv(linear_forward(x, qkv_weight, qkv_bias), heads)
    probs = attention_probs(q @ k.transpose(0, 1, 3, 2), h // heads)
    merged = (probs @ v).transpose(0, 2, 1, 3).reshape(b, s, h)
    return linear_forward(merged, proj_weight, proj_bias), (q, k, v, probs)


def attention_dqkv(dctx, q, k, v, probs, drop_mask, dropped):
    """The gradient of the fused qkv activation, (b, s, 3h'), from the
    gradient of the per-head context (b, heads, s, dk): as
    ``CausalSelfAttention.backward`` and ``ParallelAttention.backward``
    built it before PR 20 -- three transpose-reshape copies and a
    concatenate."""
    b, heads, s, dk = dctx.shape
    ddropped = dctx @ v.transpose(0, 1, 3, 2)
    dv = dropped.transpose(0, 1, 3, 2) @ dctx
    dprobs = ddropped if drop_mask is None else ddropped * drop_mask
    dscores = softmax_backward(dprobs, probs)
    dscores /= np.sqrt(dk)
    dq = dscores @ k
    dk_grad = dscores.transpose(0, 1, 3, 2) @ q
    dq = dq.transpose(0, 2, 1, 3).reshape(b, s, heads * dk)
    dk_grad = dk_grad.transpose(0, 2, 1, 3).reshape(b, s, heads * dk)
    dv = dv.transpose(0, 2, 1, 3).reshape(b, s, heads * dk)
    return np.concatenate([dq, dk_grad, dv], axis=-1)

"""The fused kernels of ``repro.nn.functional`` against the expressions
they replaced, and the rules that make running them in place safe.

*Differential*: every kernel equals ``tests/reference_kernels.py`` (the
pre-PR 19 expressions, verbatim) bit for bit, over random shapes and
non-contiguous inputs -- except GeLU, whose cube is now two
multiplications: ``x*x*x`` and ``pow(x, 3)`` differ in the last bit, so
GeLU is held to a few ulp.

*Aliasing / repeatability*: no kernel and no block writes into its
input, its ``dy`` or anything reachable from its cache; a backward run
twice on one cache returns the same arrays (``bench/probes.py`` replays
one cache 33 times, activation recompute replays forwards); a block's
output never shares memory with its input.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GPTConfig
from repro.nn import functional as F
from repro.nn.transformer import (
    CausalSelfAttention,
    GPTModel,
    TransformerBlock,
)
from repro.parallel.tensor_parallel import (
    ParallelAttention,
    ParallelTransformerBlock,
    TensorParallelGroup,
    TensorParallelGPT,
)

from . import reference_kernels as R

SHAPES = st.tuples(
    st.integers(1, 3), st.integers(1, 33), st.sampled_from([8, 24, 128])
)
LAYOUTS = st.sampled_from(["contiguous", "transposed", "strided"])


def tensor(shape, seed, layout="contiguous", scale=1.0):
    """A seeded (b, s, h) float64 array; ``transposed`` and ``strided``
    are views no ``reshape(-1)`` can flatten without a copy."""
    b, s, h = shape
    rng = np.random.default_rng(seed)
    if layout == "transposed":
        return (scale * rng.standard_normal((s, b, h))).transpose(1, 0, 2)
    if layout == "strided":
        return (scale * rng.standard_normal((b, s, 2 * h)))[..., ::2]
    return scale * rng.standard_normal(shape)


def same(got, want):
    """Bit-for-bit, through nested tuples."""
    if isinstance(want, (tuple, list)):
        return len(got) == len(want) and all(map(same, got, want))
    if isinstance(want, np.ndarray):
        return got.shape == want.shape and np.array_equal(got, want)
    return got == want


def assert_flat_product(got, flat, x, weight, bias=None):
    """What PR 20's flat GEMM may and may not change about ``x @ W + b``.

    It *is* the flat reference, always.  It is the plain 3-D product
    too whenever that is one BLAS call (one sample, or a 2-D ``x`` --
    every shape ``train_ptd`` runs, whose microbatch is 1).  Otherwise
    the per-sample loop and the one GEMM sum a row's ``k`` products in
    different orders: both are within ``k`` eps of the row's scale
    ``|x| @ |W|`` from the exact sum, so within ``4k`` ulp of it from
    each other (plus the bias add's own rounding).
    """
    plain = x @ weight if bias is None else x @ weight + bias
    assert same(got, flat)
    if np.prod(x.shape[:-2]) == 1:  # one sample, or none to loop over
        assert same(got, plain)
    else:
        scale = np.abs(x) @ np.abs(weight)
        slack = 4 * x.shape[-1] * np.spacing(scale) + np.spacing(np.abs(plain))
        assert (np.abs(got - plain) <= slack).all()


# -- differential: the new kernels against the old expressions ----------------
class TestAgainstReference:
    @given(shape=SHAPES, seed=st.integers(0, 2**16), layout=LAYOUTS,
           dy_layout=LAYOUTS)
    @settings(max_examples=60, deadline=None)
    def test_softmax_layernorm_linear_bit_for_bit(self, shape, seed, layout,
                                                  dy_layout):
        x = tensor(shape, seed, layout)
        dy = tensor(shape, seed + 1, dy_layout)
        h = shape[-1]
        gamma, beta = np.random.default_rng(seed + 2).standard_normal((2, h))

        y = F._softmax(x, -1)
        assert same(y, R.softmax_forward(x)[0])
        assert same(F.softmax_backward(dy, y), R.softmax_backward(dy, y))

        got, cache = F.layer_norm_forward(x, gamma, beta)
        want, want_cache = R.layer_norm_forward(x, gamma, beta)
        assert same(got, want) and same(cache, want_cache)
        assert same(F.layer_norm_backward(dy, cache),
                    R.layer_norm_backward(dy, want_cache))

        weight = np.random.default_rng(seed + 3).standard_normal((h, 5))
        dout = tensor((*shape[:-1], 5), seed + 4, dy_layout)
        for bias in (None, np.arange(5.0)):
            y, cache = F.linear_forward(x, weight, bias)
            assert_flat_product(y, R.linear_forward(x, weight, bias),
                                x, weight, bias)
            assert_flat_product(F.linear_backward(dout, cache)[0],
                                R.linear_forward(dout, weight.T, None),
                                dout, weight.T)

    @given(shape=SHAPES, seed=st.integers(0, 2**16), layout=LAYOUTS,
           scale=st.sampled_from([1.0, 0.25, 7.5]))
    @settings(max_examples=60, deadline=None)
    def test_cross_entropy_bit_for_bit(self, shape, seed, layout, scale):
        logits = tensor(shape, seed, layout, scale=3.0)
        targets = np.random.default_rng(seed).integers(
            0, shape[-1], size=shape[:-1])
        loss, cache = F.cross_entropy_forward(logits, targets)
        want, want_cache = R.cross_entropy_forward(logits, targets)
        assert loss == want
        assert same(F.cross_entropy_backward(cache, scale),
                    R.cross_entropy_backward(want_cache, scale))

    @given(shape=SHAPES, seed=st.integers(0, 2**16), layout=LAYOUTS,
           dy_layout=LAYOUTS, scale=st.sampled_from([0.02, 1.0, 3.0, 10.0]))
    @settings(max_examples=60, deadline=None)
    def test_gelu_within_a_few_ulp(self, shape, seed, layout, dy_layout,
                                   scale):
        """The one rounding that changed.  ``tanh`` and the half of the
        output where ``1 + tanh`` does not cancel agree to 4 ulp; where
        it cancels (x < 0) an ulp of ``tanh`` is many ulp of a result
        near zero, so the honest yardstick there is the ulp of the
        input (forward) and of ``dy`` (backward)."""
        x = tensor(shape, seed, layout, scale=scale)
        dy = tensor(shape, seed + 1, dy_layout)
        (y, (_, t)), (want, want_cache) = F.gelu_forward(x), R.gelu_forward(x)
        np.testing.assert_array_max_ulp(t, want_cache[1], 4)
        np.testing.assert_array_max_ulp(y[x >= 0], want[x >= 0], 4)
        assert (np.abs(y - want) <= 4 * np.spacing(np.abs(x))).all()

        dx, want_dx = F.gelu_backward(dy, (x, t)), R.gelu_backward(dy, want_cache)
        assert (np.abs(dx - want_dx) <= 16 * np.spacing(np.abs(dy))).all()
        # on one and the same cache the backward did not change at all
        assert same(F.gelu_backward(dy, want_cache), want_dx)

    @given(b=st.integers(1, 3), a=st.integers(1, 3), s=st.integers(1, 33),
           dk=st.sampled_from([4, 32]), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_scale_mask_softmax_training_and_prefill(self, b, a, s, dk, seed):
        scores = np.random.default_rng(seed).standard_normal((b, a, s, s))
        want = R.attention_probs(scores, dk)
        before = scores.copy()
        assert same(F.scale_mask_softmax(scores, dk), want)
        # the serve prefill: one start per row, all zero
        assert same(F.scale_mask_softmax(scores, dk, np.zeros(b, int)), want)
        assert same(want, R.attention_probs_step(scores, dk, 0))
        assert same(scores, before)

    @given(b=st.integers(1, 4), s_new=st.integers(1, 5),
           room=st.integers(0, 3), seed=st.integers(0, 2**16))
    @settings(max_examples=60, deadline=None)
    def test_scale_mask_softmax_ragged_decode(self, b, s_new, room, seed):
        rng = np.random.default_rng(seed)
        lengths = rng.integers(0, 40, size=b)
        s_total = int(lengths.max()) + s_new + room
        scores = rng.standard_normal((b, 2, s_new, s_total))
        got = F.scale_mask_softmax(scores, 16, lengths)
        assert same(got, R.attention_probs_step(scores, 16, lengths))
        for i, length in enumerate(lengths):  # a row owes nothing to its batch
            assert same(got[i:i + 1],
                        F.scale_mask_softmax(scores[i:i + 1], 16, length))

    @pytest.mark.parametrize("s", [1, 2, 63, 64, 65, 130])
    def test_causal_mask_is_one_shared_read_only_mask(self, s):
        mask = F.causal_mask(s)
        assert same(mask, R.causal_mask(s))
        assert not mask.flags.writeable
        with pytest.raises(ValueError):
            mask[0, 0] = 1.0
        assert np.shares_memory(mask, F.causal_mask(max(1, s - 1)))

    def test_causal_rows_come_from_one_function(self):
        """Scores a decode step sees are the matching row of the mask
        the training forward adds: both paths call one kernel."""
        scores = np.random.default_rng(3).standard_normal((1, 2, 9, 9))
        full = F.scale_mask_softmax(scores, 8)
        for j in range(9):
            assert same(F.scale_mask_softmax(scores[:, :, j:j + 1], 8, j),
                        full[:, :, j:j + 1])


class TestFlatProductShapes:
    """The flat view is cut by ``x.shape[-1]``: what raised still
    raises, what had a shape keeps it."""

    @pytest.mark.parametrize("width", [6, 7, 12])  # 48 = 6 * 8 = 12 * 4
    def test_wrong_inner_width_still_raises(self, width):
        x = tensor((2, 3, 8), 0)
        with pytest.raises(ValueError):
            F.linear_forward(x, np.ones((width, 5)), None)
        _, cache = F.linear_forward(x, np.ones((8, width)), None)
        with pytest.raises(ValueError):
            F.linear_backward(tensor((2, 3, 8), 1), cache)

    def test_one_dimensional_and_zero_row_inputs_keep_their_shapes(self):
        weight = np.random.default_rng(0).standard_normal((8, 5))
        x = tensor((2, 3, 8), 0)
        for view in (x[0, 0], x[0], x[:, :0], x[:0]):
            y, cache = F.linear_forward(view, weight, np.arange(5.0))
            assert y.shape == (*view.shape[:-1], 5)
            assert same(y, view @ weight + np.arange(5.0))
            dx, dweight, dbias = F.linear_backward(y, cache)
            assert dx.shape == view.shape and same(dx, y @ weight.T)
            assert dweight.shape == weight.shape and dbias.shape == (5,)


class TestAttentionViews:
    """q/k/v are one view of the fused activation and their gradients
    are written into one buffer through the same view: the values, the
    caches and every gradient equal the ``np.split`` / ``concatenate``
    spelling bit for bit."""

    @given(b=st.integers(1, 3), s=st.integers(1, 20),
           heads=st.sampled_from([1, 3, 4]), seed=st.integers(0, 2**16),
           layout=LAYOUTS)
    @settings(max_examples=40, deadline=None)
    def test_serial_attention(self, b, s, heads, seed, layout):
        attn = CausalSelfAttention(24, heads, rng=np.random.default_rng(seed))
        x, dy = tensor((b, s, 24), seed, layout), tensor((b, s, 24), seed + 1)
        out, cache = attn.forward(x)
        qkv_cache, q, k, v, probs, drop_mask, dropped, proj_cache, _ = cache
        want, (want_q, want_k, want_v, want_probs) = R.attention_forward(
            x, attn.qkv.weight.data, attn.qkv.bias.data,
            attn.proj.weight.data, attn.proj.bias.data, heads)
        assert same(out, want)
        assert same((q, k, v, probs), (want_q, want_k, want_v, want_probs))
        step_out, (step_k, step_v) = attn.forward_step(x)
        assert same((step_out, step_k, step_v), (want, want_k, want_v))

        dx = attn.backward(dy, cache)
        dmerged, want_dproj, want_dproj_bias = F.linear_backward(dy, proj_cache)
        dctx = dmerged.reshape(b, s, heads, -1).transpose(0, 2, 1, 3)
        want_dqkv = R.attention_dqkv(dctx, q, k, v, probs, drop_mask, dropped)
        want_dx, want_dw, want_db = F.linear_backward(want_dqkv, qkv_cache)
        assert same(dx, want_dx)
        assert same([p.grad for p in attn.parameters()],
                    [want_dw, want_db, want_dproj, want_dproj_bias])

    @given(b=st.integers(1, 3), s=st.integers(1, 20), t=st.sampled_from([1, 2]),
           seed=st.integers(0, 2**16))
    @settings(max_examples=30, deadline=None)
    def test_parallel_attention(self, b, s, t, seed):
        serial = CausalSelfAttention(24, 4, rng=np.random.default_rng(seed))
        group = TensorParallelGroup(list(range(t)))
        attn = ParallelAttention(24, 4, group)
        attn.load_gathered_state_dict(serial.state_dict())
        x, dy = tensor((b, s, 24), seed), tensor((b, s, 24), seed + 1)
        out, cache = attn.forward(x)
        if t == 1:  # the serial layer's own arithmetic
            assert same(out, serial.forward(x)[0])
        dx = attn.backward(dy, cache)
        caches, c_proj, _ = cache
        want_partials = []
        for i, (c_qkv, q, k, v, probs, mask, dropped) in enumerate(caches):
            qkv = F.linear_forward(x, attn.qkv_shards[i].data,
                                   attn.qkv_bias_shards[i].data)[0]
            assert same((q, k, v), R.split_qkv(qkv, 4 // t))
            dctx = F.linear_backward(dy, c_proj[i])[0]
            dctx = dctx.reshape(b, s, 4 // t, -1).transpose(0, 2, 1, 3)
            want_dx, want_dw, want_db = F.linear_backward(
                R.attention_dqkv(dctx, q, k, v, probs, mask, dropped), c_qkv)
            assert same(attn.qkv_shards[i].grad, want_dw)
            assert same(attn.qkv_bias_shards[i].grad, want_db)
            want_partials.append(want_dx)
        assert same(dx, group.all_reduce(want_partials, tag="attn.f"))


class TestPrefillSharesTheTrainingKernel:
    """``forward_step`` promises a prefill of up to one causal block (64
    positions) bit-identical to ``forward(training=False)``; it holds
    because both run ``F.scale_mask_softmax``."""

    WIDE = GPTConfig(num_layers=2, hidden_size=24, num_attention_heads=3,
                     vocab_size=40, seq_length=256)

    @given(b=st.integers(1, 3), s=st.integers(1, 20), seed=st.integers(0, 99))
    @settings(max_examples=25, deadline=None)
    def test_attention(self, b, s, seed):
        attn = CausalSelfAttention(24, 3, rng=np.random.default_rng(seed))
        x = tensor((b, s, 24), seed)
        out, cache = attn.forward(x, training=False)
        step_out, (k, v) = attn.forward_step(x)
        assert same(step_out, out)
        assert same(k, cache[2]) and same(v, cache[3])

    def test_model(self):
        cfg = GPTConfig(num_layers=2, hidden_size=24, num_attention_heads=3,
                        vocab_size=40, seq_length=16)
        model = GPTModel(cfg, seed=4)
        ids = np.random.default_rng(4).integers(0, 40, size=(2, 11))
        logits, _ = model.forward(ids, training=False)
        assert same(model.forward_step(ids)[0], logits)

    def test_model_at_one_causal_block(self):
        """64 positions are one causal block: still the same call."""
        model = GPTModel(self.WIDE, seed=5)
        ids = np.random.default_rng(5).integers(0, 40, size=(2, 64))
        logits, _ = model.forward(ids, training=False)
        assert same(model.forward_step(ids)[0], logits)

    @pytest.mark.parametrize("s", [65, 128, 200])
    def test_longer_prefill_sits_at_ulp(self, s):
        """Past one block the softmax rows sum fewer masked zeros and the
        products are narrower: within a few ulp of the square, and
        ``hidden_step``'s one sampled row with the K/V ``forward_step``
        writes, bit for bit."""
        model = GPTModel(self.WIDE, seed=6)
        ids = np.random.default_rng(s).integers(0, 40, size=(2, s))
        logits, _ = model.forward(ids, training=False)
        step, kvs = model.forward_step(ids)
        np.testing.assert_allclose(step, logits, rtol=1e-12, atol=1e-12)
        x, last_kvs = model.hidden_step(ids)
        assert x.shape == (2, 1, 24)
        np.testing.assert_allclose(model.head.forward(x)[0], step[:, -1:],
                                   rtol=1e-12, atol=1e-12)
        assert same(last_kvs, kvs)


# -- aliasing and repeatability -------------------------------------------------
def arrays_in(obj, found=None):
    """Every ndarray reachable from ``obj`` through tuples, lists and
    dicts (what a cache is made of)."""
    found = [] if found is None else found
    if isinstance(obj, np.ndarray):
        found.append(obj)
    elif isinstance(obj, (tuple, list)):
        for item in obj:
            arrays_in(item, found)
    elif isinstance(obj, dict):
        arrays_in(list(obj.values()), found)
    return found


class Frozen:
    """Snapshot of some arrays; :meth:`intact` says none changed."""

    def __init__(self, *objs):
        self.arrays = arrays_in(objs)
        self.copies = [a.copy() for a in self.arrays]

    def intact(self) -> bool:
        return all(map(np.array_equal, self.arrays, self.copies))


KERNELS = {
    "gelu": (lambda x: F.gelu_forward(x), F.gelu_backward),
    "softmax": (lambda x: (F._softmax(x, -1),) * 2, F.softmax_backward),
    "layer_norm": (
        lambda x: F.layer_norm_forward(
            x, np.linspace(0.5, 1.5, x.shape[-1]), np.ones(x.shape[-1])),
        F.layer_norm_backward,
    ),
    "linear": (
        lambda x: F.linear_forward(
            x, np.ones((x.shape[-1], x.shape[-1])), np.ones(x.shape[-1])),
        F.linear_backward,
    ),
    "dropout": (
        lambda x: F.dropout_forward(x, 0.5, np.random.default_rng(0)),
        F.dropout_backward,
    ),
    "dropout-off": (
        lambda x: F.dropout_forward(x, 0.0, np.random.default_rng(0)),
        F.dropout_backward,
    ),
}


@pytest.mark.parametrize("name", sorted(KERNELS))
@pytest.mark.parametrize("layout", ["contiguous", "transposed", "strided"])
def test_kernel_leaves_input_dy_and_cache_alone(name, layout):
    forward, backward = KERNELS[name]
    x = tensor((2, 7, 8), 5, layout)
    dy = tensor((2, 7, 8), 6, layout)
    inputs = Frozen(x, dy)
    y, cache = forward(x)
    held = Frozen(y, cache)
    assert same(forward(x)[0], y)  # a replayed forward (recompute)
    first = backward(dy, cache)
    first_copy = [a.copy() for a in arrays_in(first)]
    second = backward(dy, cache)
    assert inputs.intact() and held.intact()
    assert same(arrays_in(second), first_copy)
    if name != "dropout-off":  # a no-op dropout hands its argument on
        assert not np.shares_memory(y, x)
        for out in arrays_in(first):
            assert not np.shares_memory(out, dy)


def test_cross_entropy_leaves_logits_and_cache_alone():
    logits = tensor((2, 7, 8), 7, "strided")
    targets = np.random.default_rng(7).integers(0, 8, size=(2, 7))
    inputs = Frozen(logits, targets)
    loss, cache = F.cross_entropy_forward(logits, targets)
    held = Frozen(cache)
    first = F.cross_entropy_backward(cache, 0.5).copy()
    assert same(F.cross_entropy_backward(cache, 0.5), first)
    assert F.cross_entropy_forward(logits, targets)[0] == loss
    assert inputs.intact() and held.intact()


def _serial_block():
    return TransformerBlock(24, 4, rng=np.random.default_rng(8))


def _parallel_block(t):
    block = ParallelTransformerBlock(24, 4, TensorParallelGroup(list(range(t))))
    block.load_gathered_state_dict(_serial_block().state_dict())
    return block


def _head():
    model = GPTModel(GPTConfig(num_layers=1, hidden_size=24,
                               num_attention_heads=3, vocab_size=40,
                               seq_length=16), seed=9)
    return model.head


BLOCKS = {
    # the attention layers on their own: backward writes dq, dk, dv into
    # one buffer it allocates, through matmul's out=
    "CausalSelfAttention": lambda: _serial_block().attn,
    "ParallelAttention-t2": lambda: _parallel_block(2).attn,
    "TransformerBlock": _serial_block,
    "ParallelTransformerBlock-t1": lambda: _parallel_block(1),
    "ParallelTransformerBlock-t2": lambda: _parallel_block(2),
    "OutputHead": _head,
}


@pytest.mark.parametrize("name", sorted(BLOCKS))
def test_block_leaves_input_dy_and_cache_alone(name):
    block = BLOCKS[name]()
    x = tensor((2, 7, 24), 10)
    weights = Frozen([p.data for p in block.parameters()])
    y, cache = block.forward(x, training=True)
    dy = tensor(y.shape, 11)
    inputs, held = Frozen(x, dy), Frozen(y, cache)
    assert not np.shares_memory(y, x)  # dropout is 0: nothing was aliased
    assert same(block.forward(x, training=True)[0], y)
    dx = block.backward(dy, cache)
    assert not np.shares_memory(dx, dy)
    first = dx.copy()
    assert same(block.backward(dy, cache), first)
    assert inputs.intact() and held.intact() and weights.intact()


def test_block_forward_step_leaves_its_input_alone():
    block = _serial_block()
    x = tensor((2, 5, 24), 12)
    inputs = Frozen(x)
    y, (k, v) = block.forward_step(x)
    assert not np.shares_memory(y, x)
    past = Frozen(k, v)
    new = tensor((2, 1, 24), 13)
    block.forward_step(new, (k, v), 5)
    assert inputs.intact() and past.intact()


@pytest.mark.parametrize("t", [1, 2])
def test_vocab_parallel_head_leaves_input_dy_and_cache_alone(t):
    cfg = GPTConfig(num_layers=1, hidden_size=24, num_attention_heads=2,
                    vocab_size=40, seq_length=16)
    head = TensorParallelGPT(
        cfg, TensorParallelGroup(list(range(t))), seed=14).head
    x = tensor((2, 7, 24), 15)
    targets = np.random.default_rng(15).integers(0, 40, size=(2, 7))
    shards, cache = head.forward(x)
    loss, ce_cache = head.loss(shards, targets)
    inputs = Frozen(x, targets, shards, cache, ce_cache)
    assert head.loss(shards, targets)[0] == loss
    dlogits = head.loss_backward(ce_cache, 0.5)
    first = [d.copy() for d in dlogits]
    assert same(head.loss_backward(ce_cache, 0.5), first)
    grads = Frozen(dlogits)
    dx = head.backward(dlogits, cache).copy()
    assert same(head.backward(dlogits, cache), dx)
    assert inputs.intact() and grads.intact()
    assert not any(np.shares_memory(shard, x) for shard in shards)

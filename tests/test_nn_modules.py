"""Gradient checks and behavior tests for the NN substrate."""

import numpy as np
import pytest

from repro.config import tiny_test_model
from repro.nn import (
    MLP,
    CausalSelfAttention,
    Dropout,
    EmbeddingStage,
    GeLU,
    GPTModel,
    LayerNorm,
    Linear,
    OutputHead,
    TransformerBlock,
    check_module_gradients,
    functional as F,
)


def rng(seed=0):
    return np.random.default_rng(seed)


class TestFunctional:
    def test_gelu_values(self):
        y, _ = F.gelu_forward(np.array([0.0]))
        assert y[0] == 0.0
        y, _ = F.gelu_forward(np.array([100.0]))
        assert y[0] == pytest.approx(100.0)
        y, _ = F.gelu_forward(np.array([-100.0]))
        assert y[0] == pytest.approx(0.0, abs=1e-10)

    def test_softmax_rows_sum_to_one(self):
        x = rng().standard_normal((3, 5))
        y = F._softmax(x, -1)
        np.testing.assert_allclose(y.sum(-1), 1.0, rtol=1e-12)

    def test_softmax_stability(self):
        y = F._softmax(np.array([1e4, 1e4 + 1.0]), -1)
        assert np.isfinite(y).all()

    def test_causal_mask(self):
        m = F.causal_mask(3)
        assert m[0, 1] == -np.inf and m[1, 0] == 0 and m[2, 2] == 0

    def test_cross_entropy_uniform(self):
        """Uniform logits over V classes -> loss = log V."""
        V = 7
        logits = np.zeros((2, 3, V))
        targets = np.zeros((2, 3), dtype=int)
        loss, _ = F.cross_entropy_forward(logits, targets)
        assert loss == pytest.approx(np.log(V))

    def test_cross_entropy_grad_sums_to_zero(self):
        logits = rng().standard_normal((2, 4, 9))
        targets = rng().integers(0, 9, size=(2, 4))
        _, cache = F.cross_entropy_forward(logits, targets)
        g = F.cross_entropy_backward(cache)
        np.testing.assert_allclose(g.sum(-1), 0.0, atol=1e-12)

    def test_cross_entropy_grad_numeric(self):
        from repro.nn import numerical_gradient

        logits = rng().standard_normal((2, 3, 5))
        targets = rng().integers(0, 5, size=(2, 3))

        def loss():
            val, _ = F.cross_entropy_forward(logits, targets)
            return val

        _, cache = F.cross_entropy_forward(logits, targets)
        analytic = F.cross_entropy_backward(cache)
        numeric = numerical_gradient(loss, logits)
        np.testing.assert_allclose(analytic, numeric, rtol=1e-6, atol=1e-9)

    def test_cross_entropy_shape_mismatch(self):
        with pytest.raises(ValueError):
            F.cross_entropy_forward(np.zeros((2, 3, 5)), np.zeros((2, 4), dtype=int))

    def test_dropout_scales_kept_values(self):
        x = np.ones((1000,))
        y, mask = F.dropout_forward(x, 0.5, rng(0))
        kept = y[y != 0]
        np.testing.assert_allclose(kept, 2.0)
        assert mask is not None

    def test_dropout_eval_mode_noop(self):
        x = rng().standard_normal(10)
        y, mask = F.dropout_forward(x, 0.5, rng(0), training=False)
        np.testing.assert_array_equal(y, x)
        assert mask is None


class TestGradientChecks:
    """Every module's backward verified against central differences."""

    def test_linear(self):
        m = Linear(5, 4, rng=rng(1))
        check_module_gradients(m, rng(2).standard_normal((3, 5)))

    def test_linear_no_bias(self):
        m = Linear(5, 4, bias=False, rng=rng(1))
        check_module_gradients(m, rng(2).standard_normal((3, 5)))

    def test_layernorm(self):
        m = LayerNorm(6)
        m.gamma.data[...] = rng(1).standard_normal(6)
        m.beta.data[...] = rng(2).standard_normal(6)
        check_module_gradients(m, rng(3).standard_normal((2, 4, 6)))

    def test_gelu(self):
        check_module_gradients(GeLU(), rng(1).standard_normal((3, 4)))

    def test_dropout(self):
        m = Dropout(0.3)
        check_module_gradients(m, rng(1).standard_normal((4, 5)), rng_seed=7)

    def test_attention(self):
        m = CausalSelfAttention(8, 2, rng=rng(1))
        check_module_gradients(
            m, rng(2).standard_normal((2, 3, 8)), rtol=1e-4, atol=1e-6
        )

    def test_attention_with_dropout(self):
        m = CausalSelfAttention(8, 2, attention_dropout=0.25, rng=rng(1))
        check_module_gradients(
            m, rng(2).standard_normal((2, 3, 8)), rng_seed=11, rtol=1e-4, atol=1e-6
        )

    def test_mlp(self):
        m = MLP(6, 12, rng=rng(1))
        check_module_gradients(m, rng(2).standard_normal((2, 3, 6)), rtol=1e-4, atol=1e-6)

    def test_transformer_block(self):
        m = TransformerBlock(8, 2, dropout=0.0, rng=rng(1))
        check_module_gradients(
            m, rng(2).standard_normal((2, 3, 8)), rtol=1e-4, atol=1e-6
        )

    def test_transformer_block_with_dropout(self):
        m = TransformerBlock(8, 2, dropout=0.2, attention_dropout=0.1, rng=rng(1))
        check_module_gradients(
            m, rng(2).standard_normal((2, 3, 8)), rng_seed=3, rtol=1e-4, atol=1e-6
        )

    def test_output_head(self):
        from repro.nn import Parameter

        tied = Parameter(rng(1).standard_normal((10, 6)))
        m = OutputHead(6, tied)
        check_module_gradients(m, rng(2).standard_normal((2, 3, 6)), rtol=1e-4, atol=1e-6)


class TestEmbeddingStage:
    def test_forward_shape(self):
        m = EmbeddingStage(16, 8, 10, rng=rng(1))
        ids = rng(2).integers(0, 16, size=(2, 5))
        y, _ = m.forward(ids)
        assert y.shape == (2, 5, 8)

    def test_rejects_long_sequence(self):
        m = EmbeddingStage(16, 8, 4, rng=rng(1))
        with pytest.raises(ValueError, match="exceeds"):
            m.forward(np.zeros((1, 5), dtype=int))

    def test_embedding_gradients(self):
        m = EmbeddingStage(16, 8, 10, rng=rng(1))
        ids = np.array([[1, 1, 2]])
        y, cache = m.forward(ids)
        m.zero_grad()
        m.backward(np.ones_like(y), cache)
        # Token 1 appears twice -> grad twice as large as token 2's.
        np.testing.assert_allclose(
            m.wte.weight.grad[1], 2 * m.wte.weight.grad[2]
        )
        assert np.all(m.wte.weight.grad[0] == 0)
        # Positions 0..2 each get batch-summed ones.
        np.testing.assert_allclose(m.wpe.weight.grad[0], np.ones(8))


class TestGPTModel:
    def make(self, **kw):
        cfg = tiny_test_model()
        return GPTModel(cfg, seed=0, **kw), cfg

    def test_forward_shapes(self):
        model, cfg = self.make()
        ids = rng(3).integers(0, cfg.vocab_size, size=(2, cfg.seq_length))
        logits, _ = model.forward(ids)
        assert logits.shape == (2, cfg.seq_length, cfg.vocab_size)

    def test_loss_decreases_under_training(self):
        from repro.nn import Adam

        model, cfg = self.make()
        opt = Adam(model.parameters(), lr=1e-2)
        ids = rng(3).integers(0, cfg.vocab_size, size=(4, cfg.seq_length))
        targets = np.roll(ids, -1, axis=1)
        losses = []
        for _ in range(15):
            model.zero_grad()
            loss, caches = model.loss(ids, targets)
            model.loss_backward(caches)
            opt.step()
            losses.append(loss)
        assert losses[-1] < losses[0] * 0.8

    def test_weight_tying(self):
        model, _ = self.make()
        assert model.head.tied is model.embedding.wte.weight
        # Tied parameter counted once.
        names = [n for n, _ in model.named_parameters()]
        assert len(model.parameters()) < len(names)

    def test_parameter_count_matches_exact_formula(self):
        model, cfg = self.make()
        # Tied head shares V*h with the embedding, so module count =
        # exact formula (which counts the tied matrix once).
        assert sum(p.size for p in model.parameters()) == (
            cfg.num_parameters_exact())

    def test_deterministic_by_seed(self):
        cfg = tiny_test_model()
        m1, m2 = GPTModel(cfg, seed=5), GPTModel(cfg, seed=5)
        for (n1, p1), (n2, p2) in zip(m1.named_parameters(), m2.named_parameters()):
            assert n1 == n2
            np.testing.assert_array_equal(p1.data, p2.data)

    def test_full_model_gradcheck(self):
        """End-to-end dloss/dlogits + backprop against finite differences
        on a few sampled parameters."""
        from repro.nn import numerical_gradient

        cfg = tiny_test_model(num_layers=1, hidden_size=8, num_attention_heads=2,
                              vocab_size=12, seq_length=4)
        model = GPTModel(cfg, seed=0)
        ids = rng(4).integers(0, cfg.vocab_size, size=(2, 4))
        targets = rng(5).integers(0, cfg.vocab_size, size=(2, 4))

        model.zero_grad()
        loss, caches = model.loss(ids, targets)
        model.loss_backward(caches)

        def loss_fn():
            val, _ = model.loss(ids, targets)
            return val

        # Check a LayerNorm and one linear weight (full check is O(P) slow).
        blk = model.blocks[0]
        num = numerical_gradient(loss_fn, blk.ln1.gamma.data)
        np.testing.assert_allclose(blk.ln1.gamma.grad, num, rtol=1e-4, atol=1e-8)
        w = blk.mlp.fc2.bias
        num = numerical_gradient(loss_fn, w.data)
        np.testing.assert_allclose(w.grad, num, rtol=1e-4, atol=1e-8)

    def test_state_dict_roundtrip(self):
        model, cfg = self.make()
        state = model.state_dict()
        m2 = GPTModel(cfg, seed=99)
        m2.load_state_dict(state)
        ids = rng(3).integers(0, cfg.vocab_size, size=(1, cfg.seq_length))
        y1, _ = model.forward(ids)
        y2, _ = m2.forward(ids)
        np.testing.assert_array_equal(y1, y2)

    def test_load_state_dict_validates(self):
        model, _ = self.make()
        state = model.state_dict()
        state.pop(next(iter(state)))
        with pytest.raises(ValueError, match="missing"):
            model.load_state_dict(state)

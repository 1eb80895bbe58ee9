"""Exactness tests for tensor model parallelism (§2.3).

The defining property: a tensor-parallel model built from the same seed
must produce bit-identical losses and (gathered) weights to the serial
model -- tensor parallelism is a reorganization of the same math, not an
approximation.
"""

import numpy as np
import pytest

from repro.comm import TrafficKind, TrafficLog
from repro.config import GPTConfig, tiny_test_model
from repro.nn import Adam, GPTModel
from repro.parallel.tensor_parallel import (
    ParallelMLP,
    TensorParallelGPT,
    TensorParallelGroup,
)

from .reference_hops import reference_records


def data(cfg, batch=2, seed=42):
    r = np.random.default_rng(seed)
    ids = r.integers(0, cfg.vocab_size, size=(batch, cfg.seq_length))
    targets = r.integers(0, cfg.vocab_size, size=(batch, cfg.seq_length))
    return ids, targets


def group(t):
    return TensorParallelGroup(ranks=list(range(t)))


def tp_loss(tp, ids, targets):
    """Whole-model forward through the vocab-parallel cross entropy."""
    logits_shards, caches = tp.forward(ids)
    loss, ce_cache = tp.head.loss(logits_shards, targets)
    return loss, caches + [ce_cache]


def tp_loss_backward(tp, caches):
    """Backward of :func:`tp_loss` through every layer."""
    dy = tp.head.loss_backward(caches[-1])
    for layer, cache in zip(reversed(tp.layers), reversed(caches[:-1])):
        dy = layer.backward(dy, cache)


class TestForwardEquivalence:
    @pytest.mark.parametrize("t", [1, 2])
    def test_inference_forward_keeps_no_cache_and_the_same_bits(self, t):
        from repro.serve.tp import TensorParallelDecoder

        cfg = tiny_test_model(num_layers=2, hidden_size=16,
                              num_attention_heads=4, vocab_size=64,
                              seq_length=8)
        ids, _ = data(cfg)
        decoder = TensorParallelDecoder(cfg, world=t)
        logits, caches = decoder.forward(ids, training=False)
        assert caches == []
        assert np.array_equal(logits, decoder.forward(ids, training=True)[0])

    @pytest.mark.parametrize("t", [1, 2, 4])
    def test_loss_matches_serial(self, t):
        cfg = tiny_test_model(num_layers=2, hidden_size=16, num_attention_heads=4,
                              vocab_size=64, seq_length=8)
        ids, targets = data(cfg)
        serial = GPTModel(cfg, seed=0)
        loss_s, _ = serial.loss(ids, targets)
        tp = TensorParallelGPT(cfg, group(t), seed=0)
        loss_t, _ = tp_loss(tp, ids, targets)
        assert loss_t == pytest.approx(loss_s, rel=1e-12)

    def test_logits_match_serial(self):
        cfg = tiny_test_model()
        ids, _ = data(cfg)
        serial = GPTModel(cfg, seed=0)
        logits_s, _ = serial.forward(ids)
        tp = TensorParallelGPT(cfg, group(4), seed=0)
        shards, _ = tp.forward(ids)
        logits_t = np.concatenate(shards, axis=-1)
        np.testing.assert_allclose(logits_t, logits_s, rtol=1e-10, atol=1e-12)


class TestTrainingEquivalence:
    @pytest.mark.parametrize("t", [2, 4])
    def test_adam_training_matches_serial(self, t):
        """K Adam steps of TP training == K steps of serial training,
        compared on the gathered full weights (strict semantics)."""
        cfg = tiny_test_model(num_layers=2, hidden_size=16, num_attention_heads=4,
                              vocab_size=32, seq_length=8)
        serial = GPTModel(cfg, seed=0)
        tp = TensorParallelGPT(cfg, group(t), seed=0)
        opt_s = Adam(serial.parameters(), lr=1e-2)
        opt_t = Adam(tp.parameters(), lr=1e-2)
        losses_s, losses_t = [], []
        for step in range(4):
            ids, targets = data(cfg, seed=100 + step)
            serial.zero_grad()
            ls, cs = serial.loss(ids, targets)
            serial.loss_backward(cs)
            opt_s.step()
            losses_s.append(ls)

            tp.zero_grad()
            lt, ct = tp_loss(tp, ids, targets)
            tp_loss_backward(tp, ct)
            opt_t.step()
            losses_t.append(lt)
        np.testing.assert_allclose(losses_t, losses_s, rtol=1e-10)
        gathered = tp.gather_state_dict()
        serial_state = serial.state_dict()
        for name, value in gathered.items():
            np.testing.assert_allclose(
                value, serial_state[name], rtol=1e-9, atol=1e-11,
                err_msg=name,
            )

    def test_gradients_match_serial(self):
        cfg = tiny_test_model(num_layers=1, hidden_size=16, num_attention_heads=4,
                              vocab_size=32, seq_length=8)
        serial = GPTModel(cfg, seed=0)
        tp = TensorParallelGPT(cfg, group(2), seed=0)
        ids, targets = data(cfg)
        serial.zero_grad()
        _, cs = serial.loss(ids, targets)
        serial.loss_backward(cs)
        tp.zero_grad()
        _, ct = tp_loss(tp, ids, targets)
        tp_loss_backward(tp, ct)
        # MLP fc1 weight grads: concat of shard grads == serial grad.
        got = np.concatenate(
            [p.grad for p in tp.blocks[0].mlp.fc1.weight_shards], axis=1
        )
        want = serial.blocks[0].mlp.fc1.weight.grad
        np.testing.assert_allclose(got, want, rtol=1e-9, atol=1e-12)
        # Tied embedding grads (lookup + head uses) match.
        got_emb = np.concatenate(
            [p.grad for p in tp.embedding.wte_shards], axis=0
        )
        want_emb = serial.embedding.wte.weight.grad
        np.testing.assert_allclose(got_emb, want_emb, rtol=1e-9, atol=1e-12)


class TestCommunicationVolume:
    def test_two_allreduces_per_layer_per_direction(self):
        """§2.3: exactly two all-reduces in forward (MLP g + attention g)
        and two in backward (two f's) per transformer layer."""
        cfg = tiny_test_model(num_layers=3, hidden_size=16, num_attention_heads=4,
                              vocab_size=32, seq_length=8)
        g = group(2)
        tp = TensorParallelGPT(cfg, g, seed=0)
        ids, targets = data(cfg)
        _, caches = tp_loss(tp, ids, targets)
        fwd_tags = [r.tag for r in g.log.records]
        assert fwd_tags.count("mlp.g") / _ring_steps(2) == 3
        assert fwd_tags.count("attn.g") / _ring_steps(2) == 3
        n_fwd = len(g.log.records)
        tp_loss_backward(tp, caches)
        bwd_tags = [r.tag for r in g.log.records[n_fwd:]]
        assert bwd_tags.count("mlp.f") / _ring_steps(2) == 3
        assert bwd_tags.count("attn.f") / _ring_steps(2) == 3

    def test_tp_bytes_match_paper_formula(self):
        """§3.2: TP all-reduces tensors of total size bsh twice each in
        fwd and bwd per layer -> ring volume 8 b s h (t-1)/t elements
        per device per layer (we count bytes at fp64 = 8 B/elem)."""
        cfg = tiny_test_model(num_layers=1, hidden_size=16, num_attention_heads=4,
                              vocab_size=32, seq_length=8)
        t = 4
        g = group(t)
        tp = TensorParallelGPT(cfg, g, seed=0)
        ids, targets = data(cfg, batch=2)
        _, caches = tp_loss(tp, ids, targets)
        tp_loss_backward(tp, caches)
        layer_bytes = sum(
            r.nbytes
            for r in g.log.records
            if r.tag in ("mlp.g", "attn.g", "mlp.f", "attn.f") and r.src == 0
        )
        b, s, h = 2, cfg.seq_length, cfg.hidden_size
        expected_elems = 8 * b * s * h * (t - 1) / t
        assert layer_bytes == pytest.approx(expected_elems * 8, rel=0.01)

    def test_ce_scalar_all_reduces_log_the_ring_they_run(self):
        """Each of the cross entropy's three scalar all-reduces logs the
        ring all-reduce of one float64 per token: at t = 3 over 16
        tokens, the per-hop loops' 12 hops and 512 bytes."""
        cfg = GPTConfig(1, 12, 3, vocab_size=48, seq_length=16)
        g = group(3)
        tp = TensorParallelGPT(cfg, g, seed=0)
        tp_loss(tp, *data(cfg, batch=1))
        records = [(r.src, r.dst, r.nbytes, r.kind, r.tag)
                   for r in g.log.records]
        for tag in ("ce.max", "ce.sumexp", "ce.target"):
            want = reference_records("all_reduce", [np.zeros(16)] * 3,
                                     g.ranks, TrafficKind.TENSOR_PARALLEL,
                                     tag)
            assert [r for r in records if r[4] == tag] == want
            assert g.log.by_tag()[tag] == 512

    def test_vocab_parallel_ce_avoids_logit_gather(self):
        """The CE loss communicates O(tokens) scalars, not O(tokens*V)."""
        cfg = tiny_test_model(vocab_size=64, seq_length=8)
        g = group(4)
        tp = TensorParallelGPT(cfg, g, seed=0)
        ids, targets = data(cfg, batch=2)
        tp_loss(tp, ids, targets)
        ce_bytes = sum(r.nbytes for r in g.log.records if r.tag.startswith("ce."))
        n_tok = 2 * cfg.seq_length
        full_gather_bytes = n_tok * cfg.vocab_size * 8
        assert 0 < ce_bytes < full_gather_bytes / 2


class TestShardValidation:
    def test_rejects_indivisible_heads(self):
        cfg = tiny_test_model(num_attention_heads=4)
        with pytest.raises(ValueError, match="divisible"):
            TensorParallelGPT(cfg, group(8), seed=0)

    def test_parallel_mlp_standalone(self):
        from repro.nn import MLP

        serial = MLP(8, 32, rng=np.random.default_rng(1))
        pm = ParallelMLP(8, 32, group(4))
        pm.load_gathered_state_dict(serial.state_dict())
        x = np.random.default_rng(2).standard_normal((2, 3, 8))
        y_s, c_s = serial.forward(x)
        y_p, c_p = pm.forward(x)
        np.testing.assert_allclose(y_p, y_s, rtol=1e-10, atol=1e-13)
        dy = np.random.default_rng(3).standard_normal(y_s.shape)
        dx_s = serial.backward(dy, c_s)
        dx_p = pm.backward(dy, c_p)
        np.testing.assert_allclose(dx_p, dx_s, rtol=1e-10, atol=1e-13)


def _ring_steps(t):
    """Transfers logged per all-reduce in a t-rank ring: 2(t-1) steps x
    t ranks sending simultaneously."""
    return 2 * (t - 1) * t

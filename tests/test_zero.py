"""Tests for the ZeRO-3 baseline (§5.2).

ZeRO-3 must be numerically identical to vanilla data parallelism (and
therefore to serial training), while moving 1.5x the bytes per rank
(3 (d-1)/d P vs 2 (d-1)/d P).
"""

import numpy as np
import pytest

from repro.comm import TrafficKind, TrafficLog
from repro.config import tiny_test_model
from repro.nn import Adam, GPTModel
from repro.parallel import Zero3Engine, ZeroShardedParameter

CFG = tiny_test_model(num_layers=2, hidden_size=16, num_attention_heads=4,
                      vocab_size=32, seq_length=8)


def batch(B, seed=3):
    r = np.random.default_rng(seed)
    return (
        r.integers(0, CFG.vocab_size, size=(B, CFG.seq_length)),
        r.integers(0, CFG.vocab_size, size=(B, CFG.seq_length)),
    )


def train_zero3(d, steps=3, B=4, lr=1e-2, log=None):
    """ZeRO-3 training: one canonical model, d-sharded params/optimizer."""
    model = GPTModel(CFG, seed=0)
    params = model.parameters()
    engine = Zero3Engine(params, d, lr=lr, log=log)
    ids, targets = batch(B)
    shard_ids = np.split(ids, d)
    shard_tgts = np.split(targets, d)
    losses = []
    for _ in range(steps):
        engine.gather_params("fwd")
        replica_grads = []
        step_losses = []
        for r in range(d):
            model.zero_grad()
            engine.gather_params("bwd")  # ZeRO-3 regathers for backward
            loss, caches = model.loss(shard_ids[r], shard_tgts[r])
            model.loss_backward(caches)
            replica_grads.append([p.grad.copy() for p in params])
            step_losses.append(loss)
        engine.reduce_and_step(replica_grads)
        losses.append(float(np.mean(step_losses)))
    engine.gather_params("final")
    return model, losses


def train_serial(steps=3, B=4, lr=1e-2):
    model = GPTModel(CFG, seed=0)
    opt = Adam(model.parameters(), lr=lr)
    ids, targets = batch(B)
    losses = []
    for _ in range(steps):
        model.zero_grad()
        loss, caches = model.loss(ids, targets)
        model.loss_backward(caches)
        opt.step()
        losses.append(loss)
    return model, losses


class TestZero3Numerics:
    @pytest.mark.parametrize("d", [1, 2, 4])
    def test_matches_serial(self, d):
        m_z, losses_z = train_zero3(d)
        m_s, losses_s = train_serial()
        np.testing.assert_allclose(losses_z, losses_s, rtol=1e-9)
        for (n1, p1), (n2, p2) in zip(
            m_z.named_parameters(), m_s.named_parameters()
        ):
            assert n1 == n2
            np.testing.assert_allclose(p1.data, p2.data, rtol=1e-8,
                                       atol=1e-11, err_msg=n1)

    def test_sharding_roundtrip(self):
        from repro.nn.module import Parameter

        p = Parameter(np.arange(10, dtype=float).reshape(2, 5))
        sp = ZeroShardedParameter(p, 4)  # 10 -> padded 12, shard 3
        assert sp.shard_size == 3
        p.data.fill(0)
        sp.gather([0, 1, 2, 3], None, "t")
        np.testing.assert_array_equal(p.data, np.arange(10).reshape(2, 5))

    def test_shard_update_propagates(self):
        """Mutating a shard then gathering reflects the change."""
        from repro.nn.module import Parameter

        p = Parameter(np.zeros(8))
        sp = ZeroShardedParameter(p, 2)
        sp.shards[1][...] = 5.0
        sp.gather([0, 1], None, "t")
        np.testing.assert_array_equal(p.data[4:], 5.0)

    def test_reduce_scatter_grads_average(self):
        from repro.nn.module import Parameter

        p = Parameter(np.zeros(4))
        sp = ZeroShardedParameter(p, 2)
        g0, g1 = np.ones(4), 3 * np.ones(4)
        shards = sp.reduce_scatter_grads([g0, g1], [0, 1], None)
        np.testing.assert_allclose(shards[0], [2.0, 2.0])
        np.testing.assert_allclose(shards[1], [2.0, 2.0])


class TestZero3Communication:
    def test_logged_traffic_matches_formula(self):
        log = TrafficLog()
        d, steps = 2, 1
        train_zero3(d, steps=steps, log=log)
        got = log.total_bytes(TrafficKind.DATA_PARALLEL)
        # Per iteration: gather(fwd) + d x gather(bwd) + reduce-scatter,
        # plus the final gather; each gather moves (d-1)/d P per rank
        # (x d ranks), float64.
        P = sum(sp.padded_size for sp in Zero3Engine(
            GPTModel(CFG, seed=0).parameters(), d).sharded)
        per_gather = (d - 1) / d * P * 8 * d
        gathers = 1 + d * steps + 1  # fwd + per-replica bwd + final
        rs = steps * (d - 1) / d * P * 8 * d
        assert got == pytest.approx(per_gather * gathers + rs, rel=0.02)

    def test_engine_validation(self):
        from repro.nn.module import Parameter

        with pytest.raises(ValueError):
            Zero3Engine([Parameter(np.zeros(4))], 0)
        with pytest.raises(ValueError):
            Zero3Engine([Parameter(np.zeros(4))], 2, ranks=[0])
        eng = Zero3Engine([Parameter(np.zeros(4))], 2)
        with pytest.raises(ValueError, match="replicas"):
            eng.reduce_and_step([[np.zeros(4)]])

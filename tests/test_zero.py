"""Tests for the ZeRO-3 baseline (§5.2): ``PTDTrainer(zero_stage=3)``.

ZeRO-3 must be numerically identical to vanilla data parallelism (and
therefore to serial training), while moving 1.5x the bytes: a ring
reduce-scatter and two parameter all-gathers, 3 (d-1) * 8 * P bytes a
step over the group, against the all-reduce's 2 (d-1) * 8 * P.
"""

import numpy as np
import pytest

from repro.comm import TrafficKind, TrafficLog
from repro.config import ParallelConfig, tiny_test_model
from repro.nn import Adam, GPTModel
from repro.parallel import PTDTrainer

CFG = tiny_test_model(num_layers=2, hidden_size=16, num_attention_heads=4,
                      vocab_size=32, seq_length=8)


def batch(B, seed=3):
    r = np.random.default_rng(seed)
    return (
        r.integers(0, CFG.vocab_size, size=(B, CFG.seq_length)),
        r.integers(0, CFG.vocab_size, size=(B, CFG.seq_length)),
    )


def zero3_trainer(d, B, log=None, zero_stage=3, **options):
    return PTDTrainer(
        CFG,
        ParallelConfig(data_parallel_size=d, microbatch_size=B // d,
                       global_batch_size=B),
        seed=0, lr=1e-2, zero_stage=zero_stage, log=log, **options,
    )


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
        with zero3_trainer(d, 4) as trainer:
            losses_z = [trainer.train_step(*batch(4)) for _ in range(3)]
            state = trainer.gather_state_dict()
        m_s, losses_s = train_serial()
        np.testing.assert_allclose(losses_z, losses_s, rtol=1e-9)
        serial = m_s.state_dict()
        assert set(state) == set(serial) - {"head.tied"}  # the head is tied
        for name, got in state.items():
            np.testing.assert_allclose(got, serial[name], rtol=1e-8,
                                       atol=1e-11, err_msg=name)

    def test_values_are_stage_1s(self):
        """The extra gather moves bytes every replica already holds."""
        runs = []
        for stage in (1, 3):
            with zero3_trainer(2, 4, zero_stage=stage) as trainer:
                losses = [trainer.train_step(*batch(4)) for _ in range(2)]
                runs.append((losses, trainer.gather_state_dict()))
        (l1, s1), (l3, s3) = runs
        assert l1 == l3
        assert all(np.array_equal(s1[k], s3[k]) for k in s1)

    def test_mp_is_bit_identical_to_coop(self):
        """d = 3 on real processes, with clipping and loss scaling."""
        runs = []
        for backend in ("coop", "mp"):
            log = TrafficLog()
            with zero3_trainer(3, 6, log=log, backend=backend,
                               grad_clip_norm=0.05,
                               loss_scale=128.0) as trainer:
                losses = [trainer.train_step(*batch(6)) for _ in range(2)]
                state = trainer.gather_state_dict()
                moments = [a.copy() for opt in trainer.optimizers
                           for a in opt._m + opt._v]
            runs.append((losses, state, moments, log.records))
        (lc, sc, mc, rc), (lm, sm, mm, rm) = runs
        assert lc == lm
        assert all(np.array_equal(sc[k], sm[k]) for k in sc)
        assert all(np.array_equal(a, b) for a, b in zip(mc, mm))
        assert rc == rm


class TestZero3Communication:
    def test_logged_traffic_matches_formula(self):
        """Exactly 3 (d-1) * 8 * P bytes a step, P unpadded: the
        reduce-scatter, the post-update gather and ZeRO-3's own gather
        (tag ``dp.zero3``) each move (d-1) * 8 * P."""
        steps = 2
        for d in (2, 3, 4):
            log = TrafficLog()
            with zero3_trainer(d, d, log=log) as trainer:
                for _ in range(steps):
                    trainer.train_step(*batch(d))
                P = sum(p.size for p in trainer.replicas[0].parameters())
            assert log.total_bytes(TrafficKind.DATA_PARALLEL) == (
                steps * 3 * (d - 1) * 8 * P), d
            zero3 = log.by_tag(TrafficKind.DATA_PARALLEL)["dp.zero3"]
            assert zero3 == steps * (d - 1) * 8 * P, d

    def test_engine_validation(self):
        parallel = ParallelConfig(data_parallel_size=2, microbatch_size=1,
                                  global_batch_size=2)
        for stage in (0, 2, 4):
            with pytest.raises(ValueError, match="zero_stage"):
                PTDTrainer(CFG, parallel, zero_stage=stage)

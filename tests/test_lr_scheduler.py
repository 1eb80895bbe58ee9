"""Tests for the learning-rate schedule."""

import pytest

from repro.nn import Adam
from repro.nn.lr_scheduler import WarmupCosineSchedule
from repro.nn.module import Parameter

import numpy as np


def opt():
    return Adam([Parameter(np.zeros(2))], lr=1.0)


class TestWarmupCosine:
    def test_warmup_ramps_linearly(self):
        o = opt()
        s = WarmupCosineSchedule(o, max_lr=1.0, warmup_iters=10, decay_iters=100)
        assert o.lr == pytest.approx(0.1)  # iteration 0 -> (0+1)/10
        lrs = [s.step() for _ in range(9)]
        assert lrs[-1] == pytest.approx(1.0)
        assert all(b > a for a, b in zip(lrs, lrs[1:]))

    def test_cosine_decays_to_min(self):
        o = opt()
        s = WarmupCosineSchedule(
            o, max_lr=1.0, warmup_iters=0, decay_iters=50, min_lr=0.1
        )
        for _ in range(60):
            s.step()
        assert o.lr == pytest.approx(0.1)

    def test_midpoint_is_halfway(self):
        s = WarmupCosineSchedule(
            opt(), max_lr=1.0, warmup_iters=0, decay_iters=100, min_lr=0.0
        )
        assert s.lr_at(50) == pytest.approx(0.5)

    def test_monotone_decay_after_warmup(self):
        s = WarmupCosineSchedule(
            opt(), max_lr=1.0, warmup_iters=5, decay_iters=50
        )
        lrs = [s.lr_at(i) for i in range(5, 51)]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            WarmupCosineSchedule(opt(), max_lr=0, warmup_iters=0, decay_iters=1)
        with pytest.raises(ValueError):
            WarmupCosineSchedule(opt(), max_lr=1, warmup_iters=5, decay_iters=2)
        with pytest.raises(ValueError):
            WarmupCosineSchedule(opt(), max_lr=1, warmup_iters=0,
                                 decay_iters=10, min_lr=2)


class TestIntegration:
    def test_schedule_drives_trainer(self):
        """Scheduler + PTDTrainer: lr visibly changes across steps."""
        from repro.config import ParallelConfig, tiny_test_model
        from repro.parallel import PTDTrainer

        cfg = tiny_test_model()
        trainer = PTDTrainer(
            cfg, ParallelConfig(microbatch_size=1, global_batch_size=4),
            seed=0, lr=1.0,
        )
        sched = [
            WarmupCosineSchedule(o, max_lr=1e-2, warmup_iters=2, decay_iters=10)
            for o in trainer.optimizers
        ]
        r = np.random.default_rng(0)
        ids = r.integers(0, cfg.vocab_size, size=(4, cfg.seq_length))
        seen = []
        for _ in range(4):
            trainer.train_step(ids, np.roll(ids, -1, axis=1))
            for s in sched:
                lr = s.step()
            seen.append(lr)
        assert seen[0] != seen[-1]
        assert trainer.optimizers[0].lr == seen[-1]

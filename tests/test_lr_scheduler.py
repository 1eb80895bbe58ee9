"""Tests for the learning-rate schedule: a frozen value, read by every
optimizer at its own step count, on every backend."""

import dataclasses

import numpy as np
import pytest

from repro.config import ParallelConfig, tiny_test_model
from repro.nn.lr_scheduler import WarmupCosineSchedule, lr_at
from repro.parallel import PTDTrainer
from repro.parallel.checkpoint import load_checkpoint, save_checkpoint

CFG = tiny_test_model(num_layers=2, hidden_size=16, num_attention_heads=4,
                      vocab_size=32, seq_length=8)
WARMUP = WarmupCosineSchedule(max_lr=1e-2, warmup_iters=4, decay_iters=10)


def make_trainer(d, lr, backend="coop", **options):
    return PTDTrainer(
        CFG,
        ParallelConfig(data_parallel_size=d, microbatch_size=1,
                       global_batch_size=2 * d),
        seed=0, lr=lr, backend=backend, **options,
    )


def batch(d, step):
    r = np.random.default_rng(step)
    ids = r.integers(0, CFG.vocab_size, size=(2 * d, CFG.seq_length))
    return ids, np.roll(ids, -1, axis=1)


def run(trainer, steps, start=0):
    return [trainer.train_step(*batch(trainer.parallel.d, i))
            for i in range(start, start + steps)]


def final_state(trainer):
    trainer.sync_from_workers()
    return (trainer.gather_state_dict(),
            [(opt.step_count, [a.copy() for a in opt._m + opt._v])
             for opt in trainer.optimizers])


def assert_same_state(a, b):
    (params_a, opts_a), (params_b, opts_b) = a, b
    assert all(np.array_equal(params_a[k], params_b[k]) for k in params_a)
    for (count_a, moments_a), (count_b, moments_b) in zip(opts_a, opts_b):
        assert count_a == count_b
        assert all(np.array_equal(x, y) for x, y in zip(moments_a, moments_b))


class TestWarmupCosine:
    def test_warmup_ramps_linearly(self):
        s = WarmupCosineSchedule(max_lr=1.0, warmup_iters=10, decay_iters=100)
        assert s.lr_at(0) == pytest.approx(0.1)  # iteration 0 -> (0+1)/10
        lrs = [s.lr_at(i) for i in range(1, 10)]
        assert lrs[-1] == pytest.approx(1.0)
        assert all(b > a for a, b in zip(lrs, lrs[1:]))

    def test_cosine_decays_to_min(self):
        s = WarmupCosineSchedule(
            max_lr=1.0, warmup_iters=0, decay_iters=50, min_lr=0.1
        )
        assert s.lr_at(60) == pytest.approx(0.1)

    def test_midpoint_is_halfway(self):
        s = WarmupCosineSchedule(
            max_lr=1.0, warmup_iters=0, decay_iters=100, min_lr=0.0
        )
        assert s.lr_at(50) == pytest.approx(0.5)

    def test_monotone_decay_after_warmup(self):
        s = WarmupCosineSchedule(max_lr=1.0, warmup_iters=5, decay_iters=50)
        lrs = [s.lr_at(i) for i in range(5, 51)]
        assert all(b <= a for a, b in zip(lrs, lrs[1:]))

    def test_validation(self):
        with pytest.raises(ValueError):
            WarmupCosineSchedule(max_lr=0, warmup_iters=0, decay_iters=1)
        with pytest.raises(ValueError):
            WarmupCosineSchedule(max_lr=1, warmup_iters=5, decay_iters=2)
        with pytest.raises(ValueError):
            WarmupCosineSchedule(max_lr=1, warmup_iters=0, decay_iters=10,
                                 min_lr=2)

    def test_is_a_frozen_value(self):
        with pytest.raises(dataclasses.FrozenInstanceError):
            WARMUP.max_lr = 1.0
        assert WARMUP == dataclasses.replace(WARMUP)
        assert lr_at(0.5, 7) == 0.5  # a float is the constant schedule


class StepRate:
    """``first`` for step 1, ``rest`` after: the probe's rate."""

    def __init__(self, first, rest):
        self.first, self.rest = first, rest

    def lr_at(self, step):
        return self.first if step == 0 else self.rest


class TestIntegration:
    def test_schedule_drives_trainer(self):
        """The schedule given to the trainer sets the rate of every step,
        on both backends: the same run as the rate written by hand
        before each step."""
        for backend in ("coop", "mp"):
            with make_trainer(2, WARMUP, backend) as trainer:
                run(trainer, 5)
                scheduled = final_state(trainer)
            with make_trainer(2, 1.0, backend) as trainer:
                for step in range(5):
                    for opt in trainer.optimizers:
                        opt.lr = WARMUP.lr_at(step)
                    run(trainer, 1, start=step)
                written = final_state(trainer)
            assert_same_state(scheduled, written)
        assert WARMUP.lr_at(0) != WARMUP.lr_at(4)

    def test_a_rate_change_acts_the_same_on_both_backends(self):
        """The probe: d = 2, the rate set to 0.5 after step 1, by a
        schedule and by a write to ``trainer.optimizers[i].lr``; mp
        workers that kept their own rate would miss the write."""
        runs = {}
        for how in ("schedule", "write"):
            for backend in ("coop", "mp"):
                lr = StepRate(1e-2, 0.5) if how == "schedule" else 1e-2
                with make_trainer(2, lr, backend) as trainer:
                    losses = run(trainer, 1)
                    if how == "write":
                        for opt in trainer.optimizers:
                            opt.lr = 0.5
                    losses += run(trainer, 3, start=1)
                    runs[how, backend] = losses, final_state(trainer)
        for how in ("schedule", "write"):
            (coop_losses, coop), (mp_losses, mp) = (
                runs[how, "coop"], runs[how, "mp"])
            assert coop_losses == mp_losses, how
            assert_same_state(coop, mp)
        assert runs["schedule", "coop"][0] == runs["write", "coop"][0]

    @pytest.mark.parametrize("name,value", [
        ("betas", (0.5, 0.9)), ("eps", 1e-3), ("weight_decay", 0.1),
    ])
    def test_a_hyperparameter_written_on_a_parent_reaches_its_worker(
            self, name, value):
        """Like the rate, ``betas``, ``eps`` and ``weight_decay`` written
        on ``trainer.optimizers[1]`` after step 1 act on step 2 the same
        on both backends: its worker steps with them too."""
        runs = {}
        for backend in ("coop", "mp", "unwritten"):
            with make_trainer(2, 1e-2, backend.replace("unwritten", "coop")
                              ) as trainer:
                losses = run(trainer, 1)
                if backend != "unwritten":
                    setattr(trainer.optimizers[1], name, value)
                losses += run(trainer, 1, start=1)
                runs[backend] = losses, final_state(trainer)
        assert runs["coop"][0] == runs["mp"][0]
        assert_same_state(runs["coop"][1], runs["mp"][1])
        params, _ = runs["coop"][1]
        assert any(not np.array_equal(params[k], runs["unwritten"][1][0][k])
                   for k in params)

    @pytest.mark.parametrize("backend", ["coop", "mp"])
    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_resume_mid_warmup_is_bit_identical(self, d, backend, tmp_path):
        """The checkpoint's step count fixes the rate: a restore at step 2
        of a 4-step warmup continues as the uninterrupted run does."""
        with make_trainer(d, WARMUP, backend) as trainer:
            run(trainer, 2)
            save_checkpoint(trainer, str(tmp_path / "ckpt"))
            reference = run(trainer, 3, start=2)
            uninterrupted = final_state(trainer)
        with make_trainer(d, WARMUP, backend) as trainer:
            assert load_checkpoint(trainer, str(tmp_path / "ckpt"))
            assert run(trainer, 3, start=2) == reference
            assert_same_state(final_state(trainer), uninterrupted)

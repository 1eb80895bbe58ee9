"""Convergence integration tests: the full stack actually learns.

Trains a small GPT on the structured synthetic corpus through the
complete production path (tokenizer-shaped data, sharded loader, PTD-P
engine, LR schedule, clipping) and checks the loss approaches the
corpus's learnable structure -- plus that every parallelization learns
*identically* (the strict-semantics property at trajectory scale).
"""

import numpy as np
import pytest

from repro.config import GPTConfig, ParallelConfig
from repro.data import ShardedBatchLoader, TokenDataset, synthetic_corpus
from repro.nn import GPTModel
from repro.nn.lr_scheduler import WarmupCosineSchedule
from repro.parallel import PTDTrainer

CFG = GPTConfig(num_layers=4, hidden_size=32, num_attention_heads=4,
                vocab_size=64, seq_length=16, name="GPT-conv")


def make_batches(n_batches=12, B=8, seed=1):
    tokens = synthetic_corpus(B * 16 * n_batches + 1, CFG.vocab_size,
                              seed=seed, repeat_prob=0.5)
    loader = ShardedBatchLoader(
        TokenDataset(tokens, CFG.seq_length), global_batch_size=B, seed=0
    )
    return list(loader)


def train_losses(p, t, d, batches, steps=24, v=1, backend="coop"):
    with PTDTrainer(
        CFG,
        ParallelConfig(
            pipeline_parallel_size=p, tensor_parallel_size=t,
            data_parallel_size=d, microbatch_size=1, global_batch_size=8,
            num_model_chunks=v,
        ),
        schedule="interleaved" if v > 1 else "1f1b",
        seed=0, grad_clip_norm=1.0, backend=backend,
        lr=WarmupCosineSchedule(max_lr=5e-3, warmup_iters=3,
                                decay_iters=steps),
    ) as trainer:
        return [trainer.train_step(*batches[i % len(batches)])
                for i in range(steps)]


class TestConvergence:
    def test_loss_drops_meaningfully(self):
        batches = make_batches()
        losses = train_losses(1, 1, 1, batches)
        # Random-guess CE is log(64) ~ 4.16; structure should pull the
        # loss well below it.
        assert losses[0] > 3.8
        assert min(losses) < losses[0] - 0.5

    @pytest.mark.slow
    def test_all_parallelizations_follow_identical_trajectory(self):
        batches = make_batches()
        reference = train_losses(1, 1, 1, batches, steps=10)
        for p, t, d, v in ((2, 1, 1, 1), (1, 2, 1, 1), (2, 2, 2, 1),
                           (2, 1, 1, 2)):
            got = train_losses(p, t, d, batches, steps=10, v=v)
            np.testing.assert_allclose(got, reference, rtol=1e-9)

    def test_scheduled_trajectory_on_real_processes_equals_coop(self):
        """The schedule reaches the mp replica workers: their trajectory
        is the coop oracle's, bit for bit."""
        batches = make_batches()
        coop = train_losses(1, 1, 2, batches, steps=8)
        assert train_losses(1, 1, 2, batches, steps=8, backend="mp") == coop

    def test_validation_loss_improves(self):
        """Train/val split: the model generalizes to held-out slices of
        the same distribution (it learns structure, not samples)."""
        batches = make_batches(n_batches=14)
        train, val = batches[:12], batches[12:]
        trainer = PTDTrainer(
            CFG, ParallelConfig(microbatch_size=1, global_batch_size=8),
            seed=0, lr=5e-3,
        )
        def val_loss():
            """Held-out loss of the trainer's current weights."""
            model = GPTModel(CFG)
            params = dict(model.named_parameters())
            for name, value in trainer.gather_state_dict().items():
                params[name].data[...] = value  # the head is tied
            return np.mean([model.loss(i, t, training=False)[0]
                            for i, t in val])

        before = val_loss()
        for i in range(24):
            ids, targets = train[i % len(train)]
            trainer.train_step(ids, targets)
        after = val_loss()
        assert after < before - 0.3

"""End-to-end training run: data pipeline, LR schedule, checkpoint, resume.

Exercises the full production path on a small GPT:

1. build a synthetic corpus and a deterministic sharded batch loader,
2. train with PTD-P (p=2, t=2, d=2), warmup+cosine LR and gradient
   clipping,
3. checkpoint mid-run, "crash", rebuild everything, resume from the
   checkpoint, and verify the resumed trajectory is bit-identical to an
   uninterrupted run.  The rate is a function of the optimizer's step
   count, which the checkpoint restores, so the schedule resumes too.

Run:  python examples/end_to_end_training.py
"""

import shutil
import tempfile

import numpy as np

from repro import GPTConfig, ParallelConfig, PTDTrainer
from repro.data import ShardedBatchLoader, TokenDataset, synthetic_corpus
from repro.nn.lr_scheduler import WarmupCosineSchedule
from repro.parallel.checkpoint import load_checkpoint, save_checkpoint


SCHEDULE = WarmupCosineSchedule(max_lr=3e-3, warmup_iters=4, decay_iters=40)


def make_trainer(model, parallel):
    return PTDTrainer(model, parallel, seed=0, lr=SCHEDULE,
                      grad_clip_norm=1.0)


def train(trainer, batches, steps, start_batch=0):
    losses = []
    for i in range(start_batch, start_batch + steps):
        ids, targets = batches[i % len(batches)]
        loss = trainer.train_step(ids, targets)
        losses.append(loss)
        # the rate the next step will apply
        lr = SCHEDULE.lr_at(trainer.iteration)
        print(f"  step {trainer.iteration:>3}  loss {loss:.4f}  lr {lr:.2e}  "
              f"grad-norm {trainer.last_grad_norm or 0:.3f}")
    return losses


def main() -> None:
    model = GPTConfig(num_layers=4, hidden_size=32, num_attention_heads=4,
                      vocab_size=64, seq_length=16, name="GPT-e2e")
    parallel = ParallelConfig(
        pipeline_parallel_size=2, tensor_parallel_size=2,
        data_parallel_size=2, microbatch_size=1, global_batch_size=8,
    )
    tokens = synthetic_corpus(8 * 16 * 40 + 1, model.vocab_size, seed=1)
    loader = ShardedBatchLoader(
        TokenDataset(tokens, model.seq_length), global_batch_size=8, seed=0,
    )
    # Materialize one epoch: the loader advances its epoch (and shuffle)
    # each time it is iterated, so both runs must see the same batches.
    batches = list(loader)

    ckpt_dir = tempfile.mkdtemp(prefix="repro-ckpt-")
    try:
        print("phase 1: train 6 steps, checkpoint, train 4 more")
        trainer = make_trainer(model, parallel)
        train(trainer, batches, steps=6)
        save_checkpoint(trainer, ckpt_dir)
        reference = train(trainer, batches, steps=4, start_batch=6)

        print("\nphase 2: 'crash', rebuild, resume from the checkpoint")
        trainer2 = make_trainer(model, parallel)
        restored = load_checkpoint(trainer2, ckpt_dir)
        print(f"  optimizer state restored: {restored}, "
              f"iteration: {trainer2.iteration}")
        resumed = train(trainer2, batches, steps=4, start_batch=6)

        exact = all(a == b for a, b in zip(reference, resumed))
        print(f"\nresumed losses identical to uninterrupted run: {exact}")
        assert exact
        print("checkpoint/resume is bit-exact. ✓")
    finally:
        shutil.rmtree(ckpt_dir, ignore_errors=True)


if __name__ == "__main__":
    main()

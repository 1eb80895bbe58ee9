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
"""

import os
import shutil
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


def _median_save(trainer, *, atomic, repeats=9):
    times = []
    for _ in range(repeats):
        root = tempfile.mkdtemp(prefix="bench-chaos-")
        try:
            t0 = time.perf_counter()
            cp.save_checkpoint(trainer, os.path.join(root, "ckpt"),
                               atomic=atomic)
            times.append(time.perf_counter() - t0)
        finally:
            shutil.rmtree(root)
    times.sort()
    return times[len(times) // 2]


def test_commit_protocol_overhead(capsys, monkeypatch):
    """Staging + checksums + rename vs the legacy in-place writer."""
    trainer = _trainer()
    legacy = _median_save(trainer, atomic=False)

    # The protocol alone: durability fsyncs disabled so both writers
    # leave the data in the page cache and the diff is pure protocol.
    monkeypatch.setattr(cp, "_fsync_file", lambda path: None)
    monkeypatch.setattr(cp, "_fsync_dir", lambda path: None)
    protocol = _median_save(trainer, atomic=True)
    monkeypatch.undo()
    durable = _median_save(trainer, atomic=True)

    def run():
        root = tempfile.mkdtemp(prefix="bench-chaos-")
        try:
            return cp.save_checkpoint(trainer, os.path.join(root, "ckpt"))
        finally:
            shutil.rmtree(root)

    meta = run()
    assert meta["format_version"] == cp.FORMAT_VERSION

    protocol_overhead = protocol / legacy - 1.0
    durable_overhead = durable / legacy - 1.0
    with capsys.disabled():
        print()
        print(f"legacy writer            {legacy * 1e3:7.1f} ms")
        print(f"atomic, fsyncs disabled  {protocol * 1e3:7.1f} ms  "
              f"({100 * protocol_overhead:+.1f}% = commit protocol)")
        print(f"atomic, durable          {durable * 1e3:7.1f} ms  "
              f"({100 * durable_overhead:+.1f}% = protocol + fsyncs)")
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

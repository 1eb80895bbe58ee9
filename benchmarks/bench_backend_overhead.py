"""The backend abstraction must be (near) free, and the mp backend
must actually buy parallel speed where there are cores to spend.

Three guards on the ``repro.comm.backend`` seam from ISSUE 7:

- routing a collective through :class:`~repro.comm.backend.CoopBackend`
  vs. calling the ``repro.comm.primitives`` functions directly costs
  <5% — the dispatch layer is a method lookup, not a runtime tax;
- a data-parallel training step under ``--backend mp`` stays within a
  bounded constant factor of coop even on a single core (the shm ring
  plus 2(d-1)+2 barriers per step must not blow up wall time);
- on hosts with >= 4 usable cores (CI runners qualify; this container
  does not), the d=4 macro workload must run >= 1.5x faster under mp
  than under coop (the benchmark of record tracks the same ratio as
  ``parallel.mp_speedup`` on ``train_ptd``).

The dispatch guard reads the ``paired_ratio`` estimator of
``conftest.py`` (alternating back-to-back pairs, re-measured up to three
times over budget); the two step guards take best-of-N timings.
"""

import os
import time

import numpy as np

from repro.comm import TrafficLog
from repro.comm.backend import get_backend
from repro.comm.primitives import ring_all_reduce
from repro.config import ParallelConfig, tiny_test_model
from repro.parallel import PTDTrainer

CFG = tiny_test_model(num_layers=4, hidden_size=32, num_attention_heads=4,
                      vocab_size=64, seq_length=16)
PAR_D2 = ParallelConfig(data_parallel_size=2, microbatch_size=1,
                        global_batch_size=4)


def _usable_cores() -> int:
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # pragma: no cover - non-Linux
        return os.cpu_count() or 1


def _batch(par, cfg=CFG, seed=0):
    r = np.random.default_rng(seed)
    shape = (par.global_batch_size, cfg.seq_length)
    return (
        r.integers(0, cfg.vocab_size, size=shape),
        r.integers(0, cfg.vocab_size, size=shape),
    )


def _best_of(fn, repeats=5):
    best = float("inf")
    for _ in range(repeats):
        t0 = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - t0)
    return best


def _step_time(backend: str, par=PAR_D2, cfg=CFG, repeats=5, inner=3) -> float:
    ids, targets = _batch(par, cfg)
    with PTDTrainer(cfg, par, backend=backend) as trainer:
        trainer.train_step(ids, targets)  # warm caches / worker spawn
        return _best_of(
            lambda: [trainer.train_step(ids, targets) for _ in range(inner)],
            repeats=repeats,
        ) / inner


def test_coop_dispatch_under_5_percent(paired_ratio):
    rng = np.random.default_rng(0)
    bufs = [rng.standard_normal((64, 64)) for _ in range(4)]
    ranks = [0, 1, 2, 3]
    backend = get_backend("coop")

    def direct():
        ring_all_reduce([b.copy() for b in bufs], ranks, TrafficLog())

    def routed():
        backend.all_reduce([b.copy() for b in bufs], ranks, TrafficLog())

    def twenty(fn):
        """One timed sample: seconds for 20 back-to-back calls."""
        def sample():
            t0 = time.perf_counter()
            for _ in range(20):
                fn()
            return time.perf_counter() - t0
        return sample

    attempts = paired_ratio(twenty(routed), twenty(direct), bound=1.05)
    overhead = min(attempts) - 1.0
    print(f"\noverhead={overhead*100:.2f}%")
    assert overhead < 0.05, (
        f"backend dispatch adds {overhead*100:.1f}% over calling the "
        "primitives directly, exceeding the 5% budget"
    )


def test_mp_step_bounded_on_any_host():
    # Even time-slicing every worker on one core, the shm ring must
    # keep a d=2 step within 2x of the in-process oracle.
    t_coop = _step_time("coop")
    t_mp = _step_time("mp")
    ratio = t_mp / t_coop
    print(f"\ncoop={t_coop*1e3:.2f}ms mp={t_mp*1e3:.2f}ms ratio={ratio:.2f}x")
    assert ratio < 2.0, (
        f"mp step is {ratio:.2f}x the coop step; the shm ring or its "
        "barriers regressed"
    )


def test_mp_speedup_on_multicore():
    # The acceptance gate: with >= 4 cores, four real processes beat
    # the single-process oracle on the d=4 macro workload. Single-core
    # hosts (like the dev container) can only time-slice, so the gate
    # is conditional -- there the bounded-overhead test above applies.
    cores = _usable_cores()
    if cores < 4:
        import pytest
        pytest.skip(f"only {cores} usable core(s); mp cannot beat coop "
                    "without parallel hardware")
    cfg = tiny_test_model(num_layers=4, hidden_size=96,
                          num_attention_heads=4, vocab_size=256,
                          seq_length=64)
    par = ParallelConfig(data_parallel_size=4, microbatch_size=2,
                         global_batch_size=8)
    t_coop = _step_time("coop", par, cfg)
    t_mp = _step_time("mp", par, cfg)
    speedup = t_coop / t_mp
    print(f"\ncoop={t_coop*1e3:.2f}ms mp={t_mp*1e3:.2f}ms "
          f"speedup={speedup:.2f}x on {cores} cores")
    assert speedup >= 1.5, (
        f"mp only reaches {speedup:.2f}x over coop on {cores} cores; "
        "the d=4 workload should parallelize >= 1.5x"
    )

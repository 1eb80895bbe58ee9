"""Fault injection, failure recovery, and goodput modelling.

The production-robustness arm of the reproduction: the paper's §5.10
prices checkpoint I/O because at 3072-GPU scale failures are routine,
and MegaScale (Jiang et al., 2024) makes detect / restart-from-
checkpoint / goodput the defining concern beyond raw PTD-P throughput.
One rank-death species serves both halves: a
:class:`~repro.resilience.chaos.Kill` at an iteration boundary is what
the goodput model prices and what the chaos harness raises.

- :mod:`repro.resilience.detect` — heartbeat/timeout detection
  latency;
- :mod:`repro.resilience.recovery` — restart-from-last-checkpoint
  policy priced by :mod:`repro.io_sim`, and the Young/Daly optimal
  checkpoint interval;
- :mod:`repro.resilience.goodput` — exact event-accounted
  :class:`~repro.resilience.goodput.GoodputReport` for a run under a
  list of kills (exported through :mod:`repro.obs`), the steady-state
  expectation, and the checkpoint-interval sweep behind
  ``python -m repro goodput``;
- :mod:`repro.resilience.chaos` — declarative
  :class:`~repro.resilience.chaos.ChaosPlan`: kills, checkpoint
  corruption, and transient save failures injected into the real
  engine, and the JSON codec every chaos plan shares;
- :mod:`repro.resilience.harness` — supervised
  :class:`~repro.resilience.harness.ChaosHarness` that trains through a
  chaos plan with durable checkpoints, retries, fallback, and optional
  resharding, behind ``python -m repro chaos``;
- :mod:`repro.resilience.serve_chaos` — the *serving* twin:
  :class:`~repro.resilience.serve_chaos.ServeChaosPlan` injects decode
  crashes, KV-block corruption, and allocator-exhaustion storms into
  the continuous-batching engine (``repro serve --chaos``), recovered
  by capped-exponential-backoff recompute retries.

The names below resolve on first use (:func:`repro.lazy_exports`), so
``repro goodput`` does not load the chaos harness and the trainer it
drives, and the serve engine, which imports only
:mod:`~repro.resilience.serve_chaos` and only under a fault plan, does
not load this package at all without one.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    "chaos": "ChaosPlan Kill CorruptCheckpoint SaveFailure LossSpike Stall "
             "RankFailureError TransientSaveError corrupt_file",
    "harness": "ChaosHarness ChaosReport HarnessGaveUpError RecoveryRecord "
               "batch_for_iteration run_baseline run_reset_reference "
               "shrink_parallel states_bit_equal",
    "detect": "HeartbeatDetector",
    "recovery": "RecoveryEvent RestartPolicy cluster_mtbf "
                "young_daly_interval",
    "goodput": "GoodputReport ExpectedGoodput SweepResult GoodputScenario "
               "expected_goodput simulate_goodput sweep_checkpoint_interval "
               "log_spaced_intervals goodput_scenarios",
    "serve_chaos": "ServeChaosPlan ServeChaosInjector DecodeCrash "
                   "DecodeCrashError KVCorruption AllocExhaustion",
})

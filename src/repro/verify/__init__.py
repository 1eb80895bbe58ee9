"""Correctness-verification subsystem.

Checkers that turn the paper's validity argument -- any (data, tensor,
pipeline) decomposition preserves strict synchronous-SGD semantics --
into executable, CI-enforced properties:

- :mod:`repro.verify.schedule_check` -- static validator over the
  schedule IR: dependency races, p2p send/recv matching (real-rank
  deadlocks), in-flight-microbatch memory bounds (§2.2).
- :mod:`repro.verify.sanitizer` -- collective sanitizer hooked into
  :mod:`repro.comm.primitives`: per-rank collective timelines checked
  pairwise for op/group/shape/dtype agreement (the MegaScale lesson).
- :mod:`repro.verify.conformance` -- property harness sampling random
  small-model (d, t, p, v, m, recompute, ZeRO) configs and asserting
  the parallel engine matches the single-rank baseline.
- :mod:`repro.verify.backend_check` -- the multi-process backend is
  bit-identical to the cooperative one.
- :mod:`repro.verify.conservation` -- cross-checks measured TrafficLog
  bytes and FlopMeter FLOPs against the §3.2 / eq. (3) closed forms.
- :mod:`repro.verify.chaos_check` -- fault-tolerance conformance: the
  chaos harness's recovery (kill/resume, corrupt/fallback, interrupted
  commits, resharding) must not change what training computes.
- :mod:`repro.verify.serve_check` and
  :mod:`repro.verify.serve_chaos_check` -- the serving engine's token
  streams equal the ``generate`` oracle, with and without injected
  faults.

``python -m repro verify`` runs them as the eight sections of one table,
:data:`repro.verify.runner.TABLE`, which also names the defect each of
four sections must catch under ``--inject``.

This ``__init__`` resolves its public names lazily (PEP 562):
:mod:`repro.comm.primitives` imports the sanitizer hook at module load,
and an eager import of the conformance harness here (which imports
``repro.parallel`` and hence ``repro.comm``) would create a cycle.
"""

from repro import lazy_exports

__getattr__, __dir__, __all__ = lazy_exports(__name__, {
    # dependency-free; safe for the comm substrate to import
    "sanitizer": "CollectiveEvent CollectiveMismatch CollectiveSanitizer "
                 "SanitizerError record_collective",
    "schedule_check": "ScheduleViolation ScheduleViolationError "
                      "assert_valid_schedule check_all_generators "
                      "in_flight_bound schedule_from_json schedule_to_json "
                      "validate_schedule",
    "conformance": "ConformanceCase ConformanceResult parse_case run_case "
                   "sample_cases",
    "chaos_check": "run_chaos_checks",
    "conservation": "ConservationItem ConservationReport check_conservation "
                    "default_conservation_configs",
    "runner": "VerificationReport run_verification",
})

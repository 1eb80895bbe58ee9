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

from __future__ import annotations

_EXPORTS = {
    # sanitizer (dependency-free; safe for the comm substrate to import)
    "CollectiveEvent": "sanitizer",
    "CollectiveMismatch": "sanitizer",
    "CollectiveSanitizer": "sanitizer",
    "SanitizerError": "sanitizer",
    "record_collective": "sanitizer",
    # schedule validator
    "ScheduleViolation": "schedule_check",
    "ScheduleViolationError": "schedule_check",
    "assert_valid_schedule": "schedule_check",
    "check_all_generators": "schedule_check",
    "in_flight_bound": "schedule_check",
    "schedule_from_json": "schedule_check",
    "schedule_to_json": "schedule_check",
    "validate_schedule": "schedule_check",
    # conformance harness
    "ConformanceCase": "conformance",
    "ConformanceResult": "conformance",
    "parse_case": "conformance",
    "run_case": "conformance",
    "sample_cases": "conformance",
    # chaos / fault-tolerance conformance
    "run_chaos_checks": "chaos_check",
    # conservation checks
    "ConservationItem": "conformance_conservation",
    "ConservationReport": "conformance_conservation",
    "check_conservation": "conformance_conservation",
    "default_conservation_configs": "conformance_conservation",
    # runner
    "VerificationReport": "runner",
    "run_verification": "runner",
}

# conservation lives in conservation.py; the table above maps through a
# distinct key so the module name stays accurate.
_MODULE_ALIASES = {"conformance_conservation": "conservation"}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    if name not in _EXPORTS:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    import importlib

    module_key = _EXPORTS[name]
    module_name = _MODULE_ALIASES.get(module_key, module_key)
    module = importlib.import_module(f".{module_name}", __name__)
    value = getattr(module, name)
    globals()[name] = value  # cache for subsequent lookups
    return value

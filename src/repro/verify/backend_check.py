"""Cross-backend conformance: mp execution vs the coop oracle.

The mp backend's correctness contract (DESIGN.md "Running on real
processes") is *bit*-exactness, not tolerance-exactness: real worker
processes moving bytes through shared memory must produce the same
float64 results as the single-process cooperative oracle because both
execute the identical ring arithmetic in the identical order.  This
module makes that executable over the same stratified random-config
grid the serial-conformance section uses:

- losses per iteration: exact equality (``==``, no tolerance),
- final parameters (serial layout): ``np.array_equal``,
- optimizer state (every data-parallel rank's Adam moments + step
  count): ``np.array_equal``,
- the :class:`~repro.comm.traffic.TrafficLog`: record-for-record
  equality, so the §3.3.1 byte-volume identities survive the backend
  swap.

ZeRO-3 cases route their all-gather/reduce-scatter through the raw
:class:`~repro.comm.backend.MpBackend` collectives; PTD cases run the
trainer's replica-per-process path, with a static loss scale and a
global-norm clip (:data:`PTD_OPTIONS`), so the workers' exchange of
partial sums of squares is compared too.  Every failure carries the
case's seeded repro string.
"""

from __future__ import annotations

import numpy as np

from .conformance import (
    ConformanceCase,
    _batch,
    _run_ptd,
    _run_zero3,
    model_for_case,
    sample_cases,
)


#: Trainer options every PTD case runs with on both backends: the clip
#: engages on this grid's tiny models.
PTD_OPTIONS = {"grad_clip_norm": 0.05, "loss_scale": 128.0}


def _records(log) -> list[tuple]:
    return [(r.src, r.dst, r.nbytes, r.kind.value, r.tag) for r in log.records]


def _run(config, case: ConformanceCase, ids, targets, backend: str):
    """One conformance run of ``case`` on ``backend``: ``(losses,
    state, each data-parallel rank's Adam state or None for ZeRO-3,
    traffic records)``."""
    from repro.comm import TrafficLog

    log = TrafficLog()
    opt = None
    if case.zero:
        state, losses = _run_zero3(
            config, case, ids, targets, 1e-2, backend=backend, log=log
        )
    else:
        state, losses, trainer = _run_ptd(
            config, case, ids, targets, 1e-2, backend=backend, log=log,
            **PTD_OPTIONS,
        )
        opt = [{"step_count": adam.step_count, "m": adam._m, "v": adam._v}
               for adam in trainer.optimizers]
    return losses, state, opt, _records(log)


def check_backend_case(case: ConformanceCase) -> list[str]:
    """Run ``case`` under both backends; return bit-exactness failures."""
    config = model_for_case(case)
    ids, targets = _batch(case, config)
    coop_losses, coop_state, coop_opt, coop_recs = _run(
        config, case, ids, targets, "coop"
    )
    mp_losses, mp_state, mp_opt, mp_recs = _run(
        config, case, ids, targets, "mp"
    )

    failures: list[str] = []
    for i, (a, b) in enumerate(zip(coop_losses, mp_losses)):
        if a != b:
            failures.append(
                f"iteration {i} loss differs across backends: "
                f"coop {a!r} vs mp {b!r}"
            )
    for name, want in coop_state.items():
        got = mp_state.get(name)
        if got is None:
            failures.append(f"mp state is missing parameter {name}")
        elif not np.array_equal(got, want):
            failures.append(
                f"parameter {name} not bit-identical across backends "
                f"(max |diff|={np.max(np.abs(got - want)):.3e})"
            )
    for r, (want, got) in enumerate(zip(coop_opt or (), mp_opt or ())):
        if want["step_count"] != got["step_count"]:
            failures.append(
                f"optimizer step_count of DP rank {r} differs across backends"
            )
        for key in ("m", "v"):
            for i, (a, b) in enumerate(zip(want[key], got[key])):
                if not np.array_equal(a, b):
                    failures.append(
                        f"Adam {key}[{i}] of DP rank {r} not bit-identical "
                        f"across backends"
                    )
                    break
    if coop_recs != mp_recs:
        if len(coop_recs) != len(mp_recs):
            failures.append(
                f"traffic log length differs: coop {len(coop_recs)} "
                f"records vs mp {len(mp_recs)}"
            )
        else:
            idx, a, b = next(
                (i, x, y) for i, (x, y) in enumerate(zip(coop_recs, mp_recs))
                if x != y
            )
            failures.append(
                f"traffic record #{idx} differs: coop {a} vs mp {b}"
            )
    return failures


def backend_cases(fast: bool, num_cases: int | None, seed: int,
                  ) -> list[ConformanceCase]:
    """The cross-backend grid: the standard stratified sample, smaller
    than conformance's to keep worker spawn counts reasonable."""
    if num_cases is None:
        num_cases = 4 if fast else 10
    cases = sample_cases(num_cases, seed=seed)
    # Always include one composed multi-replica case: d>1 is where the
    # shared-memory gradient ring actually runs.
    if not any(c.d > 1 and not c.zero for c in cases):
        cases.append(ConformanceCase(p=2, d=2, b=1, m=2, seed=seed,
                                     iterations=2))
    return cases


def run_backend_checks(fast: bool, num_cases: int | None, seed: int,
                       ) -> list[tuple[ConformanceCase, list[str]]]:
    """Run the grid; returns ``(case, failures)`` per case.  Also
    asserts the backends leaked no shared-memory segments."""
    from repro.comm.shm_ring import leaked_dev_shm_segments, live_segment_names

    results = []
    for case in backend_cases(fast, num_cases, seed):
        results.append((case, check_backend_case(case)))
    leaks = live_segment_names() + leaked_dev_shm_segments()
    if leaks:
        results.append((
            ConformanceCase(seed=seed),
            [f"shared-memory segments leaked after backend grid: {leaks}"],
        ))
    return results

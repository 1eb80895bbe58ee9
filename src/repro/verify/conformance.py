"""Cross-parallelism conformance harness.

The paper's §2/§5 validity argument is that PTD-P "retains strict
optimizer semantics": training under *any* (data, tensor, pipeline,
interleaving) decomposition computes the same losses, gradients, and
parameter updates as serial execution on the same global batch.  This
module makes that claim executable over the whole configuration space
instead of a hand-picked test matrix: it samples random small-model
``(d, t, p, v, b, m, schedule, recompute, ZeRO)`` configurations, trains
a few iterations through the real engine, and compares against the
single-rank baseline at fp64 near-ulp tolerance (the engine is exact;
the only permitted deviation is floating-point summation-order noise
from ring reductions, bounded at rtol 1e-9 for losses and 1e-8 for
parameters -- the same bounds the equivalence tests have always used).

Every failure carries a *seeded repro string*: a ``python -m repro
verify --case ...`` invocation that deterministically reproduces the
exact failing configuration and data.

``hypothesis`` drives the same :func:`run_case` entry point from
``tests/test_verify.py``; this module itself only needs ``random`` so
the CLI works in minimal environments.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

import numpy as np

# Tolerances: fp64 exactness up to ring-reduction summation order.
LOSS_RTOL, LOSS_ATOL = 1e-9, 1e-12
PARAM_RTOL, PARAM_ATOL = 1e-8, 1e-11


@dataclass(frozen=True)
class ConformanceCase:
    """One sampled parallel configuration (plus data/weight seed)."""

    p: int = 1
    t: int = 1
    d: int = 1
    v: int = 1
    b: int = 1  # microbatch size
    m: int = 1  # microbatches per pipeline per iteration
    schedule: str = "1f1b"
    recompute: bool = False
    zero: bool = False
    seed: int = 0
    iterations: int = 2

    @property
    def global_batch_size(self) -> int:
        return self.b * self.m * self.d

    @property
    def zero_stage(self) -> int:
        """The trainer's ZeRO stage: 3 for a ZeRO-3 case, else 1."""
        return 3 if self.zero else 1

    def key(self) -> str:
        """Canonical ``k=v,...`` form, accepted by :func:`parse_case`."""
        return (
            f"p={self.p},t={self.t},d={self.d},v={self.v},b={self.b},"
            f"m={self.m},schedule={self.schedule},"
            f"recompute={int(self.recompute)},zero={int(self.zero)},"
            f"seed={self.seed},iterations={self.iterations}"
        )

    @property
    def repro_string(self) -> str:
        return f"python -m repro verify --case {self.key()}"

    def describe(self) -> str:
        extras = []
        if self.recompute:
            extras.append("recompute")
        if self.zero:
            extras.append("zero3")
        suffix = f" [{'+'.join(extras)}]" if extras else ""
        return (
            f"(p={self.p}, t={self.t}, d={self.d}, v={self.v}, b={self.b}, "
            f"m={self.m}, {self.schedule}, seed={self.seed}){suffix}"
        )


def parse_case(text: str) -> ConformanceCase:
    """Parse the ``--case p=2,t=1,...`` CLI form (inverse of ``key``)."""
    bools = {"recompute", "zero"}
    strings = {"schedule"}
    kwargs: dict = {}
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        if "=" not in part:
            raise ValueError(f"malformed case entry {part!r}: expected key=value")
        key, _, value = part.partition("=")
        key = key.strip()
        if key not in ConformanceCase.__dataclass_fields__:
            raise ValueError(f"unknown case field {key!r}")
        if key in strings:
            kwargs[key] = value.strip()
        elif key in bools:
            kwargs[key] = bool(int(value))
        else:
            kwargs[key] = int(value)
    case = ConformanceCase(**kwargs)
    _check_case(case)
    return case


def _check_case(case: ConformanceCase) -> None:
    for name in ("p", "t", "d", "v", "b", "m"):
        if getattr(case, name) < 1:
            raise ValueError(f"case field {name} must be >= 1")
    if case.zero and (case.p, case.t, case.v) != (1, 1, 1):
        raise ValueError("ZeRO-3 conformance cases require p=t=v=1")
    if case.v > 1 and case.m % case.p != 0:
        raise ValueError("interleaved cases need m to be a multiple of p")
    if case.iterations < 1:
        raise ValueError("iterations must be >= 1")


def model_for_case(case: ConformanceCase):
    """A tiny GPT whose dimensions satisfy the case's divisibility
    constraints (layers % p*v, heads/ffn/vocab % t)."""
    from repro.config import tiny_test_model

    stages = case.p * case.v
    return tiny_test_model(
        num_layers=max(stages, 2) if max(stages, 2) % stages == 0 else stages,
        hidden_size=16,
        num_attention_heads=4,
        vocab_size=32,
        seq_length=8,
    )


@dataclass
class ConformanceResult:
    case: ConformanceCase
    ok: bool
    failures: list[str] = field(default_factory=list)
    losses_parallel: list[float] = field(default_factory=list)
    losses_baseline: list[float] = field(default_factory=list)

    def describe(self) -> str:
        status = "ok" if self.ok else "FAIL"
        out = f"{status}  {self.case.describe()}"
        if not self.ok:
            for f in self.failures:
                out += f"\n      {f}"
            out += f"\n      repro: {self.case.repro_string}"
        return out


def _batch(case: ConformanceCase, config) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(case.seed)
    B = case.global_batch_size
    ids = rng.integers(0, config.vocab_size, size=(B, config.seq_length))
    targets = rng.integers(0, config.vocab_size, size=(B, config.seq_length))
    return ids, targets


def _baseline(config, case: ConformanceCase, ids, targets, lr):
    """Single-rank reference: the serial model and Adam on the whole
    batch (:func:`~repro.nn.serial.train_serial`; no engine code)."""
    from repro.nn.serial import train_serial

    losses, state = train_serial(
        config, [(ids, targets)] * case.iterations, seed=0, lr=lr
    )
    return state, losses


def _run_ptd(config, case: ConformanceCase, ids, targets,
             *, backend="coop", log=None, **options):
    """Train ``case`` on the PTD-P engine (``options``: further
    ``PTDTrainer`` keywords, ``lr`` among them); returns ``(state,
    losses, trainer)`` with the trainer closed (its replicas and
    optimizers stay readable)."""
    from repro.config import ParallelConfig
    from repro.parallel import PTDTrainer

    parallel = ParallelConfig(
        pipeline_parallel_size=case.p,
        tensor_parallel_size=case.t,
        data_parallel_size=case.d,
        microbatch_size=case.b,
        global_batch_size=case.global_batch_size,
        num_model_chunks=case.v,
    )
    parallel.validate_for_model(config)
    with PTDTrainer(
        config, parallel, schedule=case.schedule, seed=0,
        recompute_activations=case.recompute, zero_stage=case.zero_stage,
        log=log, backend=backend, **options,
    ) as trainer:
        losses = [trainer.train_step(ids, targets)
                  for _ in range(case.iterations)]
        return trainer.gather_state_dict(), losses, trainer


def run_case(case: ConformanceCase) -> ConformanceResult:
    """Train ``case`` and the single-rank baseline; compare everything."""
    _check_case(case)
    config = model_for_case(case)
    ids, targets = _batch(case, config)
    lr = 1e-2

    base_state, base_losses = _baseline(config, case, ids, targets, lr)
    par_state, par_losses, trainer = _run_ptd(config, case, ids, targets,
                                              lr=lr)
    replica_params = [r.parameters() for r in trainer.replicas]

    failures: list[str] = []

    # 1. per-iteration losses agree with serial execution.
    for i, (got, want) in enumerate(zip(par_losses, base_losses)):
        if not np.isclose(got, want, rtol=LOSS_RTOL, atol=LOSS_ATOL):
            failures.append(
                f"iteration {i} loss {got!r} != baseline {want!r} "
                f"(|diff|={abs(got - want):.3e})"
            )

    # 2. data-parallel replicas hold identical parameters (the averaged
    #    gradient and the optimizer step are shared state).
    if len(replica_params) > 1:
        ref = replica_params[0]
        for rep_idx, params in enumerate(replica_params[1:], start=1):
            for p_idx, (a, b) in enumerate(zip(ref, params)):
                if not np.array_equal(a.data, b.data):
                    failures.append(
                        f"replica {rep_idx} parameter #{p_idx} diverged "
                        f"from replica 0 (max "
                        f"|diff|={np.max(np.abs(a.data - b.data)):.3e})"
                    )
                    break
            else:
                continue
            break

    # 3. final parameters match the baseline in serial layout.
    for name, want in base_state.items():
        got = par_state.get(name)
        if got is None:
            failures.append(f"parallel state is missing parameter {name}")
            continue
        if got.shape != want.shape:
            failures.append(
                f"parameter {name}: shape {got.shape} != {want.shape}"
            )
        elif not np.allclose(got, want, rtol=PARAM_RTOL, atol=PARAM_ATOL):
            failures.append(
                f"parameter {name} deviates from baseline (max "
                f"|diff|={np.max(np.abs(got - want)):.3e})"
            )

    return ConformanceResult(
        case=case,
        ok=not failures,
        failures=failures,
        losses_parallel=[float(x) for x in par_losses],
        losses_baseline=[float(x) for x in base_losses],
    )


def sample_cases(n: int, seed: int = 0) -> list[ConformanceCase]:
    """Deterministically sample ``n`` valid configurations.

    Coverage is stratified rather than uniform: every call mixes plain
    DP, TP, PP, interleaved PP, recompute, and ZeRO-3 cases, with the
    composed (p>1, t>1, d>1) corner over-represented -- that corner is
    where scheduling, collectives, and gradient averaging interact.
    """
    rng = random.Random(seed)
    cases: list[ConformanceCase] = []
    while len(cases) < n:
        roll = rng.random()
        if roll < 0.15:
            # ZeRO-3 (fully sharded DP) vs serial.
            case = ConformanceCase(
                d=rng.choice([2, 4]),
                b=rng.choice([1, 2]),
                m=1,
                zero=True,
                schedule="1f1b",
                seed=rng.randrange(10_000),
            )
        else:
            p = rng.choice([1, 2, 2, 4])
            v = rng.choice([1, 2]) if p >= 2 else 1
            t = rng.choice([1, 2])
            d = rng.choice([1, 2])
            if p * t * d > 8:
                continue
            if v > 1:
                schedule = rng.choice(["interleaved", "interleaved-gpipe"])
                m = p * rng.choice([1, 2])
            else:
                schedule = rng.choice(["gpipe", "1f1b", "1f1b"])
                m = rng.choice([1, 2, 4])
            case = ConformanceCase(
                p=p, t=t, d=d, v=v,
                b=rng.choice([1, 2]),
                m=m,
                schedule=schedule,
                recompute=rng.random() < 0.3,
                seed=rng.randrange(10_000),
            )
        cases.append(case)
    return cases

"""Unified benchmark runner: steady-state timing, BENCH_*.json, gating.

The paper's results *are* performance numbers (Table 1: 502 petaFLOP/s
aggregate, 52% of per-GPU peak), so the reproduction keeps a recorded
perf trajectory instead of ad-hoc printouts.  This module provides:

- **scenarios** — named micro/macro benchmarks over the real engine,
  the discrete-event simulator, the schedule generator, the comm
  substrate, and the profiler itself, registered in
  :data:`SCENARIOS`;
- **suite discovery** — the repo's ``benchmarks/bench_*.py`` pytest
  suites, executed as subprocess smoke runs and timed end-to-end;
- **steady-state methodology** — every scenario runs ``warmup +
  repeats`` times; warmup samples are trimmed, and the steady-state
  samples are summarized by median, MAD, and a seeded-bootstrap
  confidence interval of the median (:class:`BenchStats`);
- **BENCH_<label>.json** — a schema-versioned report
  (:class:`BenchReport`) stamped with an environment fingerprint
  (python/numpy versions, git SHA, CPU), the repo's perf-trajectory
  format;
- **noise-aware regression gating** — :func:`compare_reports` flags a
  scenario only when the new CI clears the old CI *and* a relative
  floor, so re-running the same config passes while a real 2x
  slowdown fails (``repro bench --compare OLD NEW``).

``python -m repro bench`` is the CLI front end.
"""

from __future__ import annotations

import gc
import json
import os
import platform
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from .metrics import MetricsRegistry

#: Version of the BENCH_*.json format.  Bump on breaking changes; the
#: loader refuses files from a different major version so a comparison
#: never silently mixes incompatible statistics.
BENCH_SCHEMA_VERSION = 1


# ---------------------------------------------------------------------------
# statistics
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchStats:
    """Steady-state summary of one scenario's timing samples.

    ``samples`` excludes the ``warmup`` leading runs (cache warming,
    allocator steady state); ``ci_low``/``ci_high`` bound the *median*
    via a seeded bootstrap, so two runs of the same workload produce
    overlapping intervals and the regression gate stays quiet on
    noise.
    """

    samples: tuple[float, ...]
    warmup: int
    median: float
    mad: float
    mean: float
    minimum: float
    maximum: float
    ci_low: float
    ci_high: float
    unit: str = "s"

    @classmethod
    def from_samples(
        cls,
        samples: list[float] | tuple[float, ...],
        *,
        warmup: int = 0,
        seed: int = 0,
        resamples: int = 200,
        confidence: float = 0.95,
    ) -> "BenchStats":
        if warmup < 0:
            raise ValueError(f"warmup must be >= 0, got {warmup}")
        steady = tuple(float(x) for x in samples[warmup:])
        if not steady:
            raise ValueError(
                f"no steady-state samples: {len(samples)} samples with "
                f"warmup={warmup}"
            )
        if any(x < 0 for x in steady):
            raise ValueError("negative timing sample")
        arr = np.asarray(steady)
        med = float(np.median(arr))
        mad = float(np.median(np.abs(arr - med)))
        if len(steady) == 1:
            ci_low = ci_high = med
        else:
            rng = np.random.default_rng(seed)
            idx = rng.integers(0, len(arr), size=(resamples, len(arr)))
            boot = np.median(arr[idx], axis=1)
            alpha = (1.0 - confidence) / 2.0
            ci_low = float(np.quantile(boot, alpha))
            ci_high = float(np.quantile(boot, 1.0 - alpha))
        return cls(
            samples=steady,
            warmup=warmup,
            median=med,
            mad=mad,
            mean=float(arr.mean()),
            minimum=float(arr.min()),
            maximum=float(arr.max()),
            ci_low=ci_low,
            ci_high=ci_high,
        )

    def as_dict(self) -> dict:
        return {
            "samples": list(self.samples),
            "warmup": self.warmup,
            "median": self.median,
            "mad": self.mad,
            "mean": self.mean,
            "min": self.minimum,
            "max": self.maximum,
            "ci_low": self.ci_low,
            "ci_high": self.ci_high,
            "unit": self.unit,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BenchStats":
        return cls(
            samples=tuple(d["samples"]),
            warmup=int(d["warmup"]),
            median=float(d["median"]),
            mad=float(d["mad"]),
            mean=float(d["mean"]),
            minimum=float(d["min"]),
            maximum=float(d["max"]),
            ci_low=float(d["ci_low"]),
            ci_high=float(d["ci_high"]),
            unit=str(d.get("unit", "s")),
        )


# ---------------------------------------------------------------------------
# environment fingerprint
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnvFingerprint:
    """What produced a BENCH file — enough to judge comparability."""

    python: str
    numpy: str
    platform: str
    machine: str
    cpu_count: int
    git_sha: str

    @classmethod
    def capture(cls) -> "EnvFingerprint":
        try:
            sha = subprocess.run(
                ["git", "rev-parse", "--short", "HEAD"],
                capture_output=True, text=True, timeout=10,
                cwd=os.path.dirname(os.path.abspath(__file__)),
            ).stdout.strip() or "unknown"
        except (OSError, subprocess.SubprocessError):
            sha = "unknown"
        return cls(
            python=platform.python_version(),
            numpy=np.__version__,
            platform=platform.platform(),
            machine=platform.machine(),
            cpu_count=os.cpu_count() or 1,
            git_sha=sha,
        )

    def as_dict(self) -> dict:
        return {
            "python": self.python,
            "numpy": self.numpy,
            "platform": self.platform,
            "machine": self.machine,
            "cpu_count": self.cpu_count,
            "git_sha": self.git_sha,
        }

    @classmethod
    def from_dict(cls, d: dict) -> "EnvFingerprint":
        return cls(
            python=str(d["python"]),
            numpy=str(d["numpy"]),
            platform=str(d["platform"]),
            machine=str(d["machine"]),
            cpu_count=int(d["cpu_count"]),
            git_sha=str(d["git_sha"]),
        )


# ---------------------------------------------------------------------------
# report
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class BenchRecord:
    """One scenario's result inside a report."""

    name: str
    kind: str  # "micro" | "macro" | "suite"
    stats: BenchStats
    metrics: dict[str, float] = field(default_factory=dict)

    def as_dict(self) -> dict:
        return {
            "name": self.name,
            "kind": self.kind,
            "stats": self.stats.as_dict(),
            "metrics": dict(self.metrics),
        }

    @classmethod
    def from_dict(cls, d: dict) -> "BenchRecord":
        return cls(
            name=str(d["name"]),
            kind=str(d["kind"]),
            stats=BenchStats.from_dict(d["stats"]),
            metrics={k: float(v) for k, v in d.get("metrics", {}).items()},
        )


@dataclass(frozen=True)
class BenchReport:
    """A full BENCH_<label>.json: env fingerprint + scenario records."""

    label: str
    env: EnvFingerprint
    records: tuple[BenchRecord, ...]
    created_unix: float
    schema_version: int = BENCH_SCHEMA_VERSION

    def record(self, name: str) -> BenchRecord | None:
        for r in self.records:
            if r.name == name:
                return r
        return None

    def as_dict(self) -> dict:
        return {
            "schema_version": self.schema_version,
            "label": self.label,
            "created_unix": self.created_unix,
            "env": self.env.as_dict(),
            "records": [r.as_dict() for r in self.records],
        }

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.as_dict(), indent=indent, sort_keys=False)

    @classmethod
    def from_dict(cls, d: dict) -> "BenchReport":
        version = d.get("schema_version")
        if version != BENCH_SCHEMA_VERSION:
            raise ValueError(
                f"unsupported BENCH schema version {version!r} "
                f"(this build reads version {BENCH_SCHEMA_VERSION})"
            )
        return cls(
            label=str(d["label"]),
            env=EnvFingerprint.from_dict(d["env"]),
            records=tuple(BenchRecord.from_dict(r) for r in d["records"]),
            created_unix=float(d["created_unix"]),
            schema_version=int(version),
        )

    @classmethod
    def from_json(cls, text: str) -> "BenchReport":
        return cls.from_dict(json.loads(text))


def write_report(report: BenchReport, path: str | Path) -> None:
    with open(path, "w", encoding="utf-8") as f:
        f.write(report.to_json() + "\n")


def load_report(path: str | Path) -> BenchReport:
    with open(path, "r", encoding="utf-8") as f:
        return BenchReport.from_json(f.read())


def bench_metrics_registry(report: BenchReport) -> MetricsRegistry:
    """The report as the shared metrics-JSON schema (``--metrics-out``).

    Each scenario becomes a ``bench.<name>.seconds`` histogram (its
    steady-state samples) plus ``bench.<name>.median`` /
    ``bench.<name>.<extra>`` gauges, so every CLI subcommand's metrics
    dump has the same shape (counters/gauges/histograms).
    """
    reg = MetricsRegistry()
    for rec in report.records:
        hist = reg.histogram(f"bench.{rec.name}.seconds")
        for x in rec.stats.samples:
            hist.observe(x)
        reg.gauge(f"bench.{rec.name}.median").set(rec.stats.median)
        for k, v in rec.metrics.items():
            reg.gauge(f"bench.{rec.name}.{k}").set(v)
    return reg


# ---------------------------------------------------------------------------
# scenario registry
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Scenario:
    """One registered benchmark.

    ``build()`` does un-timed setup and returns the callable to time;
    ``derive(median_seconds)``, if given, converts the timing into
    extra metrics (MFU, tokens/s) recorded alongside.  Backend-aware
    scenarios (``backend_aware=True``) receive the runner's execution
    backend (``coop``/``mp``) as ``build(backend)``, and the returned
    callable may carry a ``close`` attribute for un-timed teardown
    (worker-pool shutdown).
    """

    name: str
    kind: str
    build: Callable[..., Callable[[], None]]
    derive: Callable[[float], dict[str, float]] | None = None
    fast: bool = True
    backend_aware: bool = False


SCENARIOS: dict[str, Scenario] = {}


def register(name: str, kind: str = "micro", fast: bool = True,
             derive: Callable[[float], dict[str, float]] | None = None,
             backend_aware: bool = False):
    """Decorator registering a scenario's ``build`` function."""

    def deco(build: Callable[..., Callable[[], None]]):
        if name in SCENARIOS:
            raise ValueError(f"duplicate scenario {name!r}")
        SCENARIOS[name] = Scenario(
            name=name, kind=kind, build=build, derive=derive, fast=fast,
            backend_aware=backend_aware,
        )
        return build

    return deco


def _tiny_engine(p: int = 2, t: int = 1, d: int = 2,
                 backend: str = "coop"):
    from repro.config import ParallelConfig, tiny_test_model
    from repro.parallel import PTDTrainer

    config = tiny_test_model(num_layers=4, hidden_size=32,
                             num_attention_heads=4, vocab_size=64,
                             seq_length=16)
    parallel = ParallelConfig(
        pipeline_parallel_size=p,
        tensor_parallel_size=t,
        data_parallel_size=d,
        microbatch_size=1,
        global_batch_size=4,
    )
    rng = np.random.default_rng(0)
    shape = (parallel.global_batch_size, config.seq_length)
    ids = rng.integers(0, config.vocab_size, size=shape)
    targets = rng.integers(0, config.vocab_size, size=shape)
    trainer = PTDTrainer(config, parallel, backend=backend)
    return config, parallel, trainer, ids, targets


def _engine_derive(p: int, t: int, d: int):
    def derive(seconds: float) -> dict[str, float]:
        from repro.hardware import a100_80gb
        from repro.obs.telemetry import throughput_report

        config, parallel, _, _, _ = _tiny_engine(p, t, d)
        rep = throughput_report(config, parallel, seconds,
                                peak_flops=a100_80gb().peak_flops)
        return {
            "tokens_per_s": rep.tokens_per_second,
            "tflops_per_gpu": rep.tflops_per_gpu,
        }

    return derive


@register("engine.train_step.p2d2", kind="macro",
          derive=_engine_derive(2, 1, 2), backend_aware=True)
def _bench_engine_p2d2(backend: str = "coop"):
    _, _, trainer, ids, targets = _tiny_engine(2, 1, 2, backend)

    def run():
        trainer.train_step(ids, targets)

    run.close = trainer.close
    return run


@register("engine.train_step.t2d2", kind="macro",
          derive=_engine_derive(1, 2, 2), backend_aware=True)
def _bench_engine_t2d2(backend: str = "coop"):
    _, _, trainer, ids, targets = _tiny_engine(1, 2, 2, backend)

    def run():
        trainer.train_step(ids, targets)

    run.close = trainer.close
    return run


def _d4_shapes():
    from repro.config import ParallelConfig, tiny_test_model

    config = tiny_test_model(num_layers=4, hidden_size=96,
                             num_attention_heads=4, vocab_size=256,
                             seq_length=64)
    parallel = ParallelConfig(
        pipeline_parallel_size=1,
        tensor_parallel_size=1,
        data_parallel_size=4,
        microbatch_size=2,
        global_batch_size=8,
    )
    return config, parallel


def _d4_engine(backend: str):
    """The cross-backend speedup workload: d=4 replicas of a model big
    enough that replica compute dominates shared-memory IPC, so the mp
    backend's real OS-process parallelism shows up as wall-clock."""
    from repro.parallel import PTDTrainer

    config, parallel = _d4_shapes()
    rng = np.random.default_rng(0)
    shape = (parallel.global_batch_size, config.seq_length)
    ids = rng.integers(0, config.vocab_size, size=shape)
    targets = rng.integers(0, config.vocab_size, size=shape)
    trainer = PTDTrainer(config, parallel, backend=backend)
    return config, parallel, trainer, ids, targets


def _d4_derive(seconds: float) -> dict[str, float]:
    from repro.hardware import a100_80gb
    from repro.obs.telemetry import throughput_report

    config, parallel = _d4_shapes()
    rep = throughput_report(config, parallel, seconds,
                            peak_flops=a100_80gb().peak_flops)
    return {
        "tokens_per_s": rep.tokens_per_second,
        "tflops_per_gpu": rep.tflops_per_gpu,
    }


@register("engine.train_step.d4", kind="macro", fast=False,
          derive=_d4_derive, backend_aware=True)
def _bench_engine_d4(backend: str = "coop"):
    _, _, trainer, ids, targets = _d4_engine(backend)

    def run():
        trainer.train_step(ids, targets)

    run.close = trainer.close
    return run


def _sim_scenario(row_index: int):
    from repro.config.presets import TABLE1_ROWS
    from repro.sim import SimOptions, simulate_iteration

    row = TABLE1_ROWS[row_index]

    def build():
        def run():
            simulate_iteration(row.model, row.parallel,
                               options=SimOptions(schedule_name="1f1b"))

        return run

    def derive(seconds: float) -> dict[str, float]:
        res = simulate_iteration(row.model, row.parallel,
                                 options=SimOptions(schedule_name="1f1b"))
        return {
            "sim_iteration_s": res.iteration_time,
            "sim_tflops_per_gpu": res.tflops_per_gpu,
            "sim_mfu": res.peak_fraction,
            "paper_tflops_per_gpu": row.reported_tflops_per_gpu,
        }

    return build, derive


_b145, _d145 = _sim_scenario(6)
register("sim.iteration.gpt145b", kind="macro", derive=_d145)(_b145)
_b1t, _d1t = _sim_scenario(9)
register("sim.iteration.gpt1t", kind="macro", derive=_d1t)(_b1t)


@register("schedule.interleaved.p8m64v4")
def _bench_schedule():
    from repro.schedule import interleaved_schedule, validate

    def run():
        validate(interleaved_schedule(8, 64, 4))

    return run


@register("comm.ring_allreduce.4x256k")
def _bench_allreduce():
    from repro.comm import TrafficLog
    from repro.comm.primitives import ring_all_reduce

    log = TrafficLog()
    buffers = [np.ones(65536) * (i + 1) for i in range(4)]

    def run():
        ring_all_reduce([b.copy() for b in buffers], [0, 1, 2, 3], log)

    return run


@register("obs.profile.postprocess")
def _bench_profile():
    from repro.obs import trace
    from repro.obs.profile import folded_stacks, profile_tracer

    _, _, trainer, ids, targets = _tiny_engine(2, 1, 2)
    with trace() as tracer:
        trainer.train_step(ids, targets)

    def run():
        folded_stacks(profile_tracer(tracer))

    return run


@register("obs.chrome_export")
def _bench_export():
    from repro.obs import chrome_trace, trace

    _, _, trainer, ids, targets = _tiny_engine(2, 1, 2)
    with trace() as tracer:
        trainer.train_step(ids, targets)

    def run():
        chrome_trace(tracer)

    return run


# -- serving ---------------------------------------------------------------
#
# A sequence long enough (64 tokens) that the paged KV cache's O(n) step
# visibly beats the oracle's O(n^2) full recompute; both scenarios share
# the workload so ``tokens_per_s`` is directly comparable.

_SERVE_NEW_TOKENS = 48


def _serve_decode_workload():
    from repro.config import tiny_test_model
    from repro.nn.transformer import GPTModel

    config = tiny_test_model(num_layers=2, hidden_size=32,
                             num_attention_heads=4, vocab_size=128,
                             seq_length=64)
    model = GPTModel(config, seed=0)
    prompt = np.random.default_rng(1).integers(0, config.vocab_size, size=8)
    return model, prompt


def _decode_derive(seconds: float) -> dict[str, float]:
    return {"tokens_per_s": _SERVE_NEW_TOKENS / seconds}


@register("serve.decode.cached", kind="macro", derive=_decode_derive)
def _bench_serve_cached():
    from repro.serve import cached_generate

    model, prompt = _serve_decode_workload()

    def run():
        cached_generate(model, prompt, _SERVE_NEW_TOKENS,
                        temperature=0.0, block_size=8)

    return run


@register("serve.decode.recompute", kind="macro", derive=_decode_derive)
def _bench_serve_recompute():
    from repro.nn.generate import generate

    model, prompt = _serve_decode_workload()

    def run():
        generate(model, prompt, _SERVE_NEW_TOKENS, temperature=0.0)

    return run


def _serve_engine_derive(seconds: float) -> dict[str, float]:
    from repro.serve import poisson_trace

    trace = poisson_trace(8, 0.7, vocab_size=64, seed=2,
                          temperature=1.0, top_k=5)
    total = sum(r.max_new_tokens for r in trace)
    return {"tokens_per_s": total / seconds}


@register("serve.engine.poisson8", kind="macro",
          derive=_serve_engine_derive)
def _bench_serve_engine():
    from repro.config import tiny_test_model
    from repro.nn.transformer import GPTModel
    from repro.serve import PagedKVCache, ServeEngine, poisson_trace

    config = tiny_test_model()
    model = GPTModel(config, seed=0)
    trace = poisson_trace(8, 0.7, vocab_size=config.vocab_size, seed=2,
                          temperature=1.0, top_k=5)

    def run():
        cache = PagedKVCache.for_model(model, num_blocks=4, block_size=3)
        ServeEngine(model, cache).run(trace)
        cache.assert_empty()

    return run


@register("serve.engine.guarded", kind="macro",
          derive=_serve_engine_derive)
def _bench_serve_engine_guarded():
    """The fault-free robustness path: deadlines + TTLs + bounded queue
    + checksummed cache, no chaos.  Tracks the bookkeeping overhead the
    ISSUE 10 <5% budget guards."""
    from repro.config import tiny_test_model
    from repro.nn.transformer import GPTModel
    from repro.serve import PagedKVCache, ServeEngine, poisson_trace

    config = tiny_test_model()
    model = GPTModel(config, seed=0)
    trace = poisson_trace(8, 0.7, vocab_size=config.vocab_size, seed=2,
                          temperature=1.0, top_k=5,
                          deadline_steps=256, queue_ttl=128)

    def run():
        cache = PagedKVCache.for_model(model, num_blocks=4, block_size=3,
                                       checksums=True)
        ServeEngine(model, cache, max_queue=32).run(trace)
        cache.assert_empty()

    return run


@register("serve.engine.chaos", kind="macro",
          derive=_serve_engine_derive)
def _bench_serve_engine_chaos():
    """Throughput under fire: decode crash + KV corruption + an
    exhaustion storm, all recovered within the run."""
    from repro.config import tiny_test_model
    from repro.nn.transformer import GPTModel
    from repro.resilience.serve_chaos import (
        AllocExhaustion,
        DecodeCrash,
        KVCorruption,
        ServeChaosPlan,
    )
    from repro.serve import PagedKVCache, ServeEngine, poisson_trace

    config = tiny_test_model()
    model = GPTModel(config, seed=0)
    trace = poisson_trace(8, 0.7, vocab_size=config.vocab_size, seed=2,
                          temperature=1.0, top_k=5)
    plan = ServeChaosPlan(
        crashes=(DecodeCrash(at_step=1),),
        corruptions=(KVCorruption(at_step=4),),
        exhaustions=(AllocExhaustion(at_step=7, steps=3),),
    )

    def run():
        cache = PagedKVCache.for_model(model, num_blocks=4, block_size=3,
                                       checksums=True)
        ServeEngine(model, cache, chaos=plan).run(trace)
        cache.assert_empty()

    return run


# ---------------------------------------------------------------------------
# suite discovery
# ---------------------------------------------------------------------------

def benchmarks_dir() -> Path:
    """The repo's ``benchmarks/`` directory (next to ``src/``)."""
    return Path(__file__).resolve().parents[3] / "benchmarks"


def discover_suites(root: Path | None = None) -> list[Path]:
    """Every ``bench_*.py`` pytest suite in the benchmarks directory."""
    root = root or benchmarks_dir()
    if not root.is_dir():
        return []
    return sorted(root.glob("bench_*.py"))


def run_suite(path: Path) -> BenchRecord:
    """Execute one pytest bench suite as a timed subprocess smoke run.

    ``--benchmark-disable`` makes pytest-benchmark run each benchmarked
    callable once without calibration, so the wall time measures the
    suite, not the harness.  The exit code is recorded as a metric;
    a non-zero code marks the record (and fails ``repro bench``).
    """
    src = Path(__file__).resolve().parents[2]
    env = dict(os.environ)
    env["PYTHONPATH"] = f"{src}{os.pathsep}" + env.get("PYTHONPATH", "")
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", str(path), "-q",
         "--benchmark-disable", "-p", "no:cacheprovider"],
        capture_output=True, text=True, env=env,
    )
    elapsed = time.perf_counter() - t0
    return BenchRecord(
        name=f"suite.{path.stem}",
        kind="suite",
        stats=BenchStats.from_samples([elapsed]),
        metrics={"exit_code": float(proc.returncode)},
    )


# ---------------------------------------------------------------------------
# runner
# ---------------------------------------------------------------------------

def run_bench(
    *,
    fast: bool = False,
    repeats: int | None = None,
    warmup: int | None = None,
    seed: int = 0,
    label: str = "run",
    filter_substr: str | None = None,
    suites: str | None = None,
    backend: str = "coop",
    progress: Callable[[str], None] | None = None,
) -> BenchReport:
    """Run the scenario registry (and optionally pytest suites).

    ``fast`` halves the repeat count for CI smoke runs; ``suites`` is a
    glob (``"*"`` for all) selecting ``benchmarks/bench_*.py`` files to
    execute as subprocess smoke runs; ``backend`` selects the execution
    backend (``coop``/``mp``) for backend-aware engine scenarios.
    """
    if repeats is None:
        repeats = 3 if fast else 7
    if warmup is None:
        warmup = 1 if fast else 2
    if repeats < 1:
        raise ValueError(f"repeats must be >= 1, got {repeats}")
    say = progress or (lambda msg: None)
    records: list[BenchRecord] = []
    for name in sorted(SCENARIOS):
        sc = SCENARIOS[name]
        if fast and not sc.fast:
            continue
        if filter_substr and filter_substr not in name:
            continue
        say(f"bench {name} ({sc.kind}, {warmup}+{repeats} runs)")
        fn = sc.build(backend) if sc.backend_aware else sc.build()
        # A full collection of the host process landing inside a sample
        # is not the scenario's cost (when is set by allocation counts).
        gc.collect()
        try:
            samples = []
            for _ in range(warmup + repeats):
                t0 = time.perf_counter()
                fn()
                samples.append(time.perf_counter() - t0)
        finally:
            teardown = getattr(fn, "close", None)
            if teardown is not None:
                teardown()
        stats = BenchStats.from_samples(samples, warmup=warmup, seed=seed)
        metrics = dict(sc.derive(stats.median)) if sc.derive else {}
        records.append(
            BenchRecord(name=name, kind=sc.kind, stats=stats, metrics=metrics)
        )
    if suites:
        import fnmatch

        for path in discover_suites():
            if suites != "*" and not fnmatch.fnmatch(path.name,
                                                     f"*{suites}*"):
                continue
            say(f"suite {path.name}")
            records.append(run_suite(path))
    return BenchReport(
        label=label,
        env=EnvFingerprint.capture(),
        records=tuple(records),
        created_unix=time.time(),
    )


# ---------------------------------------------------------------------------
# regression comparison
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Comparison:
    """One scenario compared across two reports (timing medians)."""

    name: str
    old_median: float
    new_median: float
    threshold: float
    new_ci_low: float
    regressed: bool
    improved: bool

    @property
    def ratio(self) -> float:
        return self.new_median / self.old_median if self.old_median else float("inf")


@dataclass
class CompareResult:
    comparisons: list[Comparison] = field(default_factory=list)
    only_old: list[str] = field(default_factory=list)
    only_new: list[str] = field(default_factory=list)

    @property
    def regressions(self) -> list[Comparison]:
        return [c for c in self.comparisons if c.regressed]

    @property
    def ok(self) -> bool:
        return not self.regressions

    def describe(self) -> str:
        header = (
            f"{'scenario':<32} {'old':>12} {'new':>12} {'ratio':>7}  verdict"
        )
        lines = [header, "-" * len(header)]
        for c in self.comparisons:
            verdict = ("REGRESSED" if c.regressed
                       else "improved" if c.improved else "ok")
            lines.append(
                f"{c.name:<32} {c.old_median:>12.6f} {c.new_median:>12.6f} "
                f"{c.ratio:>6.2f}x  {verdict}"
            )
        for name in self.only_old:
            lines.append(f"{name:<32} (removed: present only in OLD)")
        for name in self.only_new:
            lines.append(f"{name:<32} (new: present only in NEW)")
        lines.append("-" * len(header))
        n_reg = len(self.regressions)
        lines.append(
            f"{len(self.comparisons)} compared, {n_reg} regression"
            f"{'s' if n_reg != 1 else ''}"
        )
        return "\n".join(lines)


def compare_reports(old: BenchReport, new: BenchReport, *,
                    min_rel: float = 0.10) -> CompareResult:
    """Noise-aware regression gate between two BENCH reports.

    A scenario *regresses* only when the new median's bootstrap CI
    clears both the old CI's upper bound and a relative floor
    (``min_rel``, default 10%) over the old median:

        new.ci_low > max(old.ci_high, old.median * (1 + min_rel))

    Requiring the CIs to separate makes re-running the same config
    pass (the intervals overlap under noise-level jitter); requiring
    the relative floor keeps microsecond-scale scenarios from gating
    on statistically-real-but-trivial drift.  ``improved`` is the
    symmetric condition.
    """
    if min_rel < 0:
        raise ValueError(f"min_rel must be >= 0, got {min_rel}")
    result = CompareResult()
    new_names = {r.name for r in new.records}
    old_names = {r.name for r in old.records}
    result.only_old = sorted(old_names - new_names)
    result.only_new = sorted(new_names - old_names)
    for rec in new.records:
        if rec.name not in old_names:
            continue
        old_rec = old.record(rec.name)
        assert old_rec is not None
        o, n = old_rec.stats, rec.stats
        threshold = max(o.ci_high, o.median * (1.0 + min_rel))
        regressed = n.ci_low > threshold
        floor = min(o.ci_low, o.median * (1.0 - min_rel))
        improved = n.ci_high < floor
        result.comparisons.append(
            Comparison(
                name=rec.name,
                old_median=o.median,
                new_median=n.median,
                threshold=threshold,
                new_ci_low=n.ci_low,
                regressed=regressed,
                improved=improved,
            )
        )
    return result

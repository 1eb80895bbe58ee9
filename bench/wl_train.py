"""Workload ``train_ptd``: the paper's workload.

GPT L4 h128 a4 V512 s64 under ``ParallelConfig(p=2, t=2, d=2, b=1,
B=8)`` with 1F1B and Adam on one fixed seeded batch, first on the
cooperative oracle backend, then the same inputs on real processes
(``backend="mp"``).  It exercises ``nn`` forward/backward, ``comm`` (TP
f/g all-reduce, PP send/recv, DP ring), the ``schedule`` executor,
``parallel`` and the optimizer; no ``serve`` or ``sim`` code runs.
"""

from __future__ import annotations

import math
import os
import time
from statistics import median

import numpy as np

from repro.comm import TrafficLog
from repro.comm.traffic import TrafficKind
from repro.config import GPTConfig, ParallelConfig
from repro.parallel import PTDTrainer

import pins

CONFIG = GPTConfig(num_layers=4, hidden_size=128, num_attention_heads=4,
                   vocab_size=512, seq_length=64, name="bench-train")
PARALLEL = ParallelConfig(
    pipeline_parallel_size=2, tensor_parallel_size=2, data_parallel_size=2,
    microbatch_size=1, global_batch_size=8,
)
SCHEDULE = "1f1b"
#: The plain baseline: the same global batch on one worker.
SINGLE = ParallelConfig(
    microbatch_size=1, global_batch_size=PARALLEL.global_batch_size)
WARM_STEPS = 3
#: Timed steps of each phase in one round.  The rounds alternate the
#: phases so that each samples the whole run's stretch of machine time,
#: not a third of it.
ROUND = {"coop": 2, "mp": 2, "single": 1}
#: 15 rounds fill a 20 s run: 30 coop, 30 mp and 15 single-worker steps
#: at about 260, 150 and 200 ms per step here.
ROUNDS_PER_SECOND = 0.75
#: Every run has at least this many rounds, so the pinned loss
#: (``pins.TRAIN_LOSS_STEP``) exists whatever ``--seconds`` is.
MIN_ROUNDS = 4
#: Steps of the traced pass.
TRACED_STEPS = 8
#: Machine-speed samples the parent takes between two mp steps, when
#: the workers sit at their barrier: the interval timer is off in the
#: mp phase, because a sample taken while both cores run workers would
#: time the scheduler.
MP_SAMPLES = 6
TOKENS_PER_STEP = PARALLEL.global_batch_size * CONFIG.seq_length
SHM_DIR = "/dev/shm"


def make_batch(seed: int):
    rng = np.random.default_rng(seed)
    shape = (PARALLEL.global_batch_size, CONFIG.seq_length)
    ids = rng.integers(0, CONFIG.vocab_size, size=shape)
    targets = rng.integers(0, CONFIG.vocab_size, size=shape)
    return ids, targets


def make_trainer(backend: str, parallel: ParallelConfig = PARALLEL):
    return PTDTrainer(CONFIG, parallel, schedule=SCHEDULE, seed=0,
                      backend=backend, log=TrafficLog())


#: The per-layer f/g all-reduces of section 3.2.  The engine also moves
#: embedding, head and cross-entropy TP traffic the closed form leaves out.
TP_LAYER_TAGS = ("attn.g", "attn.f", "mlp.g", "mlp.f")


def expected_bytes_per_step(trainer) -> dict[str, int]:
    """The section 3.2 closed forms for one step, in bytes (fp64)."""
    par, cfg = trainer.parallel, trainer.config
    p, t, d, v, b = par.p, par.t, par.d, par.v, par.b
    m = par.num_microbatches
    act = b * cfg.seq_length * cfg.hidden_size * 8
    params = sum(q.data.size for q in trainer.replicas[0].parameters())
    pp = d * 2 * (p * v - 1) * m * t * act
    if p > 1:
        pp += d * 2 * cfg.vocab_size * cfg.hidden_size * 8
    return {
        # one ring all-reduce (volume 2 (t-1) activations) per tag, per
        # layer, per microbatch, per replica
        "tp": len(TP_LAYER_TAGS) * d * cfg.num_layers * m * 2 * (t - 1) * act,
        "pp": pp,
        "dp": 2 * (d - 1) * 8 * params,
    }


def measured_bytes(log: TrafficLog) -> dict[str, int]:
    tp_tags = log.by_tag(TrafficKind.TENSOR_PARALLEL)
    return {
        "tp": sum(tp_tags.get(tag, 0) for tag in TP_LAYER_TAGS),
        "pp": log.total_bytes(TrafficKind.PIPELINE_P2P),
        "dp": log.total_bytes(TrafficKind.DATA_PARALLEL),
    }


def _shm_entries() -> set[str]:
    return set(os.listdir(SHM_DIR)) if os.path.isdir(SHM_DIR) else set()


class TrainPTD:
    iteration_span = "PTDTrainer.train_step"
    share_of_span: dict[str, str] = {}

    def __init__(self, seed: int, meter):
        self.seed = seed
        self.meter = meter
        self.ids, self.targets = make_batch(seed)
        self.shm_before = _shm_entries()
        self.trainers = {
            "coop": make_trainer("coop"),
            "mp": make_trainer("mp"),
            "single": make_trainer("coop", SINGLE),
        }
        self.losses = {phase: [] for phase in self.trainers}
        #: per phase, the (start, end) stamps of every timed step
        self.stamps = {phase: [] for phase in self.trainers}
        for phase in self.trainers:
            self._steps(phase, WARM_STEPS, timed=False)

    def _steps(self, phase: str, count: int, timed: bool = True) -> None:
        trainer, meter = self.trainers[phase], self.meter
        if phase == "mp":
            meter.stop_timer()
        try:
            for _ in range(count):
                if phase == "mp":
                    for _ in range(MP_SAMPLES):
                        meter.sample()
                t0 = time.perf_counter()
                loss = trainer.train_step(self.ids, self.targets)
                t1 = time.perf_counter()
                self.losses[phase].append(loss)
                if timed:
                    self.stamps[phase].append((t0, t1))
        finally:
            if phase == "mp":
                meter.sample()
                meter.start_timer()

    def measure(self, seconds: float, trace: int) -> None:
        del trace  # the traced steps come on top of the same rounds
        for _ in range(max(MIN_ROUNDS, round(seconds * ROUNDS_PER_SECOND))):
            for phase, count in ROUND.items():
                self._steps(phase, count)

    def step_ms(self, phase: str) -> list[float]:
        return [self.meter.seconds(t0, t1) * 1e3
                for t0, t1 in self.stamps[phase]]

    def unit_seconds(self) -> float:
        return median(self.step_ms("coop")) / 1e3

    def end_to_end(self) -> dict[str, float]:
        return {
            "work_per_s": TOKENS_PER_STEP / self.unit_seconds(),
            "wait_ms": median(self.step_ms("mp")),
            "pace_ms": median(self.step_ms("single")),
        }

    # -- per-layer ----------------------------------------------------------
    def traced_pass(self, recorder):
        """A few coop steps under the recorder (the mp phase runs in
        other processes the recorder cannot see)."""
        before = len(self.stamps["coop"])
        recorder.wrap(PTDTrainer, "train_step", self.iteration_span)
        try:
            self._steps("coop", TRACED_STEPS)
        finally:
            recorder.unwrap_all()
        traced_ms = self.step_ms("coop")[before:]
        del self.stamps["coop"][before:]
        coop, mp, single = (median(self.step_ms(phase))
                            for phase in ("coop", "mp", "single"))
        return median(traced_ms) / 1e3, {
            "train_tokens_per_s_coop": TOKENS_PER_STEP / coop * 1e3,
            "train_tokens_per_s_mp": TOKENS_PER_STEP / mp * 1e3,
            "parallel.step_ms_coop": coop,
            "parallel.step_ms_mp": mp,
            "parallel.single_worker_step_ms": single,
            "parallel.overhead_vs_single": coop / single,
            "parallel.mp_speedup": coop / mp,
        }

    def probes(self) -> dict[str, float]:
        import probes  # here, so that set-up does not pay for its imports

        return {
            **probes.probe_nn_train(self.meter),
            **probes.probe_comm(self.meter),
            **probes.probe_schedule(self.meter),
            **probes.probe_train_step(self.meter),
        }

    def close(self) -> None:
        for trainer in self.trainers.values():
            trainer.close()

    def check(self):
        """Returns ``(attempted, failed, problems)``; call after
        :meth:`close`."""
        problems = []
        coop, mp = self.losses["coop"], self.losses["mp"]
        common = min(len(coop), len(mp))
        failed = sum(
            1 for a, b in zip(coop, mp)
            if a != b or not math.isfinite(a)
        )
        if failed:
            problems.append(
                f"{failed} of {common} steps differ between coop and mp "
                "or are not finite"
            )
        if self.seed == pins.SEED:
            got = coop[pins.TRAIN_LOSS_STEP]
            if abs(got - pins.TRAIN_LOSS) > 1e-9:
                problems.append(
                    f"loss at step {pins.TRAIN_LOSS_STEP} is {got!r}, "
                    f"pinned {pins.TRAIN_LOSS!r}"
                )
        for backend, trainer in self.trainers.items():
            steps = len(self.losses[backend])
            measured = measured_bytes(trainer.log)
            for kind, per_step in expected_bytes_per_step(trainer).items():
                if measured[kind] != steps * per_step:
                    problems.append(
                        f"{backend} {kind} traffic {measured[kind]} B over "
                        f"{steps} steps, closed form {steps * per_step} B"
                    )
        leaked = _shm_entries() - self.shm_before
        if leaked:
            problems.append(f"shared-memory segments left: {sorted(leaked)}")
        attempted = sum(len(stamps) for stamps in self.stamps.values())
        return attempted, failed, problems

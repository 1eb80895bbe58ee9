"""PTD-P trainer: pipeline + tensor + data parallelism composed (§2).

``PTDTrainer`` builds ``d`` data-parallel replicas, each a
:class:`PipelineParallelGPT` (``p`` pipeline stages, optionally ``v``
interleaved chunks, each stage tensor-parallel over ``t`` ranks), places
them on the Megatron rank grid (`repro.comm.groups`), and runs strict
synchronous training:

1. the global batch is scattered across replicas,
2. each replica pipelines its ``m`` microbatches under the chosen
   schedule (flush at the end: strict optimizer semantics),
3. gradients are averaged across the data-parallel group with ring
   all-reduces (once per batch),
4. every replica's Adam takes the same step.

Because every stage of this is exact, PTD-P training is bit-identical
to serial training on the same global batch -- the property the paper
calls "retaining strict optimizer semantics", and the one the
integration tests assert for many (p, t, d, v) combinations.

A replica's step is :func:`forward_backward` (1-2) and
:func:`apply_update` (4) with the gradient ring (3) between them; the
cooperative loop here and the worker processes of
:mod:`repro.parallel.mp_workers` call the same two, on replicas built
from the same :class:`ReplicaSpec`.
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager
from dataclasses import dataclass

import numpy as np

from repro.comm import Backend, ProcessGroups, TrafficLog, get_backend
from repro.comm.primitives import replay_all_reduce
from repro.comm.shm_ring import WorkerPool
from repro.comm.traffic import TrafficKind
from repro.config import GPTConfig, ParallelConfig
from repro.nn import Adam
from repro.obs import span as obs_span
from repro.obs.runlog import current_run_logger
from repro.obs.tracer import current_tracer
from repro.schedule import make_schedule

from .data_parallel import all_reduce_gradients, scatter_batch
from .pipeline_parallel import PipelineParallelGPT, make_microbatches


@dataclass(frozen=True)
class ReplicaSpec:
    """Everything one data-parallel replica is built from and stepped
    with; the parent and every replica worker hold the same one."""

    config: GPTConfig
    parallel: ParallelConfig
    schedule: str
    seed: int
    lr: float
    betas: tuple[float, float]
    recompute_activations: bool
    dropout: float
    attention_dropout: float
    grad_clip_norm: float | None
    loss_scale: float

    def build(self, dp: int, log: TrafficLog) -> tuple[PipelineParallelGPT, Adam]:
        """Replica ``dp`` on its pipeline ranks of the Megatron grid,
        and its optimizer."""
        par = self.parallel
        replica = PipelineParallelGPT(
            self.config,
            make_schedule(self.schedule, par.p, par.num_microbatches, par.v),
            tensor_parallel_size=par.t,
            seed=self.seed,
            dropout=self.dropout,
            attention_dropout=self.attention_dropout,
            recompute_activations=self.recompute_activations,
            log=log,
            pipeline_ranks=ProcessGroups(par).pipeline_group(dp, tp=0),
        )
        return replica, Adam(replica.parameters(), lr=self.lr, betas=self.betas)


def forward_backward(replica: PipelineParallelGPT, ids: np.ndarray,
                     targets: np.ndarray, spec: ReplicaSpec) -> float:
    """First half of a replica's step: clear the gradients and pipeline
    its shard of the batch.  Returns the replica's mean loss."""
    m = spec.parallel.num_microbatches
    replica.zero_grad()
    return replica.run_iteration(
        make_microbatches(ids, targets, m), grad_scale=spec.loss_scale / m
    )


def apply_update(replicas: list[PipelineParallelGPT], optimizers: list[Adam],
                 spec: ReplicaSpec) -> float | None:
    """Second half, on averaged gradients: unwind the loss scale, clip
    by the *global* gradient norm, step Adam.  Returns the norm (None
    without clipping).

    Megatron clipping semantics: the norm is taken over the full model
    -- all model-parallel shards, tied parameters counted once -- and
    the same scale is applied to every shard on every replica (replicas
    hold identical averaged gradients, so the first one's norm is the
    global norm).
    """
    if spec.loss_scale != 1.0:
        for replica in replicas:
            for p in replica.parameters():
                p.grad /= spec.loss_scale
    norm = None
    if spec.grad_clip_norm is not None:
        sq = 0.0
        for p in replicas[0].parameters_for_norm():
            sq += float(np.sum(p.grad * p.grad))
        norm = float(np.sqrt(sq))
        if not (norm <= spec.grad_clip_norm or norm == 0.0):
            scale = spec.grad_clip_norm / norm
            for replica in replicas:
                for p in replica.parameters():
                    p.grad *= scale
    for opt in optimizers:
        opt.step()
    return norm


def export_state(replica: PipelineParallelGPT, optimizer: Adam) -> dict:
    """A copy of one replica's parameters and Adam state."""
    return {
        "params": [p.data.copy() for p in replica.parameters()],
        "m": [a.copy() for a in optimizer._m],
        "v": [a.copy() for a in optimizer._v],
        "step_count": optimizer.step_count,
    }


def load_state(replicas: list[PipelineParallelGPT], optimizers: list[Adam],
               state: dict) -> None:
    """Write one :func:`export_state` into every given replica."""
    for replica, opt in zip(replicas, optimizers):
        for p, arr in zip(replica.parameters(), state["params"]):
            p.data[...] = arr
        for a, arr in zip(opt._m, state["m"]):
            a[...] = arr
        for a, arr in zip(opt._v, state["v"]):
            a[...] = arr
        opt.step_count = state["step_count"]


class PTDTrainer(AbstractContextManager):
    """Train a GPT with composed pipeline/tensor/data parallelism.

    ``backend`` selects the execution substrate:

    - ``"coop"`` (default): every virtual rank executes cooperatively in
      this process — the bit-exact oracle.
    - ``"mp"``: each data-parallel replica runs as a real OS process
      (:mod:`repro.parallel.mp_workers`), bit-identical to the oracle in
      losses, parameters, optimizer state and :class:`TrafficLog`
      (``repro verify --only backend``).  The parent keeps canonical
      replicas/optimizers for checkpointing; state is pulled from
      worker 0 lazily.  Call :meth:`close` (or use the trainer as a
      context manager) to release the worker processes.
    """

    def __init__(
        self,
        config: GPTConfig,
        parallel: ParallelConfig,
        *,
        schedule: str = "1f1b",
        seed: int = 0,
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        recompute_activations: bool = False,
        dropout: float = 0.0,
        attention_dropout: float = 0.0,
        grad_clip_norm: float | None = None,
        loss_scale: float = 1.0,
        log: TrafficLog | None = None,
        backend: str | Backend = "coop",
    ):
        parallel.validate_for_model(config)
        if grad_clip_norm is not None and grad_clip_norm <= 0:
            raise ValueError("grad_clip_norm must be positive")
        if loss_scale <= 0:
            raise ValueError("loss_scale must be positive")
        self.backend = get_backend(backend)
        self._owns_backend = self.backend is not backend
        self.config = config
        self.parallel = parallel
        self.spec = ReplicaSpec(
            config, parallel, schedule, seed, lr, betas,
            recompute_activations, dropout, attention_dropout,
            grad_clip_norm, loss_scale,
        )
        self.recompute_activations = recompute_activations
        self.log = log if log is not None else TrafficLog()
        self.replicas, self.optimizers = map(list, zip(*(
            self.spec.build(dp, self.log) for dp in range(parallel.d)
        )))
        self.schedule = self.replicas[0].schedule
        self._dp_ranks = ProcessGroups(parallel).data_group(pp=0, tp=0)
        self.last_grad_norm: float | None = None
        self.iteration = 0
        # mp backend: one real process per data-parallel replica.  The
        # parent's replicas stay the canonical checkpoint state; the
        # staleness flags track which side holds the freshest weights.
        self._workers = None
        self._parent_stale = False
        self._workers_stale = False
        if self.backend.name == "mp":
            from .mp_workers import replica_ops

            d = parallel.data_parallel_size
            # d > 1: one gradient-ring segment per worker, with room for
            # every parameter as float64
            ring_bytes = 8 * sum(p.size for p in self.replicas[0].parameters())
            self._workers = WorkerPool(
                d, replica_ops, (self.spec,),
                segment_bytes=ring_bytes if d > 1 else 0,
                timeout=self.backend.timeout, name="repro-replica",
            )
        #: Callables invoked with the trainer at the top of every
        #: ``train_step``, before any compute.  The chaos harness
        #: (:mod:`repro.resilience.harness`) injects rank failures here;
        #: an exception propagates out of ``train_step`` with no state
        #: mutated, modelling a rank dying between iterations.
        self.pre_step_hooks: list = []

    def train_step(self, ids: np.ndarray, targets: np.ndarray) -> float:
        """One strict synchronous iteration on the global batch.

        ``ids``/``targets``: (B, s) integer arrays, B the global batch
        size of the parallel config.  Returns the global mean loss.
        """
        B = self.parallel.global_batch_size
        if ids.shape[0] != B:
            raise ValueError(
                f"expected global batch of {B} sequences, got {ids.shape[0]}"
            )
        for hook in list(self.pre_step_hooks):
            hook(self)
        d = self.parallel.data_parallel_size
        shards = scatter_batch(ids, targets, d)
        losses = []
        tracer = current_tracer()
        runlog = current_run_logger()
        observed = tracer is not None or runlog is not None
        step_start = time.perf_counter() if observed else 0.0
        rank_busy: dict[int, float] | None = {} if runlog is not None else None
        with obs_span("iteration", phase="iteration", iteration=self.iteration):
            if self._workers is not None:
                self._run_step_mp(shards, d, losses, rank_busy)
            else:
                self._run_step_coop(shards, d, losses, rank_busy)
        mean_loss = float(np.mean(losses))
        if observed:
            seconds = time.perf_counter() - step_start
            if tracer is not None:
                self._publish_telemetry(tracer, seconds)
            if runlog is not None:
                self._publish_runlog(
                    runlog, mean_loss, seconds, rank_busy or {}
                )
        self.iteration += 1
        return mean_loss

    def _run_step_coop(self, shards, d, losses, rank_busy) -> None:
        """The cooperative oracle step (single process, every virtual
        rank in turn) — the reference the mp path is conformed against."""
        with obs_span("pipeline", phase="pipeline"):
            for dp, (replica, (rid, rtgt)) in enumerate(
                zip(self.replicas, shards)
            ):
                replica_start = (
                    time.perf_counter() if rank_busy is not None else 0.0
                )
                losses.append(forward_backward(replica, rid, rtgt, self.spec))
                if rank_busy is not None:
                    rank_busy[dp] = time.perf_counter() - replica_start
        if d > 1:
            with obs_span("grad-allreduce", phase="grad-allreduce"):
                all_reduce_gradients(
                    [replica.parameters() for replica in self.replicas],
                    self._dp_ranks, self.log,
                )
        with obs_span("optimizer", phase="optimizer"):
            self.last_grad_norm = apply_update(
                self.replicas, self.optimizers, self.spec
            )

    def _run_step_mp(self, shards, d, losses, rank_busy) -> None:
        """One step on real processes.  The parent replays the workers'
        replica-local traffic (in data-parallel order, matching the
        oracle's sequential execution) and puts the gradient ring
        through the front door, so ``self.log`` is record-for-record
        identical to coop."""
        if self._workers_stale:
            self._workers.run(
                "set_state",
                [export_state(self.replicas[0], self.optimizers[0])] * d,
            )
            self._workers_stale = False
        with obs_span("pipeline", phase="pipeline"):
            results = self._workers.run("step", list(shards))
            for dp, (loss, records, norm, seconds) in enumerate(results):
                losses.append(loss)
                for record in records:  # (src, dst, nbytes, kind, tag)
                    self.log.add(*record)
                if rank_busy is not None:
                    rank_busy[dp] = seconds
                if dp == 0:
                    self.last_grad_norm = norm
        if d > 1:
            with obs_span("grad-allreduce", phase="grad-allreduce"):
                for i, p in enumerate(self.replicas[0].parameters()):
                    replay_all_reduce(
                        p.data.shape, p.data.dtype, self._dp_ranks, self.log,
                        TrafficKind.DATA_PARALLEL, f"dp.grad.{i}",
                    )
        with obs_span("optimizer", phase="optimizer"):
            pass  # loss-scale unwind, clip and Adam ran inside the workers
        self._parent_stale = True

    def invalidate_workers(self) -> None:
        """Mark worker state stale after the parent's replicas were
        mutated externally (checkpoint restore); a no-op on coop."""
        if self._workers is not None:
            self._workers_stale = True

    def sync_from_workers(self) -> None:
        """Ensure the parent replicas hold the freshest parameters:
        refresh them from worker 0 (replicas are bit-identical across
        the data-parallel group, so one pull covers all of them)."""
        if self._workers is not None and self._parent_stale:
            message = [("get_state", None)] + [None] * (len(self.replicas) - 1)
            state = self._workers.request(message)[0]
            load_state(self.replicas, self.optimizers, state)
            self._parent_stale = False

    def close(self) -> None:
        """Release backend resources (mp worker processes + segments)."""
        if self._workers is not None:
            self._workers.close()
        if self._owns_backend:
            self.backend.close()

    def __exit__(self, *exc):
        self.close()
        return False

    def _publish_telemetry(self, tracer, seconds: float) -> None:
        """Table-1 throughput gauges + per-GPU memory counter samples.

        Only runs under an active tracer (the untraced hot path pays a
        single ``current_tracer()`` check).  FLOPs are the eq. (3)
        closed form — the same number ``repro.verify``'s conservation
        check pins to the FlopMeter — so trainer MFU, simulator MFU,
        and the analytic model agree by construction; the *measured*
        quantity is the wall-clock iteration time.
        """
        from repro.hardware import a100_80gb
        from repro.obs.telemetry import (
            MemoryBreakdown,
            sample_memory,
            sample_throughput,
            throughput_report,
        )
        from repro.perf.memory import memory_footprint, parameters_per_rank

        report = throughput_report(
            self.config, self.parallel, seconds,
            peak_flops=a100_80gb().peak_flops,
            with_recompute=self.recompute_activations,
        )
        sample_throughput(tracer, report)
        fp = memory_footprint(
            self.config, self.parallel,
            recompute=self.recompute_activations,
        )
        sample_memory(
            tracer,
            MemoryBreakdown(parameters_per_rank(self.config, self.parallel)),
            fp.activations + fp.stage_inputs,
        )

    def _publish_runlog(self, runlog, loss: float, seconds: float,
                        rank_busy: dict[int, float]) -> None:
        """One run-log heartbeat round + iteration record.

        ``rank_busy`` carries per-data-parallel-replica pipeline self
        times (the live engine's per-rank span self-time proxy — the
        replicas are the concurrently-schedulable units here).  Only
        runs when a run logger is active; the bare hot path pays a
        single ``current_run_logger()`` check
        (``benchmarks/bench_monitor_overhead.py``).
        """
        from repro.hardware import a100_80gb

        if not hasattr(self, "_runlog_flops"):
            self._runlog_flops = self.config.flops_per_iteration(
                self.parallel.global_batch_size,
                with_recompute=self.recompute_activations,
            )
            self._runlog_peak = a100_80gb().peak_flops
        world = self.parallel.world_size
        tokens = self.parallel.global_batch_size * self.config.seq_length
        runlog.heartbeat(range(world), self.iteration)
        runlog.iteration(
            self.iteration, loss, seconds,
            tokens_per_s=tokens / seconds,
            mfu=self._runlog_flops / world / seconds / self._runlog_peak,
            grad_norm=self.last_grad_norm,
            rank_busy=rank_busy,
        )

    def evaluate(self, ids: np.ndarray, targets: np.ndarray) -> float:
        """Loss without gradient accumulation or update (replica 0)."""
        self.sync_from_workers()
        m = self.parallel.num_microbatches
        d = self.parallel.data_parallel_size
        per = ids.shape[0] // d
        replica = self.replicas[0]
        replica.zero_grad()
        microbatches = make_microbatches(ids[:per], targets[:per], m)
        loss = replica.run_iteration(microbatches, training=False, grad_scale=0.0)
        replica.zero_grad()
        return loss

    def gather_state_dict(self) -> dict[str, np.ndarray]:
        """Replica 0's full serial-layout weights."""
        self.sync_from_workers()
        return self.replicas[0].gather_state_dict()

    def parameters_per_rank(self) -> int:
        """Trainable parameters held by one GPU (model-parallel shard)."""
        # a replica's parameter list is already one rank's shard
        return sum(p.size for p in self.replicas[0].parameters())

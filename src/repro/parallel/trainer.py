"""PTD-P trainer: pipeline + tensor + data parallelism composed (§2).

``PTDTrainer`` builds ``d`` data-parallel replicas, each a
:class:`PipelineParallelGPT` (``p`` pipeline stages, optionally ``v``
interleaved chunks, each stage tensor-parallel over ``t`` ranks), places
them on the Megatron rank grid (`repro.comm.groups`), and runs strict
synchronous training:

1. the global batch is scattered across replicas,
2. each replica pipelines its ``m`` microbatches under the chosen
   schedule (flush at the end: strict optimizer semantics),
3. the data-parallel gradient ring runs its reduce-scatter phase (once
   per batch) over each replica's flat gradient vector -- every
   parameter's gradient end to end, Megatron's contiguous buffer:
   replica ``r`` ends holding its owned range
   (:func:`~repro.comm.primitives.owned_chunk` of the vector) summed,
4. each replica's Adam steps that range only -- it keeps moments for
   nothing else (the distributed optimizer, ZeRO stage 1),
5. the ring's all-gather phase carries the updated ranges over the flat
   parameter vectors, so every replica again holds the whole model.

ZeRO stage 3 (``zero_stage=3``, the §5.2 baseline) is the same step
plus one more all-gather of the parameters before the pipeline: the
reduce-scatter, the sharded update and the post-update gather are
stage 1's, so only the traffic differs (DESIGN.md, "Distributed
optimizer").

Because every stage of this is exact, PTD-P training is bit-identical
to serial training on the same global batch -- the property the paper
calls "retaining strict optimizer semantics", and the one the
integration tests assert for many (p, t, d, v) combinations.

A replica's step is :func:`forward_backward` (1-2) and
:func:`apply_update` (4) with the ring's phases around the update; the
cooperative loop here and the worker processes of
:mod:`repro.parallel.mp_workers` call the same two, on replicas built
from the same :class:`ReplicaSpec`.
"""

from __future__ import annotations

import time
from contextlib import AbstractContextManager
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.comm import Backend, ProcessGroups, TrafficLog, get_backend
from repro.comm.primitives import COOP, log_collective, owned_chunk
from repro.comm.shm_ring import WorkerPool
from repro.comm.traffic import TrafficKind
from repro.config import GPTConfig, ParallelConfig
from repro.nn import Adam, WarmupCosineSchedule, heap
from repro.obs import span as obs_span
from repro.obs.metrics import report_iteration
from repro.obs.runlog import current_run_logger
from repro.obs.tracer import current_tracer
from repro.schedule import make_schedule

from .data_parallel import scatter_batch
from .pipeline_parallel import PipelineParallelGPT, make_microbatches

@dataclass(frozen=True)
class ReplicaSpec:
    """Everything one data-parallel replica is built from and stepped
    with; the parent and every replica worker hold the same one.

    ``lr`` is a float or a schedule with ``lr_at(step)``; every
    replica's optimizer is built with it and reads it at its own
    ``step_count``, so the rate is a function of the step on every
    process and a restored step count restores it."""

    config: GPTConfig
    parallel: ParallelConfig
    schedule: str
    seed: int
    lr: float | WarmupCosineSchedule
    betas: tuple[float, float]
    recompute_activations: bool
    dropout: float
    attention_dropout: float
    grad_clip_norm: float | None
    loss_scale: float
    zero_stage: int

    def flat_size(self) -> int:
        """P, the length of a replica's flat parameter vector
        (``replica.flat_data.size``), without building one: the model's
        parameters, plus the head's copy of the tied embedding when
        there are several pipeline stages."""
        cfg = self.config
        tied = cfg.vocab_size * cfg.hidden_size if self.parallel.p > 1 else 0
        return cfg.num_parameters_exact() + tied

    def build(self, dp: int, log: TrafficLog, buffer: np.ndarray | None = None,
              ) -> tuple[PipelineParallelGPT, Adam]:
        """Replica ``dp`` on its pipeline ranks of the Megatron grid,
        laid flat in ``buffer`` (gradients in its first P elements,
        parameters in the next P) or in a fresh one, and its optimizer
        over the range ``owned_chunk(P, d, dp)`` of the flat vector."""
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
            buffer=buffer,
        )
        params = replica.parameters()
        n = replica.flat_data.size
        lo, hi = owned_chunk(n, par.d, dp)
        mine, owned = [], []
        offset = 0
        for p in params:
            start, stop = max(lo - offset, 0), min(hi - offset, p.size)
            if start < stop:
                mine.append(p)
                owned.append((start, stop))
            offset += p.size
        optimizer = Adam(mine, lr=self.lr, betas=self.betas, owned=owned)
        # The serial model the shards were cut from and the shards laid
        # flat are freed now, never to be needed again.
        heap.release_freed_heap()
        return replica, optimizer


def forward_backward(replica: PipelineParallelGPT, ids: np.ndarray,
                     targets: np.ndarray, spec: ReplicaSpec) -> float:
    """First half of a replica's step: re-tie the embedding copies,
    clear the gradients and pipeline its shard of the batch.  Returns
    the replica's mean loss."""
    m = spec.parallel.num_microbatches
    replica.retie_embeddings()
    replica.zero_grad()
    return replica.run_iteration(
        make_microbatches(ids, targets, m), grad_scale=spec.loss_scale / m
    )


def apply_update(replicas: list[PipelineParallelGPT], optimizers: list[Adam],
                 spec: ReplicaSpec, gather=lambda partials: partials,
                 ) -> float | None:
    """Second half, on each optimizer's owned range of the averaged
    gradients: unwind the loss scale, clip by the *global* gradient
    norm, step Adam.  Returns the norm (None without clipping).

    Megatron clipping semantics: the norm is taken over the full model
    -- all model-parallel shards, tied parameters counted once -- and
    the same scale is applied everywhere.  Each replica sums the squares
    of its owned slices of ``parameters_for_norm()``; ``gather`` returns
    every data-parallel rank's partial sum in rank order (here, where
    all replicas are given, the partials themselves), and their sum is
    the squared norm on every replica.
    """
    if spec.loss_scale != 1.0:
        for opt in optimizers:
            for g in opt.owned_grads:
                g /= spec.loss_scale
    norm = None
    if spec.grad_clip_norm is not None:
        partials = []
        for replica, opt in zip(replicas, optimizers):
            counted = {id(p) for p in replica.parameters_for_norm()}
            sq = 0.0
            for p, g in zip(opt.params, opt.owned_grads):
                if id(p) in counted:
                    sq += float(np.sum(g * g))
            partials.append(sq)
        sq = 0.0
        for partial in gather(partials):
            sq += partial
        norm = float(np.sqrt(sq))
        if not (norm <= spec.grad_clip_norm or norm == 0.0):
            scale = spec.grad_clip_norm / norm
            for opt in optimizers:
                for g in opt.owned_grads:
                    g *= scale
    for opt in optimizers:
        opt.step()
    return norm


def export_state(optimizer: Adam,
                 replica: PipelineParallelGPT | None = None) -> dict:
    """A copy of one replica's Adam state, and of its flat parameter
    vector when ``replica`` is given."""
    state = {
        "m": optimizer.m.copy(),
        "v": optimizer.v.copy(),
        "step_count": optimizer.step_count,
    }
    if replica is not None:
        state["params"] = replica.flat_data.copy()
    return state


def load_state(replica: PipelineParallelGPT, optimizer: Adam,
               state: dict) -> None:
    """Write one :func:`export_state` into a replica and its optimizer."""
    if "params" in state:
        replica.flat_data[...] = state["params"]
    optimizer.m[...] = state["m"]
    optimizer.v[...] = state["v"]
    optimizer.step_count = state["step_count"]


@lru_cache(maxsize=16)
def _memory_samples(config: GPTConfig, parallel: ParallelConfig,
                    recompute: bool) -> tuple[tuple[str, int], ...]:
    """A traced step's per-GPU ``mem.*`` samples, in bytes: the
    model-state split of ``perf.memory`` and the activation stash its
    footprint model predicts.  Constants of the frozen configs, so
    computed once rather than every traced step."""
    from repro.perf.memory import (
        MODEL_STATE_SPLIT,
        memory_footprint,
        parameters_per_rank,
    )

    params = parameters_per_rank(config, parallel)
    fp = memory_footprint(config, parallel, recompute=recompute)
    return (*((f"mem.{part}.bytes", nbytes * params)
              for part, nbytes in MODEL_STATE_SPLIT),
            ("mem.activations.bytes", fp.activations + fp.stage_inputs))


class PTDTrainer(AbstractContextManager):
    """Train a GPT with composed pipeline/tensor/data parallelism.

    ``backend`` selects the execution substrate:

    - ``"coop"`` (default): every virtual rank executes cooperatively in
      this process — the bit-exact oracle.
    - ``"mp"``: each data-parallel replica runs as a real OS process
      (:mod:`repro.parallel.mp_workers`), bit-identical to the oracle in
      losses, parameters, optimizer state and :class:`TrafficLog`
      (``repro verify --only backend``).  The parent keeps canonical
      replicas/optimizers for checkpointing; state is pulled lazily,
      parameters from worker 0 and each optimizer shard from its own
      worker.  Call :meth:`close` (or use the trainer as a
      context manager) to release the worker processes.

    ``lr`` is a float or a frozen
    :class:`~repro.nn.lr_scheduler.WarmupCosineSchedule`.  The parent's
    ``optimizers[i]`` hold the one copy of the rate, betas, eps and
    weight decay: mp workers receive them with every step, so writing
    one acts the same on both backends.
    ``zero_stage`` is 1 (the distributed optimizer) or 3 (ZeRO-3: one
    more parameter all-gather per step).
    """

    def __init__(
        self,
        config: GPTConfig,
        parallel: ParallelConfig,
        *,
        schedule: str = "1f1b",
        seed: int = 0,
        lr: float | WarmupCosineSchedule = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        recompute_activations: bool = False,
        dropout: float = 0.0,
        attention_dropout: float = 0.0,
        grad_clip_norm: float | None = None,
        loss_scale: float = 1.0,
        zero_stage: int = 1,
        log: TrafficLog | None = None,
        backend: str | Backend = "coop",
    ):
        heap.keep_heap_resident()
        parallel.validate_for_model(config)
        if grad_clip_norm is not None and grad_clip_norm <= 0:
            raise ValueError("grad_clip_norm must be positive")
        if loss_scale <= 0:
            raise ValueError("loss_scale must be positive")
        if zero_stage not in (1, 3):
            raise ValueError("zero_stage must be 1 or 3")
        self.backend = get_backend(backend)
        self._owns_backend = self.backend is not backend
        self.config = config
        self.parallel = parallel
        self.spec = ReplicaSpec(
            config, parallel, schedule, seed, lr, betas,
            recompute_activations, dropout, attention_dropout,
            grad_clip_norm, loss_scale, zero_stage,
        )
        self.recompute_activations = recompute_activations
        self.log = log if log is not None else TrafficLog()
        # mp backend: one real process per data-parallel replica, forked
        # before the parent builds its d.  Each worker holds its own
        # replica and none of this or any other trainer's: their flat
        # vectors and moments live in mappings no fork copies, and the
        # pool trims the freed heap before it forks.  The parent's
        # replicas stay the canonical checkpoint state; the staleness
        # flags track which side holds the freshest weights.
        self._workers = None
        self._parent_stale = False
        self._workers_stale = False
        try:
            if self.backend.name == "mp":
                from .mp_workers import replica_ops

                d = parallel.data_parallel_size
                # d > 1: one ring segment per worker, holding its
                # replica's gradients and parameters
                # (mp_workers.replica_ops) and its partial sum of squares
                # for the gradient norm
                ring_bytes = 8 * (2 * self.spec.flat_size() + 1)
                self._workers = WorkerPool(
                    d, replica_ops, (self.spec,),
                    segment_bytes=ring_bytes if d > 1 else 0,
                    timeout=self.backend.timeout, name="repro-replica",
                )
            self.replicas, self.optimizers = map(list, zip(*(
                self.spec.build(dp, self.log) for dp in range(parallel.d)
            )))
        except BaseException:
            # no worker process or segment outlives a failed constructor
            self.close()
            raise
        self.schedule = self.replicas[0].schedule
        self._dp_ranks = ProcessGroups(parallel).data_group(pp=0, tp=0)
        self.last_grad_norm: float | None = None
        self.iteration = 0
        #: Callables invoked with the trainer at the top of every
        #: ``train_step``, before any compute.  The chaos harness
        #: (:mod:`repro.resilience.harness`) injects rank failures here;
        #: an exception propagates out of ``train_step`` with no state
        #: mutated, modelling a rank dying between iterations.
        self.pre_step_hooks: list = []

    def train_step(self, ids: np.ndarray, targets: np.ndarray) -> float:
        """One strict synchronous iteration on the global batch.

        ``ids``/``targets``: (B, s) integer arrays, B the global batch
        size of the parallel config, ``s <= seq_length`` and every value
        a token id.  Returns the global mean loss.
        """
        self._check_batch(ids, targets)
        for hook in list(self.pre_step_hooks):
            hook(self)
        d = self.parallel.data_parallel_size
        shards = scatter_batch(ids, targets, d)
        losses = []
        tracer = current_tracer()
        runlog = current_run_logger()
        observed = tracer is not None or runlog is not None
        step_start = time.perf_counter() if observed else 0.0
        # Per-DP-replica pipeline self times: the run log's per-rank busy
        # proxy (the replicas are the concurrently schedulable units).
        rank_busy: dict[int, float] | None = {} if runlog is not None else None
        with obs_span("iteration", phase="iteration", iteration=self.iteration):
            if self._workers is not None:
                self._run_step_mp(shards, d, losses, rank_busy)
            else:
                self._run_step_coop(shards, d, losses, rank_busy)
        mean_loss = float(np.mean(losses))
        if observed:
            seconds = time.perf_counter() - step_start
            from repro.hardware import a100_80gb

            report_iteration(
                tracer, runlog, self.config, self.parallel, seconds,
                peak_flops=a100_80gb().peak_flops,
                with_recompute=self.recompute_activations,
                iteration=self.iteration, loss=mean_loss,
                grad_norm=self.last_grad_norm, rank_busy=rank_busy or {},
            )
            if tracer is not None:
                for name, nbytes in _memory_samples(
                        self.config, self.parallel, self.recompute_activations):
                    tracer.sample(name, nbytes)
        self.iteration += 1
        return mean_loss

    def _check_batch(self, ids: np.ndarray, targets: np.ndarray) -> None:
        """Refuse a batch the model cannot take, before anything runs,
        naming the offending length or value: every t fails alike."""
        B, V = self.parallel.global_batch_size, self.config.vocab_size
        if ids.shape != targets.shape:
            raise ValueError(f"targets of shape {targets.shape} for ids of "
                             f"shape {ids.shape}")
        if ids.ndim != 2 or ids.shape[0] != B:
            raise ValueError(f"expected global batch of {B} sequences, got "
                             f"shape {ids.shape}")
        s, S = ids.shape[1], self.config.seq_length
        if not 0 < s <= S:
            raise ValueError(f"sequence length {s} exceeds max {S}" if s
                             else "empty sequences")
        for name, arr in (("ids", ids), ("targets", targets)):
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"{name} must be integers, got {arr.dtype}")
            lo, hi = arr.min(), arr.max()
            if lo < 0 or hi >= V:
                raise ValueError(f"{name} holds {lo if lo < 0 else hi}, "
                                 f"outside the vocabulary [0, {V})")

    def _run_step_coop(self, shards, d, losses, rank_busy) -> None:
        """The cooperative oracle step (single process, every virtual
        rank in turn) — the reference the mp path is conformed against."""
        if d > 1 and self.spec.zero_stage == 3:
            self._gradient_ring(COOP.all_gather_phase, "flat_data", "zero3")
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
            self._gradient_ring(COOP.reduce_scatter_phase, "flat_grad",
                                "grad")
            for dp, replica in enumerate(self.replicas):
                lo, hi = owned_chunk(replica.flat_grad.size, d, dp)
                replica.flat_grad[lo:hi] /= d
        with obs_span("optimizer", phase="optimizer"):
            self.last_grad_norm = apply_update(
                self.replicas, self.optimizers, self.spec
            )
            self._log_norm_gather()
        if d > 1:
            self._gradient_ring(COOP.all_gather_phase, "flat_data", "param")

    def _run_step_mp(self, shards, d, losses, rank_busy) -> None:
        """One step on real processes.  The parent writes the workers'
        replica-local traffic entries (in data-parallel order, matching
        the oracle's sequential execution) and puts both phases of their
        gradient ring through the front door, so ``self.log`` is
        entry-for-entry identical to coop."""
        from .mp_workers import WORKER_RING

        if self._workers_stale:
            self._workers.run("set_state", [
                export_state(opt, replica)
                for replica, opt in zip(self.replicas, self.optimizers)
            ])
            self._workers_stale = False
        if d > 1 and self.spec.zero_stage == 3:
            self._gradient_ring(WORKER_RING.all_gather_phase, "flat_data",
                                "zero3")
        with obs_span("pipeline", phase="pipeline"):
            # each worker steps with its parent optimizer's rate, betas,
            # eps and weight decay, so a write to any of them on
            # ``optimizers[i]`` acts as it does on coop
            results = self._workers.run("step", [
                (*shard, opt.lr, opt.betas, opt.eps, opt.weight_decay)
                for shard, opt in zip(shards, self.optimizers)
            ])
            for dp, (loss, entries, norm, seconds) in enumerate(results):
                losses.append(loss)
                for entry in entries:
                    self.log.write(entry)
                if rank_busy is not None:
                    rank_busy[dp] = seconds
                if dp == 0:
                    self.last_grad_norm = norm
        if d > 1:
            self._gradient_ring(WORKER_RING.reduce_scatter_phase,
                                "flat_grad", "grad")
        with obs_span("optimizer", phase="optimizer"):
            # loss-scale unwind, clip and Adam ran inside the workers
            self._log_norm_gather()
        if d > 1:
            self._gradient_ring(WORKER_RING.all_gather_phase, "flat_data",
                                "param")
        self._parent_stale = True

    def _gradient_ring(self, phase, attr: str, tag: str) -> None:
        """One phase of the data-parallel ring through the collective
        front door, over every replica's ``flat_grad`` or ``flat_data``,
        tagged ``dp.<tag>``."""
        with obs_span("grad-allreduce", phase="grad-allreduce"):
            phase([getattr(replica, attr) for replica in self.replicas],
                  self._dp_ranks, self.log, TrafficKind.DATA_PARALLEL,
                  f"dp.{tag}")

    def _log_norm_gather(self) -> None:
        """Clipping's all-gather of one partial sum of squares per
        data-parallel rank: logged, like the cross-entropy scalars, as
        the traffic it is (the mp workers move it through their ring
        segments)."""
        if self.spec.grad_clip_norm is not None:
            ranks = self._dp_ranks
            log_collective(self.log, "all_gather", ranks, (8,) * len(ranks),
                           TrafficKind.DATA_PARALLEL, "dp.norm")

    def invalidate_workers(self) -> None:
        """Mark worker state stale after the parent's replicas were
        mutated externally (checkpoint restore); a no-op on coop."""
        if self._workers is not None:
            self._workers_stale = True

    def sync_from_workers(self) -> None:
        """Ensure the parent replicas hold the freshest state: parameters
        from worker 0 (replicas are bit-identical across the
        data-parallel group, so one pull covers all of them) and each
        optimizer's shard from the worker that owns it."""
        if self._workers is not None and self._parent_stale:
            states = self._workers.run(
                "get_state", [dp > 0 for dp in range(len(self.replicas))]
            )
            params = states[0]["params"]
            for replica, opt, state in zip(
                self.replicas, self.optimizers, states
            ):
                load_state(replica, opt, {**state, "params": params})
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

    def gather_state_dict(self) -> dict[str, np.ndarray]:
        """Replica 0's full serial-layout weights."""
        self.sync_from_workers()
        return self.replicas[0].gather_state_dict()

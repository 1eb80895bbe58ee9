"""Discrete-event simulation of one PTD-P training iteration.

Executes a pipeline schedule over a modelled cluster:

- **compute**: each (stage, microbatch) forward/backward is priced by
  the roofline kernel model (:mod:`repro.perf.layer_costs`), including
  the tensor-parallel all-reduce time serialized inside each layer
  (2 per layer per direction, §2.3; recomputation repeats the forward
  ones);
- **pipeline p2p**: every cross-device dependency edge of the schedule
  pays the stage-boundary transfer (``b s h`` at fp16), optionally with
  the §4.1 scatter/gather optimization;
- **data parallelism**: one gradient ring all-reduce per iteration over
  the data-parallel group, after the pipeline flush, plus the tied
  embedding all-reduce between first and last stages;
- **optimizer**: a memory-bound pass over the rank's model state.

List scheduling is exact for this system: per-device op order is fixed
by the schedule, so each op starts at max(device free, dependencies
done + transfer time).

Everything above is priced before any schedule is walked
(:func:`price_iteration`); the same tables give a closed-form lower
bound on the iteration time
(:meth:`IterationPricing.critical_path_bound`) that ``repro.perf``
searches and estimates with.

The simulated timeline yields iteration time, from which the paper's
metrics follow: achieved Tflop/s per GPU (eq. (3) FLOPs / n / time),
sequences per second, and the compute/bubble/communication breakdown.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.comm import CommCostModel, ProcessGroups
from repro.config import GPTConfig, ParallelConfig
from repro.hardware import (
    ClusterTopology,
    ComputeModel,
    NodeSpec,
    cluster_for_gpus,
    dgx_a100,
)
from repro.obs.runlog import current_run_logger
from repro.obs.tracer import GLOBAL_RANK, current_tracer
from repro.perf.layer_costs import StageCost, stage_compute_cost
from repro.perf.memory import MODEL_STATE_BYTES_PER_PARAM, parameters_per_rank
from repro.schedule import OpKind, TimedOp, completion_order, make_schedule


@dataclass(frozen=True)
class SimTimedOp(TimedOp):
    """A simulated-timeline window that carries its op identity.

    Extends the schedule-level :class:`~repro.schedule.TimedOp`
    (rank, op, start, end) with the resolved global ``stage`` and the
    p2p communication time folded into the window, so exporters and
    the timeline renderer can label windows without re-resolving the
    schedule.
    """

    stage: int = 0
    comm_time: float = 0.0

    @property
    def kind(self) -> OpKind:
        return self.op.kind

    @property
    def microbatch(self) -> int:
        return self.op.microbatch


@dataclass(frozen=True)
class SimOptions:
    """Simulation switches (the paper's implementation options).

    ``compute_slowdown`` and ``bandwidth_derate`` are the fault-
    injection hooks used by :mod:`repro.resilience.faults`: training is
    synchronous, so a straggling rank paces every iteration — the
    slowdown multiplies compute and optimizer time (communication is
    priced separately, and degraded links are ``bandwidth_derate``'s
    job, applied to every bandwidth term of the comm cost model).
    """

    schedule_name: str = "1f1b"
    fused_kernels: bool = True
    recompute_activations: bool = True
    scatter_gather: bool = True
    grad_dtype_size: int = 2  # fp16 gradient all-reduce
    activation_dtype_size: int = 2
    overlap_p2p: bool = False  # paper: sends/recvs in parallel w/ compute
    tp_channels: int = 2  # NCCL channels for per-layer TP collectives
    collect_timeline: bool = False  # keep per-op SimTimedOp windows
    compute_slowdown: float = 1.0  # straggler multiplier (>= 1)
    bandwidth_derate: float = 1.0  # link health factor in (0, 1]

    def __post_init__(self) -> None:
        if self.compute_slowdown < 1:
            raise ValueError(
                f"compute_slowdown must be >= 1, got {self.compute_slowdown}"
            )
        if not 0 < self.bandwidth_derate <= 1:
            raise ValueError(
                f"bandwidth_derate must be in (0, 1], got {self.bandwidth_derate}"
            )


@dataclass
class SimulationResult:
    """Timing and throughput of one training iteration."""

    iteration_time: float
    pipeline_time: float
    data_parallel_time: float
    optimizer_time: float
    compute_time_per_rank: list[float]
    p2p_time_total: float
    tp_comm_time_total: float
    model_flops: int
    num_gpus: int
    global_batch_size: int
    seq_length: int
    peak_flops: float
    extras: dict = field(default_factory=dict)

    @property
    def tflops_per_gpu(self) -> float:
        """Achieved model Tflop/s per GPU (the paper's Table-1 metric)."""
        return self.model_flops / self.num_gpus / self.iteration_time / 1e12

    @property
    def peak_fraction(self) -> float:
        return self.tflops_per_gpu * 1e12 / self.peak_flops

    @property
    def aggregate_pflops(self) -> float:
        return self.tflops_per_gpu * self.num_gpus / 1e3

    @property
    def sequences_per_second(self) -> float:
        return self.global_batch_size / self.iteration_time

    @property
    def tokens_per_second(self) -> float:
        return self.sequences_per_second * self.seq_length

    @property
    def bubble_fraction(self) -> float:
        """Mean idle fraction of the pipeline phase across ranks."""
        if self.pipeline_time == 0:
            return 0.0
        busy = sum(self.compute_time_per_rank) / len(self.compute_time_per_rank)
        return max(0.0, 1.0 - busy / self.pipeline_time)


@dataclass(frozen=True)
class IterationPricing:
    """What every piece of one iteration costs, before a schedule is
    walked.  The tables are indexed ``[kind][stage]``, kind 0 forward /
    1 backward as in the schedule's completion order, stage global
    (chunk ``c`` of pipeline rank ``r`` is stage ``c * p + r``)."""

    stage_costs: list[StageCost]  # compute only, per microbatch
    tp_time: tuple[float, float]  # serialized TP all-reduces of one op
    comm_time: tuple[list[float], list[float]]  # p2p of both stage edges
    dur: tuple[list[float], list[float]]  # what one op occupies its device for
    pipe_ranks: list[int]  # the dp=0, tp=0 representative pipeline
    params_rank: int
    dp_time: float  # gradient all-reduce over the data-parallel group
    embed_time: float  # tied-embedding all-reduce, first <-> last stage
    opt_time: float

    def critical_path_bound(self, num_microbatches: int) -> float:
        """Admissible lower bound on ``iteration_time`` under any of the
        generator-made schedules, in O(p * v).

        Pipeline rank ``r`` opens with the forward of stage ``r`` and
        closes with the backward of stage ``r``: its first op waits for
        the forwards of stages ``0..r-1``, it then runs every one of its
        own ops, and the backwards of stages ``r-1..0`` can only follow
        its last.  Dependencies and device occupancy can only delay an
        op, so no rank's chain finishes sooner -- the paper's
        ``(m + p - 1)(t_f + t_b)`` without assuming uniform stages.
        """
        fwd, bwd = self.dur
        p = len(self.pipe_ranks)
        pipeline = ramp = 0.0
        for r in range(p):
            own = sum(fwd[r::p]) + sum(bwd[r::p])
            pipeline = max(pipeline, ramp + num_microbatches * own)
            ramp += fwd[r] + bwd[r]
        return pipeline + self.dp_time + self.embed_time + self.opt_time


def price_iteration(
    config: GPTConfig,
    parallel: ParallelConfig,
    options: SimOptions,
    node: NodeSpec,
    topology: ClusterTopology | None = None,
) -> IterationPricing:
    """Price one iteration of ``config`` under ``parallel``: per-stage
    op durations and the three terms that follow the pipeline flush."""
    parallel.validate_for_model(config)
    topo = topology or cluster_for_gpus(max(parallel.world_size, 1), node)
    compute = ComputeModel(device=node.device)
    comm = CommCostModel(topo, bandwidth_derate=options.bandwidth_derate)
    groups = ProcessGroups(parallel)

    p, t, d, v = parallel.p, parallel.t, parallel.d, parallel.v
    b, s, h = parallel.b, config.seq_length, config.hidden_size

    # -- per-stage compute + TP-collective durations -----------------------
    layers_per_stage = config.num_layers // (p * v)
    tp_ranks = groups.tensor_group(pp=0, dp=0)
    boundary_bytes = b * s * h * options.activation_dtype_size
    tp_ar_bytes = boundary_bytes  # each of the 2 per-layer all-reduces
    # Per-layer TP collectives are latency-bound and run on few NCCL
    # channels when the group spans nodes -- they cannot saturate the
    # node's 8 HCAs the way the fused DP gradient buffer does.
    tp_ar_time = (
        comm.all_reduce_time(tp_ranks, tp_ar_bytes, channels=options.tp_channels)
        if t > 1
        else 0.0
    )

    # Interior stages all cost the same; only the first and last carry
    # embedding / logit extras.
    total_stages = p * v
    stages = range(total_stages)
    last = total_stages - 1
    bwd_ars = 2 + (2 if options.recompute_activations else 0)
    tp_time = (
        2 * layers_per_stage * tp_ar_time,
        bwd_ars * layers_per_stage * tp_ar_time,
    )
    cost = {
        ends: stage_compute_cost(
            compute, config, layers_per_stage, b, t,
            is_first=ends[0], is_last=ends[1],
            fused=options.fused_kernels,
            recompute=options.recompute_activations,
        )
        for ends in {(g == 0, g == last) for g in stages}
    }
    costs = [cost[g == 0, g == last] for g in stages]

    # -- pipeline ranks (dp=0, tp=0 representative pipeline) ---------------
    pipe_ranks = groups.pipeline_group(dp=0, tp=0)

    # Transfers occupy both endpoints (synchronous, non-overlapped p2p,
    # as in Megatron's interleaved schedule): the consuming op's
    # duration grows by its receive and the producing op's by its send.
    # The §4.1 scatter/gather optimization shrinks exactly these terms
    # on inter-node hops.  ``hop[r]`` is one transfer between pipeline
    # ranks ``r - 1`` and ``r`` (``hop[0]`` the wrap from the last rank
    # back to the first, which only chunks cross): the activation going
    # one way and its gradient coming back cost the same, and so does
    # every chunk's crossing of the same pair.  A pair's price depends
    # on its ranks through the link's class alone (NVLink, or 2 / 4 / 6
    # switch hops), so each class is priced once.
    hop = [0.0] * p
    if p > 1 and not options.overlap_p2p:
        class_time: dict[int, float] = {}
        for r in range(0 if v > 1 else 1, p):
            src, dst = pipe_ranks[r - 1], pipe_ranks[r]
            link_class = topo.hop_count(src, dst)
            if link_class not in class_time:
                class_time[link_class] = comm.pipeline_p2p_time(
                    src, dst, boundary_bytes, t,
                    scatter_gather=options.scatter_gather,
                )
            hop[r] = class_time[link_class]
    # ``edge[g]`` is the boundary below stage ``g`` (stage ``g`` lives on
    # rank ``g % p``); nothing crosses either end of the pipeline.  An
    # op pays for both edges of its stage, forward or backward.
    edge = [0.0, *(hop * v)[1:], 0.0]
    both_edges = [below + above for below, above in zip(edge, edge[1:])]
    comm_time = (both_edges, list(both_edges))
    slow = options.compute_slowdown
    dur = (
        [c.forward * slow + tp_time[0] + x for c, x in zip(costs, comm_time[0])],
        [c.backward * slow + tp_time[1] + x for c, x in zip(costs, comm_time[1])],
    )

    # -- data-parallel gradient all-reduce + embedding sync -----------------
    params_rank = parameters_per_rank(config, parallel)
    dp_time = 0.0
    if d > 1:
        dp_ranks = groups.data_group(pp=0, tp=0)
        dp_time = comm.all_reduce_time(
            dp_ranks, params_rank * options.grad_dtype_size
        )
    embed_time = 0.0
    if p > 1:
        emb_bytes = (
            config.vocab_size // t * h * options.grad_dtype_size
        )
        embed_time = comm.all_reduce_time(
            [pipe_ranks[0], pipe_ranks[-1]], emb_bytes
        )

    # -- optimizer step: memory-bound pass over the model state -------------
    opt_time = (
        compute.memory_time(params_rank * MODEL_STATE_BYTES_PER_PARAM)
        * options.compute_slowdown
    )
    return IterationPricing(
        stage_costs=costs, tp_time=tp_time, comm_time=comm_time, dur=dur,
        pipe_ranks=pipe_ranks, params_rank=params_rank,
        dp_time=dp_time, embed_time=embed_time, opt_time=opt_time,
    )


def simulate_iteration(
    config: GPTConfig,
    parallel: ParallelConfig,
    *,
    options: SimOptions | None = None,
    node: NodeSpec | None = None,
    topology: ClusterTopology | None = None,
) -> SimulationResult:
    """Simulate one training iteration of ``config`` under ``parallel``."""
    options = options or SimOptions()
    node = node or dgx_a100()
    pricing = price_iteration(config, parallel, options, node, topology)
    tp_time, comm_time, dur = pricing.tp_time, pricing.comm_time, pricing.dur
    pipe_ranks, params_rank = pricing.pipe_ranks, pricing.params_rank
    dp_time, embed_time, opt_time = (
        pricing.dp_time, pricing.embed_time, pricing.opt_time
    )

    n = parallel.world_size
    p, t, d, v = parallel.p, parallel.t, parallel.d, parallel.v
    m = parallel.num_microbatches
    b, s, h = parallel.b, config.seq_length, config.hidden_size
    layers_per_stage = config.num_layers // (p * v)
    stages = range(p * v)
    schedule = make_schedule(options.schedule_name, p, m, v)

    def stage_rank(stage: int) -> int:
        return pipe_ranks[stage % p]

    # -- list-schedule the ops ---------------------------------------------
    # The schedule's completion order is the order this loop has always
    # visited ops in, and the two running sums depend on it: keep them
    # sequential float adds (see DESIGN.md, "Schedules are computed once").
    tracer = current_tracer()
    order = completion_order(schedule)
    finish = [0.0]  # position 0 is "no dependency"
    device_free = [0.0] * p
    busy = [0.0] * p
    p2p_total = 0.0
    collect = options.collect_timeline or tracer is not None
    timeline: list[SimTimedOp] | None = [] if collect else None
    for rank, index, stage, kind, dep_a, dep_b in zip(*order):
        ready = device_free[rank]
        if finish[dep_a] > ready:
            ready = finish[dep_a]
        if finish[dep_b] > ready:
            ready = finish[dep_b]
        op_dur = dur[kind][stage]
        end = ready + op_dur
        finish.append(end)
        device_free[rank] = end
        busy[rank] += op_dur
        p2p_total += comm_time[kind][stage]
        if timeline is not None:
            timeline.append(SimTimedOp(
                rank, schedule.ops[rank][index], ready, end,
                stage=stage, comm_time=comm_time[kind][stage],
            ))
    pipeline_time = max(device_free)

    tp_comm_total = sum(
        m * (tp_time[0] + tp_time[1]) for _ in stages
    )
    iteration_time = pipeline_time + dp_time + embed_time + opt_time
    model_flops = config.flops_per_iteration(
        parallel.global_batch_size,
        with_recompute=options.recompute_activations,
    )

    # -- emit the simulated timeline as spans (modelled clock) --------------
    if tracer is not None and timeline is not None:
        for w in timeline:
            backward = w.kind is OpKind.BACKWARD
            tracer.add_span(
                str(w.op),
                phase="backward" if backward else "forward",
                rank=stage_rank(w.stage),
                start=w.start,
                end=w.end,
                microbatch=w.microbatch,
                chunk=w.op.chunk,
                stage=w.stage,
                comm_time=w.comm_time,
                tp_time=tp_time[backward],
            )
        t0 = pipeline_time
        if d > 1:
            tracer.add_span(
                "grad-allreduce", phase="grad-allreduce", rank=GLOBAL_RANK,
                start=t0, end=t0 + dp_time,
                bytes=params_rank * options.grad_dtype_size, group=d,
            )
        if p > 1:
            tracer.add_span(
                "tied-embedding-allreduce", phase="grad-allreduce",
                rank=GLOBAL_RANK,
                start=t0 + dp_time, end=t0 + dp_time + embed_time,
            )
        tracer.add_span(
            "optimizer", phase="optimizer", rank=GLOBAL_RANK,
            start=t0 + dp_time + embed_time, end=iteration_time,
            bytes=params_rank * MODEL_STATE_BYTES_PER_PARAM,
        )
        tracer.add_span(
            "iteration", phase="iteration", rank=GLOBAL_RANK,
            start=0.0, end=iteration_time, flops=model_flops,
        )
        tracer.metrics.gauge("sim.iteration_time").set(iteration_time)
        tracer.metrics.gauge("sim.pipeline_time").set(pipeline_time)
        tracer.metrics.counter("sim.model_flops").inc(model_flops)

        # -- Table-1 throughput telemetry (simulated clock) -----------------
        from repro.obs.telemetry import (
            MemoryBreakdown,
            sample_memory,
            sample_throughput,
            throughput_report,
        )

        sample_throughput(
            tracer,
            throughput_report(
                config, parallel, iteration_time,
                peak_flops=node.device.peak_flops,
                with_recompute=options.recompute_activations,
            ),
            t=iteration_time,
        )

        # -- per-rank memory timelines (activation sawtooth) ----------------
        # Each forward window stashes one microbatch's activations for
        # its stage (only the stage input survives under recompute,
        # §3.3); the matching backward frees them.  Model state is
        # constant for the iteration.
        from repro.perf.memory import (
            activation_bytes_per_layer,
            stage_input_bytes,
        )

        if options.recompute_activations:
            stash_bytes = stage_input_bytes(
                b, s, h, dtype_size=options.activation_dtype_size
            )
        else:
            stash_bytes = layers_per_stage * activation_bytes_per_layer(
                b, s, h, config.num_attention_heads, t,
                dtype_size=options.activation_dtype_size,
            )
        breakdown = MemoryBreakdown(params_rank)
        stashed = {r: 0 for r in pipe_ranks}
        for r in pipe_ranks:
            sample_memory(tracer, breakdown, 0, rank=r, t=0.0)
        for w in sorted(timeline, key=lambda w: (w.end, w.start)):
            r = stage_rank(w.stage)
            delta = stash_bytes if w.kind is OpKind.FORWARD else -stash_bytes
            stashed[r] += delta
            tracer.sample("mem.activations.bytes", stashed[r], rank=r, t=w.end)

    # -- run-log iteration record (modelled clock) --------------------------
    runlog = current_run_logger()
    if runlog is not None:
        it = runlog.iterations_logged
        runlog.heartbeat(range(n), it)
        runlog.iteration(
            it, loss=None, seconds=iteration_time,
            tokens_per_s=parallel.global_batch_size * s / iteration_time,
            mfu=model_flops / n / iteration_time / node.device.peak_flops,
            rank_busy={pipe_ranks[r]: busy[r] for r in range(p)},
        )

    return SimulationResult(
        iteration_time=iteration_time,
        pipeline_time=pipeline_time,
        data_parallel_time=dp_time + embed_time,
        optimizer_time=opt_time,
        compute_time_per_rank=busy,
        p2p_time_total=p2p_total,
        tp_comm_time_total=tp_comm_total,
        model_flops=model_flops,
        num_gpus=n,
        global_batch_size=parallel.global_batch_size,
        seq_length=s,
        peak_flops=node.device.peak_flops,
        extras={
            "schedule": options.schedule_name,
            "m": m,
            "layers_per_stage": layers_per_stage,
            "timeline": (
                tuple(timeline) if options.collect_timeline else None
            ),
            "pipeline_schedule": schedule,
        },
    )


def render_simulated_timeline(result: SimulationResult) -> str:
    """ASCII timeline of a simulation run with ``collect_timeline=True``.

    Unlike the unit-time Figure 3/4 renders, this shows *modelled*
    durations: backward boxes are visibly longer than forward ones, p2p
    time stretches the boxes, and the warm-up/cool-down bubble appears
    to scale.
    """
    from repro.schedule.execution import Timeline
    from repro.schedule.visualize import render_timeline

    ops = result.extras.get("timeline")
    schedule = result.extras.get("pipeline_schedule")
    if not ops or schedule is None:
        raise ValueError(
            "simulation was not run with SimOptions(collect_timeline=True)"
        )
    tl = Timeline(schedule=schedule, ops=tuple(ops),
                  makespan=max(t.end for t in ops))
    header = (
        f"simulated timeline: makespan={tl.makespan:.3f}s  "
        f"bubble={tl.bubble_fraction():.3f}"
    )
    return header + "\n" + render_timeline(tl)

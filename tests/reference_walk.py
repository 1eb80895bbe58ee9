"""The per-op schedule walk as it stood before PR 18, kept as the oracle.

Until then ``execute``, ``simulate_times`` and ``simulate_iteration``
each re-derived the schedule's dependency structure for every op they
visited: a round-robin pointer scan over frozen ``OpInstance``
dataclasses with a ``finish`` dict keyed by them.  ``repro.schedule``
now walks a schedule once, on integers, and every consumer iterates the
compiled completion order; this module is the old walk, verbatim in its
arithmetic, for the differential tests to compare against with ``==``.
It shares no code with ``repro.schedule.execution`` on purpose.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from repro.comm import CommCostModel, ProcessGroups
from repro.hardware import ComputeModel, cluster_for_gpus, dgx_a100
from repro.perf.layer_costs import stage_compute_cost
from repro.perf.memory import MODEL_STATE_BYTES_PER_PARAM, parameters_per_rank
from repro.schedule import OpKind, make_schedule


@dataclass(frozen=True)
class Instance:
    kind: OpKind
    microbatch: int
    stage: int


def resolve(schedule, rank, op) -> Instance:
    return Instance(op.kind, op.microbatch, op.chunk * schedule.num_stages + rank)


def dependencies(schedule, inst) -> tuple[Instance, ...]:
    last = schedule.total_stages - 1
    if inst.kind is OpKind.FORWARD:
        if inst.stage == 0:
            return ()
        return (Instance(OpKind.FORWARD, inst.microbatch, inst.stage - 1),)
    deps = [Instance(OpKind.FORWARD, inst.microbatch, inst.stage)]
    if inst.stage < last:
        deps.append(Instance(OpKind.BACKWARD, inst.microbatch, inst.stage + 1))
    return tuple(deps)


def walk(schedule, visit) -> None:
    """Round-robin pointer scan: ``visit(rank, op, inst, deps, finish)``
    returns the op's finish time, in the order ops become runnable."""
    finish: dict[Instance, float] = {}
    cursor = [0] * schedule.num_stages
    remaining = sum(len(r) for r in schedule.ops)
    while remaining:
        progressed = False
        for rank in range(schedule.num_stages):
            while cursor[rank] < len(schedule.ops[rank]):
                op = schedule.ops[rank][cursor[rank]]
                inst = resolve(schedule, rank, op)
                deps = dependencies(schedule, inst)
                if any(d not in finish for d in deps):
                    break
                finish[inst] = visit(rank, op, inst, deps, finish)
                cursor[rank] += 1
                remaining -= 1
                progressed = True
        if not progressed:
            raise AssertionError("reference walk deadlocked")


def execute(schedule) -> list[tuple]:
    order = []

    def visit(rank, op, inst, deps, finish):
        order.append((rank, op))
        return 0.0

    walk(schedule, visit)
    return order


def simulate_times(schedule, t_forward=1.0, t_backward=2.0, p2p_latency=0.0):
    """``[(rank, op, start, end), ...]`` in visiting order."""
    v = schedule.num_chunks
    dur = {OpKind.FORWARD: t_forward / v, OpKind.BACKWARD: t_backward / v}
    device_free = [0.0] * schedule.num_stages
    timed = []

    def visit(rank, op, inst, deps, finish):
        ready = device_free[rank]
        for d in deps:
            lat = p2p_latency if d.stage % schedule.num_stages != rank else 0.0
            ready = max(ready, finish[d] + lat)
        end = ready + dur[op.kind]
        device_free[rank] = end
        timed.append((rank, op, ready, end))
        return end

    walk(schedule, visit)
    return timed


def simulate_iteration(config, parallel, options) -> dict:
    """Every number ``repro.sim.simulate_iteration`` reports, by the
    pre-PR-18 code path (dict cost tables, per-op dependency lookups)."""
    node = dgx_a100()
    n = parallel.world_size
    compute = ComputeModel(device=node.device)
    comm = CommCostModel(
        cluster_for_gpus(max(n, 1), node),
        bandwidth_derate=options.bandwidth_derate,
    )
    groups = ProcessGroups(parallel)
    p, t, d, v = parallel.p, parallel.t, parallel.d, parallel.v
    m = parallel.num_microbatches
    b, s, h = parallel.b, config.seq_length, config.hidden_size
    schedule = make_schedule(options.schedule_name, p, m, v)

    layers_per_stage = config.num_layers // (p * v)
    boundary_bytes = b * s * h * options.activation_dtype_size
    tp_ar_time = (
        comm.all_reduce_time(
            groups.tensor_group(pp=0, dp=0), boundary_bytes,
            channels=options.tp_channels,
        )
        if t > 1
        else 0.0
    )
    fwd_dur, bwd_dur, fwd_tp, bwd_tp = {}, {}, {}, {}
    total_stages = p * v
    for g in range(total_stages):
        cost = stage_compute_cost(
            compute, config, layers_per_stage, b, t,
            is_first=(g == 0), is_last=(g == total_stages - 1),
            fused=options.fused_kernels,
            recompute=options.recompute_activations,
        )
        f_tp = 2 * layers_per_stage * tp_ar_time
        bwd_ars = 2 + (2 if options.recompute_activations else 0)
        b_tp = bwd_ars * layers_per_stage * tp_ar_time
        fwd_dur[g] = cost.forward * options.compute_slowdown + f_tp
        bwd_dur[g] = cost.backward * options.compute_slowdown + b_tp
        fwd_tp[g] = f_tp
        bwd_tp[g] = b_tp

    pipe_ranks = groups.pipeline_group(dp=0, tp=0)

    def edge_time(src_stage, dst_stage):
        src, dst = pipe_ranks[src_stage % p], pipe_ranks[dst_stage % p]
        if src == dst:
            return 0.0
        return comm.pipeline_p2p_time(
            src, dst, boundary_bytes, t, scatter_gather=options.scatter_gather
        )

    stages = range(total_stages)
    send_fwd = {g: edge_time(g, g + 1) if g + 1 < total_stages else 0.0
                for g in stages}
    send_bwd = {g: edge_time(g, g - 1) if g > 0 else 0.0 for g in stages}
    recv_fwd = {g: edge_time(g - 1, g) if g > 0 else 0.0 for g in stages}
    recv_bwd = {g: edge_time(g + 1, g) if g + 1 < total_stages else 0.0
                for g in stages}
    if options.overlap_p2p:
        send_fwd = {g: 0.0 for g in send_fwd}
        send_bwd = {g: 0.0 for g in send_bwd}
        recv_fwd = {g: 0.0 for g in recv_fwd}
        recv_bwd = {g: 0.0 for g in recv_bwd}

    device_free = [0.0] * p
    busy = [0.0] * p
    totals = {"p2p": 0.0}
    timeline = []

    def visit(rank, op, inst, deps, finish):
        ready = device_free[rank]
        for dep in deps:
            ready = max(ready, finish[dep])
        if op.kind is OpKind.FORWARD:
            comm_dur = recv_fwd[inst.stage] + send_fwd[inst.stage]
            dur = fwd_dur[inst.stage] + comm_dur
        else:
            comm_dur = recv_bwd[inst.stage] + send_bwd[inst.stage]
            dur = bwd_dur[inst.stage] + comm_dur
        totals["p2p"] += comm_dur
        end = ready + dur
        device_free[rank] = end
        busy[rank] += dur
        timeline.append((rank, op, ready, end, inst.stage, comm_dur))
        return end

    walk(schedule, visit)
    pipeline_time = max(device_free)

    params_rank = parameters_per_rank(config, parallel)
    dp_time = 0.0
    if d > 1:
        dp_time = comm.all_reduce_time(
            groups.data_group(pp=0, tp=0), params_rank * options.grad_dtype_size
        )
    embed_time = 0.0
    if p > 1:
        emb_bytes = config.vocab_size // t * h * options.grad_dtype_size
        embed_time = comm.all_reduce_time(
            [pipe_ranks[0], pipe_ranks[-1]], emb_bytes
        )
    opt_time = (
        compute.memory_time(params_rank * MODEL_STATE_BYTES_PER_PARAM)
        * options.compute_slowdown
    )
    return {
        "iteration_time": pipeline_time + dp_time + embed_time + opt_time,
        "pipeline_time": pipeline_time,
        "data_parallel_time": dp_time + embed_time,
        "optimizer_time": opt_time,
        "compute_time_per_rank": busy,
        "p2p_time_total": totals["p2p"],
        "tp_comm_time_total": sum(
            m * (fwd_tp[g] + bwd_tp[g]) for g in range(total_stages)
        ),
        "timeline": timeline,
    }


def assert_simulation_matches(config, parallel, options) -> None:
    """``repro.sim.simulate_iteration`` against the walk above: every
    ``SimulationResult`` number and every timeline window, exact ``==``."""
    import repro.sim

    want = simulate_iteration(config, parallel, options)
    got = repro.sim.simulate_iteration(
        config, parallel, options=replace(options, collect_timeline=True)
    )
    windows = [
        (w.rank, w.op, w.start, w.end, w.stage, w.comm_time)
        for w in got.extras["timeline"]
    ]
    assert windows == want.pop("timeline")
    assert {name: getattr(got, name) for name in want} == want

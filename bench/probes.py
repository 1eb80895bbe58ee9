"""Per-layer probes: benchmark-side timers around one public call each,
at the shapes of the workload that owns the layer, and exact counts.

Each probe runs once per ``--trace 1`` run, under the workload that
owns its layer (``common.OWNED_PREFIXES``).  Times are at nominal
machine speed (``speed.py``).  None of them gates anything.
"""

from __future__ import annotations

import subprocess
import sys
import time

import numpy as np

from repro.comm.backend import MpBackend
from repro.comm.primitives import (
    all_gather,
    reduce_scatter,
    ring_all_reduce,
    send,
)
from repro.config.presets import TABLE1_ROWS
from repro.nn import Adam, GPTModel, TransformerBlock
from repro.nn import functional as F
from repro.nn.profiler import count_flops
from repro.obs import profile_tracer, trace
from repro.schedule import (
    interleaved_schedule,
    make_schedule,
    simulate_times,
    validate,
)
from repro.serve import PagedKVCache
from repro.sim import simulate_iteration

import wl_serve
import wl_sim
import wl_train
from common import ROOT, pinned_env
from statistics import median

COMM_SPANS = ("all_reduce", "all_gather", "reduce_scatter", "broadcast",
              "send")


def timed_ms(meter, fn, calls: int = 30, warm: int = 3,
             parent_idle: bool = False) -> float:
    """Median time of ``fn()`` in milliseconds.  ``parent_idle`` says
    that ``fn`` keeps both cores busy in other processes while this one
    waits: then the interval timer is off and the machine speed is
    sampled between calls."""
    if parent_idle:
        meter.stop_timer()
    for _ in range(warm):
        fn()
    stamps = []
    for _ in range(calls):
        if parent_idle:
            meter.sample()
        t0 = time.perf_counter()
        fn()
        stamps.append((t0, time.perf_counter()))
    if parent_idle:
        meter.sample()
        meter.start_timer()
    return median(meter.seconds(t0, t1) for t0, t1 in stamps) * 1e3


# -- nn -----------------------------------------------------------------------
def probe_nn_train(meter) -> dict[str, float]:
    cfg = wl_train.CONFIG
    rng = np.random.default_rng(0)
    x = rng.standard_normal((1, cfg.seq_length, cfg.hidden_size))
    dy = rng.standard_normal(x.shape)
    block = TransformerBlock(cfg.hidden_size, cfg.num_attention_heads)
    _, cache = block.forward(x)
    out = {
        "nn.block_fwd_ms": timed_ms(meter, lambda: block.forward(x)),
        "nn.block_bwd_ms": timed_ms(meter, lambda: block.backward(dy, cache)),
    }

    model = GPTModel(cfg, seed=0)
    targets = rng.integers(0, cfg.vocab_size, size=(1, cfg.seq_length))

    def head_loss():
        logits, head_cache = model.head.forward(x)
        _, ce_cache = F.cross_entropy_forward(logits, targets)
        model.head.backward(F.cross_entropy_backward(ce_cache), head_cache)

    out["nn.head_loss_fwd_bwd_ms"] = timed_ms(meter, head_loss)
    adam = Adam(model.parameters())
    out["nn.adam_step_ms"] = timed_ms(meter, adam.step)
    return out


def probe_nn_prefill(meter) -> dict[str, float]:
    shape = wl_serve.SHAPES["serve_prefill"]
    prefill_len = sum(shape.prompt_len) // 2
    model = wl_serve.make_model(shape)
    prompt = np.random.default_rng(0).integers(
        0, shape.vocab, size=(1, prefill_len))
    head_flops = 2 * prefill_len * model.config.hidden_size * shape.vocab
    with count_flops() as flops:
        model.forward_step(prompt)
    return {
        "nn.prefill_ms": timed_ms(
            meter, lambda: model.forward_step(prompt), calls=15),
        "nn.prefill_head_flop_share": head_flops / flops.total_flops,
    }


def probe_nn_decode(meter) -> dict[str, float]:
    shape = wl_serve.SHAPES["serve_decode"]
    model = wl_serve.make_model(shape)
    rng = np.random.default_rng(0)
    token = rng.integers(0, shape.vocab, size=(1, 1))
    out = {}
    for ctx in (64, 192):
        _, past = model.forward_step(
            rng.integers(0, shape.vocab, size=(1, ctx)))
        out[f"nn.decode_step_ms_ctx{ctx}"] = timed_ms(
            meter, lambda: model.forward_step(token, past, start=ctx),
            calls=100)
    return out


PROBE_NN_SERVE = {"serve_decode": probe_nn_decode,
                  "serve_prefill": probe_nn_prefill}


# -- comm ---------------------------------------------------------------------
def probe_comm(meter) -> dict[str, float]:
    ranks = [0, 1, 2, 3]
    rng = np.random.default_rng(0)
    buffers = [rng.standard_normal(65536) for _ in ranks]
    shards = [b[:16384] for b in buffers]
    out = {
        "comm.allreduce_ms_coop": timed_ms(
            meter, lambda: ring_all_reduce(buffers, ranks)),
        "comm.allgather_ms_coop": timed_ms(
            meter, lambda: all_gather(shards, ranks)),
        "comm.reduce_scatter_ms_coop": timed_ms(
            meter, lambda: reduce_scatter(buffers, ranks)),
        "comm.send_ms_coop": timed_ms(meter, lambda: send(buffers[0], 0, 1)),
    }
    with MpBackend() as backend:
        out["comm.allreduce_ms_mp"] = timed_ms(
            meter, lambda: backend.all_reduce(buffers, ranks),
            parent_idle=True)
    return out


# -- schedule -----------------------------------------------------------------
def probe_schedule(meter) -> dict[str, float]:
    def generate():
        validate(interleaved_schedule(8, 64, 4))

    par = wl_train.PARALLEL
    schedule = make_schedule(
        wl_train.SCHEDULE, par.p, par.num_microbatches, par.v)
    return {
        "schedule.generate_ms": timed_ms(meter, generate, calls=10, warm=1),
        "schedule.ops_per_step":
            sum(len(rank_ops) for rank_ops in schedule.ops) * par.d,
        "schedule.bubble_share": simulate_times(schedule).bubble_fraction(),
    }


# -- one train step: exact counts and the program's own spans -----------------
def probe_train_step(meter) -> dict[str, float]:
    batch = wl_train.make_batch(0)
    out = {}
    with wl_train.make_trainer("coop") as trainer:
        trainer.train_step(*batch)
        trainer.log.clear()
        with count_flops() as flops, trace() as tracer:
            trainer.train_step(*batch)
        measured = wl_train.measured_bytes(trainer.log)
        expected = wl_train.expected_bytes_per_step(trainer)
    for kind, nbytes in measured.items():
        if nbytes != expected[kind]:
            raise AssertionError(
                f"{kind} bytes per step {nbytes} != closed form "
                f"{expected[kind]}")
        out[f"comm.{kind}_bytes_per_step"] = nbytes
    out["nn.gemm_flops_per_train_step"] = flops.total_flops

    report = profile_tracer(tracer)
    for rank_profile in report.ranks.values():
        if rank_profile.self_sum_ns != rank_profile.wall_ns:
            raise AssertionError("program profile: sum(self) != sum(roots)")
    stats = {s.name: s for s in report.by_name()}
    iteration = stats["iteration"].total_ns
    comm = [stats[name] for name in COMM_SPANS if name in stats]
    out["comm.calls_per_step"] = sum(s.count for s in comm)
    out["comm.time_share_coop"] = sum(s.self_ns for s in comm) / iteration
    for span, metric in (("pipeline", "parallel.pipeline_share_coop"),
                         ("grad-allreduce",
                          "parallel.grad_allreduce_share_coop"),
                         ("optimizer", "parallel.optimizer_share_coop")):
        out[metric] = stats[span].total_ns / iteration
    t0 = time.perf_counter()
    profile_tracer(tracer)
    out["obs.profile_postprocess_ms"] = (
        meter.seconds(t0, time.perf_counter()) * 1e3)

    t0 = time.perf_counter()
    with wl_train.make_trainer("mp"):
        out["parallel.worker_spawn_s"] = meter.seconds(
            t0, time.perf_counter())
    return out


# -- sim ----------------------------------------------------------------------
def _simulate_calls(meter, row_index: int, calls: int):
    """``simulate_iteration`` on one Table-1 row, ``calls`` times:
    (milliseconds per call, simulated share of peak)."""
    row = TABLE1_ROWS[row_index]
    stamps, mfu = [], 0.0
    for _ in range(calls):
        t0 = time.perf_counter()
        mfu = simulate_iteration(row.model, row.parallel).peak_fraction
        stamps.append((t0, time.perf_counter()))
    meter.sample()  # the 145B call is shorter than the timer's interval
    return [meter.seconds(t0, t1) * 1e3 for t0, t1 in stamps], mfu


def probe_sim() -> dict[str, float]:
    (cold_145b,), mfu = wl_sim.in_fresh_fork(
        _simulate_calls, wl_sim.GPT145B_ROW, 1)
    (cold_1t, repeat_1t), _ = wl_sim.in_fresh_fork(
        _simulate_calls, wl_sim.GPT1T_ROW, 2)
    return {
        "sim.iteration_ms_gpt145b": cold_145b,
        "sim.iteration_ms_gpt1t": cold_1t,
        "sim.repeat_call_ms_gpt1t": repeat_1t,
        "sim.mfu_gpt145b": mfu,
    }


# -- serve KV cache -----------------------------------------------------------
def probe_kv(meter) -> dict[str, float]:
    shape = wl_serve.SHAPES["serve_prefill"]
    model = wl_serve.make_model(shape)
    cfg = model.config
    heads, dk = cfg.num_attention_heads, cfg.head_dim
    rng = np.random.default_rng(0)

    def kvs(s_new: int):
        return [(rng.standard_normal((1, heads, s_new, dk)),
                 rng.standard_normal((1, heads, s_new, dk)))
                for _ in range(cfg.num_layers)]

    def cache(checksums: bool = False):
        return PagedKVCache.for_model(
            model, num_blocks=wl_serve.NUM_BLOCKS,
            block_size=wl_serve.BLOCK_SIZE, checksums=checksums)

    plain = cache()
    handle = plain.create()
    plain.append(handle, kvs(192))
    out = {"serve.kv_gather_ms_ctx192":
           timed_ms(meter, lambda: plain.gather(handle))}

    def append(pool, new):
        h = pool.create()
        pool.append(h, new)
        pool.free(h)

    one, prompt = kvs(1), kvs(176)
    out["serve.kv_append_ms_1"] = timed_ms(meter, lambda: append(plain, one))
    out["serve.kv_append_ms_p176"] = timed_ms(
        meter, lambda: append(plain, prompt))
    checked = cache(checksums=True)
    blocks = checked.blocks_for(176)
    out["serve.kv_crc_ms_per_block"] = max(
        0.0, timed_ms(meter, lambda: append(checked, prompt))
        - out["serve.kv_append_ms_p176"]) / blocks
    # K and V of every layer for one cached position, fp64.
    out["serve.kv_gather_bytes_per_token"] = (
        2 * cfg.num_layers * heads * dk * 8)
    return out


# -- cli ----------------------------------------------------------------------
def _command_ms(meter, argv: list[str], calls: int) -> float:
    def run():
        subprocess.run([sys.executable, *argv], check=True, cwd=ROOT,
                       env=pinned_env(), stdout=subprocess.DEVNULL)

    return timed_ms(meter, run, calls=calls, warm=1)


def probe_cli(meter) -> dict[str, float]:
    row = TABLE1_ROWS[wl_sim.GPT145B_ROW]
    simulate = [
        "-m", "repro", "simulate",
        "--layers", str(row.model.num_layers),
        "--hidden", str(row.model.hidden_size),
        "--heads", str(row.model.num_attention_heads),
        "-p", str(row.parallel.p), "-t", str(row.parallel.t),
        "-d", str(row.parallel.d), "--batch", str(row.parallel.B),
    ]
    return {
        "cli.cold_start_ms": _command_ms(meter, simulate, calls=7),
        "cli.import_ms": _command_ms(meter, ["-c", "import repro.cli"],
                                     calls=5),
    }

"""Command-line interface: ``python -m repro <subcommand>``.

Subcommands:

- ``simulate``  — time one training iteration of a model under a given
  (p, t, d, b, B, v, schedule) on the modelled cluster;
- ``suggest``   — apply the paper's Takeaway heuristics to pick a
  configuration for a model / GPU budget / batch size;
- ``autotune``  — search all feasible configurations and print the top
  results (exact: every candidate is bounded, the contenders are
  simulated);
- ``schedule``  — render a pipeline-schedule timeline (Figures 3/4);
- ``trace``     — run one traced training iteration (numeric engine or
  simulator) and write a Chrome-trace JSON + phase summary
  (:mod:`repro.obs`);
- ``goodput``   — sweep checkpoint intervals for a preset model +
  cluster, report the optimum vs. the analytic Young/Daly interval,
  and replay a failure trace through the goodput simulator
  (:mod:`repro.resilience`);
- ``verify``    — run the correctness-verification suite: schedule
  validator, collective sanitizer, cross-parallelism conformance,
  traffic/FLOP conservation, and chaos-recovery conformance; exits 1
  on violations (:mod:`repro.verify`);
- ``chaos``     — run the tiny model through the supervised
  fault-tolerance harness under live injected failures (kills,
  checkpoint corruption, transient save errors), recover
  automatically, and prove the recovered run matches the uninterrupted
  reference (:mod:`repro.resilience.harness`);
- ``serve``     — continuous-batching inference over the paged KV
  cache: drive a seeded Poisson (or replayed JSON) request trace
  through :class:`repro.serve.ServeEngine`, print per-request
  TTFT/latency and aggregate throughput, and optionally gate on the
  SLO-metrics schema + the ``generate`` oracle (``--smoke``);
- ``monitor``   — mission control for registered run logs
  (:mod:`repro.obs.runlog`): TTY dashboard with sparklines / per-rank
  health / alert feed, ``--follow`` live tailing, ``--list``/``--gc``
  registry management, and a ``--check`` batch gate that exits
  non-zero on unacknowledged critical alerts
  (:mod:`repro.obs.monitor`).

The paper's tables and figures are a separate entry point,
``python -m repro.experiments``.

Output conventions: every tracing-capable subcommand (``trace``,
``goodput``, ``chaos``) accepts ``--metrics-out PATH`` writing the same
metrics-JSON schema (:meth:`repro.obs.MetricsRegistry.as_dict`).

Configuration errors (bad model shapes, infeasible parallel configs,
unwritable output paths) are mapped onto a clean ``error: ...`` message
and exit code 2 — no tracebacks for user input.
"""

from __future__ import annotations

import argparse
import sys

from repro.config import GPTConfig, ParallelConfig


def _add_model_args(p: argparse.ArgumentParser) -> None:
    p.add_argument("--layers", type=int, required=True, help="transformer layers (l)")
    p.add_argument("--hidden", type=int, required=True, help="hidden size (h)")
    p.add_argument("--heads", type=int, required=True, help="attention heads (a)")
    p.add_argument("--vocab", type=int, default=51200, help="vocabulary size (V)")
    p.add_argument("--seq", type=int, default=2048, help="sequence length (s)")


def _model_from(args) -> GPTConfig:
    return GPTConfig(
        num_layers=args.layers,
        hidden_size=args.hidden,
        num_attention_heads=args.heads,
        vocab_size=args.vocab,
        seq_length=args.seq,
    )


def _cmd_simulate(args) -> int:
    from repro.sim import SimOptions, simulate_iteration

    model = _model_from(args)
    parallel = ParallelConfig(
        pipeline_parallel_size=args.p,
        tensor_parallel_size=args.t,
        data_parallel_size=args.d,
        microbatch_size=args.b,
        global_batch_size=args.batch,
        num_model_chunks=args.chunks,
    )
    options = SimOptions(
        schedule_name=args.schedule,
        recompute_activations=not args.no_recompute,
        scatter_gather=not args.no_scatter_gather,
        fused_kernels=not args.no_fusion,
    )
    res = simulate_iteration(model, parallel, options=options)
    print(f"model: {model}")
    print(f"parallel: {parallel.describe()}  schedule={args.schedule}")
    print(f"iteration time    : {res.iteration_time:.3f} s")
    print(f"per-GPU throughput: {res.tflops_per_gpu:.1f} Tflop/s "
          f"({res.peak_fraction*100:.0f}% of peak)")
    print(f"aggregate         : {res.aggregate_pflops:.1f} Pflop/s")
    print(f"pipeline bubble   : {res.bubble_fraction*100:.1f} %")
    print(f"sequences/second  : {res.sequences_per_second:.2f}")
    return 0


def _cmd_suggest(args) -> int:
    from repro.hardware import a100_80gb
    from repro.perf import fits_in_memory, memory_footprint, suggest_parallel_config

    model = _model_from(args)
    parallel = suggest_parallel_config(model, args.gpus, args.batch)
    print(f"model: {model}")
    print(f"suggested: {parallel.describe()}")
    fp = memory_footprint(model, parallel, recompute=True)
    print(f"per-GPU memory: {fp.total/1e9:.1f} GB "
          f"(fits={fits_in_memory(model, parallel, a100_80gb(), recompute=True)})")
    return 0


def _cmd_autotune(args) -> int:
    from repro.perf import search_configs

    model = _model_from(args)
    contenders, candidates = search_configs(
        model, args.gpus, args.batch, top_k=args.top
    )
    print(f"model: {model};  {args.gpus} GPUs, batch {args.batch}")
    for i, s in enumerate(contenders[:args.top], 1):
        print(f"{i}. {s.describe()}")
    print(f"simulated {len(contenders)} of {candidates} candidates")
    return 0


def _cmd_schedule(args) -> int:
    from repro.schedule import make_schedule, render_schedule

    chunks = args.chunks if args.name.startswith("interleaved") else 1
    sched = make_schedule(args.name, args.p, args.m, chunks)
    print(render_schedule(sched))
    return 0


def _cmd_trace(args) -> int:
    import contextlib

    from repro.obs import phase_summary, trace, write_chrome_trace, write_metrics

    model = _model_from(args)
    parallel = ParallelConfig(
        pipeline_parallel_size=args.p,
        tensor_parallel_size=args.t,
        data_parallel_size=args.d,
        microbatch_size=args.b,
        global_batch_size=args.batch,
        num_model_chunks=args.chunks,
    )
    parallel.validate_for_model(model)
    with contextlib.ExitStack() as stack:
        logger = None
        if args.runlog:
            from repro.obs.runlog import RunRegistry, run_logging

            registry = RunRegistry(args.runlog)
            logger, log_fh = registry.create(args.mode)
            stack.enter_context(contextlib.closing(log_fh))
            logger.start(
                args.mode,
                model={"layers": model.num_layers,
                       "hidden": model.hidden_size,
                       "heads": model.num_attention_heads,
                       "vocab": model.vocab_size,
                       "seq": model.seq_length},
                parallel={"p": parallel.pipeline_parallel_size,
                          "t": parallel.tensor_parallel_size,
                          "d": parallel.data_parallel_size,
                          "B": parallel.global_batch_size},
            )
            stack.enter_context(run_logging(logger))
        rc = _run_trace(args, model, parallel)
        if logger is not None:
            logger.end("completed" if rc == 0 else "failed")
            print(f"run log: {registry.events_path(logger.run_id)}")
    return rc


def _run_trace(args, model, parallel) -> int:
    from repro.obs import phase_summary, trace, write_chrome_trace, write_metrics

    if args.mode == "sim":
        from repro.sim import SimOptions, simulate_iteration

        with trace() as tracer:
            res = simulate_iteration(
                model, parallel, options=SimOptions(schedule_name=args.schedule)
            )
        print(f"model: {model}")
        print(f"parallel: {parallel.describe()}  schedule={args.schedule}")
        print(f"simulated iteration: {res.iteration_time:.3f} s "
              f"({res.tflops_per_gpu:.1f} Tflop/s per GPU)")
    else:
        import numpy as np

        from repro.nn.profiler import count_flops
        from repro.parallel import PTDTrainer

        rng = np.random.default_rng(args.seed)
        shape = (parallel.global_batch_size, model.seq_length)
        ids = rng.integers(0, model.vocab_size, size=shape)
        targets = rng.integers(0, model.vocab_size, size=shape)
        with trace() as tracer, count_flops() as meter:
            trainer = PTDTrainer(model, parallel, schedule=args.schedule)
            loss = trainer.train_step(ids, targets)
        span_bytes = int(tracer.counter_total("bytes"))
        log_bytes = trainer.log.total_bytes()
        span_flops = int(tracer.counter_total("flops"))
        print(f"model: {model}")
        print(f"parallel: {parallel.describe()}  schedule={args.schedule}")
        print(f"loss: {loss:.4f}")
        print(f"bytes: spans={span_bytes}  traffic-log={log_bytes}  "
              f"match={span_bytes == log_bytes}")
        print(f"flops: spans={span_flops}  flop-meter={meter.total_flops}  "
              f"match={span_flops == meter.total_flops}")
        if span_bytes != log_bytes or span_flops != meter.total_flops:
            print("error: trace disagrees with ground-truth meters",
                  file=sys.stderr)
            return 1
    print()
    print(phase_summary(tracer))
    if args.profile or args.folded:
        from repro.obs import profile_tracer, write_folded

        profile = profile_tracer(tracer)
        if args.profile:
            print()
            print(profile.hot_table(args.top))
            for rank in sorted(profile.ranks):
                rp = profile.ranks[rank]
                assert rp.self_sum_ns == rp.wall_ns  # exact attribution
        if args.folded:
            write_folded(profile, args.folded)
            print(f"\nwrote {args.folded} ({len(profile.folded)} stacks; "
                  "feed to flamegraph.pl or speedscope)")
    write_chrome_trace(tracer, args.out)
    print(f"\nwrote {args.out} ({len(tracer)} spans; open in Perfetto or "
          "chrome://tracing)")
    if args.metrics_out:
        write_metrics(tracer, args.metrics_out)
        print(f"wrote {args.metrics_out}")
    return 0


def _cmd_goodput(args) -> int:
    from repro.obs import trace, write_chrome_trace
    from repro.resilience import (
        FaultPlan,
        RankFailure,
        RestartPolicy,
        goodput_scenarios,
        log_spaced_intervals,
        simulate_goodput,
        sweep_checkpoint_interval,
    )
    from repro.sim import simulate_iteration

    scenario = goodput_scenarios()[args.preset]
    if args.node_mtbf_hours is not None:
        if args.node_mtbf_hours <= 0:
            raise ValueError(
                f"--node-mtbf-hours must be > 0, got {args.node_mtbf_hours}"
            )
        from dataclasses import replace

        scenario = replace(scenario, node_mtbf_hours=args.node_mtbf_hours)
    model, parallel = scenario.model, scenario.parallel
    mtbf = scenario.cluster_mtbf_seconds

    res = simulate_iteration(model, parallel)
    iter_time = res.iteration_time
    policy = RestartPolicy.from_io_model(model, parallel, scenario.num_nodes)
    detect = policy.detector.expected_latency()
    print(f"scenario: {args.preset}  {model}")
    print(f"parallel: {parallel.describe()}  nodes={scenario.num_nodes}")
    print(f"iteration time   : {iter_time:.3f} s (simulated)")
    print(f"checkpoint save  : {policy.save_seconds:.1f} s   "
          f"load: {policy.load_seconds:.1f} s")
    print(f"cluster MTBF     : {mtbf:.0f} s "
          f"({scenario.node_mtbf_hours:g} h node MTBF / "
          f"{scenario.num_nodes} nodes)")
    print(f"detection latency: {detect:.1f} s expected")

    lo = args.min_interval or 2 * policy.save_seconds
    hi = args.max_interval or mtbf
    sweep = sweep_checkpoint_interval(
        log_spaced_intervals(lo, hi, args.points),
        mtbf_seconds=mtbf,
        save_seconds=policy.save_seconds,
        load_seconds=policy.load_seconds,
        detection_seconds=detect,
    )
    print()
    print(f"{'interval (s)':>14} {'goodput':>9} {'overhead':>9}")
    for i, pt in enumerate(sweep.points):
        marker = "  <-- optimum" if i == sweep.best_index else ""
        print(f"{pt.interval_seconds:>14.1f} {pt.goodput:>9.4f} "
              f"{pt.overhead_rate:>9.4f}{marker}")
    print()
    print(f"sweep optimum    : {sweep.best.interval_seconds:.1f} s "
          f"(goodput {sweep.best.goodput:.4f})")
    print(f"Young/Daly       : {sweep.analytic_interval_seconds:.1f} s")
    print(f"agreement        : within one sweep step: "
          f"{sweep.agrees_within_one_step}")

    # -- replay a concrete failure trace at the optimal interval ------------
    interval_iters = max(1, round(sweep.best.interval_seconds / iter_time))
    if args.failures:
        failure_iters = [int(x) for x in args.failures.split(",")]
    else:
        # One failure per cluster-MTBF of useful time, four MTBFs deep.
        step = max(1, round(mtbf / iter_time))
        failure_iters = [step * (i + 1) for i in range(4)]
    total = args.iterations or (max(failure_iters) + interval_iters)
    plan = FaultPlan(
        failures=tuple(
            RankFailure(at_iteration=k) for k in failure_iters if k < total
        )
    )
    print()
    print(f"failure trace    : rank failures at iterations "
          f"{[f.at_iteration for f in plan.failures]} of {total} "
          f"(checkpoint every {interval_iters} iterations)")
    if args.out or args.metrics_out:
        with trace() as tracer:
            report = simulate_goodput(
                iter_time, total, interval_iters, policy, plan
            )
        if args.metrics_out:
            from repro.obs import write_metrics

            write_metrics(tracer, args.metrics_out)
            print(f"wrote {args.metrics_out}")
        if not args.out:
            print(report.describe())
            return 0
        write_chrome_trace(tracer, args.out)
        # Each resilience span carries its modelled duration in a
        # ``seconds`` counter; summing counters reproduces the report's
        # accumulation order bit-for-bit (span start/end live on a large
        # wall-clock offset, so ``end - start`` alone rounds in the last
        # ulp).
        sums = {
            phase: tracer.counter_total("seconds", phase=f"resilience.{phase}")
            for phase in ("checkpoint", "detect", "load", "lost-work")
        }
        expected = {
            "checkpoint": report.checkpoint_seconds,
            "detect": report.detection_seconds,
            "load": report.load_seconds,
            "lost-work": report.lost_work_seconds,
        }
        match = all(sums[k] == expected[k] for k in expected)
        print(report.describe())
        print(f"wrote {args.out} ({len(tracer)} spans)")
        print(f"span/report overhead accounting match={match}")
        if not match:
            print("error: trace spans disagree with the goodput report",
                  file=sys.stderr)
            return 1
    else:
        report = simulate_goodput(iter_time, total, interval_iters, policy, plan)
        print(report.describe())
    return 0


def _parse_int_list(text: str, flag: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValueError(
            f"{flag} expects comma-separated integers, got {text!r}"
        ) from None


def _chaos_plan_from_args(args):
    from repro.resilience import (
        ChaosPlan,
        CorruptCheckpoint,
        Kill,
        LossSpike,
        SaveFailure,
        Stall,
    )

    if args.plan is not None:
        with open(args.plan, "r", encoding="utf-8") as fh:
            return ChaosPlan.from_json(fh.read())
    kills = tuple(
        Kill(at_iteration=k, rank=args.rank, permanent=args.permanent)
        for k in _parse_int_list(args.kill_at or "", "--kill-at")
    )
    corruptions = tuple(
        CorruptCheckpoint(at_iteration=k, file=args.corrupt_file,
                          mode=args.corrupt_mode)
        for k in _parse_int_list(args.corrupt or "", "--corrupt")
    )
    save_failures = []
    for spec in (args.save_fail or "").split(","):
        spec = spec.strip()
        if not spec:
            continue
        at, _, times = spec.partition(":")
        try:
            save_failures.append(SaveFailure(
                at_iteration=int(at), times=int(times) if times else 1
            ))
        except ValueError as exc:
            raise ValueError(f"bad --save-fail entry {spec!r}: {exc}")
    loss_spikes = tuple(
        LossSpike(at_iteration=k)
        for k in _parse_int_list(args.loss_spike or "", "--loss-spike")
    )
    stalls = []
    for spec in (args.stall or "").split(","):
        spec = spec.strip()
        if not spec:
            continue
        at, _, rank = spec.partition(":")
        try:
            stalls.append(Stall(
                at_iteration=int(at), seconds=args.stall_seconds,
                rank=int(rank) if rank else None,
            ))
        except ValueError as exc:
            raise ValueError(f"bad --stall entry {spec!r}: {exc}")
    return ChaosPlan(kills=kills, corruptions=corruptions,
                     save_failures=tuple(save_failures),
                     loss_spikes=loss_spikes, stalls=tuple(stalls))


def _cmd_chaos(args) -> int:
    import contextlib
    import tempfile

    import numpy as np

    from repro.config import tiny_test_model
    from repro.obs import phase_summary, trace, write_chrome_trace
    from repro.resilience import (
        ChaosHarness,
        run_baseline,
        run_reset_reference,
        states_bit_equal,
    )

    if args.fast and not (args.plan or args.kill_at or args.corrupt
                          or args.save_fail or args.loss_spike
                          or args.stall):
        # The CI smoke: one of everything on the default tiny run.
        args.kill_at, args.corrupt, args.save_fail = "5", "4", "2:1"
    plan = _chaos_plan_from_args(args)
    config = tiny_test_model(num_layers=2, hidden_size=16,
                             num_attention_heads=4, vocab_size=32,
                             seq_length=8)
    parallel = ParallelConfig(
        pipeline_parallel_size=args.p,
        tensor_parallel_size=args.t,
        data_parallel_size=args.d,
        microbatch_size=args.b,
        global_batch_size=args.batch,
    )
    parallel.validate_for_model(config)

    with contextlib.ExitStack() as stack:
        directory = args.dir or stack.enter_context(
            tempfile.TemporaryDirectory(prefix="repro-chaos-")
        )
        harness = ChaosHarness(
            config, parallel, directory, plan=plan,
            total_iterations=args.iterations,
            checkpoint_every=args.every,
            keep_last=args.keep_last,
            schedule=args.schedule,
            seed=args.seed,
            backoff_base=args.backoff,
            backend=args.backend,
        )
        print(f"model: {config}")
        print(f"parallel: {parallel.describe()}  schedule={args.schedule}  "
              f"backend={args.backend}")
        summary = (f"chaos plan: {len(plan.kills)} kills, "
                   f"{len(plan.corruptions)} corruptions, "
                   f"{len(plan.save_failures)} transient save failures")
        if plan.loss_spikes or plan.stalls:
            summary += (f", {len(plan.loss_spikes)} loss spikes, "
                        f"{len(plan.stalls)} stalls")
        print(summary)
        print(f"checkpoints: every {args.every} iterations, "
              f"keep last {args.keep_last}, under {directory}")
        print()
        logger = None
        runlog_ctx = contextlib.nullcontext()
        if args.monitor and not args.runlog:
            raise ValueError("--monitor needs --runlog DIR (the run log is "
                             "what the detectors watch)")
        if args.runlog:
            from repro.obs.runlog import RunRegistry, run_logging

            registry = RunRegistry(args.runlog)
            logger, log_fh = registry.create("chaos")
            stack.enter_context(contextlib.closing(log_fh))
            logger.start(
                "chaos",
                model={"layers": config.num_layers,
                       "hidden": config.hidden_size,
                       "heads": config.num_attention_heads,
                       "vocab": config.vocab_size,
                       "seq": config.seq_length},
                parallel={"p": parallel.pipeline_parallel_size,
                          "t": parallel.tensor_parallel_size,
                          "d": parallel.data_parallel_size,
                          "B": parallel.global_batch_size},
            )
            runlog_ctx = run_logging(logger)
        try:
            with trace() as tracer, runlog_ctx:
                report = harness.run()
        except Exception:
            if logger is not None and not logger.closed:
                logger.end("failed")
            raise
        if logger is not None:
            logger.end("completed")
            events_path = registry.events_path(logger.run_id)
            print(f"run log: {events_path} "
                  f"(tail with `python -m repro monitor --runs "
                  f"{args.runlog}`)")
        print(report.describe())
        if args.monitor:
            from repro.obs.monitor import run_monitor, score_run
            from repro.obs.runlog import read_events

            events = read_events(events_path)
            monitor = run_monitor(events)
            print()
            for alert in monitor.alerts:
                print(alert.describe())
            board = score_run(events, monitor.alerts)
            print()
            print(board.describe())
            if args.metrics_out:
                board.publish(tracer.metrics)
        if args.out:
            write_chrome_trace(tracer, args.out)
            print(f"\nwrote {args.out} ({len(tracer)} spans; recovery "
                  "phases are chaos.*)")
            print()
            print(phase_summary(tracer))
        if args.metrics_out:
            from repro.obs import write_metrics

            write_metrics(tracer, args.metrics_out)
            print(f"wrote {args.metrics_out}")

    if args.no_verify:
        return 0
    print()
    if not report.resharded:
        base_losses, base_state = run_baseline(
            config, parallel, total_iterations=args.iterations,
            schedule=args.schedule, seed=args.seed,
        )
        loss_ok = report.losses == base_losses
        state_ok = states_bit_equal(report.final_state, base_state)
        print(f"bit-exact vs uninterrupted run: losses={loss_ok}  "
              f"parameters={state_ok}")
        if not (loss_ok and state_ok):
            print("error: recovered run deviates from the uninterrupted "
                  "reference", file=sys.stderr)
            return 1
    else:
        restored = [r for r in report.records if r.kind == "restore"]
        reset_at = restored[0].at_iteration if restored else 0
        ref_losses, ref_state = run_reset_reference(
            config, args.batch, total_iterations=args.iterations,
            reset_at=reset_at, seed=args.seed,
        )
        loss_ok = bool(np.allclose(
            report.losses[reset_at:], ref_losses[reset_at:],
            rtol=1e-9, atol=1e-12,
        ))
        state_ok = all(
            np.allclose(report.final_state[k], ref_state[k],
                        rtol=1e-8, atol=1e-11)
            for k in ref_state if k != "head.tied"
        )
        print(f"resharded resume vs single-rank reference "
              f"(optimizer reset at {reset_at}): losses={loss_ok}  "
              f"parameters={state_ok}")
        if not (loss_ok and state_ok):
            print("error: resharded resume deviates from the single-rank "
                  "reference", file=sys.stderr)
            return 1
    return 0


def _follow_monitor(path: str, acks: set[str], poll: float) -> int:
    """Live-tail one run log, re-rendering the dashboard per batch of
    events, until the run ends (``run-end`` observed)."""
    import time as _time

    from repro.obs.monitor import Monitor, render_dashboard
    from repro.obs.runlog import parse_events

    monitor = Monitor()
    pending = ""
    with open(path, "r", encoding="utf-8") as fh:
        while True:
            chunk = fh.read()
            if chunk:
                pending += chunk
                lines = pending.split("\n")
                pending = lines.pop()  # hold back a partial tail line
                for event in parse_events(lines):
                    monitor.observe(event)
                # Clear + home, then the refreshed dashboard.
                print("\x1b[2J\x1b[H" + render_dashboard(monitor),
                      flush=True)
            if monitor.status != "running":
                break
            _time.sleep(poll)
    unack = monitor.unacknowledged_critical(acks)
    return 1 if unack else 0


def _cmd_monitor(args) -> int:
    from repro.obs.monitor import render_dashboard, run_monitor, score_run
    from repro.obs.runlog import RunRegistry, read_events

    registry = RunRegistry(args.runs)
    if args.list:
        infos = registry.list()
        if not infos:
            print(f"no runs under {args.runs}")
            return 0
        for info in infos:
            print(info.describe())
        latest = registry.latest()
        if latest is not None:
            print(f"LATEST -> {latest}")
        return 0
    if args.gc is not None:
        dropped = registry.gc(args.gc)
        if dropped:
            print(f"dropped {len(dropped)} runs: {', '.join(dropped)}")
        else:
            print("nothing to drop")
        return 0
    run_id = args.run or registry.latest()
    if run_id is None:
        raise ValueError(
            f"no runs under {args.runs} (and no RUN given); start one "
            "with `python -m repro chaos --fast --runlog "
            f"{args.runs}`"
        )
    path = registry.events_path(run_id)
    acks = set(args.ack or ())
    if args.follow:
        return _follow_monitor(path, acks, args.poll)
    events = read_events(path)
    monitor = run_monitor(events)
    if args.check:
        unack = monitor.unacknowledged_critical(acks)
        print(f"run {run_id}: {monitor.events_seen} events, "
              f"{len(monitor.alerts)} alerts, {len(unack)} critical "
              f"unacknowledged")
        for alert in monitor.alerts:
            suffix = ""
            if (alert.severity == "critical"
                    and monitor.acknowledged(alert, acks)):
                suffix = "  [ack]"
            print("  " + alert.describe() + suffix)
        if unack:
            print("error: unacknowledged critical alerts "
                  "(acknowledge with --ack DETECTOR)", file=sys.stderr)
            return 1
        return 0
    print(render_dashboard(monitor))
    if args.score or args.metrics_out:
        board = score_run(events, monitor.alerts)
        if args.score:
            print()
            print(board.describe())
        if args.metrics_out:
            from repro.obs.metrics import MetricsRegistry

            metrics = MetricsRegistry()
            board.publish(metrics)
            with open(args.metrics_out, "w", encoding="utf-8") as fh:
                fh.write(metrics.to_json())
            print(f"wrote {args.metrics_out}")
    return 0


def _cmd_serve(args) -> int:
    import contextlib
    import json

    import numpy as np

    from repro.config import tiny_test_model
    from repro.nn.generate import generate
    from repro.nn.transformer import GPTModel
    from repro.serve import (
        PagedKVCache,
        ServeEngine,
        load_trace,
        poisson_trace,
        save_trace,
        validate_serve_metrics,
    )

    config = tiny_test_model()
    model = GPTModel(config, seed=args.seed)
    if args.trace:
        trace = load_trace(args.trace)
    else:
        trace = poisson_trace(
            args.requests, args.rate, vocab_size=config.vocab_size,
            seed=args.seed, temperature=args.temperature, top_k=args.top_k,
            deadline_steps=args.deadline, queue_ttl=args.ttl,
        )
    if args.save_trace:
        save_trace(trace, args.save_trace)
        print(f"wrote {args.save_trace} ({len(trace)} requests)")
    plan = None
    if args.chaos_plan:
        from repro.resilience import ServeChaosPlan

        try:
            with open(args.chaos_plan, "r", encoding="utf-8") as fh:
                plan = ServeChaosPlan.from_json(fh.read())
        except (OSError, ValueError) as exc:
            print(f"error: --chaos-plan: {exc}", file=sys.stderr)
            return 2
    elif args.chaos:
        from repro.resilience import (
            AllocExhaustion,
            DecodeCrash,
            KVCorruption,
            ServeChaosPlan,
        )

        # Default storm: one of each fault class, early enough that the
        # tiny trace is still in flight when they land.
        plan = ServeChaosPlan(
            crashes=(DecodeCrash(at_step=1),),
            corruptions=(KVCorruption(at_step=4),),
            exhaustions=(AllocExhaustion(at_step=6, steps=3),),
        )
    checksums = plan is not None and bool(plan.corruptions)
    cache = PagedKVCache.for_model(
        model, num_blocks=args.blocks, block_size=args.block_size,
        checksums=checksums,
    )
    with contextlib.ExitStack() as stack:
        logger = None
        if args.runlog:
            from repro.obs.runlog import RunRegistry

            registry = RunRegistry(args.runlog)
            logger, log_fh = registry.create("serve")
            stack.enter_context(contextlib.closing(log_fh))
            logger.start(
                "serve",
                model={"layers": config.num_layers,
                       "hidden": config.hidden_size,
                       "heads": config.num_attention_heads,
                       "vocab": config.vocab_size,
                       "seq": config.seq_length},
                parallel={"p": 1, "t": 1, "d": 1, "B": 1},
                requests=len(trace),
            )
        engine = ServeEngine(
            model, cache, logger=logger, chaos=plan,
            max_queue=args.max_queue, shed_policy=args.shed,
        )
        report = engine.run(trace)
        if logger is not None:
            logger.end("completed")
            print(f"run log: {registry.events_path(logger.run_id)}")
    cache.assert_empty()
    metrics = report.to_dict()
    agg = metrics["aggregate"]
    print(f"model: {config}")
    print(f"cache: {args.blocks} blocks x {args.block_size} positions; "
          f"trace: {len(trace)} requests (rate {args.rate}/step, "
          f"seed {args.seed})")
    if plan is not None:
        print(f"chaos: {len(plan.crashes)} crashes, "
              f"{len(plan.corruptions)} corruptions, "
              f"{len(plan.exhaustions)} exhaustion storms"
              + ("; per-block checksums on" if checksums else ""))
    print()
    header = (f"{'request':<10} {'prompt':>6} {'gen':>4} {'ttft':>5} "
              f"{'latency':>8} {'preempt':>8} {'retry':>6}  outcome")
    print(header)
    print("-" * len(header))
    for req in report.requests:
        detail = req.outcome
        if req.outcome == "completed" and req.finish_reason:
            detail = f"completed ({req.finish_reason})"
        print(f"{req.request_id:<10} {req.prompt_tokens:>6} "
              f"{req.generated_tokens:>4} {str(req.ttft_steps):>5} "
              f"{str(req.latency_steps):>8} {req.preemptions:>8} "
              f"{req.retries:>6}  {detail}")
    print("-" * len(header))
    outcomes = agg["outcomes"]
    outcome_line = "  ".join(
        f"{name}={count}" for name, count in sorted(outcomes.items())
        if count
    )
    print(f"steps={agg['engine_steps']}  "
          f"generated={agg['total_generated_tokens']} tokens  "
          f"throughput={agg['tokens_per_s']:.1f} tok/s  "
          f"ttft p95={agg['ttft_steps_p95']}  "
          f"latency p95={agg['latency_steps_p95']}  "
          f"preemptions={agg['preemptions']}  "
          f"retries={agg['retries']}")
    print(f"outcomes: {outcome_line}")
    if args.metrics_out:
        with open(args.metrics_out, "w", encoding="utf-8") as fh:
            json.dump(metrics, fh, indent=2)
            fh.write("\n")
        print(f"wrote {args.metrics_out}")
    failures = [f"metrics schema: {v}" for v in validate_serve_metrics(metrics)]
    if args.smoke:
        # Differential gate: every *completed* engine stream must equal
        # its single-request full-recompute oracle, token for token.
        # Typed degradation outcomes (timeout/rejected/cancelled/failed)
        # have no full stream to compare.
        completed = {r.request_id for r in report.requests
                     if r.outcome == "completed"}
        for req in trace:
            if req.request_id not in completed:
                continue
            oracle = generate(
                model, np.array(req.prompt), req.max_new_tokens,
                temperature=req.temperature, top_k=req.top_k,
                rng=np.random.default_rng(req.seed),
                stop_ids=set(req.stop_ids),
            )
            got = engine.outputs.get(req.request_id)
            if got is None or not np.array_equal(oracle, got):
                failures.append(
                    f"{req.request_id}: engine stream != generate oracle"
                )
        print(f"smoke: {len(completed)} completed streams checked "
              f"against the oracle, {len(failures)} violations")
    for failure in failures:
        print(f"error: {failure}", file=sys.stderr)
    return 1 if failures else 0


def _cmd_verify(args) -> int:
    from repro.verify import parse_case
    from repro.verify.runner import INJECT_MODES, run_verification

    schedule_json = None
    if args.schedule_json is not None:
        with open(args.schedule_json, "r", encoding="utf-8") as fh:
            schedule_json = fh.read()
    case = parse_case(args.case) if args.case else None
    report = run_verification(
        fast=args.fast,
        num_cases=args.configs,
        seed=args.seed,
        schedule_json=schedule_json,
        inject=args.inject,
        case=case,
        only=args.only,
    )
    print(report.describe())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Megatron-LM PTD-P (SC '21) reproduction toolkit",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="simulate one training iteration")
    _add_model_args(p_sim)
    p_sim.add_argument("-p", type=int, default=1, help="pipeline-parallel size")
    p_sim.add_argument("-t", type=int, default=1, help="tensor-parallel size")
    p_sim.add_argument("-d", type=int, default=1, help="data-parallel size")
    p_sim.add_argument("-b", type=int, default=1, help="microbatch size")
    p_sim.add_argument("--batch", type=int, required=True, help="global batch size")
    p_sim.add_argument("--chunks", type=int, default=1, help="model chunks (v)")
    p_sim.add_argument(
        "--schedule", default="1f1b",
        choices=["gpipe", "1f1b", "interleaved", "interleaved-gpipe"],
    )
    p_sim.add_argument("--no-recompute", action="store_true")
    p_sim.add_argument("--no-scatter-gather", action="store_true")
    p_sim.add_argument("--no-fusion", action="store_true")
    p_sim.set_defaults(func=_cmd_simulate)

    p_sug = sub.add_parser("suggest", help="Takeaway-heuristic configuration")
    _add_model_args(p_sug)
    p_sug.add_argument("--gpus", type=int, required=True)
    p_sug.add_argument("--batch", type=int, required=True)
    p_sug.set_defaults(func=_cmd_suggest)

    p_auto = sub.add_parser(
        "autotune",
        help="exact configuration search: every candidate is bounded, "
             "the contenders are simulated",
    )
    _add_model_args(p_auto)
    p_auto.add_argument("--gpus", type=int, required=True,
                        help="GPU budget; every candidate uses all of them")
    p_auto.add_argument("--batch", type=int, required=True,
                        help="global batch size (sequences per iteration)")
    p_auto.add_argument("--top", type=int, default=5,
                        help="how many of the best configurations to print")
    p_auto.set_defaults(func=_cmd_autotune)

    p_trace = sub.add_parser(
        "trace", help="trace one training iteration (Chrome-trace output)"
    )
    _add_model_args(p_trace)
    p_trace.add_argument("-p", type=int, default=1, help="pipeline-parallel size")
    p_trace.add_argument("-t", type=int, default=1, help="tensor-parallel size")
    p_trace.add_argument("-d", type=int, default=1, help="data-parallel size")
    p_trace.add_argument("-b", type=int, default=1, help="microbatch size")
    p_trace.add_argument("--batch", type=int, required=True, help="global batch size")
    p_trace.add_argument("--chunks", type=int, default=1, help="model chunks (v)")
    p_trace.add_argument(
        "--schedule", default="1f1b",
        choices=["gpipe", "1f1b", "interleaved", "interleaved-gpipe"],
    )
    p_trace.add_argument(
        "--mode", default="engine", choices=["engine", "sim"],
        help="engine: run the numeric trainer (real bytes/FLOPs); "
             "sim: modelled timings from the discrete-event simulator",
    )
    p_trace.add_argument("--out", default="trace.json",
                         help="Chrome-trace output path")
    p_trace.add_argument("--metrics-out", "--metrics", dest="metrics_out",
                         default=None,
                         help="also dump the metrics registry as JSON "
                              "(shared schema across subcommands)")
    p_trace.add_argument("--profile", action="store_true",
                         help="print the span profiler's self/total "
                              "hot-path table")
    p_trace.add_argument("--top", type=int, default=10,
                         help="rows in the --profile table")
    p_trace.add_argument("--folded", default=None,
                         help="write folded stacks (flamegraph collapse "
                              "format) to this path")
    p_trace.add_argument(
        "--runlog", default=None, metavar="DIR",
        help="register the traced run under DIR and stream run-log "
             "events (iterations, heartbeats) into it",
    )
    p_trace.add_argument("--seed", type=int, default=0)
    p_trace.set_defaults(func=_cmd_trace)

    p_good = sub.add_parser(
        "goodput",
        help="checkpoint-interval sweep + goodput under a failure trace",
    )
    p_good.add_argument(
        "--preset", default="1t", choices=["1t", "530b", "175b"],
        help="model + cluster scenario (Table 1 flagship configs)",
    )
    p_good.add_argument(
        "--node-mtbf-hours", type=float, default=None,
        help="override the scenario's per-node MTBF",
    )
    p_good.add_argument("--points", type=int, default=25,
                        help="sweep points (log-spaced)")
    p_good.add_argument("--min-interval", type=float, default=None,
                        help="sweep lower bound, seconds (default 2x save)")
    p_good.add_argument("--max-interval", type=float, default=None,
                        help="sweep upper bound, seconds (default MTBF)")
    p_good.add_argument(
        "--failures", default=None,
        help="comma-separated failure iterations for the replayed trace "
             "(default: one per cluster-MTBF of useful time)",
    )
    p_good.add_argument("--iterations", type=int, default=None,
                        help="length of the replayed run, iterations")
    p_good.add_argument("--out", default=None,
                        help="write a Chrome trace of the replayed run")
    p_good.add_argument("--metrics-out", dest="metrics_out", default=None,
                        help="dump the replay's metrics registry as JSON "
                             "(shared schema across subcommands)")
    p_good.set_defaults(func=_cmd_goodput)

    from repro.verify.runner import INJECT_MODES, SECTIONS

    p_ver = sub.add_parser(
        "verify",
        help="run the correctness-verification suite (exit 1 on violations)",
    )
    p_ver.add_argument(
        "--fast", action="store_true",
        help="reduced grids: 4 schedule configs, 6 conformance cases",
    )
    p_ver.add_argument(
        "--configs", type=int, default=None,
        help="number of sampled conformance configurations "
             "(default 25, or 6 with --fast)",
    )
    p_ver.add_argument("--seed", type=int, default=0,
                       help="seed for configuration sampling")
    p_ver.add_argument(
        "--schedule-json", default=None,
        help="also validate a schedule fixture (JSON, see "
             "repro.verify.schedule_to_json)",
    )
    p_ver.add_argument(
        "--only", default=None,
        choices=SECTIONS,
        help="run a single verification section",
    )
    p_ver.add_argument(
        "--case", default=None,
        help="run one conformance case, e.g. "
             "p=2,t=1,d=2,v=1,b=1,m=2,schedule=1f1b,recompute=0,zero=0,"
             "seed=5 (the format of printed repro strings)",
    )
    p_ver.add_argument(
        "--inject", default=None,
        choices=INJECT_MODES,
        help="self-test: inject a known defect and demand the verifier "
             "catches it (exits non-zero either way)",
    )
    p_ver.set_defaults(func=_cmd_verify)

    p_chaos = sub.add_parser(
        "chaos",
        help="supervised fault-tolerant training of the tiny model under "
             "live injected failures",
    )
    p_chaos.add_argument("-p", type=int, default=1, help="pipeline-parallel size")
    p_chaos.add_argument("-t", type=int, default=1, help="tensor-parallel size")
    p_chaos.add_argument("-d", type=int, default=2, help="data-parallel size")
    p_chaos.add_argument("-b", type=int, default=1, help="microbatch size")
    p_chaos.add_argument("--batch", type=int, default=4,
                         help="global batch size")
    p_chaos.add_argument(
        "--schedule", default="1f1b",
        choices=["gpipe", "1f1b", "interleaved", "interleaved-gpipe"],
    )
    p_chaos.add_argument("--iterations", type=int, default=8,
                         help="iterations of real training")
    p_chaos.add_argument("--every", type=int, default=2,
                         help="checkpoint interval, iterations")
    p_chaos.add_argument("--keep-last", type=int, default=3,
                         help="checkpoint retention (last k snapshots)")
    p_chaos.add_argument("--seed", type=int, default=0,
                         help="weights + per-iteration data seed")
    p_chaos.add_argument(
        "--plan", default=None,
        help="chaos plan JSON (kills/corruptions/save_failures); "
             "overrides the individual fault flags",
    )
    p_chaos.add_argument(
        "--kill-at", default=None,
        help="comma-separated iterations at which a rank failure is "
             "raised inside the live engine",
    )
    p_chaos.add_argument("--rank", type=int, default=0,
                         help="rank label for injected failures")
    p_chaos.add_argument(
        "--permanent", action="store_true",
        help="killed ranks are lost for good: recovery reshards onto a "
             "smaller parallel configuration",
    )
    p_chaos.add_argument(
        "--corrupt", default=None,
        help="comma-separated iterations whose committed checkpoint is "
             "damaged on disk after commit",
    )
    p_chaos.add_argument("--corrupt-file", default="model.npz",
                         help="which checkpoint file to damage")
    p_chaos.add_argument("--corrupt-mode", default="flip",
                         choices=["flip", "truncate", "delete"])
    p_chaos.add_argument(
        "--save-fail", default=None,
        help="comma-separated k[:times] entries: the checkpoint save at "
             "iteration k fails transiently `times` times",
    )
    p_chaos.add_argument(
        "--loss-spike", default=None,
        help="comma-separated iterations whose *reported* loss is blown "
             "up (telemetry-layer fault; training is untouched)",
    )
    p_chaos.add_argument(
        "--stall", default=None,
        help="comma-separated k[:rank] entries: stall the reported "
             "telemetry at iteration k -- whole-job without :rank "
             "(throughput collapse), one replica with it (straggler)",
    )
    p_chaos.add_argument("--stall-seconds", type=float, default=5.0,
                         help="reported stall duration per --stall entry")
    p_chaos.add_argument(
        "--runlog", default=None, metavar="DIR",
        help="register this run under DIR (runs/<id>/events.jsonl + "
             "LATEST pointer) and stream run-log events into it",
    )
    p_chaos.add_argument(
        "--monitor", action="store_true",
        help="after the run, replay its run log through the anomaly "
             "detectors and print the alert feed + detector scoreboard "
             "(precision/recall/latency vs the injected ground truth); "
             "needs --runlog",
    )
    p_chaos.add_argument("--backoff", type=float, default=0.05,
                         help="base save-retry backoff, seconds (doubles "
                              "per attempt, capped)")
    p_chaos.add_argument(
        "--backend", default="coop", choices=["coop", "mp"],
        help="execution backend for the trained model: coop (in-process "
             "oracle) or mp (real worker processes; the harness closes "
             "and re-spawns them across kills, leaking no /dev/shm "
             "segments)",
    )
    p_chaos.add_argument("--dir", default=None,
                         help="checkpoint root (default: a temp dir)")
    p_chaos.add_argument("--out", default=None,
                         help="write a Chrome trace of the run, including "
                              "failure/recovery spans")
    p_chaos.add_argument("--metrics-out", dest="metrics_out", default=None,
                         help="dump the run's metrics registry as JSON "
                              "(shared schema across subcommands)")
    p_chaos.add_argument(
        "--fast", action="store_true",
        help="CI smoke: inject one kill + one corruption + one transient "
             "save failure unless faults are given explicitly",
    )
    p_chaos.add_argument(
        "--no-verify", action="store_true",
        help="skip the bit-exactness comparison against the "
             "uninterrupted reference run",
    )
    p_chaos.set_defaults(func=_cmd_chaos)

    p_serve = sub.add_parser(
        "serve",
        help="continuous-batching inference on the tiny model: paged KV "
             "cache, FIFO admission, preemption, SLO metrics",
    )
    p_serve.add_argument("--requests", type=int, default=8,
                         help="requests in the generated Poisson trace")
    p_serve.add_argument("--rate", type=float, default=0.7,
                         help="mean arrivals per engine step")
    p_serve.add_argument("--seed", type=int, default=0,
                         help="weights + trace + per-request sampling seed")
    p_serve.add_argument("--temperature", type=float, default=0.0,
                         help="sampling temperature (0 = greedy)")
    p_serve.add_argument("--top-k", type=int, default=None,
                         help="top-k sampling cutoff")
    p_serve.add_argument("--blocks", type=int, default=4,
                         help="KV-cache pool size, blocks (small values "
                              "force preemption)")
    p_serve.add_argument("--block-size", type=int, default=3,
                         help="token positions per cache block")
    p_serve.add_argument("--trace", default=None, metavar="PATH",
                         help="replay a saved trace JSON instead of "
                              "generating one")
    p_serve.add_argument("--save-trace", default=None, metavar="PATH",
                         help="write the generated trace JSON (replay it "
                              "with --trace)")
    p_serve.add_argument("--metrics-out", dest="metrics_out", default=None,
                         help="write the per-request TTFT/latency/"
                              "throughput metrics JSON")
    p_serve.add_argument(
        "--runlog", default=None, metavar="DIR",
        help="register the run under DIR and stream request lifecycle + "
             "iteration events into it",
    )
    p_serve.add_argument(
        "--deadline", type=int, default=None, metavar="STEPS",
        help="per-request deadline in engine steps past arrival; "
             "overdue requests finish with outcome=timeout",
    )
    p_serve.add_argument(
        "--ttl", type=int, default=None, metavar="STEPS",
        help="queue TTL: requests never admitted within STEPS of "
             "arrival time out in the queue",
    )
    p_serve.add_argument(
        "--max-queue", type=int, default=None, metavar="N",
        help="bound the never-admitted waiting queue at N; overflow is "
             "shed per --shed with outcome=rejected",
    )
    p_serve.add_argument(
        "--shed", default="reject-newest",
        choices=["reject-newest", "edf"],
        help="shedding policy for a full queue: drop the newcomer, or "
             "the entry with the latest deadline (earliest-deadline-"
             "first keeps the tightest SLOs)",
    )
    p_serve.add_argument(
        "--chaos", action="store_true",
        help="inject the default fault storm (decode crash + KV-block "
             "corruption + allocator-exhaustion storm) with supervised "
             "recovery; enables per-block cache checksums",
    )
    p_serve.add_argument(
        "--chaos-plan", default=None, metavar="PATH",
        help="inject a ServeChaosPlan JSON (crashes/corruptions/"
             "exhaustions) instead of the default storm",
    )
    p_serve.add_argument(
        "--smoke", action="store_true",
        help="CI gate: validate the SLO-metrics schema and check every "
             "completed engine stream against the generate oracle; exit "
             "non-zero on any violation",
    )
    p_serve.set_defaults(func=_cmd_serve)

    p_mon = sub.add_parser(
        "monitor",
        help="mission control: dashboard / batch health check over a "
             "registered run log",
    )
    p_mon.add_argument(
        "run", nargs="?", default=None,
        help="run id under --runs (default: the LATEST pointer)",
    )
    p_mon.add_argument("--runs", default="runs",
                       help="run registry root (default: runs/)")
    p_mon.add_argument("--list", action="store_true",
                       help="list registered runs and exit")
    p_mon.add_argument("--gc", type=int, default=None, metavar="KEEP",
                       help="drop all but the newest KEEP runs and exit")
    p_mon.add_argument(
        "--check", action="store_true",
        help="batch mode: print the alert feed and exit 1 if any "
             "critical alert is unacknowledged (CI gate)",
    )
    p_mon.add_argument(
        "--ack", action="append", default=None, metavar="DETECTOR",
        help="acknowledge every alert from this detector (repeatable); "
             "in-log `ack` events count too",
    )
    p_mon.add_argument(
        "--follow", action="store_true",
        help="live-tail the run log, re-rendering the dashboard until "
             "the run ends",
    )
    p_mon.add_argument("--poll", type=float, default=0.5,
                       help="--follow poll interval, seconds")
    p_mon.add_argument(
        "--score", action="store_true",
        help="print the detector scoreboard (needs injected ground "
             "truth, i.e. a chaos run log)",
    )
    p_mon.add_argument("--metrics-out", dest="metrics_out", default=None,
                       help="dump the scoreboard in the shared "
                            "metrics-JSON schema")
    p_mon.set_defaults(func=_cmd_monitor)

    p_sched = sub.add_parser("schedule", help="render a schedule timeline")
    p_sched.add_argument(
        "name", choices=["gpipe", "1f1b", "interleaved", "interleaved-gpipe"]
    )
    p_sched.add_argument("-p", type=int, default=4)
    p_sched.add_argument("-m", type=int, default=8)
    p_sched.add_argument("--chunks", type=int, default=2)
    p_sched.set_defaults(func=_cmd_schedule)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())

"""Workload ``sim_plan``: the simulator as its users run it.

One pass is ``simulate_iteration`` over all ten ``TABLE1_ROWS`` (1F1B),
then ``perf.autotune`` for Table-1 row 4 (39B, 512 GPUs) and row 6
(145B, 1536 GPUs).  The simulator's users are one-shot CLI sweeps
(``repro simulate/autotune/goodput``) that never see a warm process, so
every pass runs in a freshly forked child that has imported the modules
but simulated nothing: a cross-call memo cannot zero the number, while
structure shared inside one sweep (the same ``(p, m, v)`` schedule
across configs) legitimately can help.  No GEMMs or buffers move.

``--seed`` generates no input here: the Table-1 rows are the input.
"""

from __future__ import annotations

import importlib
import multiprocessing
import time
from statistics import median

import repro.perf as perf_pkg
import repro.sim as sim_pkg
from repro.config.presets import TABLE1_ROWS
from repro.perf.autotune import enumerate_configs

import pins
from speed import SpeedMeter

AUTOTUNE_ROWS = (4, 6)
GPT145B_ROW = 6
GPT1T_ROW = 9
#: The warm-up pass simulates only the rows up to 145B: a forked pass
#: leaves nothing behind in this process, so a full one would buy
#: nothing but the operating system's warm page cache.
WARM_ROWS = 7
#: Measured passes in a 20 s run, (``--trace 0``, ``--trace 1``); a
#: pass takes 5.8 s here.
PASSES_PER_20S = (4, 2)


def in_fresh_fork(target, *args):
    """``target(meter, *args)`` in a forked child that has imported what
    this process has imported and run nothing yet; returns its result.
    ``meter`` is the child's own running machine-speed meter."""
    ctx = multiprocessing.get_context("fork")
    recv, send = ctx.Pipe(duplex=False)

    def run():
        meter = SpeedMeter()
        meter.start_timer()
        send.send(target(meter, *args))
        send.close()

    child = ctx.Process(target=run)
    child.start()
    send.close()
    try:
        result = recv.recv()
    finally:
        recv.close()
        child.join()
    if child.exitcode != 0:
        raise RuntimeError(f"forked {target.__name__} exited with "
                           f"{child.exitcode}")
    return result


def one_pass(meter, rows, autotune_rows, recorder=None) -> dict:
    """Time one pass; runs in a forked child.  Times are seconds at
    nominal machine speed."""
    iteration_times, mfu = [], []
    clock = time.perf_counter
    start = clock()
    for row in rows:
        result = sim_pkg.simulate_iteration(row.model, row.parallel)
        iteration_times.append(result.iteration_time)
        mfu.append(result.peak_fraction)
    stamps = [clock()]
    best = []
    for index in autotune_rows:
        row = TABLE1_ROWS[index]
        top = perf_pkg.autotune(
            row.model, row.num_gpus, row.parallel.global_batch_size
        )
        stamps.append(clock())
        best.append([top[0].describe(), top[0].result.iteration_time])
    meter.stop_timer()
    meter.sample()  # the warm-up pass is shorter than the timer's interval
    return {
        "wall_s": meter.seconds(start, stamps[-1]),
        "table_s": meter.seconds(start, stamps[0]),
        "autotune_s": [meter.seconds(t0, t1)
                       for t0, t1 in zip(stamps, stamps[1:])],
        "iteration_times": iteration_times, "mfu": mfu, "best": best,
        "spans": recorder.spans if recorder is not None else None,
    }


class SimPlan:
    iteration_span = "simulate_iteration"
    #: self time of each wrapped entry point as a share of the traced pass
    share_of_span = {
        "simulate_iteration": "sim.simulate_share",
        "make_schedule": "sim.schedule_share",
        "autotune": "perf.autotune_share",
    }

    def __init__(self, seed: int, meter):
        del seed  # no seeded input: the Table-1 rows are the input
        self.meter = meter
        self.sweep_configs = [
            sum(1 for _ in enumerate_configs(
                TABLE1_ROWS[i].model, TABLE1_ROWS[i].num_gpus,
                TABLE1_ROWS[i].parallel.global_batch_size))
            for i in AUTOTUNE_ROWS
        ]
        self.configs_per_pass = len(TABLE1_ROWS) + sum(self.sweep_configs)
        self.passes: list[dict] = []
        self.warm = in_fresh_fork(one_pass, TABLE1_ROWS[:WARM_ROWS], ())

    def measure(self, seconds: float, trace: int) -> None:
        for _ in range(max(1, round(PASSES_PER_20S[trace] * seconds / 20))):
            self.passes.append(
                in_fresh_fork(one_pass, TABLE1_ROWS, AUTOTUNE_ROWS))
        self.measured = len(self.passes)  # a traced pass may follow

    def unit_seconds(self) -> float:
        return median(p["wall_s"] for p in self.passes[:self.measured])

    def end_to_end(self) -> dict[str, float]:
        measured = self.passes[:self.measured]
        sweep = sum(self.sweep_configs)
        return {
            "work_per_s": self.configs_per_pass / self.unit_seconds(),
            "wait_ms": median(p["table_s"] for p in measured) * 1e3,
            "pace_ms":
                median(sum(p["autotune_s"]) for p in measured) / sweep * 1e3,
        }

    # -- per-layer ----------------------------------------------------------
    def traced_pass(self, recorder):
        ops = lambda schedule, *a, **k: sum(len(r) for r in schedule.ops)
        recorder.wrap(sim_pkg, "simulate_iteration", self.iteration_span)
        # simulate_iteration calls the name its own module imported.
        recorder.wrap(importlib.import_module("repro.sim.trainer_sim"),
                      "make_schedule", "make_schedule", count_of=ops)
        recorder.wrap(perf_pkg, "autotune", "autotune")
        try:
            traced = in_fresh_fork(
                one_pass, TABLE1_ROWS, AUTOTUNE_ROWS, recorder)
        finally:
            recorder.unwrap_all()
        recorder.spans = traced.pop("spans")
        self.passes.append(traced)  # its simulated results are checked too
        by_name = recorder.by_name()
        timed_ops = by_name["make_schedule"]["count"]
        measured = self.passes[:self.measured]
        row4_s, row6_s = (median(p["autotune_s"][i] for p in measured)
                          for i in range(len(AUTOTUNE_ROWS)))
        return traced["wall_s"], {
            "sim_configs_per_s": self.configs_per_pass / self.unit_seconds(),
            "sim.timed_ops_per_pass": timed_ops,
            "sim.us_per_timed_op": self.unit_seconds() / timed_ops * 1e6,
            "perf.configs_per_pass": by_name[self.iteration_span]["calls"],
            "perf.autotune_s_row4": row4_s,
            "perf.autotune_s_row6": row6_s,
        }

    def probes(self) -> dict[str, float]:
        import probes  # here, so that set-up does not pay for its imports

        return {**probes.probe_sim(), **probes.probe_cli(self.meter)}

    def close(self) -> None:
        pass

    def check(self):
        """Simulated statistics are exact: every pass must agree with the
        pins (which hold for every seed) and with every other pass."""
        problems = []
        failed = 0
        pinned = {
            "iteration_times": pins.SIM_ITERATION_TIMES,
            "best": pins.SIM_AUTOTUNE_BEST,
        }
        for number, result in enumerate(self.passes):
            for key, want in pinned.items():
                got = result[key]
                wrong = sum(1 for a, b in zip(got, want) if a != b)
                wrong += abs(len(got) - len(want))
                if wrong:
                    failed += wrong
                    problems.append(
                        f"pass {number}: {wrong} of {key} differ from the "
                        f"pinned values: {got!r}"
                    )
            if result["mfu"][GPT145B_ROW] != pins.SIM_MFU_GPT145B:
                failed += 1
                problems.append(
                    f"pass {number}: 145B MFU {result['mfu'][GPT145B_ROW]!r}"
                    f" != pinned {pins.SIM_MFU_GPT145B!r}"
                )
        warm = self.warm["iteration_times"]
        if warm != pins.SIM_ITERATION_TIMES[:len(warm)]:
            problems.append(f"warm-up pass disagrees with the pins: {warm!r}")
        return self.configs_per_pass * len(self.passes), failed, problems

"""Ablation: the paper's Takeaway heuristics vs exhaustive search.

The paper chooses configurations by heuristic rather than search (§1).
This bench runs the exact simulator-backed autotuner and reports how
close the heuristic configuration comes to the true optimum; a second
guard counts how few candidates that search has to simulate, a third
how few times it evaluates what its candidates share, a fourth and a
fifth that neither a Table-1 sweep nor a search walks a schedule.
"""

from dataclasses import replace

import pytest

import repro.sim
from repro.config import TABLE1_ROWS, fig14_model
from repro.hardware import ClusterTopology
from repro.perf import autotune, enumerate_configs, heuristic_gap, layer_costs
from repro.schedule import (
    DeadlockError,
    completion_order,
    execution,
    make_schedule,
)


def test_heuristic_vs_exhaustive(show):
    gap, best, heuristic = heuristic_gap(fig14_model(), 32, 64)
    from repro.experiments import ExperimentResult

    r = ExperimentResult(
        experiment_id="ablation_autotune",
        title="Takeaway heuristic vs exhaustive search (5.9B, 32 GPUs, B=64)",
        columns=("config", "tflops_gpu"),
    )
    r.add("exhaustive best: " + best.parallel.describe(),
          round(best.tflops_per_gpu, 1))
    r.add("heuristic", round(heuristic.tflops_per_gpu, 1))
    r.notes = f"heuristic gap: {gap*100:.1f}% (the Takeaways are near-optimal)"
    show(r)
    assert gap < 0.25


def test_search_simulates_the_contenders_only(monkeypatch):
    """Table-1 row 4 (39B, 512 GPUs): 152 candidates are bounded and 5
    simulated for the top 5.  Counts, no clock."""
    row = TABLE1_ROWS[4]
    search = (row.model, row.num_gpus, row.parallel.global_batch_size)
    simulated = []
    simulate = repro.sim.simulate_iteration
    monkeypatch.setattr(
        repro.sim, "simulate_iteration",
        lambda *args, **kwargs: simulated.append(args) or simulate(
            *args, **kwargs))
    best = autotune(*search, top_k=5)
    assert sum(1 for _ in enumerate_configs(*search)) == 152
    assert len(simulated) <= 15
    assert best[0].describe() == (
        "(p=4, t=4, d=32), n=512, B=1536, b=4, m=12, v=2 sched=interleaved"
        " -> 171.3 Tflop/s/GPU")


def test_search_prices_each_factor_once(monkeypatch):
    """The same search evaluates the roofline of a transformer layer
    once per distinct (b, t) of its candidates -- 28, where pricing each
    candidate on its own took 431 -- and classifies a stage boundary
    once per pipeline-rank pair, a group once per group: under 8 000
    ``node_of`` calls where it took 24 030.  Counts, no clock."""
    row = TABLE1_ROWS[4]
    search = (row.model, row.num_gpus, row.parallel.global_batch_size)
    distinct = {(parallel.b, parallel.t)
                for parallel, _ in enumerate_configs(*search)}
    assert len(distinct) == 28
    calls = {"layer": 0, "node_of": 0}

    def counted(name, function):
        def counting(*args, **kwargs):
            calls[name] += 1
            return function(*args, **kwargs)
        return counting

    # transformer_layer_cost's body lists its GEMMs exactly once.
    monkeypatch.setattr(
        layer_costs, "transformer_layer_gemms",
        counted("layer", layer_costs.transformer_layer_gemms))
    monkeypatch.setattr(
        ClusterTopology, "node_of",
        counted("node_of", ClusterTopology.node_of))
    layer_costs.transformer_layer_cost.cache_clear()
    autotune(*search, top_k=5)
    assert 0 < calls["layer"] <= 28
    assert 0 < calls["node_of"] <= 8000


def test_table1_sweep_walks_no_schedule(monkeypatch):
    """A cold Table-1 sweep simulates ten 1F1B configs over eight
    distinct (p, m) and walks none of them: the generator attaches each
    order in closed form (it walked 8).  A tampered copy of a generated
    schedule carries no order and is walked once.  Counts, no clock."""
    walked = []
    walk = execution._walk
    monkeypatch.setattr(
        execution, "_walk",
        lambda schedule: walked.append(schedule) or walk(schedule))
    make_schedule.cache_clear()
    for row in TABLE1_ROWS:
        repro.sim.simulate_iteration(row.model, row.parallel)
    assert make_schedule.cache_info().misses == 8
    assert walked == []

    good = make_schedule("1f1b", 4, 8)
    rank3 = good.ops[3]
    tampered = replace(good, ops=good.ops[:3] + ((rank3[1], rank3[0])
                                                 + rank3[2:],))
    with pytest.raises(DeadlockError):
        completion_order(tampered)
    assert walked == [tampered]


def test_searches_walk_no_schedule(monkeypatch):
    """Autotuning Table-1 rows 4 and 6 (39.1B on 512 GPUs, 145.6B on
    1 536) walks no schedule: every generator attaches its order, the
    interleaved one too (the two searches walked 6: five interleaved
    finalists of row 4 and p8 m96 v2 of row 6).  A tampered copy of an
    interleaved schedule carries no order and is walked once.  Counts,
    no clock."""
    walked = []
    walk = execution._walk
    monkeypatch.setattr(
        execution, "_walk",
        lambda schedule: walked.append(schedule) or walk(schedule))
    make_schedule.cache_clear()
    for row in (TABLE1_ROWS[4], TABLE1_ROWS[6]):
        autotune(row.model, row.num_gpus, row.parallel.global_batch_size,
                 top_k=5)
    assert make_schedule.cache_info().misses == 8
    assert walked == []

    good = make_schedule("interleaved", 4, 8, 2)
    rank3 = good.ops[3]
    tampered = replace(good, ops=good.ops[:3] + ((rank3[1], rank3[0])
                                                 + rank3[2:],))
    assert completion_order(tampered) != completion_order(good)
    assert walked == [tampered]

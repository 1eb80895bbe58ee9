"""Shape assertions for every reproduced table and figure.

Each test encodes the corresponding "shape target" from DESIGN.md §3:
who wins, by roughly what factor, where crossovers/optima fall.  The
printed tables themselves are pinned by tests/fixtures/experiments.txt.
"""

import math
from pathlib import Path

import pytest

from repro.experiments import (
    GOODPUT_SWEEP_POINTS,
    REGISTRY,
    ExperimentResult,
    bisection,
    checkpoint_io,
    fig01,
    fig03_fig04,
    fig06,
    fig07,
    fig08,
    fig11,
    fig12,
    fig13,
    fig14,
    fig15,
    fig16,
    fig17,
    fig18,
    fused_ops,
    goodput_interval,
    interconnect,
    table1,
    table2,
    what_if_h100,
)
from repro.experiments.__main__ import main

GOLDEN = Path(__file__).parent / "fixtures" / "experiments.txt"


def column(result, name):
    """One column of an experiment's rows, by name."""
    return [row[result.columns.index(name)] for row in result.rows]


def series_monotone(values, *, decreasing=False):
    """Whether a series is (weakly) monotone."""
    pairs = zip(values, values[1:])
    if decreasing:
        return all(a >= b for a, b in pairs)
    return all(a <= b for a, b in pairs)


class TestReportContainer:
    def test_add_and_column(self):
        r = ExperimentResult("x", "t", ("a", "b"))
        r.add(1, 2)
        assert column(r, "b") == [2]
        with pytest.raises(ValueError):
            r.add(1)
        with pytest.raises(ValueError):
            column(r, "c")

    def test_to_text(self):
        r = ExperimentResult("x", "t", ("a",))
        r.add(1.23456)
        txt = r.to_text()
        assert "x: t" in txt and "1.235" in txt

    def test_registry_complete(self):
        assert len(REGISTRY) == 22


class TestFig01:
    def test_exponential_growth(self):
        """Model sizes double every few months (clearly exponential)."""
        notes = fig01().notes
        months = float(notes.split("doubling every ")[1].split(" months")[0])
        assert 1 < months < 12


class TestFig03Fig04:
    def test_interleaved_smallest_bubble(self):
        r = fig03_fig04()
        bubbles = dict(zip(column(r, "schedule"), column(r, "bubble_measured")))
        assert bubbles["interleaved(v=2)"] < bubbles["1f1b"] == bubbles["gpipe"]

    def test_measured_equals_analytic(self):
        r = fig03_fig04()
        for got, want in zip(column(r, "bubble_measured"), column(r, "bubble_analytic")):
            assert got == pytest.approx(want, abs=1e-3)

    def test_render_smoke(self):
        txt = fig03_fig04().notes
        assert "dev0" in txt and "interleaved" in txt


class TestFig06:
    def test_bubble_decreases_in_d(self):
        r = fig06()
        for n in (32, 128):
            for bp in (32, 128, 512):
                series = [
                    row[3] for row in r.rows if row[0] == n and row[1] == bp
                ]
                assert series_monotone(series, decreasing=True)

    def test_larger_n_larger_bubble(self):
        r = fig06()
        at = {(row[0], row[1], row[2]): row[3] for row in r.rows}
        assert at[(128, 128, 4)] > at[(32, 128, 4)]


class TestFig07:
    def test_throughput_rises_and_saturates(self):
        r = fig07()
        tf = column(r, "tflops_gpu")
        assert series_monotone(tf)
        # Paper: up to 1.3x; our roofline reproduces a >8% rise.
        assert tf[-1] / tf[0] > 1.08


class TestFig08:
    def test_interior_optimum(self):
        r = fig08()
        for B in (128, 512):
            rows = [row for row in r.rows if row[0] == B]
            best = [row[1] for row in rows if row[4] == "*"]
            assert best[0] in (2, 4)  # paper: 4

    def test_extremes_lose(self):
        r = fig08()
        rows512 = {row[1]: row[3] for row in r.rows if row[0] == 512}
        assert rows512[16] < 1.0 and rows512[1] < 1.0


class TestTable1:
    def test_all_rows_within_15pct(self):
        r = table1()
        for got, want in zip(column(r, "tflops_gpu"), column(r, "paper_tflops")):
            assert got == pytest.approx(want, rel=0.15)

    def test_utilization_rises(self):
        r = table1()
        fracs = column(r, "peak_frac")
        assert fracs[-1] > fracs[0]
        assert 0.35 < fracs[0] < 0.55
        assert 0.42 < fracs[-1] < 0.60


class TestTable2:
    def test_all_rows_within_25pct(self):
        r = table2()
        for got, want in zip(column(r, "tflops_gpu"), column(r, "paper_tflops")):
            assert got == pytest.approx(want, rel=0.25)

    def test_ptd_wins_everywhere_at_equal_gpus(self):
        r = table2()
        by = {(row[0], row[1], row[3]): row[5] for row in r.rows}
        for gpus in (1536,):
            assert by[("ptd", "175B", gpus)] > by[("zero3", "175B", gpus)]
        assert by[("ptd", "530B", 1120)] > by[("zero3", "530B", 1120)]
        assert by[("ptd", "530B", 2240)] > by[("zero3", "530B", 2240)]

    def test_large_gap_at_doubled_gpus(self):
        r = table2()
        # PTD-P's throughput advantage over ZeRO-3 at 768 GPUs (175B).
        tflops = {(row[0], row[3]): row[5] for row in r.rows if row[1] == "175B"}
        adv = tflops[("ptd", 768)] / tflops[("zero3", 768)] - 1.0
        assert adv > 0.4  # paper: 0.70

    def test_ptd_scales_gracefully(self):
        r = table2()
        ptd = [row[5] for row in r.rows if row[0] == "ptd" and row[1] == "175B"]
        assert min(ptd) > 0.85 * max(ptd)


class TestFig11:
    def test_large_batch_scales_better(self):
        r = fig11()
        by = {(row[0], row[1]): row[4] for row in r.rows}
        drop_small = by[(8, 8)] / by[(8, 1)]
        drop_large = by[(128, 8)] / by[(128, 1)]
        assert drop_large > drop_small
        assert drop_large > 0.8
        assert drop_small < 0.65


class TestFig12:
    def test_interleaved_wins_and_gap_closes(self):
        r = fig12()
        gains = column(r, "gain_pct")
        assert all(g > 0 for g in gains)
        assert gains[0] > 10  # 10+% at the smallest batch (paper's claim)
        assert gains[-1] < gains[0]


class TestFig13:
    def test_peak_at_t8(self):
        r = fig13()
        for B in (32, 128):
            best = max((row for row in r.rows if row[0] == B),
                       key=lambda row: row[3])
            assert best[1] == 8

    def test_spread_factor(self):
        """Sub-optimal combinations lose up to ~2x (paper §1)."""
        r = fig13()
        vals = [row[3] for row in r.rows if row[0] == 32]
        assert max(vals) / min(vals) > 1.5


class TestFig14:
    def test_throughput_decreases_with_p(self):
        r = fig14()
        for B in (128, 512):
            series = [row[3] for row in r.rows if row[0] == B]
            assert series_monotone(series, decreasing=True)

    def test_larger_batch_higher(self):
        r = fig14()
        by = {(row[0], row[1]): row[3] for row in r.rows}
        assert by[(512, 8)] > by[(128, 8)] > by[(32, 8)]


class TestFig15:
    def test_throughput_decreases_with_t(self):
        r = fig15()
        for B in (128, 512):
            series = [row[3] for row in r.rows if row[0] == B]
            assert series_monotone(series, decreasing=True)

    def test_cliff_past_node_boundary(self):
        r = fig15()
        by = {(row[0], row[1]): row[3] for row in r.rows}
        assert by[(512, 16)] < 0.75 * by[(512, 8)]


class TestFig16:
    def test_interior_optimum_b2_or_b4(self):
        r = fig16()
        best = {row[0]: row[1] for row in r.rows if row[3] == "*"}
        assert best[128] in (2, 4)  # paper: 2
        assert best[512] in (2, 4)

    def test_b512_dominates_b128(self):
        r = fig16()
        by = {(row[0], row[1]): row[2] for row in r.rows}
        for b in (1, 2, 4, 8):
            assert by[(512, b)] >= by[(128, b)]


class TestFig17:
    def test_no_recompute_faster_small_batch(self):
        r = fig17()
        by = {(row[0], row[1]): row[3] for row in r.rows}
        ratio = by[(2, False)] / by[(2, True)]
        assert 1.15 < ratio < 1.6  # paper: up to 33% faster

    def test_no_recompute_ooms_at_large_batch(self):
        r = fig17()
        fits = {(row[0], row[1]): row[2] for row in r.rows}
        assert fits[(16, False)] and not fits[(32, False)]
        assert all(fits[(B, True)] for B in (2, 128))

    def test_recompute_reaches_higher_peak(self):
        """Recompute at large batch ~2x the best no-recompute throughput."""
        r = fig17()
        no_rc = [row[3] for row in r.rows if row[1] is False and row[2]]
        rc = [row[3] for row in r.rows if row[1] is True]
        assert max(rc) > 1.5 * max(no_rc)


class TestFig18:
    def test_gain_positive_everywhere(self):
        r = fig18()
        assert all(g > 0 for g in column(r, "gain_pct"))
        assert max(column(r, "gain_pct")) > 3  # paper: up to 11%


class TestFusedOps:
    def test_gains_match_paper_ordering(self):
        r = fused_ops()
        by = {row[0]: row[4] for row in r.rows}
        assert by["175B"] > by["530B"] > 0
        assert by["175B"] == pytest.approx(19, abs=6)
        assert by["530B"] == pytest.approx(11, abs=5)


class TestBisection:
    def test_dp_bandwidth_dwarfs_pipeline(self):
        r = bisection()
        by = dict(zip(column(r, "metric"), column(r, "value_GBps")))
        pipe = by["pipeline p2p (bisection streams)"]
        dp = by["data-parallel all-reduce (aggregate)"]
        assert dp > 10 * pipe
        assert pipe == pytest.approx(892, rel=0.5)


class TestCheckpointIO:
    def test_values_match_paper(self):
        r = checkpoint_io()
        by = dict(zip(column(r, "metric"), column(r, "value")))
        assert by["checkpoint size (TB)"] == pytest.approx(13.8, rel=0.05)
        assert by["load bandwidth (GB/s)"] == pytest.approx(1000, rel=0.05)
        assert by["save bandwidth (GB/s)"] == pytest.approx(273, rel=0.05)
        assert by["load time (s)"] > 0 and by["save time (s)"] > 0


class TestGoodputInterval:
    def test_sweep_shape(self):
        r = goodput_interval()
        assert len(r.rows) == GOODPUT_SWEEP_POINTS
        goodputs = column(r, "goodput")
        # U-shaped overhead: the optimum is interior and unique.
        assert column(r, "optimum").count("<--") == 1
        best = column(r, "optimum").index("<--")
        assert 0 < best < len(goodputs) - 1
        assert max(goodputs) == goodputs[best]
        # Monotone up to the optimum, monotone down after it.
        assert all(a <= b for a, b in zip(goodputs[:best], goodputs[1:best + 1]))
        assert all(a >= b for a, b in zip(goodputs[best:], goodputs[best + 1:]))
        assert "within one step: True" in r.notes
        assert "WARNING" not in r.notes


class TestRunAll:
    def test_every_experiment_produces_rows(self):
        for run in REGISTRY.values():
            result = run()
            assert result.rows, result.experiment_id
            assert not any(
                isinstance(v, float) and math.isinf(v)
                for row in result.rows for v in row
            )
            assert len(set(result.rows)) == len(result.rows), result.experiment_id

    def test_printed_tables_match_golden(self, capsys):
        """Every simulated number, as printed: a change that moves one
        shows in the diff of tests/fixtures/experiments.txt."""
        assert main([]) == 0
        assert capsys.readouterr().out == GOLDEN.read_text(encoding="utf-8")


class TestInterconnect:
    def test_monotone_degradation(self):
        r = interconnect()
        for workload in ("1T/3072gpus", "175B/768gpus,B=512"):
            sweep = [row[4] for row in r.rows
                     if row[0] == workload and row[1] == "8-HCA DGX"]
            assert sweep[0] == 1.0
            assert all(a >= b for a, b in zip(sweep, sweep[1:]))
            assert sweep[-1] < 0.95  # slow fabric visibly hurts

    def test_shared_nic_worse_than_dedicated(self):
        r = interconnect()
        for workload in ("1T/3072gpus", "175B/768gpus,B=512"):
            by = {(row[1], row[2]): row[4] for row in r.rows if row[0] == workload}
            assert by[("single-NIC cloud node", 12.5)] < by[("8-HCA DGX", 12.5)]


class TestWhatIfH100:
    def test_speedup_but_lower_fraction(self):
        r = what_if_h100()
        for row in r.rows:
            speedup, a100_frac, h100_frac = row[4], row[5], row[6]
            assert speedup > 1.8
            assert h100_frac < a100_frac

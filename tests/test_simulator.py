"""Tests for the discrete-event training simulator and ZeRO-3 timing."""

import pytest

from repro.config import (
    ParallelConfig,
    TABLE1_ROWS,
    gpt3_175b,
    tiny_test_model,
)
from repro.sim import SimOptions, simulate_iteration, simulate_zero3_iteration


def par(p=1, t=1, d=1, b=1, B=8, v=1):
    return ParallelConfig(
        pipeline_parallel_size=p, tensor_parallel_size=t,
        data_parallel_size=d, microbatch_size=b, global_batch_size=B,
        num_model_chunks=v,
    )


MODEL = tiny_test_model(num_layers=8, hidden_size=512, num_attention_heads=8,
                        vocab_size=1024, seq_length=256)


class TestSimulatorBasics:
    def test_metrics_consistent(self):
        res = simulate_iteration(MODEL, par(p=2, B=8))
        assert res.iteration_time > 0
        assert res.tflops_per_gpu > 0
        assert res.aggregate_pflops == pytest.approx(
            res.tflops_per_gpu * res.num_gpus / 1e3
        )
        assert res.sequences_per_second == pytest.approx(8 / res.iteration_time)
        assert 0 < res.peak_fraction < 1

    def test_more_gpus_faster_iteration(self):
        t1 = simulate_iteration(MODEL, par(p=1, B=64)).iteration_time
        t2 = simulate_iteration(MODEL, par(p=2, B=64)).iteration_time
        assert t2 < t1

    def test_bubble_grows_with_p_at_fixed_m(self):
        """Fixing m = 8: bubble fraction grows with pipeline depth."""
        b2 = simulate_iteration(MODEL, par(p=2, B=8)).bubble_fraction
        b4 = simulate_iteration(MODEL, par(p=4, B=8)).bubble_fraction
        assert b4 > b2

    def test_bubble_shrinks_with_batch(self):
        b_small = simulate_iteration(MODEL, par(p=4, B=8)).bubble_fraction
        b_large = simulate_iteration(MODEL, par(p=4, B=64)).bubble_fraction
        assert b_large < b_small

    def test_interleaving_beats_default_at_small_batch(self):
        base = simulate_iteration(
            MODEL, par(p=4, B=8), options=SimOptions(schedule_name="1f1b")
        )
        inter = simulate_iteration(
            MODEL, par(p=4, B=8, v=2),
            options=SimOptions(schedule_name="interleaved"),
        )
        assert inter.pipeline_time < base.pipeline_time

    def test_scatter_gather_helps_internode_pipeline(self):
        model = gpt3_175b()
        p_cfg = ParallelConfig(
            pipeline_parallel_size=12, tensor_parallel_size=8,
            data_parallel_size=1, microbatch_size=1, global_batch_size=24,
            num_model_chunks=2,
        )
        off = simulate_iteration(
            model, p_cfg,
            options=SimOptions(schedule_name="interleaved", scatter_gather=False),
        )
        on = simulate_iteration(
            model, p_cfg,
            options=SimOptions(schedule_name="interleaved", scatter_gather=True),
        )
        assert on.iteration_time < off.iteration_time
        assert on.p2p_time_total < off.p2p_time_total

    def test_recompute_slows_but_is_supported(self):
        rc = simulate_iteration(
            MODEL, par(p=2, B=8), options=SimOptions(recompute_activations=True)
        )
        plain = simulate_iteration(
            MODEL, par(p=2, B=8), options=SimOptions(recompute_activations=False)
        )
        # Same batch -> recompute takes longer in wall clock.
        assert rc.iteration_time > plain.iteration_time

    def test_fused_kernels_help(self):
        f = simulate_iteration(MODEL, par(B=8), options=SimOptions(fused_kernels=True))
        u = simulate_iteration(MODEL, par(B=8), options=SimOptions(fused_kernels=False))
        assert f.iteration_time < u.iteration_time

    def test_dp_time_appears_only_with_d_gt_1(self):
        alone = simulate_iteration(MODEL, par(d=1, B=8))
        dp = simulate_iteration(MODEL, par(d=2, B=8))
        assert alone.data_parallel_time == 0.0
        assert dp.data_parallel_time > 0.0

    def test_tensor_parallel_comm_tracked(self):
        t1 = simulate_iteration(MODEL, par(t=1, B=8))
        t2 = simulate_iteration(MODEL, par(t=2, B=8))
        assert t1.tp_comm_time_total == 0.0
        assert t2.tp_comm_time_total > 0.0

    def test_rejects_invalid_model_split(self):
        with pytest.raises(ValueError):
            simulate_iteration(MODEL, par(p=3, B=9, d=1))


class TestPaperCalibration:
    """Absolute calibration targets against the paper's headline numbers."""

    def test_table1_within_15_percent(self):
        for row in TABLE1_ROWS:
            res = simulate_iteration(row.model, row.parallel)
            assert res.tflops_per_gpu == pytest.approx(
                row.reported_tflops_per_gpu, rel=0.15
            ), row.model.name

    def test_table1_utilization_rises_with_scale(self):
        """The paper's superlinear-scaling observation: the largest model
        achieves a clearly higher peak fraction than the smallest."""
        fracs = [
            simulate_iteration(r.model, r.parallel).peak_fraction
            for r in (TABLE1_ROWS[0], TABLE1_ROWS[-1])
        ]
        assert fracs[1] > fracs[0] * 1.1

    def test_table1_aggregate_pflops(self):
        row = TABLE1_ROWS[-1]  # 1T model
        res = simulate_iteration(row.model, row.parallel)
        assert res.aggregate_pflops == pytest.approx(502, rel=0.15)


class TestZero3Sim:
    def test_matches_paper_at_min_gpus(self):
        r = simulate_zero3_iteration(gpt3_175b(), 384, 1536, 4)
        assert r.tflops_per_gpu == pytest.approx(144, rel=0.15)

    def test_collapses_when_gpus_double(self):
        """Figure 10's key dynamic: fixed batch, double GPUs -> per-GPU
        throughput collapses (communication no longer hidden)."""
        r384 = simulate_zero3_iteration(gpt3_175b(), 384, 1536, 4)
        r768 = simulate_zero3_iteration(gpt3_175b(), 768, 1536, 2)
        r1536 = simulate_zero3_iteration(gpt3_175b(), 1536, 1536, 1)
        assert r768.tflops_per_gpu < 0.75 * r384.tflops_per_gpu
        assert r1536.tflops_per_gpu < 0.75 * r768.tflops_per_gpu

    def test_ptd_beats_zero3_by_70pct_at_doubled_gpus(self):
        """§5.2: 'PTD-P outperforms ZeRO-3 by 70%' when GPUs double."""
        zero = simulate_zero3_iteration(gpt3_175b(), 768, 1536, 2)
        ptd = simulate_iteration(
            gpt3_175b(),
            ParallelConfig(
                pipeline_parallel_size=12, tensor_parallel_size=8,
                data_parallel_size=8, microbatch_size=1, global_batch_size=1536,
            ),
        )
        advantage = ptd.tflops_per_gpu / zero.tflops_per_gpu - 1
        assert advantage > 0.4  # paper: 0.7; shape target: large gap

    def test_comm_split_reported(self):
        r = simulate_zero3_iteration(gpt3_175b(), 768, 1536, 2)
        assert r.comm_time_total > 0
        assert 0 <= r.comm_time_exposed <= r.comm_time_total

    def test_validates(self):
        with pytest.raises(ValueError):
            simulate_zero3_iteration(gpt3_175b(), 384, 1000, 3)
        with pytest.raises(ValueError):
            simulate_zero3_iteration(gpt3_175b(), 384, 1536, 4, overlap_fraction=1.5)


class TestSimulatedTimeline:
    def test_timeline_collection_and_render(self):
        from repro.schedule import Timeline, render_timeline

        res = simulate_iteration(
            MODEL, par(p=4, B=8),
            options=SimOptions(collect_timeline=True),
        )
        ops = res.extras["timeline"]
        assert len(ops) == 2 * 8 * 4  # F+B per mb per rank
        out = render_timeline(Timeline(
            schedule=res.extras["pipeline_schedule"], ops=tuple(ops),
            makespan=max(op.end for op in ops)))
        assert "dev0" in out

    def test_timeline_respects_dependencies(self):
        from repro.schedule import (
            completion_order_is_serializable,
        )

        res = simulate_iteration(
            MODEL, par(p=4, B=8),
            options=SimOptions(collect_timeline=True),
        )
        ops = sorted(res.extras["timeline"], key=lambda t: t.end)
        sched = res.extras["pipeline_schedule"]
        assert completion_order_is_serializable(
            [(t.rank, t.op) for t in ops], sched
        )

    def test_backward_longer_than_forward(self):
        from repro.schedule import OpKind

        res = simulate_iteration(
            MODEL, par(p=2, B=8),
            options=SimOptions(collect_timeline=True),
        )
        fwd = [t.end - t.start for t in res.extras["timeline"]
               if t.op.kind is OpKind.FORWARD and t.rank == 0]
        bwd = [t.end - t.start for t in res.extras["timeline"]
               if t.op.kind is OpKind.BACKWARD and t.rank == 0]
        assert min(bwd) > max(fwd)  # bwd = 2x fwd GEMMs (+recompute)


class TestStrongScaling:
    def test_near_linear(self):
        from repro.experiments import strong_scaling

        r = strong_scaling()
        effs = [row[r.columns.index("efficiency")] for row in r.rows]
        assert effs[0] == 1.0
        assert all(a >= b for a, b in zip(effs, effs[1:]))
        assert effs[-1] > 0.85

"""Coverage for preset constructors, renderers, and misc surfaces."""

import pytest

from repro.config import (
    ParallelConfig,
    fig7_model,
    fig11_model,
    fig13_model,
    fig14_model,
    fig16_model,
    fig17_model,
    gpt_530b,
    gpt_1t,
    gpt3_175b,
)


class TestModelPresets:
    @pytest.mark.parametrize(
        "ctor,billions,tol",
        [
            (fig7_model, 1.2, 0.5),       # "a billion parameters"
            (fig13_model, 162.2, 0.02),
            (fig14_model, 5.9, 0.03),
            (fig16_model, 91.0, 0.02),
            (fig17_model, 145.6, 0.01),
            (gpt3_175b, 174.6, 0.01),
            (gpt_530b, 529.6, 0.01),
            (gpt_1t, 1008.0, 0.01),
        ],
    )
    def test_sizes_match_paper(self, ctor, billions, tol):
        cfg = ctor()
        assert cfg.num_parameters() / 1e9 == pytest.approx(billions, rel=tol)

    def test_fig11_family(self):
        """p=1 -> ~15-16B with 3 layers; p=8 -> ~122B with 24 layers."""
        m1, m8 = fig11_model(1), fig11_model(8)
        assert m1.num_layers == 3 and m8.num_layers == 24
        assert m1.num_parameters() / 1e9 == pytest.approx(16, rel=0.1)
        assert m8.num_parameters() / 1e9 == pytest.approx(121, rel=0.05)

    def test_all_presets_partition_at_paper_settings(self):
        """Every evaluation model divides into its experiment's stages."""
        cases = [
            (fig13_model(), 8, 32), (fig14_model(), 1, 32),
            (fig16_model(), 8, 8), (fig17_model(), 8, 16),
            (gpt3_175b(), 8, 12), (gpt_530b(), 8, 35), (gpt_1t(), 8, 64),
        ]
        for model, t, p in cases:
            cfg = ParallelConfig(
                pipeline_parallel_size=p, tensor_parallel_size=t,
                data_parallel_size=1, microbatch_size=1,
                global_batch_size=p,
            )
            cfg.validate_for_model(model)  # raises on failure

    def test_describe_strings(self):
        cfg = ParallelConfig(
            pipeline_parallel_size=2, tensor_parallel_size=4,
            data_parallel_size=8, microbatch_size=2, global_batch_size=64,
        )
        s = cfg.describe()
        assert "p=2" in s and "t=4" in s and "d=8" in s and "m=4" in s
        assert "GPT-3-175B" in str(gpt3_175b())


class TestVisualizeEdgeCases:
    def test_empty_timeline(self):
        from repro.schedule.execution import Timeline
        from repro.schedule.visualize import render_timeline
        from repro.schedule import gpipe_schedule

        tl = Timeline(schedule=gpipe_schedule(1, 1), ops=(), makespan=0.0)
        assert render_timeline(tl) == ""

    def test_bad_time_unit(self):
        from repro.schedule import gpipe_schedule, simulate_times
        from repro.schedule.visualize import render_timeline

        tl = simulate_times(gpipe_schedule(2, 2))
        with pytest.raises(ValueError):
            render_timeline(tl, time_unit=0)

    def test_wide_microbatch_numbers(self):
        """Double-digit microbatch ids render without crashing."""
        from repro.schedule import one_f_one_b_schedule, render_schedule

        out = render_schedule(one_f_one_b_schedule(2, 12))
        assert "dev1" in out


class TestTrafficAndGroupsMisc:
    def test_transfer_record_validation(self):
        from repro.comm import TransferRecord

        with pytest.raises(ValueError):
            TransferRecord(src=0, dst=1, nbytes=-1)
        with pytest.raises(ValueError):
            TransferRecord(src=-1, dst=1, nbytes=1)

    def test_group_bounds(self):
        from repro.comm import ProcessGroups

        g = ProcessGroups(ParallelConfig(
            pipeline_parallel_size=2, tensor_parallel_size=2,
            data_parallel_size=2, microbatch_size=1, global_batch_size=2,
        ))
        with pytest.raises(ValueError):
            g.rank_of(2, 0, 0)
        with pytest.raises(ValueError):
            g.tensor_group(0, 2)
        with pytest.raises(ValueError):
            g.pipeline_group(0, -1)

    def test_schedule_ir_bounds(self):
        from repro.schedule import OpKind, ScheduleOp, gpipe_schedule

        with pytest.raises(ValueError):
            ScheduleOp(OpKind.FORWARD, -1)
        sched = gpipe_schedule(2, 2)
        with pytest.raises(ValueError):
            sched.global_stage(5, 0)
        assert sched.global_stage(1, 0) == 1


class TestRooflineMisc:
    def test_v100_slower_than_a100(self):
        from repro.hardware import (
            TB, TFLOP, ComputeModel, DeviceSpec, GemmShape, a100_80gb,
        )

        v100 = DeviceSpec("V100-32GB", peak_flops=125 * TFLOP,
                          memory_bandwidth=0.9 * TB, memory_capacity=32e9)
        g = GemmShape(m=4096, k=4096, n=4096)
        a = ComputeModel(device=a100_80gb()).gemm_time(g)
        v = ComputeModel(device=v100).gemm_time(g)
        assert v > 2 * a  # 312 vs 125 Tflop/s peak

    def test_memory_bound_gemm_hits_bandwidth_roof(self):
        """A skinny GEMM (k=1) is bandwidth-limited, not compute-limited."""
        from repro.hardware import ComputeModel, GemmShape, a100_80gb

        cm = ComputeModel(device=a100_80gb())
        g = GemmShape(m=4096, k=1, n=4096)
        t = cm.gemm_time(g)
        mem_floor = g.bytes_moved(2) / a100_80gb().memory_bandwidth
        assert t >= mem_floor

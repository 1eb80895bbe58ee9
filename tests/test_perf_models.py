"""Tests for the analytical performance models (perf package)."""

import pytest

from repro.config import ParallelConfig, fig7_model, gpt3_175b, gpt_1t, tiny_test_model
from repro.hardware import ComputeModel, a100_80gb
from repro.perf import (
    MODEL_STATE_BYTES_PER_PARAM,
    activation_bytes_per_layer,
    batch_time_eq1,
    fits_in_memory,
    in_flight_microbatches,
    memory_footprint,
    optimal_microbatch_size,
    parameters_per_rank,
    stage_compute_cost,
    suggest_parallel_config,
    sweep_microbatch_sizes,
    training_time_days,
    transformer_layer_cost,
    transformer_layer_gemms,
)


class TestLayerCosts:
    def setup_method(self):
        self.cm = ComputeModel(device=a100_80gb())

    def test_gemm_flops_match_appendix(self):
        """Per-layer GEMM FLOPs = 24 B s h^2 + 4 B s^2 h (paper appendix)."""
        b, s, h, a = 2, 128, 256, 8
        gemms = transformer_layer_gemms(b, s, h, a)
        total = sum(g.flops for g in gemms)
        assert total == 24 * b * s * h * h + 4 * b * s * s * h

    def test_tensor_parallel_splits_flops(self):
        """t-way sharding divides every GEMM's FLOPs by t."""
        b, s, h, a = 2, 128, 256, 8
        full = sum(g.flops for g in transformer_layer_gemms(b, s, h, a, t=1))
        shard = sum(g.flops for g in transformer_layer_gemms(b, s, h, a, t=4))
        assert shard * 4 == full

    def test_rejects_indivisible(self):
        with pytest.raises(ValueError):
            transformer_layer_gemms(1, 8, 256, 8, t=3)

    def test_fused_faster_than_unfused(self):
        c_f = transformer_layer_cost(self.cm, 1, 2048, 4096, 32, fused=True)
        c_u = transformer_layer_cost(self.cm, 1, 2048, 4096, 32, fused=False)
        assert c_f.elementwise_time < c_u.elementwise_time
        assert c_f.gemm_time == c_u.gemm_time

    def test_backward_twice_forward_gemm(self):
        cfg = tiny_test_model(hidden_size=256, num_attention_heads=8, seq_length=128)
        c = stage_compute_cost(self.cm, cfg, 2, 1, recompute=False)
        assert c.backward_flops == 2 * c.forward_flops
        c_rc = stage_compute_cost(self.cm, cfg, 2, 1, recompute=True)
        assert c_rc.backward_flops == 3 * c.forward_flops

    def test_recompute_adds_forward_time(self):
        cfg = tiny_test_model(hidden_size=256, num_attention_heads=8, seq_length=128)
        plain = stage_compute_cost(self.cm, cfg, 2, 1, recompute=False)
        rc = stage_compute_cost(self.cm, cfg, 2, 1, recompute=True)
        assert rc.backward == pytest.approx(plain.backward + plain.forward)

    def test_first_last_stage_extra_cost(self):
        cfg = tiny_test_model(hidden_size=256, num_attention_heads=8, seq_length=128)
        mid = stage_compute_cost(self.cm, cfg, 2, 1)
        first = stage_compute_cost(self.cm, cfg, 2, 1, is_first=True)
        last = stage_compute_cost(self.cm, cfg, 2, 1, is_last=True)
        assert first.forward > mid.forward
        assert last.forward > mid.forward
        assert last.forward_flops > mid.forward_flops  # logit GEMM


class TestMemoryModel:
    def test_in_flight_by_schedule(self):
        assert in_flight_microbatches("gpipe", 4, 16) == 16
        assert in_flight_microbatches("1f1b", 4, 16) == 4
        assert in_flight_microbatches("1f1b", 4, 2) == 2
        assert in_flight_microbatches("interleaved", 4, 16, 2) == 6  # ceil(11/2)
        with pytest.raises(ValueError):
            in_flight_microbatches("nope", 4, 16)

    def test_recompute_shrinks_activations(self):
        cfg = gpt3_175b()
        par = ParallelConfig(
            pipeline_parallel_size=12, tensor_parallel_size=8,
            data_parallel_size=1, microbatch_size=1, global_batch_size=48,
        )
        plain = memory_footprint(cfg, par, recompute=False)
        rc = memory_footprint(cfg, par, recompute=True)
        assert rc.activations < plain.activations / 5
        assert rc.model_state == plain.model_state

    def test_model_state_scale(self):
        """175B over 96-way model parallelism: ~30 GB of state per GPU."""
        cfg = gpt3_175b()
        par = ParallelConfig(
            pipeline_parallel_size=12, tensor_parallel_size=8,
            data_parallel_size=1, microbatch_size=1, global_batch_size=48,
        )
        P_rank = parameters_per_rank(cfg, par)
        assert P_rank * MODEL_STATE_BYTES_PER_PARAM < 40e9
        assert P_rank > cfg.num_parameters() / (96 * 2)  # not wildly sharded

    def test_gpt3_doesnt_fit_one_gpu(self):
        """The paper's premise: 175B cannot fit on a single 80 GB GPU."""
        cfg = gpt3_175b()
        par = ParallelConfig(microbatch_size=1, global_batch_size=1)
        assert not fits_in_memory(cfg, par, a100_80gb(), recompute=True)

    def test_tiny_model_fits(self):
        cfg = tiny_test_model()
        par = ParallelConfig(microbatch_size=1, global_batch_size=4)
        assert fits_in_memory(cfg, par, a100_80gb())

    def test_activation_bytes_shrink_with_t(self):
        a1 = activation_bytes_per_layer(1, 2048, 12288, 96, t=1)
        a8 = activation_bytes_per_layer(1, 2048, 12288, 96, t=8)
        assert a8 < a1
        # The replicated 10*s*b*h part does not shrink.
        assert a8 > 10 * 2048 * 12288 * 2 // 2


class TestMicrobatchModel:
    def test_eq1_literal(self):
        assert batch_time_eq1(2, 8, 4, 1.0, 2.0) == pytest.approx((4 + 3) * 3.0)

    def test_eq1_validates(self):
        with pytest.raises(ValueError):
            batch_time_eq1(3, 8, 4, 1.0, 2.0)
        with pytest.raises(ValueError):
            batch_time_eq1(0, 8, 4, 1.0, 2.0)

    def test_fig8_interior_optimum(self):
        """Paper: optimal b = 4 for the 1B model at (p,t)=(8,8).  Our
        roofline calibration puts the optimum at 2-4 (interior)."""
        cm = ComputeModel(device=a100_80gb())
        for bp in (128, 512):
            pt = optimal_microbatch_size(cm, fig7_model(), p=8, t=8, b_prime=bp)
            assert pt.microbatch_size in (2, 4)

    def test_sweep_skips_nondividing(self):
        cm = ComputeModel(device=a100_80gb())
        pts = sweep_microbatch_sizes(
            cm, fig7_model(), p=8, t=8, b_prime=12, candidates=(1, 2, 4, 8)
        )
        assert [p.microbatch_size for p in pts] == [1, 2, 4]

    def test_bigger_batch_shifts_optimum_up_or_equal(self):
        """Larger b' amortizes the bubble, favoring larger microbatches."""
        cm = ComputeModel(device=a100_80gb())
        b_small = optimal_microbatch_size(
            cm, fig7_model(), p=8, t=8, b_prime=64
        ).microbatch_size
        b_large = optimal_microbatch_size(
            cm, fig7_model(), p=8, t=8, b_prime=512
        ).microbatch_size
        assert b_large >= b_small


class TestTrainingTime:
    def test_eq4_gpt3(self):
        days = training_time_days(175e9, 300e9, 1024, 140e12)
        assert days == pytest.approx(34, abs=1)

    def test_eq4_1t(self):
        days = training_time_days(1008e9, 450e9, 3072, 163e12)
        assert days == pytest.approx(84, abs=2)

    def test_exact_close_to_eq4(self):
        cfg = gpt3_175b()
        # Eq. (3) FLOPs per iteration over I = T / (B s) iterations.
        iterations = 300e9 / (1536 * cfg.seq_length)
        seconds = iterations * cfg.flops_per_iteration(1536) / (1024 * 140e12)
        exact = seconds / 86400
        approx = training_time_days(cfg.num_parameters(), 300e9, 1024, 140e12)
        assert exact == pytest.approx(approx, rel=0.05)

    def test_validates(self):
        with pytest.raises(ValueError):
            training_time_days(0, 1, 1, 1)


class TestHeuristics:
    def test_gpt3_uses_tensor8_and_pipeline(self):
        """Takeaways: 175B on 1024 GPUs -> t = 8 (node size), p > 1,
        rest data parallel."""
        cfg = suggest_parallel_config(gpt3_175b(), 1024, 1536)
        assert cfg.tensor_parallel_size == 8
        assert cfg.pipeline_parallel_size > 1
        assert cfg.world_size == 1024
        assert fits_in_memory(gpt3_175b(), cfg, a100_80gb(), recompute=True)

    def test_small_model_prefers_data_parallel(self):
        """A model that fits on few GPUs should get minimal model
        parallelism (Takeaway #2)."""
        from repro.config import GPTConfig

        small = GPTConfig(num_layers=24, hidden_size=2048,
                          num_attention_heads=16, name="small")
        cfg = suggest_parallel_config(small, 64, 512)
        assert cfg.t * cfg.p <= 8
        assert cfg.data_parallel_size >= 8

    def test_huge_model_small_cluster_raises(self):
        with pytest.raises(ValueError, match="fits"):
            suggest_parallel_config(gpt_1t(), 8, 64)

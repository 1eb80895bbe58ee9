"""Tests for the exhaustive configuration autotuner."""

import pytest

from repro.config import GPTConfig, fig14_model, gpt_1t
from repro.perf import autotune, enumerate_configs, heuristic_gap


SMALL = GPTConfig(num_layers=8, hidden_size=1024, num_attention_heads=16,
                  name="small-1B-ish")


class TestEnumeration:
    def test_all_candidates_valid(self):
        for parallel, options in enumerate_configs(SMALL, 16, 32):
            assert parallel.world_size == 16
            parallel.validate_for_model(SMALL)
            if options.schedule_name == "interleaved":
                assert parallel.num_model_chunks > 1

    def test_respects_tensor_cap(self):
        configs = list(
            enumerate_configs(SMALL, 16, 32, max_tensor_parallel=2)
        )
        assert configs
        assert all(p.tensor_parallel_size <= 2 for p, _ in configs)

    def test_head_divisibility_filters_t(self):
        cfg = GPTConfig(num_layers=4, hidden_size=96, num_attention_heads=6,
                        vocab_size=1024, seq_length=64)
        ts = {p.tensor_parallel_size for p, _ in enumerate_configs(cfg, 8, 16)}
        assert ts <= {1, 2}  # 6 heads: t in {1,2,3,6}; vocab/ffn allow 1,2

    def test_memory_filter_excludes_infeasible(self):
        """1T on 8 GPUs: nothing fits."""
        assert list(enumerate_configs(gpt_1t(), 8, 64)) == []


class TestAutotune:
    def test_sorted_by_throughput(self):
        best = autotune(SMALL, 16, 32, top_k=4)
        tf = [s.tflops_per_gpu for s in best]
        assert tf == sorted(tf, reverse=True)

    def test_top_k_respected(self):
        assert len(autotune(SMALL, 16, 32, top_k=2)) == 2

    @pytest.mark.parametrize("top_k", [0, -3])
    def test_nonpositive_top_k_rejected(self, top_k):
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            autotune(SMALL, 16, 32, top_k=top_k)

    def test_raises_when_nothing_fits(self):
        with pytest.raises(ValueError, match="feasible"):
            autotune(gpt_1t(), 8, 64)

    def test_describe(self):
        s = autotune(SMALL, 8, 16, top_k=1)[0]
        assert "Tflop/s" in s.describe()


class TestHeuristicValidation:
    """The paper's Takeaways, validated against exhaustive search."""

    def test_heuristic_close_to_optimum_small_model(self):
        gap, best, h = heuristic_gap(fig14_model(), 32, 64)
        assert gap < 0.20  # heuristic achieves >= 80% of the optimum

    def test_best_config_avoids_cross_node_tensor_parallel(self):
        """Takeaway #1 emerges from search: the optimum never uses
        t > 8 (the node size) when alternatives exist."""
        best = autotune(fig14_model(), 64, 128, top_k=3)
        for s in best:
            assert s.parallel.tensor_parallel_size <= 8

    def test_best_config_prefers_data_parallel_for_small_model(self):
        """Takeaway #2 emerges: a model that fits at small M gets most
        GPUs as data parallelism."""
        best = autotune(fig14_model(), 64, 512, top_k=1)[0]
        assert best.parallel.data_parallel_size >= 8

"""Tests for ParallelConfig (p, t, d, b, B, v) validation and arithmetic."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import GPTConfig, ParallelConfig, tiny_test_model


def make(p=1, t=1, d=1, b=1, B=None, v=1):
    if B is None:
        B = b * d * max(p, 1) * 4
    return ParallelConfig(
        pipeline_parallel_size=p,
        tensor_parallel_size=t,
        data_parallel_size=d,
        microbatch_size=b,
        global_batch_size=B,
        num_model_chunks=v,
    )


class TestArithmetic:
    def test_world_size(self):
        cfg = make(p=4, t=8, d=6, B=48)
        assert cfg.world_size == 192

    def test_num_microbatches(self):
        cfg = make(p=2, t=1, d=4, b=2, B=64)
        assert cfg.num_microbatches == 8  # 64 / (4*2)

    def test_paper_notation_aliases(self):
        cfg = make(p=2, t=4, d=8, b=2, B=128)
        assert (cfg.p, cfg.t, cfg.d, cfg.b, cfg.B, cfg.v) == (2, 4, 8, 2, 128, 1)

    @given(
        p=st.integers(1, 8),
        t=st.integers(1, 8),
        d=st.integers(1, 8),
        b=st.integers(1, 4),
        mult=st.integers(1, 16),
    )
    @settings(max_examples=100, deadline=None)
    def test_m_formula_property(self, p, t, d, b, mult):
        """m = B / (d*b) always holds for any valid config."""
        B = d * b * mult
        cfg = ParallelConfig(
            pipeline_parallel_size=p,
            tensor_parallel_size=t,
            data_parallel_size=d,
            microbatch_size=b,
            global_batch_size=B,
        )
        assert cfg.num_microbatches == mult
        assert cfg.num_microbatches * cfg.b * cfg.d == cfg.B


class TestValidation:
    def test_rejects_indivisible_batch(self):
        with pytest.raises(ValueError, match="divisible"):
            make(d=3, b=2, B=16)

    def test_interleaved_requires_m_multiple_of_p(self):
        # m = 6, p = 4 -> invalid for interleaved
        with pytest.raises(ValueError, match="multiple"):
            make(p=4, b=1, d=1, B=6, v=2)

    def test_interleaved_valid_when_m_multiple_of_p(self):
        cfg = make(p=4, b=1, d=1, B=8, v=2)
        assert cfg.num_microbatches == 8

    def test_interleaved_requires_pipeline(self):
        with pytest.raises(ValueError, match="requires"):
            make(p=1, B=4, v=2)

    @pytest.mark.parametrize("field", ["p", "t", "d", "b", "v"])
    def test_rejects_nonpositive_sizes(self, field):
        kwargs = dict(p=1, t=1, d=1, b=1, B=4, v=1)
        kwargs[field] = 0
        with pytest.raises(ValueError):
            make(**kwargs)


class TestModelValidation:
    def test_rejects_unsplittable_layers(self):
        model = tiny_test_model(num_layers=6)
        cfg = make(p=4, B=8)
        with pytest.raises(ValueError, match="stages"):
            cfg.validate_for_model(model)

    def test_rejects_unsplittable_heads(self):
        model = tiny_test_model(num_attention_heads=4)
        cfg = make(t=8, B=8)
        with pytest.raises(ValueError, match="heads"):
            cfg.validate_for_model(model)

    def test_rejects_unsplittable_vocab(self):
        model = GPTConfig(
            num_layers=2, hidden_size=16, num_attention_heads=4,
            vocab_size=66, seq_length=8,
        )
        cfg = make(t=4, B=8)
        with pytest.raises(ValueError, match="vocab"):
            cfg.validate_for_model(model)

    def test_paper_example_530b(self):
        """530B: 105 layers, p=35 -> 3 layers per stage."""
        from repro.config import gpt_530b

        cfg = ParallelConfig(
            pipeline_parallel_size=35,
            tensor_parallel_size=8,
            data_parallel_size=9,
            microbatch_size=1,
            global_batch_size=2520,
        )
        assert cfg.world_size == 2520
        cfg.validate_for_model(gpt_530b())
        assert gpt_530b().num_layers == 3 * cfg.p

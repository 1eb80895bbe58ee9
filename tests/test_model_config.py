"""Tests for GPTConfig: eq. (2) parameter counts and eq. (3) FLOPs."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import TABLE1_ROWS, GPTConfig, gpt3_175b, gpt_530b, gpt_1t


class TestParameterCount:
    def test_table1_parameter_counts_match_paper(self):
        """Eq. (2) applied to each Table 1 architecture reproduces the
        paper's 'Number of parameters (billion)' column within 3%
        (the paper rounds the 1.65B model up to "1.7")."""
        for row in TABLE1_ROWS:
            got = row.model.num_parameters() / 1e9
            want = row.reported_params_billion
            assert got == pytest.approx(want, rel=0.03), row.model.name

    def test_gpt3_is_175b(self):
        assert gpt3_175b().num_parameters() == pytest.approx(174.6e9, rel=0.01)

    def test_530b(self):
        assert gpt_530b().num_parameters() == pytest.approx(529.6e9, rel=0.01)

    def test_1t(self):
        assert gpt_1t().num_parameters() == pytest.approx(1008.0e9, rel=0.01)

    def test_exact_count_matches_formula(self):
        """The summed tensor sizes reduce to eq. (2) + 2h (eq. (2) omits
        the final LayerNorm) for ffn = 4h."""
        for row in TABLE1_ROWS:
            formula = row.model.num_parameters()
            exact = row.model.num_parameters_exact()
            assert exact - formula == 2 * row.model.hidden_size, row.model.name

    @given(
        layers=st.integers(1, 128),
        heads=st.sampled_from([8, 16, 32]),
        mult=st.integers(1, 32),
    )
    @settings(max_examples=50, deadline=None)
    def test_exact_equals_formula_property(self, layers, heads, mult):
        h = heads * 8 * mult
        cfg = GPTConfig(num_layers=layers, hidden_size=h, num_attention_heads=heads)
        assert cfg.num_parameters_exact() - cfg.num_parameters() == 2 * h


class TestFlops:
    def test_formula_matches_term_sum(self):
        for row in TABLE1_ROWS:
            B = row.parallel.global_batch_size
            s, l = row.model.seq_length, row.model.num_layers
            h, V = row.model.hidden_size, row.model.vocab_size
            # Literal eq. (3): 96 B s l h^2 (1 + s/(6h) + V/(16 l h)).
            formula = 96 * B * s * l * h * h * (
                1 + s / (6 * h) + V / (16 * l * h))
            assert row.model.flops_per_iteration(B) == pytest.approx(
                formula, rel=1e-12
            )

    def test_recompute_factor(self):
        """Recomputation adds exactly one forward pass (4x vs 3x layers)."""
        cfg = gpt3_175b()
        with_r = cfg.flops_per_iteration(8, with_recompute=True)
        without = cfg.flops_per_iteration(8, with_recompute=False)
        B, s, l, h = 8, cfg.seq_length, cfg.num_layers, cfg.hidden_size
        fwd_layers = l * (24 * B * s * h * h + 4 * B * s * s * h)
        assert with_r - without == fwd_layers

    def test_flops_scale_linearly_with_batch(self):
        cfg = gpt3_175b()
        assert cfg.flops_per_iteration(16) == 2 * cfg.flops_per_iteration(8)

    def test_gpt3_flops_magnitude(self):
        """GPT-3 at B=1536: ~4.4e18 FLOPs per iteration (sanity scale)."""
        f = gpt3_175b().flops_per_iteration(1536)
        assert 3e18 < f < 6e18


class TestValidation:
    def test_rejects_nondivisible_heads(self):
        with pytest.raises(ValueError, match="divisible"):
            GPTConfig(num_layers=2, hidden_size=100, num_attention_heads=3)

    @pytest.mark.parametrize(
        "field,value",
        [
            ("num_layers", 0),
            ("hidden_size", 0),
            ("num_attention_heads", 0),
            ("vocab_size", 0),
            ("seq_length", 0),
        ],
    )
    def test_rejects_nonpositive(self, field, value):
        kwargs = dict(
            num_layers=2, hidden_size=16, num_attention_heads=4,
            vocab_size=64, seq_length=8,
        )
        kwargs[field] = value
        with pytest.raises(ValueError):
            GPTConfig(**kwargs)

    def test_default_ffn_is_4h(self):
        cfg = GPTConfig(num_layers=2, hidden_size=16, num_attention_heads=4)
        assert cfg.ffn_hidden_size == 64

    def test_head_dim(self):
        cfg = GPTConfig(num_layers=2, hidden_size=64, num_attention_heads=4)
        assert cfg.head_dim == 16


class TestTrainingTimeEstimates:
    """§5.1 'Training Time Estimates': eq. (4) checks."""

    def test_gpt3_34_days(self):
        """GPT-3 (175B), 300B tokens, 1024 GPUs at 140 Tflop/s => ~34 days."""
        P = 175e9
        T = 300e9
        n, X = 1024, 140e12
        days = 8 * T * P / (n * X) / 86400
        assert days == pytest.approx(34, abs=1.5)

    def test_1t_84_days(self):
        """1T model, 450B tokens, 3072 GPUs at 163 Tflop/s => ~84 days."""
        P = 1008e9
        T = 450e9
        n, X = 3072, 163e12
        days = 8 * T * P / (n * X) / 86400
        assert days == pytest.approx(84, abs=2)

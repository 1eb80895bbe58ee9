"""FLOP-metering tests: the numeric engine executes exactly eq. (3).

This is the strongest cross-validation in the repository: the paper's
closed-form FLOP count (used by every throughput table) must equal the
GEMM work the real numpy engine performs, operation by operation.
"""

import numpy as np
import pytest

from repro.config import ParallelConfig, tiny_test_model
from repro.nn import GPTModel
from repro.nn.profiler import FlopMeter, count_flops, matmul_flops
from repro.parallel import (
    PipelineParallelGPT,
    PTDTrainer,
    TensorParallelGPT,
    TensorParallelGroup,
    make_microbatches,
)
from repro.schedule import make_schedule

from .test_tensor_parallel import tp_loss, tp_loss_backward

CFG = tiny_test_model(num_layers=3, hidden_size=24, num_attention_heads=4,
                      vocab_size=48, seq_length=12)


def data(B=2, seed=0):
    r = np.random.default_rng(seed)
    return (
        r.integers(0, CFG.vocab_size, size=(B, CFG.seq_length)),
        r.integers(0, CFG.vocab_size, size=(B, CFG.seq_length)),
    )


class TestFlopMeter:
    def test_accumulates_by_category(self):
        m = FlopMeter()
        m.add("a", 10)
        m.add("a", 5)
        m.add("b", 1)
        assert m.total_flops == 16
        assert m.by_category == {"a": 15, "b": 1}

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            FlopMeter().add("a", -1)

    def test_matmul_flops(self):
        assert matmul_flops(2, 3, 4) == 48
        assert matmul_flops(2, 3, 4, 5) == 240

    def test_nested_meters_both_count(self):
        model = GPTModel(CFG, seed=0)
        ids, targets = data()
        with count_flops() as outer:
            with count_flops() as inner:
                model.forward(ids)
        assert inner.total_flops == outer.total_flops > 0

    def test_nested_identical_meters_pop_correct_instance(self):
        """Regression: exiting an inner meter that compares equal to the
        outer one (both empty) must deactivate the *inner* instance.
        list.remove() removed the first equal element -- the outer
        meter -- so work after the inner block was lost."""
        from repro.nn.profiler import record_gemm_flops

        with count_flops() as outer:
            with count_flops() as inner:
                pass  # both meters are empty, hence equal
            record_gemm_flops("late", 7)
        assert outer.by_category == {"late": 7}
        assert inner.by_category == {}

    def test_meter_deactivated_on_exception(self):
        from repro.nn.profiler import record_gemm_flops

        with pytest.raises(RuntimeError):
            with count_flops() as meter:
                record_gemm_flops("linear", 3)
                raise RuntimeError("boom")
        record_gemm_flops("linear", 5)
        assert meter.by_category == {"linear": 3}


class TestEq3Agreement:
    def test_serial_iteration_matches_eq3(self):
        """fwd+bwd GEMM FLOPs == eq. (3) without recomputation, exactly."""
        B = 2
        model = GPTModel(CFG, seed=0)
        ids, targets = data(B)
        with count_flops() as meter:
            loss, caches = model.loss(ids, targets)
            model.loss_backward(caches)
        expected = CFG.flops_per_iteration(B, with_recompute=False)
        assert meter.total_flops == expected

    def test_category_split_matches_appendix(self):
        """Per-category FLOPs match the appendix's per-term derivation."""
        B = 2
        model = GPTModel(CFG, seed=0)
        ids, targets = data(B)
        with count_flops() as meter:
            loss, caches = model.loss(ids, targets)
            model.loss_backward(caches)
        s, h, l, V = CFG.seq_length, CFG.hidden_size, CFG.num_layers, CFG.vocab_size
        # Attention score GEMMs: 4 B s^2 h fwd, x3 with backward.
        assert meter.by_category["attention"] == 3 * l * 4 * B * s * s * h
        # Linear GEMMs: 24 B s h^2 - 4 B s^2 h... no: linears are
        # QKV (6Bsh^2) + proj (2Bsh^2) + MLP (16Bsh^2) = 24Bsh^2 per
        # layer forward, x3 with backward.
        assert meter.by_category["linear"] == 3 * l * 24 * B * s * h * h
        # Logit layer: 2BshV fwd + 4BshV bwd.
        assert meter.by_category["logit"] == 6 * B * s * h * V

    def test_recompute_measures_extra_forward(self):
        """Pipeline with recomputation executes eq. (3)'s 4x layer factor."""
        B, m = 4, 4
        cfg = tiny_test_model(num_layers=4, hidden_size=24,
                              num_attention_heads=4, vocab_size=48,
                              seq_length=12)
        sched = make_schedule("1f1b", 2, m)
        r = np.random.default_rng(0)
        ids = r.integers(0, cfg.vocab_size, size=(B, cfg.seq_length))
        targets = r.integers(0, cfg.vocab_size, size=(B, cfg.seq_length))
        results = {}
        for rc in (False, True):
            pp = PipelineParallelGPT(cfg, sched, seed=0, recompute_activations=rc)
            with count_flops() as meter:
                pp.run_iteration(make_microbatches(ids, targets, m))
            results[rc] = meter.total_flops
        assert results[False] == cfg.flops_per_iteration(B, with_recompute=False)
        # Eq. (3) is "a lower bound for the true FLOP count" (paper
        # appendix): the last stage also re-runs its logit GEMM during
        # recomputation, which eq. (3) counts only once.  The measured
        # excess is exactly that one extra logit forward: 2 B s h V.
        s, h, V = cfg.seq_length, cfg.hidden_size, cfg.vocab_size
        excess = results[True] - cfg.flops_per_iteration(B, with_recompute=True)
        assert excess == 2 * B * s * h * V

    def test_tensor_parallel_executes_same_flops(self):
        """Sharding reorganizes work; total GEMM FLOPs are unchanged."""
        B = 2
        ids, targets = data(B)
        serial = GPTModel(CFG, seed=0)
        with count_flops() as m_serial:
            loss, caches = serial.loss(ids, targets)
            serial.loss_backward(caches)
        tp = TensorParallelGPT(CFG, TensorParallelGroup(ranks=[0, 1]), seed=0)
        with count_flops() as m_tp:
            loss, caches = tp_loss(tp, ids, targets)
            tp_loss_backward(tp, caches)
        assert m_tp.total_flops == m_serial.total_flops

    def test_full_ptd_trainer_matches_eq3(self):
        B = 8
        trainer = PTDTrainer(
            tiny_test_model(num_layers=4, hidden_size=16,
                            num_attention_heads=4, vocab_size=32, seq_length=8),
            ParallelConfig(pipeline_parallel_size=2, tensor_parallel_size=2,
                           data_parallel_size=2, microbatch_size=1,
                           global_batch_size=B),
            seed=0,
        )
        cfg = trainer.config
        r = np.random.default_rng(0)
        ids = r.integers(0, cfg.vocab_size, size=(B, cfg.seq_length))
        with count_flops() as meter:
            trainer.train_step(ids, np.roll(ids, -1, axis=1))
        assert meter.total_flops == cfg.flops_per_iteration(
            B, with_recompute=False
        )


class TestPrefillFlops:
    """Serving's prefill records the GEMMs it runs: attention in causal
    blocks of 64 queries, block ``[lo, hi)`` over keys ``[0, hi)``, and
    a last block whose qkv GEMM alone runs on every row."""

    CFG = tiny_test_model(num_layers=3, hidden_size=16,
                          num_attention_heads=2, vocab_size=32,
                          seq_length=256)

    @staticmethod
    def closed_form(cfg, s):
        """``(attention, linear)`` GEMM FLOPs of ``hidden_step`` over an
        ``s``-token prefill of one request."""
        h, f, l = cfg.hidden_size, cfg.ffn_hidden_size, cfg.num_layers
        keys = sum((min(lo + 64, s) - lo) * min(lo + 64, s)
                   for lo in range(0, s, 64))  # scored per query block
        # q @ k^T and probs @ v: 2 s_q h keys each
        attention = (l - 1) * 4 * h * keys + 4 * h * s  # last: one query
        rows = (l - 1) * s + 1  # rows through proj, fc1 and fc2
        linear = l * 2 * s * h * 3 * h + rows * (2 * h * h + 4 * h * f)
        return attention, linear

    @pytest.mark.parametrize("s", [1, 64, 65, 176, 256])
    def test_hidden_step_records_its_closed_form(self, s):
        model = GPTModel(self.CFG, seed=0)
        ids = np.random.default_rng(s).integers(0, 32, size=(1, s))
        with count_flops() as meter:
            model.hidden_step(ids)
        attention, linear = self.closed_form(self.CFG, s)
        assert meter.by_category == {"attention": attention,
                                     "linear": linear}

    def test_one_block_is_the_whole_square(self):
        """At s <= 64 a prefill's attention is training's square."""
        h, l = self.CFG.hidden_size, self.CFG.num_layers
        model = GPTModel(self.CFG, seed=0)
        ids = np.random.default_rng(0).integers(0, 32, size=(1, 64))
        with count_flops() as meter:
            model.forward_step(ids)
        assert meter.by_category["attention"] == l * 4 * 64 * 64 * h

"""Tests for autoregressive generation and perplexity."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import tiny_test_model
from repro.nn import Adam, GPTModel, generate, perplexity
from repro.nn.generate import sample_rows

from .reference_sampling import _pick

CFG = tiny_test_model(num_layers=2, hidden_size=16, num_attention_heads=4,
                      vocab_size=16, seq_length=8)


def trained_copier(steps=60):
    """Train a tiny GPT to predict token[i+1] = token[i] (copy task)."""
    model = GPTModel(CFG, seed=0)
    opt = Adam(model.parameters(), lr=5e-3)
    r = np.random.default_rng(0)
    for _ in range(steps):
        # Sequences of repeated runs: strong copy signal.
        starts = r.integers(0, CFG.vocab_size, size=(8, 1))
        ids = np.repeat(starts, CFG.seq_length, axis=1)
        targets = ids.copy()
        model.zero_grad()
        _, caches = model.loss(ids, targets)
        model.loss_backward(caches)
        opt.step()
    return model


def pick(logits, temperature, top_k, rng) -> int:
    """One row through :func:`sample_rows`."""
    return int(sample_rows(logits[None], temperature, top_k, [rng])[0])


class TestGenerate:
    def test_greedy_deterministic(self):
        model = GPTModel(CFG, seed=0)
        prompt = np.array([1, 2, 3])
        a = generate(model, prompt, 5, temperature=0.0)
        b = generate(model, prompt, 5, temperature=0.0)
        np.testing.assert_array_equal(a, b)
        assert a.shape == (8,)
        np.testing.assert_array_equal(a[:3], prompt)

    def test_sampling_seeded(self):
        model = GPTModel(CFG, seed=0)
        prompt = np.array([1, 2])
        a = generate(model, prompt, 6, temperature=1.0,
                     rng=np.random.default_rng(7))
        b = generate(model, prompt, 6, temperature=1.0,
                     rng=np.random.default_rng(7))
        np.testing.assert_array_equal(a, b)

    def test_tokens_in_vocab(self):
        model = GPTModel(CFG, seed=0)
        out = generate(model, np.array([0]), 10, temperature=1.5, top_k=4,
                       rng=np.random.default_rng(1))
        assert out.min() >= 0 and out.max() < CFG.vocab_size

    def test_window_slides_past_seq_length(self):
        model = GPTModel(CFG, seed=0)
        out = generate(model, np.array([1]), CFG.seq_length + 4,
                       temperature=0.0)
        assert out.shape == (1 + CFG.seq_length + 4,)

    def test_trained_model_copies(self):
        """A copy-task model greedily continues the repeated token."""
        model = trained_copier()
        out = generate(model, np.array([5, 5, 5]), 4, temperature=0.0)
        assert list(out[3:]) == [5, 5, 5, 5]

    def test_top_k_restricts_support(self):
        """top_k=1 equals greedy regardless of temperature."""
        model = GPTModel(CFG, seed=0)
        greedy = generate(model, np.array([2, 3]), 6, temperature=0.0)
        topk1 = generate(model, np.array([2, 3]), 6, temperature=2.0,
                         top_k=1, rng=np.random.default_rng(0))
        np.testing.assert_array_equal(greedy, topk1)

    def test_top_k_exact_on_tied_logits(self):
        """Regression: tied logits at the cutoff must not widen the
        support past top_k (the old ``scaled >= cutoff`` mask kept every
        tied candidate)."""
        logits = np.zeros(12)  # all tied: cutoff == every logit
        logits[7] = 0.0
        rng = np.random.default_rng(0)
        picks = {
            pick(logits, 1.0, 3, rng) for _ in range(400)
        }
        assert len(picks) == 3, (
            f"top_k=3 with fully tied logits sampled {len(picks)} distinct "
            f"tokens: {sorted(picks)}"
        )

    def test_top_k_partial_tie_keeps_exactly_k(self):
        """Two clear leaders plus many tied at the cutoff: support is
        exactly top_k, and always contains the strict leaders."""
        logits = np.zeros(10)
        logits[2] = 5.0
        logits[8] = 4.0
        rng = np.random.default_rng(3)
        picks = {pick(logits, 5.0, 4, rng) for _ in range(600)}
        assert len(picks) <= 4
        assert {2, 8} <= picks

    def test_stop_ids_early_exit(self):
        """Generation halts right after the first stop token, which is
        kept in the output."""
        model = GPTModel(CFG, seed=0)
        prompt = np.array([1, 2, 3])
        probe = generate(model, prompt, 6, temperature=0.0)
        stop = int(probe[len(prompt)])  # the 1st generated token
        out = generate(model, prompt, 6, temperature=0.0,
                       stop_ids={stop})
        assert out.shape == (len(prompt) + 1,)
        assert out[-1] == stop
        np.testing.assert_array_equal(out, probe[:len(prompt) + 1])

    def test_stop_ids_ignores_prompt_tokens(self):
        """A stop token already present in the prompt must not end
        generation at step zero."""
        model = GPTModel(CFG, seed=0)
        prompt = np.array([4, 4])
        out = generate(model, prompt, 3, temperature=0.0, stop_ids={4})
        # Either a full run or an early stop on a *generated* 4 -- but
        # never length-2 (stopping on the prompt itself).
        assert len(out) > len(prompt)

    def test_stop_ids_never_generated_runs_to_length(self):
        model = GPTModel(CFG, seed=0)
        prompt = np.array([1, 2])
        plain = generate(model, prompt, 5, temperature=0.0)
        absent = {t for t in range(CFG.vocab_size)} - set(plain.tolist())
        stopped = generate(model, prompt, 5, temperature=0.0,
                           stop_ids={min(absent)})
        np.testing.assert_array_equal(plain, stopped)

    def test_stop_ids_with_sliding_window(self):
        """Stop detection keeps working after the context has slid past
        seq_length (the recompute regime)."""
        model = GPTModel(CFG, seed=0)
        prompt = np.array([1])
        probe = generate(model, prompt, CFG.seq_length + 6,
                         temperature=0.0)
        # Pick a token first generated only after the window slid.
        late = int(probe[CFG.seq_length + 2])
        out = generate(model, prompt, CFG.seq_length + 6,
                       temperature=0.0, stop_ids={late})
        assert out[-1] == late
        assert len(out) <= len(probe)
        np.testing.assert_array_equal(out, probe[:len(out)])

    def test_stop_ids_zero_budget(self):
        """max_new_tokens=0 returns the prompt unchanged, stop or not."""
        model = GPTModel(CFG, seed=0)
        prompt = np.array([3, 1])
        out = generate(model, prompt, 0, temperature=0.0, stop_ids={3})
        np.testing.assert_array_equal(out, prompt)

    def test_stop_ids_out_of_vocab_rejected(self):
        model = GPTModel(CFG, seed=0)
        with pytest.raises(ValueError, match="stop token"):
            generate(model, np.array([1]), 2, stop_ids={CFG.vocab_size})
        with pytest.raises(ValueError, match="stop token"):
            generate(model, np.array([1]), 2, stop_ids={-1})

    def test_validation(self):
        model = GPTModel(CFG, seed=0)
        with pytest.raises(ValueError):
            generate(model, np.array([]), 2)
        with pytest.raises(ValueError):
            generate(model, np.array([[1]]), 2)
        with pytest.raises(ValueError):
            generate(model, np.array([1]), -1)
        with pytest.raises(ValueError):
            generate(model, np.array([1]), 2, temperature=-1)
        with pytest.raises(ValueError):
            generate(model, np.array([1]), 2, top_k=0)
        with pytest.raises(ValueError):
            generate(model, np.array([CFG.vocab_size]), 2)


#: (temperature, top_k) settings a tick mixes; a top_k past V keeps all
_SETTINGS = st.tuples(st.sampled_from([0.0, 0.5, 1.0, 1.7]),
                      st.sampled_from([None, 1, 2, 5, 50, 2048, 4096]))


class TestSampleRows:
    """:func:`sample_rows` against the one-row sampler it replaced
    (``tests/reference_sampling.py``): the same tokens, and every rng in
    the same state after."""

    @given(n=st.integers(1, 32), vocab=st.integers(2, 2048),
           settings_=st.lists(_SETTINGS, min_size=1, max_size=3),
           ties=st.sampled_from([0, 1, 2, 4]), seed=st.integers(0, 2**32 - 1))
    @settings(max_examples=200, deadline=None)
    def test_a_tick_equals_the_reference_row_by_row(self, n, vocab, settings_,
                                                    ties, seed):
        data = np.random.default_rng(seed)
        if ties:  # few distinct values: ties at every top-k cutoff
            logits = data.integers(0, ties + 1, size=(n, vocab)) * 1.5
        else:
            logits = data.standard_normal((n, vocab)) * 3.0
        chosen = data.integers(0, len(settings_), size=n)
        seeds = data.integers(0, 2**32, size=n)
        ours = [np.random.default_rng(s) for s in seeds]
        theirs = [np.random.default_rng(s) for s in seeds]
        want = [_pick(logits[i], *settings_[chosen[i]], theirs[i])
                for i in range(n)]
        got = [None] * n
        for group, (temperature, top_k) in enumerate(settings_):
            rows = np.flatnonzero(chosen == group)
            if rows.size:  # the engine's grouping: one pass per setting
                tokens = sample_rows(logits[rows], temperature, top_k,
                                     [ours[i] for i in rows])
                for i, token in zip(rows, tokens.tolist()):
                    got[i] = token
        assert got == want
        for mine, ref in zip(ours, theirs):
            assert mine.bit_generator.state == ref.bit_generator.state

    @pytest.mark.parametrize("top_k", [None, 3])
    def test_nan_logits_raise_before_any_row_draws(self, top_k):
        logits = np.random.default_rng(1).standard_normal((4, 16))
        logits[2, 5] = np.nan
        rngs = [np.random.default_rng(i) for i in range(4)]
        before = [rng.bit_generator.state for rng in rngs]
        with pytest.raises(ValueError, match="NaN"):
            sample_rows(logits, 1.0, top_k, rngs)
        assert [rng.bit_generator.state for rng in rngs] == before
        with pytest.raises(ValueError):  # the reference refuses it too
            _pick(logits[2], 1.0, top_k, np.random.default_rng(2))

    def test_greedy_rows_draw_nothing(self):
        logits = np.random.default_rng(2).standard_normal((5, 9))
        rngs = [np.random.default_rng(i) for i in range(5)]
        before = [rng.bit_generator.state for rng in rngs]
        np.testing.assert_array_equal(sample_rows(logits, 0.0, 3, rngs),
                                      logits.argmax(axis=1))
        assert [rng.bit_generator.state for rng in rngs] == before


class TestPerplexity:
    def test_untrained_near_uniform(self):
        model = GPTModel(CFG, seed=0)
        r = np.random.default_rng(0)
        ids = r.integers(0, CFG.vocab_size, size=(4, CFG.seq_length))
        ppl = perplexity(model, ids, np.roll(ids, -1, axis=1))
        assert ppl == pytest.approx(CFG.vocab_size, rel=0.35)

    def test_trained_model_lower_perplexity(self):
        model = trained_copier()
        ids = np.full((2, CFG.seq_length), 3)
        ppl = perplexity(model, ids, ids)
        assert ppl < 3.0  # copy task nearly solved

"""Tests for the byte-level BPE tokenizer."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import BPETokenizer

SAMPLE = (
    "the quick brown fox jumps over the lazy dog. "
    "the quick brown fox jumps again and again and again. "
    "pipeline parallelism and tensor parallelism compose with data "
    "parallelism to train the largest language models. "
) * 4


class TestTraining:
    def test_vocab_grows_to_target(self):
        tok = BPETokenizer.train(SAMPLE, 300)
        assert tok.vocab_size == 300

    def test_training_is_deterministic(self):
        a = BPETokenizer.train(SAMPLE, 280)
        b = BPETokenizer.train(SAMPLE, 280)
        assert a.merges == b.merges

    def test_stops_when_nothing_repeats(self):
        tok = BPETokenizer.train("abcdefg", 1000)
        assert tok.vocab_size < 1000

    def test_common_pairs_merged_first(self):
        """'th'/'e ' style frequent pairs are early merges."""
        tok = BPETokenizer.train(SAMPLE, 270)
        first_merges_bytes = [tok.token_bytes[256 + i] for i in range(6)]
        joined = b"".join(first_merges_bytes)
        assert b"a" in joined or b"e" in joined or b" " in joined

    def test_rejects_tiny_vocab(self):
        with pytest.raises(ValueError):
            BPETokenizer.train(SAMPLE, 100)


class TestEncodeDecode:
    def test_roundtrip(self):
        tok = BPETokenizer.train(SAMPLE, 300)
        ids = tok.encode(SAMPLE)
        assert tok.decode(ids) == SAMPLE

    def test_compression(self):
        """BPE shortens in-domain text (that is its purpose)."""
        tok = BPETokenizer.train(SAMPLE, 400)
        ids = tok.encode(SAMPLE)
        assert len(ids) < len(SAMPLE.encode()) * 0.6

    def test_roundtrip_out_of_domain(self):
        """Byte-level base alphabet: any text round-trips, even unseen."""
        tok = BPETokenizer.train(SAMPLE, 300)
        weird = "Zürich Straße 42 — ∞ tokens!"
        assert tok.decode(tok.encode(weird)) == weird

    def test_untrained_tokenizer_is_bytes(self):
        tok = BPETokenizer()
        ids = tok.encode("ab")
        assert ids == [97, 98]
        assert tok.decode(ids) == "ab"

    def test_decode_validates_range(self):
        tok = BPETokenizer()
        with pytest.raises(ValueError):
            tok.decode([256])

    def test_all_ids_in_vocab(self):
        tok = BPETokenizer.train(SAMPLE, 300)
        ids = tok.encode(SAMPLE)
        assert max(ids) < tok.vocab_size and min(ids) >= 0

    @given(st.text(max_size=200))
    @settings(max_examples=60, deadline=None)
    def test_roundtrip_property(self, text):
        tok = BPETokenizer.train(SAMPLE, 280)
        assert tok.decode(tok.encode(text)) == text


class TestPipelineIntegration:
    def test_tokenized_text_trains(self):
        """Text -> BPE -> TokenDataset -> GPT training step."""
        import numpy as np

        from repro.config import tiny_test_model
        from repro.data import ShardedBatchLoader, TokenDataset
        from repro.nn import Adam, GPTModel

        tok = BPETokenizer.train(SAMPLE, 280)
        ids = np.array(tok.encode(SAMPLE * 3), dtype=np.int32)
        cfg = tiny_test_model(vocab_size=tok.vocab_size, seq_length=8,
                              num_layers=2, hidden_size=16,
                              num_attention_heads=4)
        ds = TokenDataset(ids, seq_length=8)
        loader = ShardedBatchLoader(ds, global_batch_size=8, seed=0)
        model = GPTModel(cfg, seed=0)
        opt = Adam(model.parameters(), lr=3e-3)
        first = last = None
        for b_ids, b_tgt in loader:
            model.zero_grad()
            loss, caches = model.loss(b_ids, b_tgt)
            model.loss_backward(caches)
            opt.step()
            if first is None:
                first = loss
            last = loss
        assert last < first

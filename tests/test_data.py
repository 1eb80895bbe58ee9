"""Tests for the data substrate: datasets and sharded loading."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.data import ShardedBatchLoader, TokenDataset, synthetic_corpus


class TestSyntheticCorpus:
    def test_deterministic(self):
        a = synthetic_corpus(1000, 64, seed=3)
        b = synthetic_corpus(1000, 64, seed=3)
        np.testing.assert_array_equal(a, b)
        c = synthetic_corpus(1000, 64, seed=4)
        assert not np.array_equal(a, c)

    def test_range_and_length(self):
        t = synthetic_corpus(5000, 32)
        assert t.shape == (5000,)
        assert t.min() >= 0 and t.max() < 32

    def test_zipf_head_heavy(self):
        """Low token ids (high Zipf rank) dominate."""
        t = synthetic_corpus(50_000, 100, seed=0)
        counts = np.bincount(t, minlength=100)
        assert counts[:10].sum() > counts[50:].sum()

    def test_repetition_structure(self):
        """repeat_prob > 0 makes tokens[i] == tokens[i-2] common."""
        t = synthetic_corpus(50_000, 1000, seed=0, repeat_prob=0.5)
        match = np.mean(t[2:] == t[:-2])
        base_stream = synthetic_corpus(50_000, 1000, seed=1, repeat_prob=0.0)
        baseline = np.mean(base_stream[2:] == base_stream[:-2])
        # The vectorized copy resolves sources before assignment, so the
        # realized match rate is ~p(1-p) + baseline rather than p.
        assert match > baseline + 0.15

    def test_validation(self):
        with pytest.raises(ValueError):
            synthetic_corpus(0, 10)
        with pytest.raises(ValueError):
            synthetic_corpus(10, 1)
        with pytest.raises(ValueError):
            synthetic_corpus(10, 10, repeat_prob=1.0)


class TestTokenDataset:
    def make(self, n=100, s=8):
        return TokenDataset(np.arange(n, dtype=np.int32), seq_length=s)

    def test_len(self):
        assert len(self.make(100, 8)) == 12  # (100-1)//8

    def test_targets_shifted_by_one(self):
        ds = self.make()
        ids, targets = ds[0]
        np.testing.assert_array_equal(targets, ids + 1)
        ids2, _ = ds[1]
        assert ids2[0] == ids[-1] + 1  # samples are contiguous slices

    def test_index_bounds(self):
        ds = self.make()
        with pytest.raises(IndexError):
            ds[len(ds)]
        with pytest.raises(IndexError):
            ds[-1]

    def test_batch(self):
        ds = self.make()
        ids, targets = ds.batch(np.array([0, 2]))
        assert ids.shape == (2, 8)
        np.testing.assert_array_equal(ids[1], ds[2][0])

    def test_too_short_rejected(self):
        with pytest.raises(ValueError, match="too short"):
            TokenDataset(np.arange(5), seq_length=8)

    @given(n=st.integers(10, 500), s=st.integers(1, 16))
    @settings(max_examples=50, deadline=None)
    def test_every_sample_well_formed(self, n, s):
        if (n - 1) // s < 1:
            return
        ds = TokenDataset(np.arange(n, dtype=np.int32), seq_length=s)
        for i in range(len(ds)):
            ids, targets = ds[i]
            assert ids.shape == targets.shape == (s,)
            np.testing.assert_array_equal(targets[:-1], ids[1:])


class TestShardedBatchLoader:
    def make_loader(self, n_samples=40, B=8, seed=0):
        tokens = synthetic_corpus(n_samples * 8 + 1, 32, seed=1)
        ds = TokenDataset(tokens, seq_length=8)
        return ShardedBatchLoader(ds, global_batch_size=B, seed=seed)

    def test_batches_per_epoch(self):
        loader = self.make_loader(40, 8)
        assert loader.batches_per_epoch == 5

    def test_batches_have_global_shape(self):
        loader = self.make_loader()
        for ids, targets in loader:
            assert ids.shape == (8, 8)
            assert targets.shape == (8, 8)

    def test_epoch_order_deterministic_and_distinct(self):
        loader = self.make_loader(seed=5)
        o0a = loader.epoch_order(0)
        o0b = loader.epoch_order(0)
        np.testing.assert_array_equal(o0a, o0b)
        assert not np.array_equal(o0a, loader.epoch_order(1))

    def test_epoch_covers_all_samples_once(self):
        loader = self.make_loader()
        order = loader.epoch_order(0)
        assert sorted(order) == list(range(len(loader.dataset)))

    def test_loader_validation(self):
        with pytest.raises(ValueError):
            self.make_loader(n_samples=4, B=8)

    def test_training_on_synthetic_corpus_learns(self):
        """A tiny GPT's loss drops on the structured synthetic corpus --
        the data substrate provides a learnable signal."""
        from repro.config import tiny_test_model
        from repro.nn import Adam, GPTModel

        cfg = tiny_test_model(vocab_size=32, seq_length=8)
        tokens = synthetic_corpus(4001, 32, seed=0)
        ds = TokenDataset(tokens, seq_length=8)
        loader = ShardedBatchLoader(ds, global_batch_size=16, seed=0)
        model = GPTModel(cfg, seed=0)
        opt = Adam(model.parameters(), lr=3e-3)
        losses = []
        for _ in range(2):
            for ids, targets in loader:
                model.zero_grad()
                loss, caches = model.loss(ids, targets)
                model.loss_backward(caches)
                opt.step()
                losses.append(loss)
        assert np.mean(losses[-10:]) < np.mean(losses[:10]) - 0.2

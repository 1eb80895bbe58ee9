"""Tests for distributed checkpointing: exact resume, resharding,
atomic commits, integrity verification, and the run-level store."""

import json
import os

import numpy as np
import pytest

from repro.config import ParallelConfig, tiny_test_model
from repro.parallel import PTDTrainer
from repro.parallel.checkpoint import (
    CheckpointCommitError,
    CheckpointCorruptError,
    CheckpointError,
    CheckpointMismatchError,
    CheckpointNotFoundError,
    CheckpointStore,
    load_checkpoint,
    save_checkpoint,
    verify_checkpoint,
)

CFG = tiny_test_model(num_layers=4, hidden_size=16, num_attention_heads=4,
                      vocab_size=32, seq_length=8)


def batch(seed=0, B=8):
    r = np.random.default_rng(seed)
    return (
        r.integers(0, 32, size=(B, 8)),
        r.integers(0, 32, size=(B, 8)),
    )


def make_trainer(p=2, t=2, d=2, v=1, seed=0, B=8):
    return PTDTrainer(
        CFG,
        ParallelConfig(
            pipeline_parallel_size=p, tensor_parallel_size=t,
            data_parallel_size=d, microbatch_size=1, global_batch_size=B,
            num_model_chunks=v,
        ),
        schedule="interleaved" if v > 1 else "1f1b",
        seed=seed, lr=1e-2,
    )


class TestSameConfigResume:
    def test_resume_is_bit_exact(self, tmp_path):
        ids, targets = batch()
        a = make_trainer()
        for _ in range(3):
            a.train_step(ids, targets)
        save_checkpoint(a, str(tmp_path))

        b = make_trainer(seed=99)  # different init, fully overwritten
        assert load_checkpoint(b, str(tmp_path)) is True
        assert b.iteration == 3
        for _ in range(2):
            la = a.train_step(ids, targets)
            lb = b.train_step(ids, targets)
            assert la == lb  # bit-exact resumed Adam trajectory

    def test_metadata_iteration(self, tmp_path):
        a = make_trainer()
        ids, targets = batch()
        a.train_step(ids, targets)
        save_checkpoint(a, str(tmp_path))
        b = make_trainer()
        load_checkpoint(b, str(tmp_path))
        assert b.iteration == 1


class TestResharding:
    # A grid of (p, t, d, v) source -> target configurations covering
    # every parallelism axis changing alone and in combination: pure
    # growth/shrink of p, t, d, interleaving appearing/disappearing,
    # and fully mixed reshards in both directions.
    @pytest.mark.parametrize(
        "src,dst",
        [
            ((2, 2, 2, 1), (1, 1, 1, 1)),
            ((2, 2, 2, 1), (4, 1, 2, 1)),
            ((1, 1, 1, 1), (2, 2, 2, 1)),
            ((2, 1, 1, 2), (1, 4, 2, 1)),
            ((4, 1, 1, 1), (1, 1, 4, 1)),   # pipeline -> data
            ((1, 4, 1, 1), (4, 1, 1, 1)),   # tensor -> pipeline
            ((1, 1, 4, 1), (1, 4, 1, 1)),   # data -> tensor
            ((2, 2, 1, 1), (2, 1, 2, 2)),   # mixed, gains interleaving
            ((2, 1, 2, 2), (2, 2, 1, 1)),   # mixed, loses interleaving
            ((4, 2, 1, 1), (2, 2, 2, 1)),   # shrink p, grow d
            ((1, 2, 4, 1), (4, 2, 1, 1)),   # shrink d, grow p
            ((2, 2, 2, 2), (1, 1, 2, 1)),   # big world -> small world
        ],
    )
    def test_weights_survive_reshard(self, tmp_path, src, dst):
        ids, targets = batch()
        a = make_trainer(*src)
        for _ in range(2):
            a.train_step(ids, targets)
        save_checkpoint(a, str(tmp_path))
        b = make_trainer(*dst, seed=123)
        restored = load_checkpoint(b, str(tmp_path))
        assert restored is False  # optimizer-state reset is reported
        assert b.iteration == 2
        sa = a.gather_state_dict()
        sb = b.gather_state_dict()
        assert set(sb) == set(sa)
        for name in sb:
            if name == "head.tied":
                continue
            # Gathered weights round-trip exactly through the reshard.
            np.testing.assert_array_equal(sb[name], sa[name],
                                          err_msg=name)

    def test_resharded_trainer_continues_consistently(self, tmp_path):
        """After resharding, all dst replicas/shards agree: one further
        step produces the same loss in two different dst configs."""
        ids, targets = batch()
        a = make_trainer(2, 2, 1)
        a.train_step(ids, targets)
        save_checkpoint(a, str(tmp_path))
        losses = []
        for dst in ((1, 1, 1), (1, 2, 2)):
            b = make_trainer(*dst, seed=55)
            load_checkpoint(b, str(tmp_path))
            losses.append(b.train_step(ids, targets))
        assert losses[0] == pytest.approx(losses[1], rel=1e-10)


class TestValidation:
    def test_missing_checkpoint(self, tmp_path):
        t = make_trainer()
        with pytest.raises(FileNotFoundError):
            load_checkpoint(t, str(tmp_path / "nope"))

    def test_missing_checkpoint_is_hierarchy_error(self, tmp_path):
        t = make_trainer()
        with pytest.raises(CheckpointNotFoundError):
            load_checkpoint(t, str(tmp_path / "nope"))
        assert issubclass(CheckpointNotFoundError, CheckpointError)
        assert issubclass(CheckpointNotFoundError, FileNotFoundError)

    def test_architecture_mismatch(self, tmp_path):
        a = make_trainer()
        save_checkpoint(a, str(tmp_path))
        other_cfg = tiny_test_model(num_layers=2, hidden_size=16,
                                    num_attention_heads=4, vocab_size=32,
                                    seq_length=8)
        b = PTDTrainer(
            other_cfg,
            ParallelConfig(microbatch_size=1, global_batch_size=8),
            seed=0,
        )
        with pytest.raises(ValueError, match="architecture"):
            load_checkpoint(b, str(tmp_path))
        with pytest.raises(CheckpointMismatchError):
            load_checkpoint(b, str(tmp_path))

    def test_unknown_format_version(self, tmp_path):
        a = make_trainer()
        save_checkpoint(a, str(tmp_path))
        meta_path = tmp_path / "metadata.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 99
        meta_path.write_text(json.dumps(meta))
        with pytest.raises(CheckpointMismatchError, match="format"):
            load_checkpoint(make_trainer(), str(tmp_path))

    def test_missing_model_file_is_corrupt(self, tmp_path):
        a = make_trainer()
        save_checkpoint(a, str(tmp_path))
        os.remove(tmp_path / "model.npz")
        with pytest.raises(CheckpointCorruptError, match="model.npz"):
            load_checkpoint(make_trainer(), str(tmp_path))

    def test_missing_optimizer_shard_is_corrupt(self, tmp_path):
        a = make_trainer()
        save_checkpoint(a, str(tmp_path))
        os.remove(tmp_path / "optimizer_rank1.npz")
        with pytest.raises(CheckpointCorruptError, match="optimizer_rank1"):
            load_checkpoint(make_trainer(), str(tmp_path))

    def test_bitflip_fails_checksum(self, tmp_path):
        a = make_trainer()
        save_checkpoint(a, str(tmp_path))
        path = tmp_path / "model.npz"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError, match="integrity"):
            verify_checkpoint(str(tmp_path))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(make_trainer(), str(tmp_path))

    def test_verify_passes_on_committed_checkpoint(self, tmp_path):
        a = make_trainer()
        meta = save_checkpoint(a, str(tmp_path))
        assert meta["format_version"] == 4
        assert set(meta["files"]) == {
            "model.npz", "optimizer_rank0.npz", "optimizer_rank1.npz"
        }
        assert verify_checkpoint(str(tmp_path))["iteration"] == 0

    def test_unverified_load_skips_checksums(self, tmp_path):
        """A flipped byte inside the zip payload may still unpickle;
        verify=False explicitly opts out of the integrity check."""
        a = make_trainer()
        ids, targets = batch()
        a.train_step(ids, targets)
        save_checkpoint(a, str(tmp_path))
        # Corrupt an optimizer shard only; model.npz stays intact.
        path = tmp_path / "optimizer_rank0.npz"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError):
            load_checkpoint(make_trainer(), str(tmp_path), verify=True)

    def test_format_v1_still_loads(self, tmp_path):
        """Pre-hardening checkpoints (no digests, the full moments of
        every parameter in every rank file) remain readable."""
        a = make_trainer()
        ids, targets = batch()
        a.train_step(ids, targets)
        save_checkpoint(a, str(tmp_path))
        arrays = {f"{key}_{i}": whole
                  for (key, i), whole in _full_moments(a).items()}
        arrays["step_count"] = np.array(a.optimizers[0].step_count)
        for r in range(len(a.optimizers)):
            _rewrite(str(tmp_path), f"optimizer_rank{r}.npz", arrays)
        meta_path = tmp_path / "metadata.json"
        meta = json.loads(meta_path.read_text())
        meta["format_version"] = 1
        del meta["files"]
        meta_path.write_text(json.dumps(meta))
        b = make_trainer(seed=7)
        assert load_checkpoint(b, str(tmp_path)) is True
        assert b.iteration == 1
        for want, got in zip(a.optimizers, b.optimizers):
            assert np.array_equal(want.m, got.m)
            assert np.array_equal(want.v, got.v)


def _rewrite(directory, name, arrays, version=None):
    """Replace one file of a committed checkpoint, re-recording its
    digests (and the format version) so only the content is changed."""
    from repro.parallel.checkpoint import _file_digests

    np.savez(os.path.join(directory, name), **arrays)
    meta_path = os.path.join(directory, "metadata.json")
    with open(meta_path) as f:
        meta = json.load(f)
    meta["files"][name] = _file_digests(os.path.join(directory, name))
    if version is not None:
        meta["format_version"] = version
    with open(meta_path, "w") as f:
        json.dump(meta, f)


def _full_moments(trainer):
    """Every rank's ``m`` and ``v`` put back together: the full moments
    of each parameter, in ``parameters()`` order."""
    from repro.comm.primitives import owned_chunk

    params = trainer.replicas[0].parameters()
    n, d = sum(p.size for p in params), len(trainer.optimizers)
    full = {"m": np.empty(n), "v": np.empty(n)}
    for r, opt in enumerate(trainer.optimizers):
        lo, hi = owned_chunk(n, d, r)
        full["m"][lo:hi], full["v"][lo:hi] = opt.m, opt.v
    out = {}
    offset = 0
    for i, p in enumerate(params):
        for key in ("m", "v"):
            out[key, i] = full[key][offset:offset + p.size].reshape(p.shape)
        offset += p.size
    return out


class TestShardedOptimizerState:
    """Format 4: ``optimizer_rank<r>.npz`` holds rank r's moments over
    its range of the flat parameter vector; format 3 (rank r's ring
    chunk of every parameter) and format 2 (full moments in every rank
    file) load."""

    #: (p, t, d): tensor-parallel shards, a two-shard tied embedding,
    #: and ranges that cut parameters unevenly at d = 3
    GRIDS = ((2, 2, 2), (2, 1, 2), (2, 1, 3))

    @staticmethod
    def _restores_and_continues(directory, version, p, t, d):
        """Rewrite a (p, t, d) checkpoint's optimizer files in format
        ``version``; a trainer restored from it trains on bit for bit."""
        from repro.comm.primitives import owned_chunk

        ids, targets = batch(B=6 * d)
        a = make_trainer(p=p, t=t, d=d, B=6 * d)
        for _ in range(2):
            a.train_step(ids, targets)
        save_checkpoint(a, directory)
        moments = _full_moments(a)
        for r, opt in enumerate(a.optimizers):
            arrays = {"step_count": np.array(opt.step_count)}
            for i, param in enumerate(a.replicas[0].parameters()):
                lo, hi = owned_chunk(param.size, d, r)
                for key in ("m", "v"):
                    whole = moments[key, i]
                    arrays[f"{key}_{i}"] = (
                        whole if version == 2 else whole.reshape(-1)[lo:hi])
            _rewrite(directory, f"optimizer_rank{r}.npz", arrays,
                     version=version)

        b = make_trainer(p=p, t=t, d=d, B=6 * d, seed=99)
        assert load_checkpoint(b, directory) is True
        for want, got in zip(a.optimizers, b.optimizers):
            assert np.array_equal(want.m, got.m)
            assert np.array_equal(want.v, got.v)
        for _ in range(2):
            assert a.train_step(ids, targets) == b.train_step(ids, targets)
        sa, sb = a.gather_state_dict(), b.gather_state_dict()
        for name in sa:
            assert np.array_equal(sa[name], sb[name]), name

    def test_format_2_restores_and_continues_bit_identically(self, tmp_path):
        for p, t, d in self.GRIDS:
            self._restores_and_continues(
                str(tmp_path / f"p{p}t{t}d{d}"), 2, p, t, d)

    def test_format_3_restores_and_continues_bit_identically(self, tmp_path):
        for p, t, d in self.GRIDS:
            self._restores_and_continues(
                str(tmp_path / f"p{p}t{t}d{d}"), 3, p, t, d)

    def test_shard_of_the_wrong_length_is_corrupt(self, tmp_path):
        a = make_trainer()
        a.train_step(*batch())
        save_checkpoint(a, str(tmp_path))
        path = tmp_path / "optimizer_rank1.npz"
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files}
        owned = arrays["v"].size
        arrays["v"] = arrays["v"][:-1]
        _rewrite(str(tmp_path), "optimizer_rank1.npz", arrays)
        with pytest.raises(CheckpointCorruptError,
                           match=rf"optimizer_rank1.*v .*rank 1 owns {owned}"):
            load_checkpoint(make_trainer(), str(tmp_path))

    def test_shard_missing_an_array_is_corrupt(self, tmp_path):
        """The format version, not the file's contents, picks the
        layout: a format-4 file without ``m`` is named as corrupt."""
        a = make_trainer()
        a.train_step(*batch())
        save_checkpoint(a, str(tmp_path))
        path = tmp_path / "optimizer_rank1.npz"
        with np.load(path) as data:
            arrays = {k: data[k] for k in data.files if k != "m"}
        _rewrite(str(tmp_path), "optimizer_rank1.npz", arrays)
        with pytest.raises(CheckpointCorruptError,
                           match=r"optimizer_rank1\.npz is missing array 'm'"):
            load_checkpoint(make_trainer(), str(tmp_path))

    def test_per_parameter_chunk_of_the_wrong_length_is_corrupt(
            self, tmp_path):
        """The same for a format-3 file, whose chunks are cut per
        parameter."""
        a = make_trainer()
        a.train_step(*batch())
        save_checkpoint(a, str(tmp_path))
        moments = _full_moments(a)
        for r, opt in enumerate(a.optimizers):
            arrays = {"step_count": np.array(opt.step_count)}
            for (key, i), whole in moments.items():
                arrays[f"{key}_{i}"] = whole.reshape(-1)[:-1]
            _rewrite(str(tmp_path), f"optimizer_rank{r}.npz", arrays,
                     version=3)
        with pytest.raises(CheckpointCorruptError,
                           match=r"optimizer_rank0.*m .*parameter 0; rank 0"):
            load_checkpoint(make_trainer(), str(tmp_path))


class TestAtomicCommit:
    def test_rejects_non_checkpoint_directory(self, tmp_path):
        target = tmp_path / "precious"
        target.mkdir()
        (target / "data.txt").write_text("not a checkpoint")
        with pytest.raises(CheckpointCommitError, match="not a recognised"):
            save_checkpoint(make_trainer(), str(target))
        # The unrelated data survives the refused commit.
        assert (target / "data.txt").read_text() == "not a checkpoint"

    def test_rejects_plain_file_target(self, tmp_path):
        target = tmp_path / "file"
        target.write_text("x")
        with pytest.raises(CheckpointCommitError):
            save_checkpoint(make_trainer(), str(target))

    def test_replaces_existing_checkpoint(self, tmp_path):
        a = make_trainer()
        ids, targets = batch()
        save_checkpoint(a, str(tmp_path))
        a.train_step(ids, targets)
        save_checkpoint(a, str(tmp_path))  # overwrite in place
        assert verify_checkpoint(str(tmp_path))["iteration"] == 1

    def test_interrupted_write_leaves_no_partial_target(self, tmp_path):
        target = tmp_path / "ckpt"
        boom = RuntimeError("crash mid-write")

        def hook(stage):
            if stage == "pre-commit":
                raise boom

        with pytest.raises(RuntimeError, match="mid-write"):
            save_checkpoint(make_trainer(), str(target), fault_hook=hook)
        assert not target.exists()
        assert os.listdir(tmp_path) == []  # temp dir cleaned up too

    def test_interrupted_replace_keeps_old_checkpoint(self, tmp_path):
        target = tmp_path / "ckpt"
        a = make_trainer()
        save_checkpoint(a, str(target))
        ids, targets = batch()
        a.train_step(ids, targets)

        def hook(stage):
            if stage == "pre-commit":
                raise RuntimeError("crash before rename")

        with pytest.raises(RuntimeError):
            save_checkpoint(a, str(target), fault_hook=hook)
        # The previous checkpoint is still committed and intact.
        assert verify_checkpoint(str(target))["iteration"] == 0

    def test_non_atomic_writer_matches_layout(self, tmp_path):
        """The benchmark-baseline writer produces a loadable (v2)
        checkpoint, just without crash safety."""
        a = make_trainer()
        save_checkpoint(a, str(tmp_path), atomic=False)
        b = make_trainer(seed=3)
        assert load_checkpoint(b, str(tmp_path)) is True


class TestCheckpointStore:
    def run_to(self, trainer, iterations):
        ids, targets = batch()
        for _ in range(iterations):
            trainer.train_step(ids, targets)

    def test_save_advances_latest_and_gc(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep_last=2)
        t = make_trainer()
        for k in range(1, 5):
            self.run_to(t, 1)
            store.save(t)
        assert store.latest_iteration() == 4
        assert store.iterations() == [3, 4]  # 1 and 2 collected
        assert verify_checkpoint(store.path_for(4))["iteration"] == 4

    def test_restore_prefers_newest(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep_last=3)
        t = make_trainer()
        self.run_to(t, 1)
        store.save(t)
        self.run_to(t, 1)
        store.save(t)
        fresh = make_trainer(seed=9)
        result = store.restore(fresh)
        assert result.iteration == 2
        assert result.optimizer_restored is True
        assert result.skipped == []
        assert fresh.iteration == 2

    def test_restore_skips_corrupted_newest(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep_last=3)
        t = make_trainer()
        self.run_to(t, 1)
        store.save(t)
        self.run_to(t, 1)
        store.save(t)
        # Bit-rot lands on the newest committed checkpoint.
        path = os.path.join(store.path_for(2), "model.npz")
        blob = bytearray(open(path, "rb").read())
        blob[len(blob) // 2] ^= 0xFF
        open(path, "wb").write(bytes(blob))
        fresh = make_trainer(seed=9)
        result = store.restore(fresh)
        assert result.iteration == 1
        assert [it for it, _ in result.skipped] == [2]

    def test_restore_with_nothing_usable(self, tmp_path):
        store = CheckpointStore(str(tmp_path))
        with pytest.raises(CheckpointNotFoundError):
            store.restore(make_trainer())
        t = make_trainer()
        self.run_to(t, 1)
        store.save(t)
        os.remove(os.path.join(store.path_for(1), "model.npz"))
        with pytest.raises(CheckpointNotFoundError, match="failed"):
            store.restore(make_trainer())

    def test_interrupted_commit_never_moves_latest(self, tmp_path):
        stage_to_fail = {"stage": None}

        def fault(iteration, stage):
            if stage == stage_to_fail["stage"]:
                raise RuntimeError(f"crash at {stage}")

        store = CheckpointStore(str(tmp_path), keep_last=5,
                                save_fault=fault)
        t = make_trainer()
        self.run_to(t, 1)
        store.save(t)
        for stage in ("write", "pre-commit", "post-commit", "pre-latest"):
            self.run_to(t, 1)
            stage_to_fail["stage"] = stage
            with pytest.raises(RuntimeError):
                store.save(t)
            stage_to_fail["stage"] = None
            latest = store.latest_iteration()
            assert latest is not None
            # LATEST always names a checkpoint that verifies.
            verify_checkpoint(store.path_for(latest))
            assert latest == 1

    def test_keep_last_validation(self, tmp_path):
        with pytest.raises(ValueError):
            CheckpointStore(str(tmp_path), keep_last=0)


class TestTrainerExtensions:
    def test_loss_scale_invariance(self):
        """Static loss scaling cancels exactly in fp64 -- training with
        any scale matches scale=1 bit for bit."""
        ids, targets = batch()
        t1 = make_trainer()
        t2 = PTDTrainer(
            CFG,
            ParallelConfig(pipeline_parallel_size=2, tensor_parallel_size=2,
                           data_parallel_size=2, microbatch_size=1,
                           global_batch_size=8),
            seed=0, lr=1e-2, loss_scale=4096.0,
        )
        for _ in range(3):
            l1 = t1.train_step(ids, targets)
            l2 = t2.train_step(ids, targets)
            assert l1 == pytest.approx(l2, rel=1e-12)

    def test_grad_clip_matches_serial(self):
        """Distributed global-norm clipping == serial clipping."""
        from repro.nn import Adam, GPTModel

        ids, targets = batch()
        clip = 0.25
        par_t = PTDTrainer(
            CFG,
            ParallelConfig(pipeline_parallel_size=2, tensor_parallel_size=2,
                           data_parallel_size=2, microbatch_size=1,
                           global_batch_size=8),
            seed=0, lr=1e-2, grad_clip_norm=clip,
        )
        serial = GPTModel(CFG, seed=0)
        opt = Adam(serial.parameters(), lr=1e-2)
        for _ in range(3):
            lp = par_t.train_step(ids, targets)
            serial.zero_grad()
            ls, caches = serial.loss(ids, targets)
            serial.loss_backward(caches)
            sq = sum(float(np.sum(p.grad**2)) for p in serial.parameters())
            norm = np.sqrt(sq)
            if norm > clip:
                for p in serial.parameters():
                    p.grad *= clip / norm
            opt.step()
            assert lp == pytest.approx(ls, rel=1e-10)
            assert par_t.last_grad_norm == pytest.approx(norm, rel=1e-9)

    def test_clip_noop_below_threshold(self):
        ids, targets = batch()
        t = PTDTrainer(
            CFG,
            ParallelConfig(microbatch_size=1, global_batch_size=8),
            seed=0, lr=1e-2, grad_clip_norm=1e9,
        )
        base = PTDTrainer(
            CFG, ParallelConfig(microbatch_size=1, global_batch_size=8),
            seed=0, lr=1e-2,
        )
        for _ in range(2):
            assert t.train_step(ids, targets) == base.train_step(ids, targets)

    def test_validation(self):
        with pytest.raises(ValueError):
            PTDTrainer(CFG, ParallelConfig(microbatch_size=1, global_batch_size=8),
                       grad_clip_norm=0.0)
        with pytest.raises(ValueError):
            PTDTrainer(CFG, ParallelConfig(microbatch_size=1, global_batch_size=8),
                       loss_scale=0.0)

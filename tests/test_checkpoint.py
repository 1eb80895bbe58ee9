"""Tests for distributed checkpointing: exact resume, resharding,
atomic commits, integrity verification, and the run-level store."""

import json
import os

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


def make_trainer(p=2, t=2, d=2, v=1, seed=0, B=8, backend=None):
    return PTDTrainer(
        CFG,
        ParallelConfig(
            pipeline_parallel_size=p, tensor_parallel_size=t,
            data_parallel_size=d, microbatch_size=1, global_batch_size=B,
            num_model_chunks=v,
        ),
        schedule="interleaved" if v > 1 else "1f1b",
        seed=seed, lr=1e-2, backend=backend,
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
    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("damage", ["missing parameter",
                                        "shape mismatch for"])
    def test_bad_model_weight_is_corrupt_and_named(self, tmp_path, t, damage):
        """A model.npz without a weight or with one of the wrong shape,
        its digests re-recorded so that it verifies, is corrupt, named,
        and loads nothing -- at every t."""
        save_checkpoint(make_trainer(t=t, d=1), str(tmp_path))
        with np.load(tmp_path / "model.npz") as data:
            arrays = {k: data[k] for k in data.files}
        name = "blocks.1.ln2.gamma"
        if damage == "missing parameter":
            del arrays[name]
        else:
            arrays[name] = arrays[name][:1]
        _rewrite(str(tmp_path), "model.npz", arrays)
        b = make_trainer(t=t, d=1, seed=3)
        before = b.gather_state_dict()
        with pytest.raises(CheckpointCorruptError,
                           match=rf"model\.npz: {damage} {name}\b"):
            load_checkpoint(b, str(tmp_path))
        after = b.gather_state_dict()
        assert all(np.array_equal(before[k], after[k]) for k in before)

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
        """Only format 4 is read: the older formats 1-3 are refused like
        an unknown one, by name, whatever their files hold."""
        save_checkpoint(make_trainer(), str(tmp_path))
        for version in (1, 2, 3, 99):
            _edit_metadata(str(tmp_path), format_version=version)
            with pytest.raises(CheckpointMismatchError,
                               match=rf"unknown checkpoint format {version}\b"):
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

    def test_flipped_optimizer_shard_fails_the_load(self, tmp_path):
        """A flipped byte inside the zip payload may still unpickle; the
        load's integrity check refuses it anyway."""
        a = make_trainer()
        ids, targets = batch()
        a.train_step(ids, targets)
        save_checkpoint(a, str(tmp_path))
        # Corrupt an optimizer shard only; model.npz stays intact.
        path = tmp_path / "optimizer_rank0.npz"
        blob = bytearray(path.read_bytes())
        blob[len(blob) // 2] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(CheckpointCorruptError,
                           match="optimizer_rank0.npz fails integrity"):
            load_checkpoint(make_trainer(), str(tmp_path))


def _write_metadata(directory, edit):
    """Replace a committed checkpoint's metadata.json with ``edit`` of
    its parsed contents."""
    meta_path = os.path.join(directory, "metadata.json")
    with open(meta_path) as f:
        doc = edit(json.load(f))
    with open(meta_path, "w") as f:
        json.dump(doc, f)


def _edit_metadata(directory, **fields):
    """Set top-level fields of a committed checkpoint's metadata.json."""
    _write_metadata(directory, lambda meta: {**meta, **fields})


def _rewrite(directory, name, arrays):
    """Replace one file of a committed checkpoint, re-recording its
    digests so only the content is changed."""
    from repro.parallel.checkpoint import _file_digests

    np.savez(os.path.join(directory, name), **arrays)
    meta_path = os.path.join(directory, "metadata.json")
    with open(meta_path) as f:
        files = json.load(f)["files"]
    files[name] = _file_digests(os.path.join(directory, name))
    _edit_metadata(directory, files=files)


def _set(path, value):
    """``meta`` with the field at ``path`` (a tuple of keys) replaced."""
    def edit(meta):
        node = meta
        for key in path[:-1]:
            node = node[key]
        node[path[-1]] = value
        return meta
    return edit


#: metadata.json documents that parse but have the wrong shape, each
#: with the field its CheckpointCorruptError must name.
MALFORMED = {
    "null": (lambda meta: None, "not a JSON object"),
    "list": (lambda meta: [], "not a JSON object"),
    "string": (lambda meta: "x", "not a JSON object"),
    "iteration-string": (_set(("iteration",), "x"), "'iteration'"),
    "iteration-null": (_set(("iteration",), None), "'iteration'"),
    "iteration-bool": (_set(("iteration",), True), "'iteration'"),
    "iteration-float": (_set(("iteration",), 1.0), "'iteration'"),
    "model-list": (_set(("model",), []), "'model'"),
    "parallel-string": (_set(("parallel",), "p2"), "'parallel'"),
    "files-list": (_set(("files",), []), "'files'"),
    "files-entry-string": (_set(("files", "model.npz"), "x"), "'files'"),
    "files-entry-null": (_set(("files", "optimizer_rank1.npz"), None),
                         "'files'"),
    "no-files": (lambda meta: {k: v for k, v in meta.items()
                               if k != "files"}, "'files'"),
}


class TestMalformedMetadata:
    """A metadata.json that parses but has the wrong shape is corrupt,
    named, and never escapes the CheckpointError hierarchy."""

    @pytest.mark.parametrize("case", sorted(MALFORMED))
    def test_is_corrupt_and_named(self, tmp_path, case):
        edit, field = MALFORMED[case]
        save_checkpoint(make_trainer(), str(tmp_path))
        _write_metadata(str(tmp_path), edit)
        with pytest.raises(CheckpointCorruptError,
                           match=rf"metadata\.json.*{field}"):
            load_checkpoint(make_trainer(), str(tmp_path))

    def test_a_file_the_manifest_does_not_record_is_not_read(self, tmp_path):
        save_checkpoint(make_trainer(), str(tmp_path))
        _write_metadata(str(tmp_path), lambda meta: {
            **meta, "files": {k: v for k, v in meta["files"].items()
                              if k != "optimizer_rank1.npz"}})
        with pytest.raises(CheckpointCorruptError,
                           match="does not record optimizer_rank1.npz"):
            load_checkpoint(make_trainer(), str(tmp_path))

    @pytest.mark.parametrize("case", ["null", "iteration-string",
                                      "files-entry-string"])
    def test_restore_falls_back_past_it(self, tmp_path, case):
        store = CheckpointStore(str(tmp_path), keep_last=3)
        t = make_trainer()
        for _ in range(2):
            t.train_step(*batch())
            store.save(t)
        _write_metadata(store.path_for(2), MALFORMED[case][0])
        result = store.restore(make_trainer(seed=9))
        assert result.iteration == 1
        assert [it for it, _ in result.skipped] == [2]
        assert "metadata.json" in result.skipped[0][1]


#: Any JSON value, with the format versions ever written among them.
JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.sampled_from([1, 2, 3, 4, 99])
    | st.integers(-2, 2**40) | st.floats(allow_nan=False)
    | st.text(max_size=6),
    lambda inner: (st.lists(inner, max_size=3)
                   | st.dictionaries(st.text(max_size=6), inner,
                                     max_size=3)),
    max_leaves=6,
)
DELETE = object()
#: Paths into a committed metadata.json: every key the writer emits and
#: one unknown key per level.
METADATA_PATHS = (
    [("format_version",), ("iteration",), ("model",), ("parallel",),
     ("files",), ("extra",)]
    + [("model", k) for k in ("num_layers", "hidden_size", "vocab_size",
                              "extra")]
    + [("parallel", k) for k in ("p", "t", "d", "B", "extra")]
    + [("files", name) for name in ("model.npz", "optimizer_rank0.npz",
                                    "optimizer_rank1.npz", "", "..",
                                    "metadata.json")]
    + [("files", name, k) for name in ("model.npz", "optimizer_rank1.npz")
       for k in ("size", "crc32", "sha256")]
)
METADATA_EDITS = st.lists(
    st.tuples(st.sampled_from(METADATA_PATHS),
              st.just(DELETE) | JSON_VALUES),
    max_size=3,
)


def _apply_edits(meta, edits, whole):
    """``meta`` after ``edits`` (each sets or deletes the field at a
    path whose parent is still an object), or ``whole`` if given."""
    if whole is not DELETE:
        return whole
    for path, value in edits:
        node = meta
        for key in path[:-1]:
            node = node.get(key) if isinstance(node, dict) else None
        if not isinstance(node, dict):
            continue
        if value is DELETE:
            node.pop(path[-1], None)
        else:
            node[path[-1]] = value
    return meta


@pytest.fixture(scope="module")
def two_snapshots(tmp_path_factory):
    """A store holding verified snapshots 1 and 2 (d = 2), the pristine
    metadata of snapshot 2, and a trainer to load them into."""
    store = CheckpointStore(str(tmp_path_factory.mktemp("manifest")),
                            keep_last=2)
    trainer = make_trainer(p=2, t=1, d=2)
    for _ in range(2):
        trainer.train_step(*batch())
        store.save(trainer)
    with open(os.path.join(store.path_for(2), "metadata.json")) as f:
        pristine = json.load(f)
    return store, pristine, make_trainer(p=2, t=1, d=2, seed=5)


class TestMetadataProperty:
    """Whatever metadata.json holds, a load either succeeds or raises a
    CheckpointError, and a restore either restores or raises
    CheckpointNotFoundError -- here, with a verified older snapshot on
    disk, it always restores, from the edited one or past it."""

    @settings(max_examples=60, deadline=None)
    @given(edits=METADATA_EDITS,
           whole=st.just(DELETE) | st.just(DELETE) | JSON_VALUES)
    def test_every_document_loads_or_raises_a_checkpoint_error(
            self, two_snapshots, edits, whole):
        store, pristine, trainer = two_snapshots
        doc = _apply_edits(json.loads(json.dumps(pristine)), edits, whole)
        path = store.path_for(2)
        with open(os.path.join(path, "metadata.json"), "w") as f:
            json.dump(doc, f)
        try:
            restored = load_checkpoint(trainer, path)
        except CheckpointError:
            loads = False
        else:
            loads = True
            assert restored in (True, False)
            assert trainer.iteration == doc["iteration"]
        result = store.restore(trainer)  # snapshot 1 always verifies
        if loads:
            assert (result.iteration, result.skipped) == (2, [])
        else:
            assert result.iteration == 1
            assert [it for it, _ in result.skipped] == [2]


class TestShardedOptimizerState:
    """``optimizer_rank<r>.npz`` holds rank r's moments over its range
    of the flat parameter vector."""

    #: (p, t, d): tensor-parallel shards, a two-shard tied embedding,
    #: and ranges that cut parameters unevenly at d = 3
    GRIDS = ((2, 2, 2), (2, 1, 2), (2, 1, 3))

    @pytest.mark.parametrize("p,t,d", GRIDS)
    def test_restores_and_continues_bit_identically(self, tmp_path, p, t, d):
        ids, targets = batch(B=6 * d)
        a = make_trainer(p=p, t=t, d=d, B=6 * d)
        for _ in range(2):
            a.train_step(ids, targets)
        save_checkpoint(a, str(tmp_path))
        b = make_trainer(p=p, t=t, d=d, B=6 * d, seed=99)
        assert load_checkpoint(b, str(tmp_path)) is True
        for want, got in zip(a.optimizers, b.optimizers):
            assert np.array_equal(want.m, got.m)
            assert np.array_equal(want.v, got.v)
            assert want.step_count == got.step_count
        for _ in range(2):
            assert a.train_step(ids, targets) == b.train_step(ids, targets)
        sa, sb = a.gather_state_dict(), b.gather_state_dict()
        for name in sa:
            assert np.array_equal(sa[name], sb[name]), name

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


def _trainer_state(trainer):
    """Everything a restore writes, copied."""
    return [trainer.iteration,
            *(opt.step_count for opt in trainer.optimizers),
            *(r.flat_data.copy() for r in trainer.replicas),
            *(opt.m.copy() for opt in trainer.optimizers),
            *(opt.v.copy() for opt in trainer.optimizers)]


def _damage(directory, kind, d):
    """Break the last file a restore reads in the way ``kind`` names,
    re-recording its digests where it still exists."""
    name = "model.npz" if kind == "model shape" else f"optimizer_rank{d - 1}.npz"
    if kind == "missing file":
        os.remove(os.path.join(directory, name))
        return
    with np.load(os.path.join(directory, name)) as data:
        arrays = {k: data[k] for k in data.files}
    if kind == "model shape":
        arrays["blocks.3.mlp.fc2.bias"] = arrays["blocks.3.mlp.fc2.bias"][:-1]
    elif kind == "missing array":
        del arrays["v"]
    elif kind == "wrong shape":
        arrays["v"] = arrays["v"][:-1]
    else:
        arrays["step_count"] = np.array(float(arrays["step_count"]))
    _rewrite(directory, name, arrays)


class TestRestoreIsAllOrNothing:
    """A refused restore leaves every replica's weights, every rank's
    moments and step count, and the iteration as they were, whichever
    part of the checkpoint is bad: everything is checked before anything
    is written."""

    KINDS = ("missing file", "missing array", "wrong shape",
             "non-integer step_count", "model shape")

    @pytest.mark.parametrize("kind", KINDS)
    @pytest.mark.parametrize("backend,d", [("coop", 1), ("coop", 2),
                                           ("mp", 2)])
    def test_a_refused_restore_writes_nothing(self, tmp_path, kind,
                                              backend, d):
        ids, targets = batch()
        a = make_trainer(d=d)
        for _ in range(2):
            a.train_step(ids, targets)
        save_checkpoint(a, str(tmp_path))
        _damage(str(tmp_path), kind, d)
        with make_trainer(d=d, seed=3, backend=backend) as b:
            b.train_step(*batch(seed=1))
            before = _trainer_state(b)
            with pytest.raises(CheckpointCorruptError):
                load_checkpoint(b, str(tmp_path))
            after = _trainer_state(b)
        assert all(np.array_equal(x, y) for x, y in zip(before, after,
                                                         strict=True))

    def test_a_non_integer_step_count_is_named(self, tmp_path):
        save_checkpoint(make_trainer(), str(tmp_path))
        _damage(str(tmp_path), "non-integer step_count", 2)
        with pytest.raises(CheckpointCorruptError,
                           match=r"optimizer_rank1\.npz holds step_count "
                                 r"array\(0\.\), not one integer"):
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
        """The benchmark-baseline writer produces a loadable checkpoint,
        just without crash safety."""
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

    def test_restore_skips_an_old_format_snapshot(self, tmp_path):
        store = CheckpointStore(str(tmp_path), keep_last=3)
        t = make_trainer()
        self.run_to(t, 1)
        store.save(t)
        self.run_to(t, 1)
        store.save(t)
        _edit_metadata(store.path_for(2), format_version=3)
        result = store.restore(make_trainer(seed=9))
        assert result.iteration == 1
        ((iteration, reason),) = result.skipped
        assert iteration == 2
        assert "unknown checkpoint format 3" in reason

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

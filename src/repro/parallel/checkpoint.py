"""Durable distributed checkpointing for the numeric PTD-P engine (§5.10).

Layout on disk::

    <directory>/
      metadata.json            # architecture, parallel config, iteration,
                               # and per-file integrity digests
      model.npz                # serial-layout (gathered) weights
      optimizer_rank<r>.npz    # data-parallel rank r's Adam state:
                               # ``m`` and ``v`` over the range of the
                               # flat parameter vector it owns

Only the current ``format_version`` (:data:`FORMAT_VERSION`) is read;
a checkpoint written in any other format is refused by name.

Two resume modes, mirroring what real systems support:

- **same parallel configuration**: weights *and* Adam moments restore,
  so resumed training is bit-identical to uninterrupted training
  (tested);
- **different (p, t, d, v)** ("resharding"): the gathered weights load
  into any configuration of the same architecture; optimizer state is
  reset (the function reports this via its return value).

Crash consistency follows the discipline of production checkpoint
stacks (CheckFreq, Mohan et al., FAST '21): a checkpoint is staged into
a temp directory on the same filesystem, every file is fsynced and its
CRC32/SHA256 recorded in ``metadata.json`` (written last), and the
whole directory is published with a single ``rename``.  A reader can
therefore never observe a half-written checkpoint, and
:func:`verify_checkpoint` can prove, offline, that a checkpoint on disk
is exactly what the writer committed.

:class:`CheckpointStore` layers run-level management on top: numbered
``step-<iteration>`` snapshots under one root, a ``LATEST`` pointer
that is advanced only after the committed checkpoint passes integrity
verification, last-*k* retention with garbage collection, and
newest-verified-first restore that skips corrupted snapshots.

All failure modes raise from one hierarchy rooted at
:class:`CheckpointError`; the subclasses double as the builtin types
callers historically caught (``FileNotFoundError`` for a missing
checkpoint, ``ValueError`` for a format/architecture mismatch,
``OSError`` for corruption and commit refusals).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import tempfile
import zipfile
import zlib
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from repro.config import GPTConfig, ParallelConfig

from .trainer import PTDTrainer

FORMAT_VERSION = 4
_LATEST = "LATEST"
_STEP_PREFIX = "step-"


class CheckpointError(Exception):
    """Base class for every checkpoint failure mode."""


class CheckpointNotFoundError(CheckpointError, FileNotFoundError):
    """No checkpoint exists where one was requested."""


class CheckpointCorruptError(CheckpointError, OSError):
    """A checkpoint exists but fails integrity verification: missing or
    truncated files, checksum mismatches, unreadable arrays, or
    optimizer shards whose shapes disagree with the metadata."""


class CheckpointMismatchError(CheckpointError, ValueError):
    """A (valid) checkpoint is incompatible with the requested load:
    unknown format version or a different model architecture."""


class CheckpointCommitError(CheckpointError, OSError):
    """Refusing to commit: the target exists and is not a recognised
    checkpoint (or empty directory), so overwriting it would destroy
    unrelated data."""


def _parallel_signature(parallel: ParallelConfig) -> dict:
    return {
        "p": parallel.pipeline_parallel_size,
        "t": parallel.tensor_parallel_size,
        "d": parallel.data_parallel_size,
        "b": parallel.microbatch_size,
        "B": parallel.global_batch_size,
        "v": parallel.num_model_chunks,
    }


def _model_signature(config: GPTConfig) -> dict:
    return {
        "num_layers": config.num_layers,
        "hidden_size": config.hidden_size,
        "num_attention_heads": config.num_attention_heads,
        "vocab_size": config.vocab_size,
        "seq_length": config.seq_length,
        "ffn_hidden_size": config.ffn_hidden_size,
    }


# -- integrity ---------------------------------------------------------------


def _file_digests(path: str, chunk_size: int = 1 << 20) -> dict:
    crc = 0
    sha = hashlib.sha256()
    size = 0
    with open(path, "rb") as f:
        while True:
            chunk = f.read(chunk_size)
            if not chunk:
                break
            crc = zlib.crc32(chunk, crc)
            sha.update(chunk)
            size += len(chunk)
    return {
        "size": size,
        "crc32": format(crc & 0xFFFFFFFF, "08x"),
        "sha256": sha.hexdigest(),
    }


def _fsync_file(path: str) -> None:
    fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _fsync_dir(path: str) -> None:
    flags = os.O_RDONLY | getattr(os, "O_DIRECTORY", 0)
    try:
        fd = os.open(path, flags)
    except OSError:  # pragma: no cover - platform without dir fds
        return
    try:
        os.fsync(fd)
    finally:
        os.close(fd)


def _read_metadata(directory: str) -> dict:
    """Parse ``metadata.json`` and check its shape; raises the
    appropriate hierarchy error.

    Only format :data:`FORMAT_VERSION` is read: any other version is a
    :class:`CheckpointMismatchError` naming it.  A document that parses
    but has the wrong shape is a :class:`CheckpointCorruptError` naming
    the field, never an ``AttributeError`` or ``TypeError``.
    """
    if not os.path.isdir(directory):
        raise CheckpointNotFoundError(f"no checkpoint at {directory}")
    meta_path = os.path.join(directory, "metadata.json")
    if not os.path.exists(meta_path):
        raise CheckpointCorruptError(
            f"checkpoint {directory} has no metadata.json"
        )
    try:
        with open(meta_path) as f:
            meta = json.load(f)
    except (ValueError, RecursionError, OSError) as exc:
        raise CheckpointCorruptError(
            f"checkpoint {directory}: unreadable metadata.json: {exc}"
        ) from exc

    where = f"checkpoint {directory}: metadata.json"
    if not isinstance(meta, dict):
        raise CheckpointCorruptError(f"{where} is not a JSON object")
    version = meta.get("format_version")
    if type(version) is not int or version != FORMAT_VERSION:
        raise CheckpointMismatchError(
            f"checkpoint {directory}: unknown checkpoint format "
            f"{version!r} (this reader takes format {FORMAT_VERSION} only)"
        )
    for key in ("iteration", "model", "parallel", "files"):
        if key not in meta:
            raise CheckpointCorruptError(f"{where} is missing {key!r}")
    if type(meta["iteration"]) is not int:  # bools are refused too
        raise CheckpointCorruptError(
            f"{where}: 'iteration' is not an integer: {meta['iteration']!r}"
        )
    for key in ("model", "parallel"):
        if not isinstance(meta[key], dict):
            raise CheckpointCorruptError(f"{where}: {key!r} is not an object")
    files = meta["files"]
    if not isinstance(files, dict) or not all(
        isinstance(want, dict) for want in files.values()
    ):
        raise CheckpointCorruptError(
            f"{where}: 'files' is not an object of objects"
        )
    if "model.npz" not in files:
        raise CheckpointCorruptError(
            f"{where}: 'files' does not record model.npz"
        )
    return meta


def verify_checkpoint(directory: str) -> dict:
    """Prove a committed checkpoint is intact; returns its metadata.

    Every file recorded in the metadata must exist with the recorded
    size, CRC32, and SHA256.  Raises :class:`CheckpointNotFoundError` /
    :class:`CheckpointCorruptError` / :class:`CheckpointMismatchError`.
    """
    meta = _read_metadata(directory)
    for name, want in meta["files"].items():
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            raise CheckpointCorruptError(
                f"checkpoint {directory} is missing {name}"
            )
        try:
            got = _file_digests(path)
        except OSError as exc:
            raise CheckpointCorruptError(
                f"checkpoint {directory}: unreadable {name}: {exc}"
            ) from exc
        for key in ("size", "crc32", "sha256"):
            if got[key] != want.get(key):
                raise CheckpointCorruptError(
                    f"checkpoint {directory}: {name} fails integrity "
                    f"verification ({key} {got[key]!r} != recorded "
                    f"{want.get(key)!r})"
                )
    return meta


# -- save --------------------------------------------------------------------


def _write_checkpoint_files(
    trainer: PTDTrainer, directory: str, *, durable: bool
) -> dict:
    """Write model/optimizer files into ``directory``; returns metadata."""
    state = trainer.gather_state_dict()
    model_path = os.path.join(directory, "model.npz")
    np.savez(model_path, **state)
    filenames = ["model.npz"]
    # Optimizer state: each rank's moments over its owned range.
    for r, opt in enumerate(trainer.optimizers):
        name = f"optimizer_rank{r}.npz"
        np.savez(os.path.join(directory, name),
                 step_count=np.array(opt.step_count), m=opt.m, v=opt.v)
        filenames.append(name)
    meta = {
        "format_version": FORMAT_VERSION,
        "iteration": trainer.iteration,
        "model": _model_signature(trainer.config),
        "parallel": _parallel_signature(trainer.parallel),
        "files": {
            name: _file_digests(os.path.join(directory, name))
            for name in filenames
        },
    }
    if durable:
        for name in filenames:
            _fsync_file(os.path.join(directory, name))
    meta_path = os.path.join(directory, "metadata.json")
    with open(meta_path, "w") as f:
        json.dump(meta, f, indent=2)
    if durable:
        _fsync_file(meta_path)
        _fsync_dir(directory)
    return meta


def is_checkpoint_dir(directory: str) -> bool:
    """True if ``directory`` looks like a committed checkpoint in the
    current format -- the only kind of existing directory
    :func:`save_checkpoint` will replace (besides an empty one)."""
    try:
        _read_metadata(directory)
    except CheckpointError:
        return False
    return True


def _check_replaceable(directory: str) -> None:
    if not os.path.isdir(directory):
        raise CheckpointCommitError(
            f"refusing to commit over {directory}: exists and is not a "
            f"directory"
        )
    if os.listdir(directory) and not is_checkpoint_dir(directory):
        raise CheckpointCommitError(
            f"refusing to commit over {directory}: existing directory is "
            f"not a recognised checkpoint"
        )


def save_checkpoint(
    trainer: PTDTrainer,
    directory: str,
    *,
    atomic: bool = True,
    fault_hook: Callable[[str], None] | None = None,
) -> dict:
    """Write a checkpoint of ``trainer`` to ``directory``; returns the
    committed metadata.

    With ``atomic=True`` (the default) the checkpoint is staged in a
    sibling temp directory, checksummed, fsynced, and published with a
    single rename -- an interrupted save never leaves a partial
    checkpoint at ``directory``.  The target may only already exist as
    an empty directory or a previous checkpoint
    (:class:`CheckpointCommitError` otherwise).

    ``atomic=False`` is the pre-hardening writer (direct in-place file
    writes, no fsync), retained as the baseline for
    ``benchmarks/bench_chaos.py``'s commit-overhead measurement.

    ``fault_hook`` is the chaos-injection point: it is called with the
    stage names ``"write"`` (before any file exists), ``"pre-commit"``
    (temp directory fully written, nothing published), and
    ``"post-commit"`` (rename done); any exception it raises aborts the
    save at exactly that point, cleaning up staged state.
    """
    hook = fault_hook if fault_hook is not None else (lambda stage: None)
    if not atomic:
        hook("write")
        os.makedirs(directory, exist_ok=True)
        meta = _write_checkpoint_files(trainer, directory, durable=False)
        hook("pre-commit")
        hook("post-commit")
        return meta

    parent = os.path.dirname(os.path.abspath(directory))
    os.makedirs(parent, exist_ok=True)
    if os.path.lexists(directory):
        _check_replaceable(directory)
    hook("write")
    tmp = tempfile.mkdtemp(
        prefix=os.path.basename(directory) + ".tmp-", dir=parent
    )
    displaced = None
    try:
        meta = _write_checkpoint_files(trainer, tmp, durable=True)
        hook("pre-commit")
        if os.path.lexists(directory):
            _check_replaceable(directory)  # re-check: races with writers
            displaced = tempfile.mkdtemp(
                prefix=os.path.basename(directory) + ".old-", dir=parent
            )
            os.rmdir(displaced)
            os.rename(directory, displaced)
        os.rename(tmp, directory)
        _fsync_dir(parent)
        hook("post-commit")
    except BaseException:
        shutil.rmtree(tmp, ignore_errors=True)
        if displaced is not None and not os.path.lexists(directory):
            os.rename(displaced, directory)
            displaced = None
        raise
    finally:
        if displaced is not None:
            shutil.rmtree(displaced, ignore_errors=True)
    return meta


# -- load --------------------------------------------------------------------


def _load_npz(directory: str, name: str,
              files: dict) -> dict[str, np.ndarray]:
    """Arrays of file ``name``, which the verified manifest ``files``
    must record: a load reads nothing :func:`verify_checkpoint` did not
    check."""
    if name not in files:
        raise CheckpointCorruptError(
            f"checkpoint {directory}: metadata.json does not record {name}"
        )
    try:
        with np.load(os.path.join(directory, name)) as data:
            return {k: data[k] for k in data.files}
    except (zipfile.BadZipFile, ValueError, OSError, EOFError) as exc:
        raise CheckpointCorruptError(
            f"checkpoint {directory}: unreadable {name}: {exc}"
        ) from exc


def load_checkpoint(trainer: PTDTrainer, directory: str) -> bool:
    """Restore ``trainer`` from ``directory``, all or nothing.

    Returns True if the optimizer state was restored (same parallel
    configuration), False if only weights were loaded (resharded resume;
    the caller's fresh optimizer state is kept).  Everything is read and
    checked before anything is written: every file's recorded checksums,
    the weights against every replica's shapes and, when the optimizer
    state is restored, each rank's ``m`` and ``v`` (present, shaped to
    the rank's range) and ``step_count`` (one integer).  So a refused
    checkpoint -- :class:`CheckpointCorruptError`, or
    :class:`CheckpointMismatchError` for another architecture -- leaves
    the trainer as it found it.  What is staged is the arrays the load
    reads anyway, so the peak is one checkpoint's arrays, as before.
    """
    meta = verify_checkpoint(directory)
    files = meta["files"]
    if meta["model"] != _model_signature(trainer.config):
        raise CheckpointMismatchError(
            "checkpoint architecture mismatch: "
            f"{meta['model']} vs {_model_signature(trainer.config)}"
        )
    state = _load_npz(directory, "model.npz", files)
    try:
        for replica in trainer.replicas:
            replica.check_gathered_state_dict(state)
    except ValueError as exc:  # a missing or wrong-shaped weight, named
        raise CheckpointCorruptError(
            f"checkpoint {directory}: model.npz: {exc}"
        ) from exc
    same_parallel = meta["parallel"] == _parallel_signature(trainer.parallel)
    shards = ([_optimizer_shard(directory, r, opt.m.size, files)
               for r, opt in enumerate(trainer.optimizers)]
              if same_parallel else [])
    # Commit: nothing below can raise.
    for replica in trainer.replicas:
        replica.load_gathered_state_dict(state)
    trainer.iteration = meta["iteration"]
    for opt, (m, v, step_count) in zip(trainer.optimizers, shards):
        opt.m[...] = m
        opt.v[...] = v
        opt.step_count = step_count
    return same_parallel


def _optimizer_shard(directory: str, r: int, owned: int,
                     files: dict) -> tuple[np.ndarray, np.ndarray, int]:
    """``(m, v, step_count)`` of rank ``r``'s optimizer file, checked
    against the ``owned`` elements of the rank's range."""
    arrays = _load_npz(directory, f"optimizer_rank{r}.npz", files)
    for key in ("m", "v"):
        arr = _shard_array(directory, r, arrays, key)
        if arr.shape != (owned,) or arr.dtype.kind != "f":
            raise CheckpointCorruptError(
                f"checkpoint {directory}: optimizer_rank{r}.npz "
                f"holds {key} of shape {arr.shape} and dtype {arr.dtype}; "
                f"rank {r} owns {owned} elements"
            )
    step_count = _shard_array(directory, r, arrays, "step_count")
    if step_count.shape or step_count.dtype.kind not in "iu":
        raise CheckpointCorruptError(
            f"checkpoint {directory}: optimizer_rank{r}.npz holds "
            f"step_count {step_count!r}, not one integer"
        )
    return arrays["m"], arrays["v"], int(step_count)


def _shard_array(directory: str, r: int, arrays: dict,
                 name: str) -> np.ndarray:
    """Array ``name`` of rank ``r``'s optimizer file."""
    if name not in arrays:
        raise CheckpointCorruptError(
            f"checkpoint {directory}: optimizer_rank{r}.npz is missing "
            f"array {name!r}"
        )
    return arrays[name]


# -- run-level store ---------------------------------------------------------


@dataclass
class RestoreResult:
    """What :meth:`CheckpointStore.restore` actually restored."""

    iteration: int
    path: str
    optimizer_restored: bool
    #: (iteration, error message) for every newer checkpoint skipped
    #: because it failed integrity verification or could not be loaded.
    skipped: list[tuple[int, str]] = field(default_factory=list)


class CheckpointStore:
    """Numbered checkpoints under one root with a verified ``LATEST``
    pointer, last-*k* retention, and corruption-skipping restore.

    ``save_fault`` is the chaos hook: called as ``save_fault(iteration,
    stage)`` at each :func:`save_checkpoint` stage plus ``"pre-latest"``
    (checkpoint committed and verified, pointer not yet advanced); an
    exception aborts the save at that point.  Because the pointer is
    only advanced after the committed checkpoint passes
    :func:`verify_checkpoint`, ``LATEST`` never names a checkpoint that
    fails integrity verification at commit time.
    """

    def __init__(
        self,
        root: str,
        *,
        keep_last: int = 2,
        save_fault: Callable[[int, str], None] | None = None,
    ):
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.root = root
        self.keep_last = keep_last
        self.save_fault = save_fault

    def path_for(self, iteration: int) -> str:
        return os.path.join(self.root, f"{_STEP_PREFIX}{iteration:08d}")

    def iterations(self) -> list[int]:
        """Committed checkpoint iterations, ascending."""
        if not os.path.isdir(self.root):
            return []
        found = []
        for name in os.listdir(self.root):
            if not name.startswith(_STEP_PREFIX):
                continue
            suffix = name[len(_STEP_PREFIX):]
            if suffix.isdigit() and os.path.isdir(
                os.path.join(self.root, name)
            ):
                found.append(int(suffix))
        return sorted(found)

    def latest_iteration(self) -> int | None:
        """Iteration named by the ``LATEST`` pointer, if it resolves."""
        path = os.path.join(self.root, _LATEST)
        try:
            with open(path) as f:
                name = f.read().strip()
        except OSError:
            return None
        if not name.startswith(_STEP_PREFIX):
            return None
        suffix = name[len(_STEP_PREFIX):]
        if not suffix.isdigit():
            return None
        iteration = int(suffix)
        if not os.path.isdir(self.path_for(iteration)):
            return None
        return iteration

    def _write_latest(self, iteration: int) -> None:
        os.makedirs(self.root, exist_ok=True)
        tmp = os.path.join(self.root, _LATEST + ".tmp")
        with open(tmp, "w") as f:
            f.write(f"{_STEP_PREFIX}{iteration:08d}\n")
        _fsync_file(tmp)
        os.replace(tmp, os.path.join(self.root, _LATEST))
        _fsync_dir(self.root)

    def save(self, trainer: PTDTrainer) -> str:
        """Commit a verified checkpoint of ``trainer``, advance
        ``LATEST``, and garbage-collect old snapshots; returns the
        committed path."""
        iteration = trainer.iteration
        target = self.path_for(iteration)
        os.makedirs(self.root, exist_ok=True)
        hook = None
        if self.save_fault is not None:
            fault = self.save_fault

            def hook(stage: str) -> None:
                fault(iteration, stage)

        save_checkpoint(trainer, target, fault_hook=hook)
        verify_checkpoint(target)
        if hook is not None:
            hook("pre-latest")
        self._write_latest(iteration)
        self.garbage_collect()
        return target

    def garbage_collect(self) -> list[int]:
        """Remove snapshots beyond the newest ``keep_last`` (never the
        one ``LATEST`` points at); returns the removed iterations."""
        iterations = self.iterations()
        keep = set(iterations[-self.keep_last:])
        latest = self.latest_iteration()
        if latest is not None:
            keep.add(latest)
        removed = []
        for iteration in iterations:
            if iteration not in keep:
                shutil.rmtree(self.path_for(iteration), ignore_errors=True)
                removed.append(iteration)
        return removed

    def restore(self, trainer: PTDTrainer) -> RestoreResult:
        """Restore ``trainer`` from the newest checkpoint that passes
        integrity verification, skipping (and reporting) corrupted ones.

        The ``LATEST`` pointer is a hint, not an authority: candidates
        are every committed snapshot, newest first, so a corrupted
        newest checkpoint falls back to an older verified one.  Raises
        :class:`CheckpointNotFoundError` when no usable checkpoint
        remains.
        """
        skipped: list[tuple[int, str]] = []
        candidates = sorted(self.iterations(), reverse=True)
        for iteration in candidates:
            path = self.path_for(iteration)
            try:
                optimizer_restored = load_checkpoint(trainer, path)
            except CheckpointError as exc:
                skipped.append((iteration, str(exc)))
                continue
            return RestoreResult(
                iteration=iteration,
                path=path,
                optimizer_restored=optimizer_restored,
                skipped=skipped,
            )
        if skipped:
            raise CheckpointNotFoundError(
                f"no usable checkpoint under {self.root}: all "
                f"{len(skipped)} candidates failed verification"
            )
        raise CheckpointNotFoundError(f"no checkpoints under {self.root}")

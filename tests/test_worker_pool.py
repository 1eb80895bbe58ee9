"""The one worker pool and the one replica step.

- **Liveness** — a worker killed before or during a request ends in one
  ``RuntimeError`` naming the rank that died, within seconds rather than
  after ``POOL_TIMEOUT``, and ``close()`` leaves no shared memory behind;
  the same for ``MpBackend``'s collective pool and the trainer's replica
  workers, because it is one pool.
- **Replica step** — the cooperative loop and a replica worker run the
  same two functions, and the options only those functions read
  (``grad_clip_norm``, ``loss_scale``) stay bit-identical across
  backends.
- **One copy of the state** — each worker steps and keeps only its own
  ring chunk of the Adam state, in its segment; the parent's replicas
  and optimizers are views of the same segments, so after every step
  they equal coop's with no pull, a restore writes every worker's shard
  where it steps it, bit-identical to coop at d = 3, and a closed
  trainer's state stays readable.
- **Forks** — a forked child has none of the mappings replica state
  lives in, and an mp trainer forked while a warm coop trainer exists
  steps like it and loses no worker.
"""

import gc
import mmap
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest

from repro.comm import TrafficLog
from repro.comm.backend import MpBackend
from repro.comm.shm_ring import (
    WorkerPool,
    leaked_dev_shm_segments,
    live_segment_names,
    scratch_segments,
    segment_view,
)
from repro.config import ParallelConfig, tiny_test_model
from repro.nn import WarmupCosineSchedule, heap
from repro.parallel import PTDTrainer, scatter_batch
from repro.parallel.checkpoint import load_checkpoint, save_checkpoint
from repro.parallel import mp_workers
from repro.parallel import trainer as trainer_mod

CONFIG = tiny_test_model(num_layers=2, hidden_size=16, num_attention_heads=4,
                         vocab_size=32, seq_length=8)


def _batch(batch_size, seed=0):
    ids = np.random.default_rng(seed).integers(0, 32, size=(batch_size, 8))
    return ids, np.roll(ids, -1, axis=1)


def _rates(trainer, dp=0):
    """What a step's payload carries after the shard: the parent
    optimizer's rate, betas, eps, weight decay and step count."""
    opt = trainer.optimizers[dp]
    return opt.lr, opt.betas, opt.eps, opt.weight_decay, opt.step_count


@pytest.fixture(autouse=True)
def _no_shm_leaks():
    yield
    assert live_segment_names() == []
    assert leaked_dev_shm_segments() == []


# -- liveness ---------------------------------------------------------------
def _collective_target():
    backend = MpBackend()
    buffers = [np.full(64, float(i)) for i in range(3)]
    backend.all_reduce(buffers, [0, 1, 2])  # spawns the k=3 pool
    return (backend, backend._pools[3],
            lambda: backend.all_reduce(buffers, [0, 1, 2]))


def _trainer_target():
    trainer = PTDTrainer(
        CONFIG,
        ParallelConfig(data_parallel_size=2, microbatch_size=1,
                       global_batch_size=2),
        backend="mp",
    )
    batch = _batch(2)
    trainer.train_step(*batch)
    return trainer, trainer._workers, lambda: trainer.train_step(*batch)


@pytest.mark.parametrize("when", ["before", "mid-call"])
@pytest.mark.parametrize("make_target", [_collective_target, _trainer_target],
                         ids=["MpBackend.all_reduce", "PTDTrainer.train_step"])
def test_killed_worker_is_named_quickly(make_target, when):
    owner, pool, call = make_target()
    victim = pool._procs[1]
    try:
        if when == "before":
            os.kill(victim.pid, signal.SIGKILL)
            victim.join(5.0)
            assert not victim.is_alive()
        else:
            # Stopped, the victim cannot finish its part, so its peers
            # are blocked in the ring when it dies under them.
            os.kill(victim.pid, signal.SIGSTOP)
            killer = threading.Timer(
                0.5, os.kill, (victim.pid, signal.SIGKILL)
            )
            killer.start()
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=r"worker 1 died"):
            call()
        assert time.monotonic() - start < 10.0
        with pytest.raises(RuntimeError, match="closed"):
            call()  # the pool is gone, not wedged
    finally:
        if when == "mid-call":
            killer.join(5.0)
        owner.close()
    assert all(not proc.is_alive() for proc in pool._procs)


def test_worker_error_names_the_worker_and_keeps_the_pool():
    """A worker that raises (here: a segment that does not exist) is a
    reported error, not a death: the pool serves the next request."""
    buffers = [np.arange(6.0), np.ones(6)]
    with MpBackend() as backend:
        want = backend.all_reduce(buffers, [0, 1])
        with pytest.raises(RuntimeError, match=r"worker 0:\n(.|\n)*worker 1:"):
            backend._pools[2].run("all_reduce", [(["nope", "nope"], 6)] * 2)
        got = backend.all_reduce(buffers, [0, 1])
    assert np.array_equal(want[0], got[0])


def test_pool_timeout_bounds_a_silent_worker():
    """``MpBackend(timeout=)`` is the bound on both sides: a worker that
    never answers costs ``timeout`` seconds, not ``POOL_TIMEOUT``."""
    buffers = [np.arange(6.0), np.ones(6)]
    backend = MpBackend(timeout=1.0)
    try:
        backend.all_reduce(buffers, [0, 1])
        victim = backend._pools[2]._procs[0]
        os.kill(victim.pid, signal.SIGSTOP)
        start = time.monotonic()
        with pytest.raises(RuntimeError, match=r"no reply from workers \[0"):
            backend.all_reduce(buffers, [0, 1])
        assert time.monotonic() - start < 10.0
    finally:
        backend.close()


def test_a_parent_build_that_raises_leaves_no_worker(monkeypatch):
    """The replica workers are forked before the parent builds its own
    replicas; when that build raises, the constructor closes the pool:
    no worker is alive and no segment is left."""
    parent = os.getpid()
    build = trainer_mod.ReplicaSpec.build
    pools = []

    class SpiedPool(WorkerPool):
        def __init__(self, *args, **kwargs):
            pools.append(self)
            super().__init__(*args, **kwargs)

    def build_failing_in_parent(spec, dp, log, buffer=None):
        if os.getpid() == parent:
            raise MemoryError("no room for the parent's replicas")
        return build(spec, dp, log, buffer)

    monkeypatch.setattr(trainer_mod, "WorkerPool", SpiedPool)
    monkeypatch.setattr(trainer_mod.ReplicaSpec, "build",
                        build_failing_in_parent)
    with pytest.raises(MemoryError, match="parent's replicas"):
        PTDTrainer(CONFIG, ParallelConfig(
            data_parallel_size=2, microbatch_size=1, global_batch_size=2,
        ), backend="mp")
    [pool] = pools  # the workers existed, and built, before the parent
    assert pool._closed
    assert all(not proc.is_alive() for proc in pool._procs)
    assert live_segment_names() == []
    assert leaked_dev_shm_segments() == []


# -- forks --------------------------------------------------------------------
def _mapped(address: int) -> bool:
    """Whether one of this process's mappings covers ``address``."""
    with open("/proc/self/maps", encoding="ascii") as fh:
        for line in fh:
            lo, hi = (int(x, 16) for x in line.split()[0].split("-"))
            if lo <= address < hi:
                return True
    return False


@pytest.mark.skipif(not hasattr(mmap, "MADV_DONTFORK"),
                    reason="MADV_DONTFORK is Linux's")
def test_a_fork_does_not_copy_replica_state():
    """The child of a fork has no mapping where the parent's replica
    state lives, and releasing the parent's array there unmaps nothing
    the child mapped since.  The child answers through its exit code:
    1 if the state is mapped, 2 if its own new vector was unmapped (a
    fault would end it by signal)."""
    state = heap.unforked_zeros(1 << 16)
    state[:] = 1.0
    address = state.ctypes.data
    assert _mapped(address)
    pid = os.fork()
    if pid == 0:
        code = 3
        try:
            if _mapped(address):
                code = 1
            else:
                own = heap.unforked_zeros(1 << 16)
                own[:] = 2.0
                del state
                gc.collect()
                code = 0 if own.sum() == 2.0 * own.size else 2
        finally:
            os._exit(code)
    _, status = os.waitpid(pid, 0)
    assert os.waitstatus_to_exitcode(status) == 0
    assert state.sum() == state.size


def test_an_mp_trainer_forked_after_a_warm_coop_trainer():
    """Its workers hold nothing of the coop trainer, whose vectors they
    cannot read; they step bit-identically to it and live until
    ``close`` kills them."""
    parallel = ParallelConfig(pipeline_parallel_size=2, data_parallel_size=2,
                              microbatch_size=1, global_batch_size=4)
    batch = _batch(4, seed=4)
    coop = PTDTrainer(CONFIG, parallel)
    want = [coop.train_step(*batch) for _ in range(2)]
    with PTDTrainer(CONFIG, parallel, backend="mp") as trainer:
        procs = trainer._workers._procs
        got = [trainer.train_step(*batch) for _ in range(2)]
        assert [proc.exitcode for proc in procs] == [None, None]
    assert got == want
    assert [proc.exitcode for proc in procs] == [-signal.SIGKILL] * 2


# -- the replica step -----------------------------------------------------------
def test_worker_runs_the_trainers_step_functions(monkeypatch):
    assert mp_workers.forward_backward is trainer_mod.forward_backward
    assert mp_workers.apply_update is trainer_mod.apply_update

    calls = []

    def counted(fn):
        def wrapper(*args):
            calls.append(fn.__name__)
            return fn(*args)
        return wrapper

    for name in ("forward_backward", "apply_update"):
        wrapped = counted(getattr(trainer_mod, name))
        monkeypatch.setattr(trainer_mod, name, wrapped)
        monkeypatch.setattr(mp_workers, name, wrapped)

    parallel = ParallelConfig(pipeline_parallel_size=2, microbatch_size=1,
                              global_batch_size=2)
    batch = _batch(2)
    trainer = PTDTrainer(CONFIG, parallel, grad_clip_norm=0.5)
    rates = _rates(trainer)
    coop_loss = trainer.train_step(*batch)
    assert calls == ["forward_backward", "apply_update"]

    # The op table a replica worker serves, run here instead of in a
    # child over a real segment (d=1: no ring, so the barrier is never
    # waited on).
    n = trainer.spec.flat_size()
    with scratch_segments([mp_workers.segment_bytes(trainer.spec)]) as segs:
        ops = mp_workers.replica_ops(0, 1, None, segs, trainer.spec)
        loss, entries, norm, count, _ = ops["step"]((*batch, *rates))
        params = segment_view(segs[0])[n:2 * n]
    assert calls == ["forward_backward", "apply_update"] * 2
    assert loss == coop_loss and norm == trainer.last_grad_norm
    assert count == trainer.optimizers[0].step_count == 1
    assert entries == trainer.log.entries
    assert np.array_equal(trainer.replicas[0].flat_data, params)


def test_worker_keeps_no_records_between_steps(monkeypatch):
    """The parent logs every entry a step's reply carries, so a worker
    that kept them too would grow its log for as long as it lives."""
    logs = []

    class SpiedLog(TrafficLog):
        def __init__(self):
            super().__init__()
            logs.append(self)

    monkeypatch.setattr(mp_workers, "TrafficLog", SpiedLog)
    parallel = ParallelConfig(pipeline_parallel_size=2, microbatch_size=1,
                              global_batch_size=2)
    trainer = PTDTrainer(CONFIG, parallel)
    batch = _batch(2)
    replies = []
    with scratch_segments([mp_workers.segment_bytes(trainer.spec)]) as segs:
        ops = mp_workers.replica_ops(0, 1, None, segs, trainer.spec)
        (log,) = logs
        for _ in range(3):
            replies.append(ops["step"]((*batch, *_rates(trainer)))[1])
            assert log.entries == []
    trainer.train_step(*batch)
    assert replies == [trainer.log.entries] * 3


def _elements_of(view, array) -> list[int]:
    """Where ``array``'s first element sits in the segment ``view``
    maps: a NaN written through the one shows in the other."""
    first = array.reshape(-1)[:1]
    saved = first.copy()
    first[...] = np.nan
    where = np.flatnonzero(np.isnan(view)).tolist()
    first[...] = saved
    return where


def test_a_workers_replica_lives_in_its_segment(monkeypatch):
    """Two replica op tables, run here on threads over real segments:
    each worker's parameters, gradients and moments are views of its own
    segment (``[grads | params | m | v | ... | norm slot]``), a replica
    the parent builds over that segment shares its memory, and a step
    through the ring, clip included, leaves both workers' replicas and
    the parent's equal to the coop oracle's."""
    built = []
    real_build = trainer_mod.ReplicaSpec.build

    def build(self, *args):
        built.append(real_build(self, *args))
        return built[-1]

    parallel = ParallelConfig(pipeline_parallel_size=2, data_parallel_size=2,
                              microbatch_size=1, global_batch_size=4)
    batch = _batch(4, seed=2)
    trainer = PTDTrainer(CONFIG, parallel, grad_clip_norm=0.05)
    n = trainer.replicas[0].flat_data.size
    monkeypatch.setattr(trainer_mod.ReplicaSpec, "build", build)
    barrier = threading.Barrier(2)
    size = mp_workers.segment_bytes(trainer.spec)
    with scratch_segments([size] * 2) as segs:
        ops = [mp_workers.replica_ops(dp, 2, lambda: barrier.wait(30), segs,
                                      trainer.spec) for dp in range(2)]
        parents = [real_build(trainer.spec, dp, TrafficLog(),
                              segment_view(seg))
                   for dp, seg in enumerate(segs)]
        for (replica, adam), parent, seg in zip(built, parents, segs):
            view = segment_view(seg)
            assert view.size * 8 == size
            offset = 0
            for p in replica.parameters():
                assert _elements_of(view, p.grad) == [offset]
                assert _elements_of(view, p.data) == [n + offset]
                offset += p.size
            k = adam.m.size
            assert _elements_of(view, adam.m) == [2 * n]
            assert _elements_of(view, adam.v) == [2 * n + k]
            assert _elements_of(view, parent[0].flat_data) == [n]
            assert _elements_of(view, parent[1].v) == [2 * n + k]
        shards = scatter_batch(*batch, 2)
        replies = [None, None]

        def step(dp):
            replies[dp] = ops[dp]["step"]((*shards[dp], *_rates(trainer, dp)))

        threads = [threading.Thread(target=step, args=(dp,)) for dp in (0, 1)]
        for th in threads:
            th.start()
        for th in threads:
            th.join(60)
        trainer.train_step(*batch)
        for (replica, _), reply in zip(built, replies):
            assert reply[2] == trainer.last_grad_norm
            assert np.array_equal(replica.flat_data,
                                  trainer.replicas[0].flat_data)
    # the segments are closed and unlinked; the parent's views still read
    for (replica, adam), want in zip(parents, trainer.optimizers):
        assert np.array_equal(replica.flat_data,
                              trainer.replicas[0].flat_data)
        assert np.array_equal(adam.m, want.m)
        assert np.array_equal(adam.v, want.v)


def test_clip_and_loss_scale_bit_identical_across_backends():
    parallel = ParallelConfig(pipeline_parallel_size=2, data_parallel_size=2,
                              microbatch_size=1, global_batch_size=4)
    batch = _batch(4, seed=3)
    runs = {}
    for backend in ("coop", "mp"):
        log = TrafficLog()
        with PTDTrainer(CONFIG, parallel, seed=1, lr=1e-2, log=log,
                        grad_clip_norm=0.05, loss_scale=128.0,
                        backend=backend) as trainer:
            losses = [trainer.train_step(*batch) for _ in range(3)]
            norm = trainer.last_grad_norm
            state = trainer.gather_state_dict()
            adam = trainer.optimizers[0]
            runs[backend] = (
                losses, norm, state, adam._m, adam._v, adam.step_count,
                [(r.src, r.dst, r.nbytes, r.kind, r.tag) for r in log.records],
            )
    coop, mp = runs["coop"], runs["mp"]
    assert coop[0] == mp[0]
    assert coop[1] == mp[1] and coop[1] > 0.05  # the clip engaged
    assert coop[2].keys() == mp[2].keys()
    for name, want in coop[2].items():
        assert np.array_equal(want, mp[2][name]), name
    for want, got in zip(coop[3] + coop[4], mp[3] + mp[4]):
        assert np.array_equal(want, got)
    assert coop[5] == mp[5] == 3
    assert coop[6] == mp[6]


# -- one copy of the state: the parent's views of the segments ---------------
def _state(trainer):
    """Copies of what the parent holds: every replica's parameters and
    every optimizer's ``m``, ``v`` and step count."""
    return ([replica.flat_data.copy() for replica in trainer.replicas],
            [(opt.m.copy(), opt.v.copy(), opt.step_count)
             for opt in trainer.optimizers])


def _state_differences(coop, mp) -> list[str]:
    out = [f"replica {r} parameters"
           for r, (want, got) in enumerate(zip(coop[0], mp[0]))
           if not np.array_equal(want, got)]
    for r, (want, got) in enumerate(zip(coop[1], mp[1])):
        out += [f"rank {r} {key}" for key, a, b in zip(("m", "v"), want, got)
                if not np.array_equal(a, b)]
        if want[2] != got[2]:
            out.append(f"rank {r} step_count")
    return out


@pytest.mark.parametrize("d, zero_stage", [(1, 1), (2, 1), (3, 1), (3, 3)])
def test_the_parents_state_is_current_with_no_pull(d, zero_stage):
    parallel = ParallelConfig(pipeline_parallel_size=2, data_parallel_size=d,
                              microbatch_size=1, global_batch_size=2 * d)
    options = dict(
        seed=3, grad_clip_norm=0.05, zero_stage=zero_stage,
        lr=WarmupCosineSchedule(max_lr=1e-2, warmup_iters=2, decay_iters=6),
    )
    with PTDTrainer(CONFIG, parallel, **options) as coop, \
            PTDTrainer(CONFIG, parallel, backend="mp", **options) as mp:
        for step in range(3):
            batch = _batch(2 * d, seed=step)
            assert coop.train_step(*batch) == mp.train_step(*batch)
            assert _state_differences(_state(coop), _state(mp)) == []
        assert mp.optimizers[0].step_count == 3


def test_a_restore_at_d1_is_what_its_worker_steps(tmp_path):
    """d = 1 has a segment too: a restore writes into it, and the next
    step starts from the restored state on both backends."""
    parallel = ParallelConfig(pipeline_parallel_size=2, microbatch_size=1,
                              global_batch_size=2)
    with PTDTrainer(CONFIG, parallel, seed=0, lr=1e-2) as trainer:
        for step in range(2):
            trainer.train_step(*_batch(2, seed=step))
        save_checkpoint(trainer, str(tmp_path))
    runs = {}
    for backend in ("coop", "mp"):
        with PTDTrainer(CONFIG, parallel, seed=5, lr=1e-2,
                        backend=backend) as trainer:
            assert load_checkpoint(trainer, str(tmp_path)) is True
            loss = trainer.train_step(*_batch(2, seed=9))
            runs[backend] = loss, _state(trainer)
    assert runs["coop"][0] == runs["mp"][0]
    assert _state_differences(runs["coop"][1], runs["mp"][1]) == []
    assert runs["mp"][1][1][0][2] == 3


def test_a_closed_mp_trainer_reads_its_last_step(monkeypatch):
    """``close`` unlinks every segment at once, and the parent's views
    keep their mappings: a closed trainer's weights and moments are the
    last step's, and nothing is reported when the segments' objects are
    collected under the live views."""
    unraisable = []
    monkeypatch.setattr(sys, "unraisablehook", unraisable.append)
    parallel = ParallelConfig(data_parallel_size=2, microbatch_size=1,
                              global_batch_size=4)
    batch = _batch(4, seed=6)
    with PTDTrainer(CONFIG, parallel) as coop, \
            PTDTrainer(CONFIG, parallel, backend="mp") as mp:
        for trainer in (coop, mp):
            trainer.train_step(*batch)
    assert live_segment_names() == []
    assert leaked_dev_shm_segments() == []
    gc.collect()
    want, got = coop.gather_state_dict(), mp.gather_state_dict()
    assert all(np.array_equal(want[name], got[name]) for name in want)
    assert _state_differences(_state(coop), _state(mp)) == []
    del mp, got
    gc.collect()
    assert unraisable == []


# -- every optimizer shard survives a restore ---------------------------------
D3 = ParallelConfig(pipeline_parallel_size=2, data_parallel_size=3,
                    microbatch_size=1, global_batch_size=6)


def _restore_then_step(directory, backend):
    """Restore a d = 3 checkpoint (on mp, into each worker's segment),
    two steps, then read everything the parent holds."""
    with PTDTrainer(CONFIG, D3, seed=7, lr=1e-2, backend=backend) as trainer:
        assert load_checkpoint(trainer, directory) is True
        losses = [trainer.train_step(*_batch(6, seed=5)) for _ in range(2)]
        return losses, _state(trainer)


def _differences(coop, mp) -> list[str]:
    return (([] if coop[0] == mp[0] else ["losses"])
            + _state_differences(coop[1], mp[1]))


@pytest.fixture(scope="module")
def d3_checkpoint(tmp_path_factory):
    directory = str(tmp_path_factory.mktemp("d3"))
    with PTDTrainer(CONFIG, D3, seed=0, lr=1e-2) as trainer:
        params = trainer.replicas[0].parameters()
        assert any(p.size % 3 for p in params)  # unequal ring chunks
        for _ in range(2):
            trainer.train_step(*_batch(6, seed=4))
        save_checkpoint(trainer, directory)
    return directory, _restore_then_step(directory, "coop")


def test_every_shard_survives_restore_and_sync_at_d3(d3_checkpoint):
    directory, coop = d3_checkpoint
    assert _differences(coop, _restore_then_step(directory, "mp")) == []


def test_swapped_worker_shards_are_caught(d3_checkpoint, monkeypatch):
    """The check above has teeth: with the parent's replica r laid over
    worker r + 1's segment, the restore writes each rank's shard where
    another worker steps it, and the parent reads another's back."""
    directory, coop = d3_checkpoint

    class RotatedPool(WorkerPool):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            self.segments = self.segments[1:] + self.segments[:1]

    monkeypatch.setattr(trainer_mod, "WorkerPool", RotatedPool)
    assert _differences(coop, _restore_then_step(directory, "mp")) != []

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
- **Optimizer shards** — each worker steps and keeps only its own ring
  chunk of the Adam state; a restore hands every worker its shard and a
  sync brings every shard back, bit-identical to coop at d = 3.
"""

import os
import signal
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
)
from repro.config import ParallelConfig, tiny_test_model
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
    optimizer's rate, betas, eps and weight decay."""
    opt = trainer.optimizers[dp]
    return opt.lr, opt.betas, opt.eps, opt.weight_decay


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
    coop_loss = trainer.train_step(*batch)
    assert calls == ["forward_backward", "apply_update"]

    # The op table a replica worker serves, run here instead of in a
    # child (d=1: no ring, so the barrier is never waited on).
    ops = mp_workers.replica_ops(0, 1, None, (), trainer.spec)
    loss, records, norm, _ = ops["step"]((*batch, *_rates(trainer)))
    assert calls == ["forward_backward", "apply_update"] * 2
    assert loss == coop_loss and norm == trainer.last_grad_norm
    assert len(records) == len(trainer.log.records)
    state = ops["get_state"](None)
    assert np.array_equal(trainer.replicas[0].flat_data, state["params"])


def test_worker_keeps_no_records_between_steps(monkeypatch):
    """The parent logs every record a step's reply carries, so a worker
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
    ops = mp_workers.replica_ops(0, 1, None, (), trainer.spec)
    (log,) = logs
    batch = _batch(2)
    replies = []
    for _ in range(3):
        replies.append(ops["step"]((*batch, *_rates(trainer)))[1])
        assert log.records == []
    trainer.train_step(*batch)
    assert [len(records) for records in replies] == [
        len(trainer.log.records)] * 3


def test_a_workers_replica_lives_in_its_segment(monkeypatch):
    """Two replica op tables, run here on threads over real segments:
    each worker's parameters and gradients are views of its own segment
    (``[grads | params | norm slot]``), and a step through the ring,
    clip included, leaves both replicas equal to the coop oracle's."""
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
    with scratch_segments([8 * (2 * n + 1)] * 2) as segs:
        ops = [mp_workers.replica_ops(dp, 2, lambda: barrier.wait(30), segs,
                                      trainer.spec) for dp in range(2)]
        for (replica, _), seg in zip(built, segs):
            view = np.ndarray((2 * n + 1,), np.float64, buffer=seg.buf)
            for p in replica.parameters():
                assert np.shares_memory(p.grad, view[:n])
                assert np.shares_memory(p.data, view[n:2 * n])
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
        # the segments close on the way out: no view of them may be left
        del built, view, replica, p
        ops.clear()


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


# -- every optimizer shard survives a state sync ---------------------------------
D3 = ParallelConfig(pipeline_parallel_size=2, data_parallel_size=3,
                    microbatch_size=1, global_batch_size=6)


def _restore_then_step(directory, backend):
    """Restore a d = 3 checkpoint (so an mp trainer hands each worker
    its shard), two steps, then pull everything back from the workers."""
    with PTDTrainer(CONFIG, D3, seed=7, lr=1e-2, backend=backend) as trainer:
        assert load_checkpoint(trainer, directory) is True
        losses = [trainer.train_step(*_batch(6, seed=5)) for _ in range(2)]
        return (losses, trainer.gather_state_dict(),
                [trainer_mod.export_state(opt) for opt in trainer.optimizers])


def _differences(coop, mp) -> list[str]:
    out = [] if coop[0] == mp[0] else ["losses"]
    out += [name for name in coop[1]
            if not np.array_equal(coop[1][name], mp[1][name])]
    for r, (want, got) in enumerate(zip(coop[2], mp[2])):
        out += [f"rank {r} {key}" for key in ("m", "v")
                if not np.array_equal(want[key], got[key])]
    return out


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
    """The check above has teeth: workers 0 and 1 handed each other's
    shard either fail to load it (unequal chunks) or step it wrongly."""
    directory, coop = d3_checkpoint
    real = WorkerPool.run

    def swapped(self, op, payloads):
        if op == "set_state":
            payloads = [payloads[1], payloads[0], *payloads[2:]]
        return real(self, op, payloads)

    monkeypatch.setattr(WorkerPool, "run", swapped)
    try:
        mp = _restore_then_step(directory, "mp")
    except RuntimeError as exc:
        assert "set_state" in str(exc) or "broadcast" in str(exc)
    else:
        assert _differences(coop, mp) != []

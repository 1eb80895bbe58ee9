"""Cross-backend conformance: the mp backend vs the coop oracle.

Three layers of guarantee, matching DESIGN.md "Running on real
processes":

- **raw collectives** — :class:`~repro.comm.backend.MpBackend` moving
  bytes through shared memory must return bit-identical arrays *and*
  an identical :class:`~repro.comm.traffic.TrafficLog` to the coop
  primitives (the §3.3.1 byte-volume identities survive the swap);
- **hop plans** — the pure hop-plan functions the mp backend replays
  into the parent's log must match what the coop primitives actually
  log, record for record;
- **whole engine** — seeded (p, t, d) training runs under both
  backends produce exact-equal losses, parameters, optimizer state and
  traffic (:mod:`repro.verify.backend_check` grid).

Plus the Megatron ``initialize_model_parallel`` rank-layout property
for random (p, t, d), and a leak check: every test must leave zero
live shared-memory segments.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import TrafficLog
from repro.comm.backend import CoopBackend, MpBackend, get_backend
from repro.comm.groups import ProcessGroups
from repro.comm.primitives import (
    all_gather,
    broadcast,
    reduce_scatter,
    ring_all_gather_hops,
    ring_all_reduce,
    ring_all_reduce_hops,
    ring_reduce_scatter_hops,
    send,
)
from repro.comm.shm_ring import leaked_dev_shm_segments, live_segment_names
from repro.config import ParallelConfig
from repro.verify.backend_check import check_backend_case
from repro.verify.conformance import ConformanceCase

from .test_comm import group_families


@pytest.fixture(autouse=True)
def _no_shm_leaks():
    """Every test must release its shared-memory segments."""
    yield
    assert live_segment_names() == []
    assert leaked_dev_shm_segments() == []


def _records(log):
    return [(r.src, r.dst, r.nbytes, r.kind.value, r.tag) for r in log.records]


def _buffers(k, shape=(6, 5), seed=0):
    rng = np.random.default_rng(seed)
    return [rng.standard_normal(shape) for _ in range(k)]


class TestHopPlans:
    """The analytic hop plans equal what the coop primitives log."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_all_reduce(self, k, n):
        bufs = _buffers(k, shape=(n,))
        log = TrafficLog()
        ring_all_reduce(bufs, list(range(k)), log)
        got = [(r.src, r.dst, r.nbytes) for r in log.records]
        assert got == ring_all_reduce_hops(n, bufs[0].itemsize, k)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_all_gather(self, k):
        shards = [np.full((i + 1, 3), float(i)) for i in range(k)]
        log = TrafficLog()
        all_gather(shards, list(range(k)), log)
        got = [(r.src, r.dst, r.nbytes) for r in log.records]
        assert got == ring_all_gather_hops([s.nbytes for s in shards])

    @pytest.mark.parametrize("k", [2, 4])
    def test_reduce_scatter(self, k):
        bufs = _buffers(k, shape=(2 * k, 3))
        log = TrafficLog()
        reduce_scatter(bufs, list(range(k)), log)
        got = [(r.src, r.dst, r.nbytes) for r in log.records]
        assert got == ring_reduce_scatter_hops(bufs[0].nbytes, k)


class TestRawMpCollectives:
    """MpBackend results and logs are bit-identical to the coop path."""

    @pytest.mark.parametrize("k", [2, 3])
    def test_all_reduce(self, k):
        ranks = list(range(10, 10 + k))
        coop_log, mp_log = TrafficLog(), TrafficLog()
        want = ring_all_reduce(_buffers(k), ranks, coop_log, tag="t")
        with MpBackend() as mp_backend:
            got = mp_backend.all_reduce(_buffers(k), ranks, mp_log, tag="t")
        for a, b in zip(want, got):
            assert np.array_equal(a, b)
        assert _records(coop_log) == _records(mp_log)

    def test_all_gather_and_reduce_scatter(self):
        ranks = [0, 1, 2]
        shards = [np.full((2, 4), float(i + 1)) for i in range(3)]
        bufs = _buffers(3, shape=(6, 4), seed=3)
        coop_log, mp_log = TrafficLog(), TrafficLog()
        want_g = all_gather(shards, ranks, coop_log)
        want_s = reduce_scatter(bufs, ranks, coop_log)
        with MpBackend() as mp_backend:
            got_g = mp_backend.all_gather(shards, ranks, mp_log)
            got_s = mp_backend.reduce_scatter(bufs, ranks, mp_log)
        for a, b in zip(want_g + want_s, got_g + got_s):
            assert np.array_equal(a, b)
        assert _records(coop_log) == _records(mp_log)

    def test_broadcast_and_send(self):
        buf = np.arange(12.0).reshape(3, 4)
        coop_log, mp_log = TrafficLog(), TrafficLog()
        want_b = broadcast(buf, 1, [0, 1, 2], coop_log)
        want_p = send(buf, 4, 7, coop_log)
        with MpBackend() as mp_backend:
            got_b = mp_backend.broadcast(buf, 1, [0, 1, 2], mp_log)
            got_p = mp_backend.send(buf, 4, 7, mp_log)
        for a, b in zip(want_b + [want_p], got_b + [got_p]):
            assert np.array_equal(a, b)
        assert _records(coop_log) == _records(mp_log)

    def test_get_backend(self):
        assert isinstance(get_backend("coop"), CoopBackend)
        assert get_backend(None) is get_backend("coop")  # shared oracle
        mp_backend = get_backend("mp")
        assert isinstance(mp_backend, MpBackend)
        assert get_backend(mp_backend) is mp_backend
        mp_backend.close()
        with pytest.raises(ValueError):
            get_backend("nccl")


class TestEngineConformance:
    """Whole training runs bit-identical across backends.

    The full stratified grid runs under ``repro verify --only
    backend``; tier-1 keeps the composed small cases that exercise
    every mp code path (dp grad ring, pipeline, tensor, ZeRO-3)."""

    @pytest.mark.parametrize("case", [
        ConformanceCase(p=2, d=2, b=1, m=2, seed=0, iterations=2),
        ConformanceCase(t=2, d=2, b=1, m=1, seed=1, iterations=2),
        ConformanceCase(d=2, b=2, m=1, zero=True, seed=2, iterations=2),
    ], ids=["p2d2", "t2d2", "zero3-d2"])
    def test_bit_identical(self, case):
        assert check_backend_case(case) == []


class TestRankLayoutProperty:
    """ProcessGroups matches Megatron's ``initialize_model_parallel``
    ordering (global_rank = pp·(t·d) + dp·t + tp) for random (p, t, d)."""

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(1, 4), t=st.integers(1, 4), d=st.integers(1, 4))
    def test_groups_match_megatron(self, p, t, d):
        world = p * t * d
        groups = ProcessGroups(ParallelConfig(
            pipeline_parallel_size=p, tensor_parallel_size=t,
            data_parallel_size=d, microbatch_size=1,
            global_batch_size=d,
        ))
        # Megatron initialize_model_parallel reference construction:
        # tensor groups are contiguous blocks of t; data-parallel peers
        # sit at stride t inside a pipeline stage's t·d block; pipeline
        # groups stride t·d through the world.
        tensor_ref = {tuple(range(i * t, (i + 1) * t))
                      for i in range(world // t)}
        data_ref = {tuple(range(pp * t * d + tp, (pp + 1) * t * d, t))
                    for pp in range(p) for tp in range(t)}
        pipe_ref = {tuple(range(i, world, t * d)) for i in range(t * d)}
        tensor, data, pipe = group_families(groups)
        assert {tuple(g) for g in tensor} == tensor_ref
        assert {tuple(g) for g in data} == data_ref
        assert {tuple(g) for g in pipe} == pipe_ref

    @settings(max_examples=40, deadline=None)
    @given(p=st.integers(1, 4), t=st.integers(1, 4), d=st.integers(1, 4))
    def test_coord_roundtrip_and_partition(self, p, t, d):
        world = p * t * d
        groups = ProcessGroups(ParallelConfig(
            pipeline_parallel_size=p, tensor_parallel_size=t,
            data_parallel_size=d, microbatch_size=1,
            global_batch_size=d,
        ))
        ranks = sorted(groups.rank_of(pp, dp, tp) for pp in range(p)
                       for dp in range(d) for tp in range(t))
        assert ranks == list(range(world))
        # Each group family partitions the world exactly once.
        for family in group_families(groups):
            flat = sorted(r for g in family for r in g)
            assert flat == list(range(world))


class TestTrainerLifecycle:
    def test_mp_trainer_close_is_idempotent_and_contextual(self):
        from repro.config import tiny_test_model
        from repro.parallel import PTDTrainer

        config = tiny_test_model(num_layers=2, hidden_size=16,
                                 num_attention_heads=4, vocab_size=32,
                                 seq_length=8)
        parallel = ParallelConfig(data_parallel_size=2, microbatch_size=1,
                                  global_batch_size=2)
        rng = np.random.default_rng(0)
        ids = rng.integers(0, 32, size=(2, 8))
        with PTDTrainer(config, parallel, backend="mp") as trainer:
            trainer.train_step(ids, np.roll(ids, -1, axis=1))
        trainer.close()  # second close is a no-op
        assert live_segment_names() == []

    def test_unknown_backend_rejected(self):
        from repro.config import tiny_test_model
        from repro.parallel import PTDTrainer

        config = tiny_test_model(num_layers=2, hidden_size=16,
                                 num_attention_heads=4, vocab_size=32,
                                 seq_length=8)
        parallel = ParallelConfig(microbatch_size=1, global_batch_size=1)
        with pytest.raises(ValueError):
            PTDTrainer(config, parallel, backend="gloo")

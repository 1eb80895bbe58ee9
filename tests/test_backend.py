"""Cross-backend conformance: the mp backend vs the coop oracle.

Three layers of guarantee, matching DESIGN.md "Running on real
processes":

- **raw collectives** — :class:`~repro.comm.backend.MpBackend` moving
  bytes through shared memory must return bit-identical arrays *and*
  an identical :class:`~repro.comm.traffic.TrafficLog` to the coop
  primitives (the §3.3.1 byte-volume identities survive the swap);
- **hop plans** — the pure hop-plan functions, the one place a
  collective's hops are spelled, must match what the per-hop coop loops
  of ``tests/reference_hops.py`` report, and every call's derived
  ``TrafficLog.records`` must equal those loops' on both backends
  (hypothesis over the five primitives and both ring phases);
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

from repro.comm import TrafficKind, TrafficLog
from repro.comm.backend import CoopBackend, MpBackend, get_backend
from repro.comm.groups import ProcessGroups
from repro.comm.primitives import (
    COOP,
    HOP_PLANS,
    all_gather,
    broadcast,
    broadcast_hops,
    log_collective,
    reduce_scatter,
    ring_all_gather_hops,
    ring_all_reduce,
    ring_all_reduce_hops,
    ring_reduce_scatter_hops,
    send,
)
from repro.comm.shm_ring import leaked_dev_shm_segments, live_segment_names
from repro.config import ParallelConfig
from repro.obs.tracer import TOTALS
from repro.verify.backend_check import check_backend_case
from repro.verify.conformance import ConformanceCase

from .reference_hops import reference_hops, reference_records
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
    """The analytic hop plans equal what the per-hop coop loops of
    ``tests/reference_hops.py`` report."""

    @pytest.mark.parametrize("k", [2, 3, 4])
    @pytest.mark.parametrize("n", [1, 7, 64])
    def test_all_reduce(self, k, n):
        bufs = _buffers(k, shape=(n,))
        got = reference_hops("all_reduce", bufs, list(range(k)))
        assert got == ring_all_reduce_hops(n, bufs[0].itemsize, k)

    @pytest.mark.parametrize("k", [2, 3, 4])
    def test_all_gather(self, k):
        shards = [np.full((i + 1, 3), float(i)) for i in range(k)]
        got = reference_hops("all_gather", shards, list(range(k)))
        assert got == ring_all_gather_hops([s.nbytes for s in shards])

    @pytest.mark.parametrize("k", [2, 4])
    def test_reduce_scatter(self, k):
        bufs = _buffers(k, shape=(2 * k, 3))
        got = reference_hops("reduce_scatter", bufs, list(range(k)))
        assert got == ring_reduce_scatter_hops(bufs[0].nbytes, k)

    @pytest.mark.parametrize("k", [2, 3])
    def test_broadcast(self, k):
        buf = np.arange(6.0)
        for root in range(k):
            got = reference_hops("broadcast", buf, list(range(k)), root=root)
            assert got == broadcast_hops(root, buf.nbytes, k)


_OPS = ("all_reduce", "all_gather", "reduce_scatter", "broadcast", "send",
        "reduce_scatter_phase", "all_gather_phase")


@st.composite
def _calls(draw, max_k):
    """One valid front-door call: ``(op, args, kwargs, ranks, root,
    axis)``, every buffer under 40 elements, all-gather shards uneven."""
    op = draw(st.sampled_from(_OPS))
    k = 2 if op == "send" else draw(st.integers(1, max_k))
    ranks = draw(st.lists(st.integers(0, 15), min_size=k, max_size=k,
                          unique=True))
    dtype = (np.float64 if op.endswith("_phase") else
             draw(st.sampled_from([np.float64, np.float32, np.int64])))
    rng = np.random.default_rng(draw(st.integers(0, 2**16)))

    def array(shape):
        return (10 * rng.standard_normal(shape)).astype(dtype)

    n = draw(st.integers(0, 39))
    root, axis, kwargs = None, 0, {}
    if op == "all_gather":
        cols, axis = draw(st.integers(1, 3)), draw(st.sampled_from([0, 1]))
        rows = draw(st.lists(st.integers(0, 39 // (k * cols)), min_size=k,
                             max_size=k))
        buffers = [array((r, cols) if axis == 0 else (cols, r)) for r in rows]
        args, kwargs = (buffers, ranks), {"axis": axis}
    elif op == "reduce_scatter":
        rows = k * draw(st.integers(1, 39 // (2 * k)))
        shape = (rows, draw(st.integers(1, 2)))
        buffers = [array(shape) for _ in range(k)]
        args = (buffers, ranks)
    elif op in ("broadcast", "send"):
        buffers = array((n,))
        root = draw(st.sampled_from(ranks))
        args = ((buffers, root, ranks) if op == "broadcast"
                else (buffers, ranks[0], ranks[1]))
    else:
        buffers = [array((n,)) for _ in range(k)]
        args = (buffers, ranks)
    return op, args, kwargs, buffers, ranks, root, axis


def _derived_records_are_the_reference(backend, call, logged):
    """One call on ``backend``: the log's one entry, its derived
    records, and the running totals it moved."""
    op, args, kwargs, buffers, ranks, root, axis = call
    want = reference_records(op, buffers, ranks, TrafficKind.TENSOR_PARALLEL,
                             "prop", root=root, axis=axis)
    if op.endswith("_phase"):  # in place on the caller's vectors
        args = ([b.copy() for b in buffers], ranks)
    log = TrafficLog() if logged else None
    before = TOTALS.copy()
    getattr(backend, op)(*args, log=log, kind=TrafficKind.TENSOR_PARALLEL,
                         tag="prop", **kwargs)
    moved = [TOTALS[0] - before[0], TOTALS[1] - before[1]]
    if log is None:
        assert moved == [0, 0]
        return
    got = [(r.src, r.dst, r.nbytes, r.kind, r.tag) for r in log.records]
    assert got == want
    assert len(log.entries) == (len(ranks) > 1)
    assert moved == [sum(r[2] for r in want), len(want)]
    for entry in log.entries:
        plan = HOP_PLANS[entry.op][0](len(entry.ranks), entry.size)
        assert (entry.nbytes, entry.hops) == (
            sum(h[2] for h in plan), len(plan))


def test_a_group_of_one_writes_nothing():
    """Whoever writes the entry -- the front door, clipping's norm
    gather at d = 1, the cross-entropy scalars at t = 1."""
    log = TrafficLog()
    sizes = {"all_gather": (8,), "broadcast": (0, 8)}
    for op in HOP_PLANS:
        log_collective(log, op, [3], sizes.get(op, 8),
                       TrafficKind.DATA_PARALLEL, "one")
    assert log.entries == []


@pytest.fixture(scope="module")
def mp_and_worker_ring():
    from repro.parallel.mp_workers import WORKER_RING

    with MpBackend() as backend:
        yield backend, WORKER_RING


class TestDerivedRecordsProperty:
    """Every primitive and both ring phases, ``k`` up to 6, logged or
    not: the records the log derives from its one entry per call are the
    per-hop loops' records, hop for hop, and the running totals move by
    exactly their bytes and count."""

    @settings(max_examples=300, deadline=None)
    @given(call=_calls(max_k=6), logged=st.booleans())
    def test_coop(self, call, logged):
        _derived_records_are_the_reference(COOP, call, logged)

    @settings(max_examples=25, deadline=None)
    @given(call=_calls(max_k=3), logged=st.booleans())
    def test_mp(self, call, logged, mp_and_worker_ring):
        """The mp movers, and the phases through the mp trainer's
        worker-ring front door, which moves nothing."""
        mp_backend, worker_ring = mp_and_worker_ring
        backend = worker_ring if call[0].endswith("_phase") else mp_backend
        _derived_records_are_the_reference(backend, call, logged)


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

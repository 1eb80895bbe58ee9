"""Tests for collectives (numerics + byte volumes), groups, cost model."""

import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.comm import (
    CommCostModel,
    ProcessGroups,
    TrafficKind,
    TrafficLog,
    all_gather,
    broadcast,
    reduce_scatter,
    ring_all_reduce,
    ring_all_reduce_hops,
    send,
)
from repro.comm.primitives import ring_chunk_bounds
from repro.comm.shm_ring import ring_all_reduce_step
from repro.config import ParallelConfig
from repro.hardware import ClusterTopology


def rng():
    return np.random.default_rng(1234)


class TestRingAllReduce:
    def test_exact_sum(self):
        r = rng()
        bufs = [r.standard_normal((5, 7)) for _ in range(4)]
        out = ring_all_reduce(bufs, ranks=[0, 1, 2, 3])
        want = np.sum(bufs, axis=0)
        for o in out:
            np.testing.assert_allclose(o, want, rtol=1e-12)

    def test_single_rank_identity(self):
        b = rng().standard_normal(6)
        (out,) = ring_all_reduce([b], ranks=[3])
        np.testing.assert_array_equal(out, b)

    def test_byte_volume_is_2_k_minus_1_over_k(self):
        """Ring all-reduce sends 2(k-1)/k of the buffer per rank."""
        k, n = 4, 1024
        log = TrafficLog()
        bufs = [np.zeros(n) for _ in range(k)]
        ring_all_reduce(bufs, ranks=list(range(k)), log=log)
        per_rank = log.bytes_sent_by_rank()
        expected = 2 * (k - 1) / k * n * 8  # float64 internal ring
        for rank_bytes in per_rank.values():
            assert rank_bytes == pytest.approx(expected, rel=0.01)

    @given(k=st.integers(2, 8), n=st.integers(1, 200))
    @settings(max_examples=40, deadline=None)
    def test_allreduce_property(self, k, n):
        r = np.random.default_rng(k * 1000 + n)
        bufs = [r.standard_normal(n) for _ in range(k)]
        out = ring_all_reduce(bufs, ranks=list(range(10, 10 + k)))
        want = np.sum(bufs, axis=0)
        for o in out:
            np.testing.assert_allclose(o, want, rtol=1e-10, atol=1e-12)

    def test_rejects_mismatched_group(self):
        with pytest.raises(ValueError, match="must match"):
            ring_all_reduce([np.zeros(3)], ranks=[0, 1])
        with pytest.raises(ValueError, match="duplicate"):
            ring_all_reduce([np.zeros(3), np.zeros(3)], ranks=[0, 0])
        with pytest.raises(ValueError, match="shape"):
            ring_all_reduce([np.zeros(3), np.zeros(4)], ranks=[0, 1])


class TestAllGatherReduceScatter:
    def test_all_gather_concatenates_in_rank_order(self):
        shards = [np.full((2, 3), i, dtype=float) for i in range(3)]
        out = all_gather(shards, ranks=[5, 6, 7])
        want = np.concatenate(shards, axis=0)
        for o in out:
            np.testing.assert_array_equal(o, want)

    def test_all_gather_axis(self):
        shards = [np.full((2, 1), i, dtype=float) for i in range(3)]
        out = all_gather(shards, ranks=[0, 1, 2], axis=1)
        assert out[0].shape == (2, 3)

    def test_all_gather_bytes(self):
        k, n = 4, 100
        log = TrafficLog()
        shards = [np.zeros(n) for _ in range(k)]
        all_gather(shards, ranks=list(range(k)), log=log)
        # Each rank forwards k-1 shards of n*8 bytes.
        per_rank = log.bytes_sent_by_rank()
        for v in per_rank.values():
            assert v == (k - 1) * n * 8

    def test_reduce_scatter_sums_and_splits(self):
        r = rng()
        bufs = [r.standard_normal((4, 3)) for _ in range(2)]
        out = reduce_scatter(bufs, ranks=[0, 1])
        want = np.sum(bufs, axis=0)
        np.testing.assert_allclose(out[0], want[:2], rtol=1e-12)
        np.testing.assert_allclose(out[1], want[2:], rtol=1e-12)

    def test_reduce_scatter_divisibility(self):
        with pytest.raises(ValueError, match="divisible"):
            reduce_scatter([np.zeros((3, 2))] * 2, ranks=[0, 1])

    def test_all_gather_ragged_concat_axis_ok(self):
        # Shards may differ along the concatenation axis.
        shards = [np.zeros((n, 3)) for n in (1, 4, 2)]
        out = all_gather(shards, ranks=[0, 1, 2])
        assert out[0].shape == (7, 3)

    def test_all_gather_rejects_mismatched_other_axes(self):
        with pytest.raises(ValueError, match="non-concatenation axis"):
            all_gather([np.zeros((2, 3)), np.zeros((2, 4))], ranks=[0, 1])
        # Same shapes are fine on the concat axis only.
        with pytest.raises(ValueError, match="non-concatenation axis"):
            all_gather(
                [np.zeros((2, 3)), np.zeros((4, 3))], ranks=[0, 1], axis=1
            )

    def test_all_gather_rejects_mismatched_dtype(self):
        with pytest.raises(ValueError, match="dtype"):
            all_gather(
                [np.zeros(2, dtype=np.float32), np.zeros(2)], ranks=[0, 1]
            )

    def test_all_gather_rejects_mismatched_ndim(self):
        with pytest.raises(ValueError, match="share rank"):
            all_gather([np.zeros(2), np.zeros((2, 1))], ranks=[0, 1])

    def test_all_gather_rejects_bad_axis(self):
        with pytest.raises(ValueError, match="axis 2 out of bounds"):
            all_gather([np.zeros((2, 3))] * 2, ranks=[0, 1], axis=2)

    def test_all_gather_rejects_bad_group(self):
        with pytest.raises(ValueError, match="empty"):
            all_gather([], ranks=[])
        with pytest.raises(ValueError, match="duplicate"):
            all_gather([np.zeros(2), np.zeros(2)], ranks=[1, 1])

    def test_allreduce_equals_rs_plus_ag(self):
        """all_reduce == reduce_scatter -> all_gather (ZeRO's identity)."""
        r = rng()
        bufs = [r.standard_normal((6, 2)) for _ in range(3)]
        ar = ring_all_reduce(bufs, ranks=[0, 1, 2])
        shards = reduce_scatter(bufs, ranks=[0, 1, 2])
        ag = all_gather(shards, ranks=[0, 1, 2])
        np.testing.assert_allclose(ag[0], ar[0], rtol=1e-12)


class TestBroadcastSend:
    def test_broadcast(self):
        b = rng().standard_normal(5)
        out = broadcast(b, root=2, ranks=[1, 2, 3])
        for o in out:
            np.testing.assert_array_equal(o, b)

    def test_broadcast_requires_root_in_group(self):
        with pytest.raises(ValueError, match="root"):
            broadcast(np.zeros(2), root=9, ranks=[0, 1])

    def test_broadcast_rejects_empty_group(self):
        with pytest.raises(ValueError, match="empty"):
            broadcast(np.zeros(2), root=0, ranks=[])

    def test_broadcast_rejects_duplicate_ranks(self):
        with pytest.raises(ValueError, match="duplicate"):
            broadcast(np.zeros(2), root=0, ranks=[0, 1, 0])

    def test_send_copies_and_logs(self):
        log = TrafficLog()
        b = rng().standard_normal((4, 4))
        got = send(b, src=0, dst=8, log=log, tag="act")
        np.testing.assert_array_equal(got, b)
        got[0, 0] = 99  # must be a copy
        assert b[0, 0] != 99
        assert log.total_bytes() == b.nbytes
        assert log.records[0].kind is TrafficKind.PIPELINE_P2P

    def test_send_rejects_self(self):
        with pytest.raises(ValueError):
            send(np.zeros(2), src=1, dst=1)


class TestTrafficLog:
    def test_node_classification(self):
        topo = ClusterTopology(num_nodes=2)
        log = TrafficLog()
        log.add(0, 1, 100)   # same node
        log.add(0, 8, 200)   # cross node
        assert log.intra_node_bytes(topo) == 100
        assert log.inter_node_bytes(topo) == 200
        assert log.bisection_bytes(topo) == 200

    def test_kind_filter(self):
        log = TrafficLog()
        log.add(0, 1, 10, TrafficKind.TENSOR_PARALLEL)
        log.add(0, 1, 20, TrafficKind.DATA_PARALLEL)
        assert log.total_bytes(TrafficKind.TENSOR_PARALLEL) == 10
        assert log.total_bytes() == 30

    def test_clear(self):
        log = TrafficLog()
        log.add(0, 1, 10)
        log.clear()
        assert len(log) == 0

    def test_by_tag(self):
        log = TrafficLog()
        log.add(0, 1, 10, TrafficKind.TENSOR_PARALLEL, "attn")
        log.add(1, 0, 5, TrafficKind.TENSOR_PARALLEL, "attn")
        log.add(0, 1, 20, TrafficKind.DATA_PARALLEL, "grad")
        log.add(0, 1, 7)  # empty tag
        assert log.by_tag() == {"attn": 15, "grad": 20, "": 7}
        assert log.by_tag(TrafficKind.TENSOR_PARALLEL) == {"attn": 15}

    def test_bytes_by_kind(self):
        log = TrafficLog()
        log.add(0, 1, 10, TrafficKind.TENSOR_PARALLEL)
        log.add(0, 1, 20, TrafficKind.DATA_PARALLEL)
        log.add(0, 1, 30, TrafficKind.DATA_PARALLEL)
        assert log.bytes_by_kind() == {
            TrafficKind.TENSOR_PARALLEL: 10,
            TrafficKind.DATA_PARALLEL: 50,
        }
        assert sum(log.bytes_by_kind().values()) == log.total_bytes()

    def test_bytes_by_kind_empty(self):
        assert TrafficLog().bytes_by_kind() == {}
        assert TrafficLog().by_tag() == {}


class TestProcessGroups:
    def cfg(self, p=2, t=4, d=2):
        return ParallelConfig(
            pipeline_parallel_size=p,
            tensor_parallel_size=t,
            data_parallel_size=d,
            microbatch_size=1,
            global_batch_size=d * 4,
        )

    def test_rank_layout_tensor_contiguous(self):
        """Tensor-parallel ranks are consecutive (land on one node)."""
        g = ProcessGroups(self.cfg())
        assert g.tensor_group(pp=0, dp=0) == [0, 1, 2, 3]
        assert g.tensor_group(pp=0, dp=1) == [4, 5, 6, 7]
        assert g.tensor_group(pp=1, dp=0) == [8, 9, 10, 11]

    def test_data_group_stride_t(self):
        g = ProcessGroups(self.cfg())
        assert g.data_group(pp=0, tp=0) == [0, 4]
        assert g.data_group(pp=1, tp=3) == [11, 15]

    def test_pipeline_group_stride_td(self):
        g = ProcessGroups(self.cfg())
        assert g.pipeline_group(dp=0, tp=0) == [0, 8]
        assert g.pipeline_group(dp=1, tp=2) == [6, 14]

    def test_coord_roundtrip(self):
        g = ProcessGroups(self.cfg())
        for rank in range(g.world_size):
            c = g.coord_of(rank)
            assert g.rank_of(c.pp, c.dp, c.tp) == rank

    def test_groups_partition_world(self):
        g = ProcessGroups(self.cfg())
        for groups in (g.all_tensor_groups(), g.all_data_groups(), g.all_pipeline_groups()):
            flat = sorted(r for grp in groups for r in grp)
            assert flat == list(range(g.world_size))

    def test_pipeline_peer(self):
        g = ProcessGroups(self.cfg())
        assert g.pipeline_peer(0, +1) == 8
        assert g.pipeline_peer(8, -1) == 0
        assert g.pipeline_peer(8, +1) is None
        assert g.pipeline_peer(0, -1) is None

    def test_tensor_group_fits_one_node_with_t8(self):
        """Megatron layout + 8-GPU nodes: t=8 groups are intra-node."""
        cfg = ParallelConfig(
            pipeline_parallel_size=2,
            tensor_parallel_size=8,
            data_parallel_size=2,
            microbatch_size=1,
            global_batch_size=8,
        )
        g = ProcessGroups(cfg)
        topo = ClusterTopology(num_nodes=4)
        for grp in g.all_tensor_groups():
            nodes = {topo.node_of(r) for r in grp}
            assert len(nodes) == 1

    @given(p=st.integers(1, 4), t=st.integers(1, 4), d=st.integers(1, 4))
    @settings(max_examples=40, deadline=None)
    def test_partition_property(self, p, t, d):
        cfg = ParallelConfig(
            pipeline_parallel_size=p,
            tensor_parallel_size=t,
            data_parallel_size=d,
            microbatch_size=1,
            global_batch_size=d,
        )
        g = ProcessGroups(cfg)
        flat = sorted(r for grp in g.all_data_groups() for r in grp)
        assert flat == list(range(p * t * d))


class TestCommCostModel:
    def setup_method(self):
        self.topo = ClusterTopology(num_nodes=4)
        self.cm = CommCostModel(self.topo)

    def test_p2p_nvlink_faster_than_ib(self):
        nbytes = 1e8
        assert self.cm.p2p_time(0, 1, nbytes) < self.cm.p2p_time(0, 8, nbytes)

    def test_p2p_self_is_free(self):
        assert self.cm.p2p_time(3, 3, 1e9) == 0.0

    def test_allreduce_intra_node_uses_nvlink(self):
        """t=8 intra-node all-reduce beats d=8 cross-node all-reduce."""
        intra = self.cm.all_reduce_time(list(range(8)), 1e8)
        cross = self.cm.all_reduce_time([0, 8, 16, 24, 1, 9, 17, 25], 1e8)
        assert intra < cross

    def test_allreduce_bandwidth_term_saturates(self):
        """(k-1)/k scaling: time grows sublinearly with group size."""
        t2 = self.cm.all_reduce_time([0, 8], 1e9)
        t4 = self.cm.all_reduce_time([0, 8, 16, 24], 1e9)
        assert t4 < 2 * t2

    def test_single_rank_collectives_free(self):
        assert self.cm.all_reduce_time([0], 1e9) == 0.0
        assert self.cm.all_gather_time([0], 1e9) == 0.0

    def test_scatter_gather_reduces_internode_time(self):
        """§4.1: inter-node pipeline p2p is ~t x cheaper with the
        optimization (NVLink gather is much faster than IB)."""
        nbytes = 8 * 2048 * 20480 * 2  # b=8 microbatch boundary tensor
        plain = self.cm.pipeline_p2p_time(0, 8, nbytes, tensor_parallel_size=8)
        opt = self.cm.pipeline_p2p_time(
            0, 8, nbytes, tensor_parallel_size=8, scatter_gather=True
        )
        assert opt < plain
        assert opt < plain / 3  # big win, close to the t=8 ideal

    def test_scatter_gather_noop_intra_node(self):
        nbytes = 1e7
        plain = self.cm.pipeline_p2p_time(0, 1, nbytes, tensor_parallel_size=8)
        opt = self.cm.pipeline_p2p_time(
            0, 1, nbytes, tensor_parallel_size=8, scatter_gather=True
        )
        assert opt == plain

    def test_rejects_bad_args(self):
        with pytest.raises(ValueError):
            self.cm.p2p_time(0, 1, -5)
        with pytest.raises(ValueError):
            self.cm.all_reduce_time([], 10)
        with pytest.raises(ValueError):
            self.cm.all_reduce_time([0, 0], 10)
        with pytest.raises(ValueError):
            self.cm.pipeline_p2p_time(0, 1, 10, tensor_parallel_size=0)

    #: group size -> (all-reduce, all-gather, broadcast) seconds for a
    #: 4 MiB buffer over ranks 8..8+k-1 of one node, as priced before
    #: PR 23 deleted ``_phase_times``'s unreachable "g == 1 on one node
    #: with k > 1" branch (one node means g == k).
    ONE_NODE_4MIB = {
        1: (0.0, 0.0, 0.0),
        2: (1.798101333333333e-05, 8.990506666666666e-06, 1.5981013333333334e-05),
        3: (2.664135111111111e-05, 1.3320675555555555e-05, 1.798101333333333e-05),
        4: (3.297152e-05, 1.648576e-05, 1.9981013333333333e-05),
        5: (3.836962133333333e-05, 1.9184810666666667e-05, 2.198101333333333e-05),
        6: (4.3301688888888883e-05, 2.1650844444444442e-05, 2.398101333333333e-05),
        7: (4.796745142857143e-05, 2.3983725714285714e-05, 2.5981013333333333e-05),
        8: (5.246677333333333e-05, 2.6233386666666667e-05, 2.7981013333333334e-05),
    }

    def collective_times(self, ranks, **kwargs):
        nbytes = float(2 ** 22)
        return (self.cm.all_reduce_time(ranks, nbytes, **kwargs),
                self.cm.all_gather_time(ranks, nbytes, **kwargs),
                self.cm.broadcast_time(ranks, nbytes))

    @pytest.mark.parametrize("k", ONE_NODE_4MIB)
    def test_one_node_group_times_are_pinned(self, k):
        assert self.collective_times(list(range(8, 8 + k))) == (
            self.ONE_NODE_4MIB[k])

    def test_two_node_group_times_are_pinned(self):
        ranks = [4, 5, 6, 7, 8, 9, 10, 11]  # four members on each of 2 nodes
        assert self.collective_times(ranks) == (
            8.491455999999999e-05, 4.2457279999999996e-05, 4.694304e-05)
        assert self.collective_times(ranks, channels=1)[:2] == (
            0.00021074368, 0.00010537184)


class TestRingCollectiveProperties:
    """Hypothesis sweeps: random shapes, dtypes, and group sizes, checked
    against the plain numpy reference and the ring byte formulas.

    Byte identities (fp64 internals for all_reduce; original dtype for
    all_gather/reduce_scatter):

    - all_reduce moves ``2 (k-1) * n * 8`` total ring bytes (each of the
      two phases moves every chunk once per step, k-1 steps);
    - all_gather forwards each shard k-1 times;
    - reduce_scatter moves ``k (k-1) * (nbytes // k)`` bytes.
    """

    DTYPES = st.sampled_from([np.float64, np.float32, np.int64])

    @staticmethod
    def _buffers(k, shape, dtype, seed):
        r = np.random.default_rng(seed)
        if np.issubdtype(dtype, np.integer):
            return [r.integers(-100, 100, size=shape).astype(dtype)
                    for _ in range(k)]
        return [r.standard_normal(shape).astype(dtype) for _ in range(k)]

    @given(
        k=st.integers(2, 6),
        shape=st.lists(st.integers(1, 8), min_size=1, max_size=3),
        dtype=DTYPES,
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_reduce_matches_numpy_and_ring_bytes(self, k, shape, dtype,
                                                     seed):
        bufs = self._buffers(k, tuple(shape), dtype, seed)
        log = TrafficLog()
        out = ring_all_reduce(bufs, ranks=list(range(k)), log=log)
        # The engine reduces in fp64 and casts back: compare against the
        # same reference, with only summation-order slack.
        want = np.sum([b.astype(np.float64) for b in bufs], axis=0)
        for o in out:
            assert o.dtype == dtype and o.shape == tuple(shape)
            np.testing.assert_allclose(
                o.astype(np.float64), want.astype(dtype).astype(np.float64),
                rtol=1e-6, atol=1e-9,
            )
        n = int(np.prod(shape))
        assert log.total_bytes() == 2 * (k - 1) * n * 8

    @given(
        k=st.integers(2, 6),
        shard_rows=st.integers(1, 5),
        cols=st.integers(1, 6),
        dtype=DTYPES,
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_all_gather_matches_numpy_and_ring_bytes(self, k, shard_rows,
                                                     cols, dtype, seed):
        shards = self._buffers(k, (shard_rows, cols), dtype, seed)
        log = TrafficLog()
        out = all_gather(shards, ranks=list(range(k)), log=log)
        want = np.concatenate(shards, axis=0)
        for o in out:
            np.testing.assert_array_equal(o, want)
        # Each of the k shards is forwarded k-1 times around the ring.
        assert log.total_bytes() == (k - 1) * sum(s.nbytes for s in shards)
        per_rank = log.bytes_sent_by_rank()
        assert len(per_rank) == k

    @given(
        k=st.integers(2, 6),
        rows_per_rank=st.integers(1, 4),
        cols=st.integers(1, 6),
        dtype=DTYPES,
        seed=st.integers(0, 2**16),
    )
    @settings(max_examples=40, deadline=None)
    def test_reduce_scatter_matches_numpy_and_ring_bytes(
            self, k, rows_per_rank, cols, dtype, seed):
        shape = (k * rows_per_rank, cols)
        bufs = self._buffers(k, shape, dtype, seed)
        log = TrafficLog()
        out = reduce_scatter(bufs, ranks=list(range(k)), log=log)
        total = np.sum([b.astype(np.float64) for b in bufs], axis=0)
        want_slabs = np.split(total.astype(dtype), k, axis=0)
        assert len(out) == k
        for got, want in zip(out, want_slabs):
            np.testing.assert_allclose(
                got.astype(np.float64), want.astype(np.float64),
                rtol=1e-6, atol=1e-9,
            )
        assert log.total_bytes() == k * (k - 1) * (bufs[0].nbytes // k)

    @given(k=st.integers(2, 5), n=st.integers(2, 40))
    @settings(max_examples=25, deadline=None)
    def test_integer_all_reduce_is_exact(self, k, n):
        r = np.random.default_rng(n * 31 + k)
        bufs = [r.integers(-1000, 1000, size=n) for _ in range(k)]
        out = ring_all_reduce(bufs, ranks=list(range(k)))
        want = np.sum(bufs, axis=0)
        for o in out:
            np.testing.assert_array_equal(o, want)


class TestRingChunkGeometry:
    """One memoised definition of how a ring cuts ``n`` elements into
    ``k`` chunks, shared by the coop mover, the hop plans and the
    shared-memory ring step: the linspace expression all three used to
    spell, evaluated once per ``(n, k)``."""

    @given(n=st.integers(0, 2_000_000), k=st.integers(1, 16))
    @settings(max_examples=200, deadline=None)
    def test_bounds_are_the_linspace_as_immutable_python_ints(self, n, k):
        bounds = ring_chunk_bounds(n, k)
        assert list(bounds) == np.linspace(0, n, k + 1).astype(int).tolist()
        assert type(bounds) is tuple  # a caller cannot poison the cache
        assert all(type(b) is int for b in bounds)
        assert ring_chunk_bounds(n, k) is bounds

    @given(n=st.integers(0, 2_000_000), k=st.integers(1, 16),
           itemsize=st.sampled_from([1, 4, 8]))
    @settings(max_examples=200, deadline=None)
    def test_hop_plan_volume(self, n, k, itemsize):
        plan = ring_all_reduce_hops(n, itemsize, k)
        assert len(plan) == 2 * k * (k - 1)
        sent = [0] * k
        for src, dst, nbytes in plan:
            assert dst == (src + 1) % k and type(nbytes) is int
            sent[src] += nbytes
        # In each phase a rank forwards every chunk but one.
        assert sum(sent) == 2 * (k - 1) * n * itemsize
        chunks = np.diff(ring_chunk_bounds(n, k))
        assert max(sent) - min(sent) <= 2 * itemsize * (
            chunks.max() - chunks.min())
        if n % k == 0:  # 2 (k-1)/k * n * itemsize per rank, exactly
            assert set(sent) == {2 * (k - 1) * (n // k) * itemsize}
        plan.append("poison")  # the caller's own list, rebuilt per call
        assert ring_all_reduce_hops(n, itemsize, k) == plan[:-1]

    @given(sizes=st.lists(st.integers(0, 5000), min_size=1, max_size=6),
           k=st.integers(2, 5), seed=st.integers(0, 2**16))
    @settings(max_examples=40, deadline=None)
    def test_ring_step_over_many_buffers_equals_coop(self, sizes, k, seed):
        """The shared-memory ring step, one thread per rank, against the
        coop ring run on each buffer by itself."""
        rng = np.random.default_rng(seed)
        per_rank = [[rng.standard_normal(n) for n in sizes] for _ in range(k)]
        want = [
            ring_all_reduce([per_rank[r][i] for r in range(k)], list(range(k)))
            for i in range(len(sizes))
        ]
        segs = [np.concatenate(bufs) for bufs in per_rank]
        barrier = threading.Barrier(k)
        threads = [
            threading.Thread(target=ring_all_reduce_step, args=(
                sizes, r, k, segs[r], segs[(r - 1) % k],
                lambda: barrier.wait(30)))
            for r in range(k)
        ]
        for th in threads:
            th.start()
        for th in threads:
            th.join(60)
        assert not any(th.is_alive() for th in threads)
        offsets = np.cumsum([0] + sizes)
        for r in range(k):
            for i, (lo, hi) in enumerate(zip(offsets, offsets[1:])):
                assert np.array_equal(segs[r][lo:hi], want[i][r])

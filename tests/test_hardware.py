"""Tests for device/node specs, fat-tree topology, and the roofline model."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.hardware import (
    ClusterTopology,
    ComputeModel,
    DeviceSpec,
    GemmShape,
    a100_80gb,
    cluster_for_gpus,
    dgx_a100,
)


class TestDeviceSpec:
    def test_a100_peak(self):
        dev = a100_80gb()
        assert dev.peak_flops == pytest.approx(312e12)
        assert dev.memory_capacity == pytest.approx(80e9)

    def test_rejects_bad_specs(self):
        with pytest.raises(ValueError):
            DeviceSpec("x", peak_flops=0, memory_bandwidth=1, memory_capacity=1)


class TestNodeSpec:
    def test_dgx_aggregate_ib(self):
        node = dgx_a100()
        assert node.total_ib_bandwidth == pytest.approx(8 * 25e9)

    def test_per_gpu_inter_node_bw(self):
        node = dgx_a100()
        assert node.inter_node_bandwidth_per_gpu() == pytest.approx(25e9)


class TestTopology:
    def test_rank_geometry(self):
        topo = ClusterTopology(num_nodes=4)
        assert topo.num_gpus == 32
        assert topo.node_of(0) == 0
        assert topo.node_of(8) == 1
        assert topo.node_of(7) == 0

    def test_rank_bounds(self):
        topo = ClusterTopology(num_nodes=2)
        with pytest.raises(ValueError):
            topo.node_of(16)
        with pytest.raises(ValueError):
            topo.node_of(-1)

    def test_link_classification(self):
        topo = ClusterTopology(num_nodes=4)
        assert topo.link(0, 1).bandwidth == topo.node.nvlink_bandwidth
        assert topo.link(0, 8).bandwidth == topo.node.ib_bandwidth_per_hca
        assert topo.link(0, 1).latency < topo.link(0, 8).latency

    def test_hop_counts_increase_with_distance(self):
        topo = ClusterTopology(num_nodes=256, nodes_per_leaf=16, leaves_per_spine_group=8)
        same_node = topo.hop_count(0, 1)
        same_leaf = topo.hop_count(0, 8)  # nodes 0 and 1 share leaf 0
        cross_leaf = topo.hop_count(0, 16 * 8)  # node 16: leaf 1, same group
        cross_group = topo.hop_count(0, 128 * 8)  # node 128: spine group 1
        assert same_node == 0
        assert same_leaf == 2
        assert cross_leaf == 4
        assert cross_group == 6

    def test_bisection_bandwidth_full_fat_tree(self):
        """A non-oversubscribed fat-tree has bisection = half the nodes'
        aggregate injection bandwidth."""
        topo = ClusterTopology(num_nodes=64)
        bw = topo.bisection_bandwidth()
        expected = 32 * topo.node.total_ib_bandwidth
        assert bw == pytest.approx(expected, rel=0.01)

    def test_three_node_bisection_by_hand(self):
        """Three DGX nodes under one leaf, node 0 against nodes 1 and 2:
        the cheapest cut is node 0's own link to the leaf, 8 HCAs at
        25 GB/s, not the 400 GB/s of the other side's two links."""
        topo = ClusterTopology(num_nodes=3)
        assert topo.bisection_bandwidth() == 8 * 25e9

    def test_single_node_bisection_is_nvlink(self):
        topo = ClusterTopology(num_nodes=1)
        assert topo.bisection_bandwidth() == pytest.approx(4 * 300e9)

    def test_cluster_for_gpus(self):
        assert cluster_for_gpus(64).num_nodes == 8
        assert cluster_for_gpus(4).num_nodes == 1
        with pytest.raises(ValueError):
            cluster_for_gpus(12)


class TestGemmShape:
    def test_flops(self):
        g = GemmShape(m=4, k=5, n=6)
        assert g.flops == 2 * 4 * 5 * 6

    def test_batched_flops(self):
        g = GemmShape(m=4, k=5, n=6, batch=3)
        assert g.flops == 3 * 2 * 4 * 5 * 6

    def test_bytes(self):
        g = GemmShape(m=2, k=3, n=4)
        assert g.bytes_moved(2) == 2 * (6 + 12 + 8)

    def test_rejects_zero_dim(self):
        with pytest.raises(ValueError):
            GemmShape(m=0, k=1, n=1)


class TestComputeModel:
    def setup_method(self):
        self.model = ComputeModel(device=a100_80gb())

    def test_large_gemm_near_peak(self):
        """A huge well-shaped GEMM should achieve >70% of device peak."""
        g = GemmShape(m=8192, k=8192, n=8192)
        achieved = g.flops / self.model.gemm_time(g)
        assert achieved > 0.70 * 312e12

    def test_small_gemm_far_from_peak(self):
        g = GemmShape(m=32, k=64, n=32)
        achieved = g.flops / self.model.gemm_time(g)
        assert achieved < 0.25 * 312e12

    def test_efficiency_monotone_in_each_dim(self):
        base = GemmShape(m=256, k=256, n=256)
        bigger_k = GemmShape(m=256, k=1024, n=256)
        assert self.model.gemm_efficiency(bigger_k) > self.model.gemm_efficiency(base)

    @given(
        m=st.integers(1, 4096),
        k=st.integers(1, 4096),
        n=st.integers(1, 4096),
    )
    @settings(max_examples=80, deadline=None)
    def test_never_exceeds_peak(self, m, k, n):
        g = GemmShape(m=m, k=k, n=n)
        assert g.flops / self.model.gemm_time(g) <= self.model.device.peak_flops

    def test_elementwise_memory_bound(self):
        """1 GB of elementwise traffic takes ~bytes/bandwidth seconds."""
        n_elem = 250_000_000  # 0.5 GB at fp16, 2 passes = 1 GB traffic
        t = self.model.elementwise_time(n_elem, passes=2.0)
        assert t == pytest.approx(1e9 / 2.039e12, rel=0.05)

    def test_elementwise_rejects_negative(self):
        with pytest.raises(ValueError):
            self.model.elementwise_time(-1)

    def test_memory_time(self):
        assert self.model.memory_time(2.039e12) == pytest.approx(1.0)

    def test_tensor_parallel_slicing_lowers_efficiency(self):
        """Slicing the k dimension t ways (row-parallel GEMM) lowers
        achieved efficiency -- the §3.3.2 effect."""
        full = GemmShape(m=2048, k=4096, n=4096)
        sliced = GemmShape(m=2048, k=4096 // 8, n=4096)
        assert self.model.gemm_efficiency(sliced) < self.model.gemm_efficiency(full)

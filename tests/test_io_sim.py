"""Tests for the checkpoint I/O model (§5.10)."""

import pytest

from repro.config import ParallelConfig, gpt3_175b, gpt_1t
from repro.io_sim import (
    CHECKPOINT_BYTES_PER_PARAM,
    ParallelFilesystem,
    checkpoint_size_bytes,
    load_time,
    save_time,
)


def one_t_parallel():
    return ParallelConfig(
        pipeline_parallel_size=64, tensor_parallel_size=8,
        data_parallel_size=6, microbatch_size=1, global_batch_size=3072,
    )


class TestCheckpointSize:
    def test_1t_is_13_8_tb(self):
        size = checkpoint_size_bytes(gpt_1t())
        assert size / 1e12 == pytest.approx(13.8, rel=0.05)

    def test_bytes_per_param(self):
        assert CHECKPOINT_BYTES_PER_PARAM == 14

    def test_175b_size(self):
        assert checkpoint_size_bytes(gpt3_175b()) / 1e12 == pytest.approx(
            2.44, rel=0.05
        )


class TestLoadSave:
    def test_load_hits_read_cap_at_384_nodes(self):
        rep = load_time(gpt_1t(), one_t_parallel(), 384)
        assert rep.achieved_bandwidth == pytest.approx(1e12)
        # All 6 replicas read: volume = 6 x checkpoint.
        assert rep.total_bytes == 6 * checkpoint_size_bytes(gpt_1t())

    def test_small_cluster_limited_by_node_links(self):
        rep = load_time(gpt_1t(), one_t_parallel(), 4)
        fs = ParallelFilesystem()
        assert rep.achieved_bandwidth == pytest.approx(4 * fs.per_node_bandwidth)

    def test_save_reaches_40pct_of_peak(self):
        rep = save_time(gpt_1t(), one_t_parallel(), 384)
        assert rep.achieved_bandwidth == pytest.approx(273e9, rel=0.01)
        assert rep.duration_seconds == pytest.approx(
            checkpoint_size_bytes(gpt_1t()) / 273e9, rel=0.01
        )

    def test_single_replica_load(self):
        rep = load_time(gpt_1t(), one_t_parallel(), 384, all_replicas=False)
        assert rep.total_bytes == checkpoint_size_bytes(gpt_1t())

    def test_validation(self):
        with pytest.raises(ValueError):
            load_time(gpt_1t(), one_t_parallel(), 0)
        with pytest.raises(ValueError):
            ParallelFilesystem(write_efficiency=0)
        with pytest.raises(ValueError):
            ParallelFilesystem(peak_read_bandwidth=-1)

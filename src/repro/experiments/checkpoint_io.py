"""§5.10: checkpoint loading and saving for the trillion-parameter model."""

from __future__ import annotations

from repro.config import ParallelConfig, gpt_1t
from repro.io_sim import checkpoint_size_bytes, load_time, save_time

from .report import ExperimentResult

NUM_NODES = 384


def run() -> ExperimentResult:
    model = gpt_1t()
    parallel = ParallelConfig(
        pipeline_parallel_size=64, tensor_parallel_size=8,
        data_parallel_size=6, microbatch_size=1, global_batch_size=3072,
    )
    size = checkpoint_size_bytes(model)
    lt = load_time(model, parallel, NUM_NODES)
    st = save_time(model, parallel, NUM_NODES)
    result = ExperimentResult(
        experiment_id="checkpoint_io",
        title="Checkpoint I/O for the 1T model (§5.10)",
        columns=("metric", "value", "paper"),
    )
    result.add("checkpoint size (TB)", round(size / 1e12, 1), 13.8)
    result.add("load bandwidth (GB/s)", round(lt.achieved_bandwidth / 1e9, 0), 1000)
    result.add("load time (s)", round(lt.duration_seconds, 0), float("nan"))
    result.add("save bandwidth (GB/s)", round(st.achieved_bandwidth / 1e9, 0), 273)
    result.add("save time (s)", round(st.duration_seconds, 0), float("nan"))
    result.notes = (
        "Shape target: ~14 TB checkpoint; load saturates the filesystem's "
        "1 TB/s read peak; saves reach 40% of peak write."
    )
    return result

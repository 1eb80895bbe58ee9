"""§5.9: effective inter-node communication bandwidth at 3072 GPUs.

For the trillion-parameter configuration (t=8, p=64, d=6, 384 nodes)
this experiment reports

- the aggregate *pipeline* point-to-point bandwidth across the cluster
  midpoint: at the stage boundary straddling the bisection, every
  (tensor x data) rank pair drives its own InfiniBand HCA, so the
  effective bandwidth is (t*d) concurrent streams at their achieved
  per-stream rate (paper: 892 GB/s);
- the aggregate *data-parallel* all-reduce bandwidth while the gradient
  all-reduce is active, summed over all t*p concurrent data-parallel
  rings (paper reports 12.9-13 TB/s; our number counts all inter-node
  ring traffic rather than only bisection-crossing bytes, so it is an
  upper bound with the same >10x separation from the pipeline number);
- the fat-tree's theoretical bisection bandwidth from the topology
  min-cut, for reference.
"""

from __future__ import annotations

from repro.comm import CommCostModel, ProcessGroups
from repro.config import ParallelConfig, gpt_1t
from repro.hardware import cluster_for_gpus
from repro.perf import MODEL_STATE_BYTES_PER_PARAM, parameters_per_rank

from .report import ExperimentResult


def run() -> ExperimentResult:
    model = gpt_1t()
    parallel = ParallelConfig(
        pipeline_parallel_size=64, tensor_parallel_size=8,
        data_parallel_size=6, microbatch_size=1, global_batch_size=3072,
    )
    topo = cluster_for_gpus(parallel.world_size)
    comm = CommCostModel(topo)
    groups = ProcessGroups(parallel)

    # Pipeline p2p across the midpoint: one stage boundary straddles it;
    # t*d rank pairs transfer simultaneously, one HCA each (§4.1).
    b, s, h = parallel.b, model.seq_length, model.hidden_size
    bytes_per_pair = b * s * h * 2 / parallel.t  # scatter/gather split
    pipe_ranks = groups.pipeline_group(dp=0, tp=0)
    mid = parallel.p // 2
    per_pair_time = comm.p2p_time(
        pipe_ranks[mid - 1], pipe_ranks[mid], bytes_per_pair
    )
    streams = parallel.t * parallel.d
    pipeline_bw = streams * bytes_per_pair / per_pair_time

    # Data-parallel all-reduce: t*p concurrent rings over the fp16
    # gradient shard of each rank.
    grad_bytes = parameters_per_rank(model, parallel) * 2
    dp_ranks = groups.data_group(pp=0, tp=0)
    ar_time = comm.all_reduce_time(dp_ranks, grad_bytes)
    per_rank_moved = 2 * (parallel.d - 1) / parallel.d * grad_bytes
    group_bw = parallel.d * per_rank_moved / ar_time
    dp_bw = parallel.t * parallel.p * group_bw

    result = ExperimentResult(
        experiment_id="bisection",
        title="Effective inter-node bandwidth, 1T model on 3072 GPUs (§5.9)",
        columns=("metric", "value_GBps", "paper_GBps"),
    )
    result.add("pipeline p2p (bisection streams)", round(pipeline_bw / 1e9, 0), 892)
    result.add("data-parallel all-reduce (aggregate)", round(dp_bw / 1e9, 0), 12900)
    result.add(
        "fat-tree theoretical bisection", round(topo.bisection_bandwidth() / 1e9, 0),
        float("nan"),
    )
    result.notes = (
        "Shape target: data-parallel all-reduce bandwidth exceeds the "
        "pipeline p2p bisection bandwidth by >10x; both are far below "
        "the tree's theoretical bisection, i.e. the partitioning, not "
        "the network, sets the communication intensity."
    )
    return result

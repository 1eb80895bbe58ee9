"""PTD-P parallel training: tensor, pipeline, data parallelism, ZeRO-3."""

from .data_parallel import (
    all_reduce_gradients,
    data_parallel_comm_bytes,
    scatter_batch,
)
from .pipeline_parallel import (
    PipelineParallelGPT,
    PipelineStage,
    make_microbatches,
    split_layers_into_stages,
)
from .tensor_parallel import (
    ColumnParallelLinear,
    ParallelAttention,
    ParallelMLP,
    ParallelTransformerBlock,
    RowParallelLinear,
    TensorParallelGPT,
    TensorParallelGroup,
    VocabParallelEmbedding,
    VocabParallelOutputHead,
)
from .trainer import PTDTrainer
from .zero import Zero3Engine, ZeroShardedParameter, zero3_comm_bytes

__all__ = [
    "TensorParallelGroup",
    "TensorParallelGPT",
    "ColumnParallelLinear",
    "RowParallelLinear",
    "ParallelMLP",
    "ParallelAttention",
    "ParallelTransformerBlock",
    "VocabParallelEmbedding",
    "VocabParallelOutputHead",
    "PipelineParallelGPT",
    "PipelineStage",
    "split_layers_into_stages",
    "make_microbatches",
    "all_reduce_gradients",
    "scatter_batch",
    "data_parallel_comm_bytes",
    "Zero3Engine",
    "ZeroShardedParameter",
    "zero3_comm_bytes",
    "PTDTrainer",
]

"""PTD-P parallel training: tensor, pipeline, data parallelism, ZeRO-3."""

from .data_parallel import scatter_batch
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
from .zero import Zero3Engine, ZeroShardedParameter

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
    "scatter_batch",
    "Zero3Engine",
    "ZeroShardedParameter",
    "PTDTrainer",
]

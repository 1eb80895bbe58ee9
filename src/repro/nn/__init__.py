"""Numerical NN substrate: explicit-backward numpy transformer."""

from . import functional
from .generate import generate, perplexity
from .gradcheck import check_module_gradients, numerical_gradient
from .layers import Dropout, Embedding, GeLU, LayerNorm, Linear, default_init
from .module import Module, Parameter
from .lr_scheduler import WarmupCosineSchedule
from .optim import Adam
from .transformer import (
    MLP,
    CausalSelfAttention,
    EmbeddingStage,
    GPTModel,
    OutputHead,
    TransformerBlock,
)

__all__ = [
    "functional",
    "Module",
    "Parameter",
    "Linear",
    "LayerNorm",
    "Dropout",
    "GeLU",
    "Embedding",
    "default_init",
    "CausalSelfAttention",
    "MLP",
    "TransformerBlock",
    "EmbeddingStage",
    "OutputHead",
    "GPTModel",
    "Adam",
    "generate",
    "perplexity",
    "WarmupCosineSchedule",
    "check_module_gradients",
    "numerical_gradient",
]

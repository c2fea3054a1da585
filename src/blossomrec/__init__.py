"""Block-level fused sparse attention for sequential recommendation.

Two sparse pathways over the same Q/K/V - top-k compressed-block selection
for long-range interests and a power-law mask for recent ones - fused by a
learnable sigmoid gate inside an otherwise ordinary post-norm encoder, plus
the training loop, sampled-negative evaluation, and sparsity accounting
around it.
"""

from .config import AttentionConfig, RunConfig
from .data import InteractionLog, SeqBatch, leave_one_out_split, load_interactions, make_synthetic
from .errors import CheckpointError, ConfigError, DataError
from .gradcheck import grad_check
from .metrics import EvalResult, rank_metrics, sample_negatives
from .model import Model, evaluate, load_checkpoint, save_checkpoint, train
from .tensor import GradTape, Tensor

__version__ = "0.1.0"

__all__ = [
    "AttentionConfig",
    "RunConfig",
    "InteractionLog",
    "SeqBatch",
    "leave_one_out_split",
    "load_interactions",
    "make_synthetic",
    "CheckpointError",
    "ConfigError",
    "DataError",
    "grad_check",
    "EvalResult",
    "rank_metrics",
    "sample_negatives",
    "Model",
    "evaluate",
    "load_checkpoint",
    "save_checkpoint",
    "train",
    "GradTape",
    "Tensor",
    "__version__",
]

"""Configuration objects for the attention mechanism and for full runs."""

from __future__ import annotations

import dataclasses
import math
import os
import typing
from dataclasses import dataclass
from pathlib import Path

from .errors import ConfigError

__all__ = ["AttentionConfig", "RunConfig", "PATHWAYS", "parse_config_file", "resolve_run_config"]

# Which attention pathways an encoder layer runs: both, gated, or one alone.
PATHWAYS = ("both", "ltis", "stis")


@dataclass(frozen=True)
class AttentionConfig:
    """Sparsity and architecture hyperparameters for one attention layer.

    Defaults are the published settings: compression blocks of 32 with
    stride 16, selection blocks of 16, 4 selected blocks, window 8, mask
    block 1, 8 query heads in 2 KV groups.
    """

    block_size: int = 32       # compression block length
    stride: int = 16           # start-to-start distance of compression blocks
    sel_block_size: int = 16   # selection block length
    top_k: int = 4             # selected blocks per query
    win: int = 8               # window size, in mask blocks
    blk: int = 1               # mask block size
    heads: int = 8             # query heads
    kv_groups: int = 2         # shared key/value groups
    d_model: int = 128
    d_head: int = 16

    def __post_init__(self):
        for f in dataclasses.fields(AttentionConfig):
            if getattr(self, f.name) < 1:
                raise ConfigError(f"{f.name} must be positive, got {getattr(self, f.name)}")
        if self.stride > self.block_size:
            raise ConfigError(f"stride ({self.stride}) must not exceed block_size ({self.block_size})")
        if self.block_size % self.stride != 0:
            raise ConfigError(f"stride ({self.stride}) must divide block_size ({self.block_size})")
        if self.sel_block_size % self.stride != 0:
            raise ConfigError(f"stride ({self.stride}) must divide sel_block_size ({self.sel_block_size})")
        if self.heads % self.kv_groups != 0:
            raise ConfigError(f"heads ({self.heads}) must be divisible by kv_groups ({self.kv_groups})")
        if self.d_head % 2 != 0:
            raise ConfigError(f"d_head must be even for rotary encoding, got {self.d_head}")

    @property
    def heads_per_group(self) -> int:
        return self.heads // self.kv_groups

    @property
    def window_span(self) -> int:
        """Half-width of the local attention window, in positions."""
        return self.win * self.blk

    def num_cmp_blocks(self, length: int) -> int:
        """Number of overlapping compression blocks covering ``length`` keys."""
        if length < self.block_size:
            return 1  # short sequences are left-padded into a single block
        return (length - self.block_size) // self.stride + 1

    def num_sel_blocks(self, length: int) -> int:
        return math.ceil(length / self.sel_block_size)

    def group_of_head(self, head: int) -> int:
        return head // self.heads_per_group


@dataclass(frozen=True)
class RunConfig(AttentionConfig):
    """Flat key-value configuration for the CLI: ``AttentionConfig``'s
    fields plus the run settings below, all checked when it is built.
    Defaults follow the published training setup where one is stated
    (embedding dim 128, two layers, eight heads, Adam lr 1e-3, batch 2048,
    dropout 0.2, patience 15, max length 200)."""

    dataset: str = ""
    layers: int = 2
    max_len: int = 200
    lr: float = 0.001
    batch_size: int = 2048
    dropout: float = 0.2
    seed: int = 0
    epochs: int = 200
    patience: int = 15
    eval_k: int = 10
    negatives: int = 100
    min_len: int = 3
    pathway: str = "both"  # one of PATHWAYS

    def attention(self) -> AttentionConfig:
        """The attention fields alone, as the model and its checkpoint take them."""
        return AttentionConfig(**{f.name: getattr(self, f.name)
                                  for f in dataclasses.fields(AttentionConfig)})

    def __post_init__(self):
        super().__post_init__()
        if self.pathway not in PATHWAYS:
            raise ConfigError(f"pathway must be {'|'.join(PATHWAYS)}, got {self.pathway!r}")
        if not 0.0 <= self.dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {self.dropout}")
        for name in ("batch_size", "epochs", "max_len", "layers", "eval_k", "negatives",
                     "patience"):
            if getattr(self, name) < 1:
                raise ConfigError(f"{name} must be at least 1, got {getattr(self, name)}")
        if self.min_len < 2:   # the two held-out items
            raise ConfigError(f"min_len must be at least 2, got {self.min_len}")
        if not self.lr > 0.0:
            raise ConfigError(f"lr must be positive, got {self.lr}")
        if self.seed < 0:
            raise ConfigError(f"seed must be non-negative, got {self.seed}")


# Field name -> type, which also parses a config-file or command-line value.
_RUN_FIELD_TYPES = typing.get_type_hints(RunConfig)


def parse_config_file(path: str | Path) -> dict:
    """Parse a flat ``key = value`` config file; '#' starts a comment."""
    values: dict[str, object] = {}
    text = Path(path).read_text()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected 'key = value', got {raw!r}")
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if key not in _RUN_FIELD_TYPES:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        try:
            values[key] = _RUN_FIELD_TYPES[key](value)
        except ValueError as exc:
            raise ConfigError(f"{path}:{lineno}: bad value for {key!r}: {value!r}") from exc
    return values


def resolve_run_config(file_values: dict | None = None, flag_values: dict | None = None) -> RunConfig:
    """Merge defaults < config file < command-line flags into a RunConfig.

    Seed fallback: if neither source sets a seed, BLOSSOM_SEED from the
    environment applies.
    """
    merged = dataclasses.asdict(RunConfig())
    seed_set = False
    for source in (file_values, flag_values):
        if not source:
            continue
        for key, value in source.items():
            if value is None:
                continue
            if key not in merged:
                raise ConfigError(f"unknown config key {key!r}")
            merged[key] = value
            if key == "seed":
                seed_set = True
    if not seed_set and os.environ.get("BLOSSOM_SEED"):
        try:
            merged["seed"] = int(os.environ["BLOSSOM_SEED"])
        except ValueError as exc:
            raise ConfigError(f"BLOSSOM_SEED must be an integer, got {os.environ['BLOSSOM_SEED']!r}") from exc
    return RunConfig(**merged)

"""Short-term interest pathway: power-law attention mask over full K/V.

A query at position i may attend position j when any of three cases holds:

  1. |i - j| < win * blk                          (local window)
  2. |i//blk - j//blk| is a power of two (2^t, t >= 0)  (power distances)
  3. j lies in the final blk positions            (freshest interactions)

In causal mode the pattern is intersected with j <= i. Per-row visible
counts grow logarithmically in the sequence length, which is the point:
masks are stored as per-row index lists, not dense L x L bytes.
"""

from __future__ import annotations

import numpy as np

from .config import AttentionConfig

__all__ = ["SparseMask", "build_power_mask", "batch_stis_masks"]


class SparseMask:
    """Per-row visible-position lists for an L x L visibility pattern."""

    def __init__(self, length: int, rows: list[np.ndarray], causal: bool):
        self.length = length
        self.rows = rows  # rows[i]: sorted unique int64 positions visible to query i
        self.causal = causal

    def visible_counts(self) -> np.ndarray:
        return np.array([len(r) for r in self.rows], dtype=np.int64)

    def to_dense(self) -> np.ndarray:
        dense = np.zeros((self.length, self.length), dtype=bool)
        for i, row in enumerate(self.rows):
            dense[i, row] = True
        return dense

    def num_pairs(self) -> int:
        return int(self.visible_counts().sum())


def _power_distances(max_blocks: int) -> np.ndarray:
    """Powers of two up to max_blocks - 1 (block-index distances)."""
    if max_blocks <= 1:
        return np.empty(0, dtype=np.int64)
    top = int(np.floor(np.log2(max_blocks - 1)))
    return 2 ** np.arange(top + 1, dtype=np.int64)


def build_power_mask(length: int, cfg: AttentionConfig, causal: bool = True) -> SparseMask:
    """Build the three-case visibility pattern for a length-L sequence."""
    if length < 1:
        raise ValueError(f"mask length must be positive, got {length}")
    blk, span = cfg.blk, cfg.window_span
    num_blocks = -(-length // blk)
    powers = _power_distances(num_blocks)
    last_start = max(0, length - blk)
    rows: list[np.ndarray] = []
    for i in range(length):
        lo = max(0, i - span + 1)
        hi = i if causal else min(length - 1, i + span - 1)
        visible = [np.arange(lo, hi + 1, dtype=np.int64)]
        bi = i // blk
        for dist in powers:
            for bk in (bi - dist, bi + dist):
                if bk < 0 or bk * blk >= length:
                    continue
                start, stop = bk * blk, min((bk + 1) * blk, length)
                if causal:
                    stop = min(stop, i + 1)
                if start < stop:
                    visible.append(np.arange(start, stop, dtype=np.int64))
        stop = i + 1 if causal else length
        if last_start < stop:
            visible.append(np.arange(last_start, stop, dtype=np.int64))
        rows.append(np.unique(np.concatenate(visible)))
    return SparseMask(length, rows, causal)


def batch_stis_masks(lengths: np.ndarray, total_len: int, cfg: AttentionConfig) -> np.ndarray:
    """Causal power masks for a left-padded batch.

    Returns bool (B, 1, 1, L, L): each sequence's mask sits in the bottom
    right corner of its padded frame, so padding positions are neither
    queries nor keys. Masks are cached per distinct real length.
    """
    batch = len(lengths)
    out = np.zeros((batch, 1, 1, total_len, total_len), dtype=bool)
    cache: dict[int, np.ndarray] = {}
    for b, n in enumerate(lengths):
        n = int(n)
        if n == 0:
            continue
        if n not in cache:
            cache[n] = build_power_mask(n, cfg, causal=True).to_dense()
        pad = total_len - n
        out[b, 0, 0, pad:, pad:] = cache[n]
    return out

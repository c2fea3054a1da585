"""Short-term interest pathway: power-law attention mask over full K/V.

A query at position i may attend position j when any of three cases holds:

  1. |i - j| < win * blk                          (local window)
  2. |i//blk - j//blk| is a power of two (2^t, t >= 0)  (power distances)
  3. j lies in the final blk positions            (freshest interactions)

In causal mode the pattern is intersected with j <= i. Per-row visible
counts grow logarithmically in the sequence length, which is the point:
masks are stored as per-row index lists, not dense L x L bytes.

The model runs the causal pattern as an attention index: ``power_table``
holds every row once per (config, length), cached across batches, and
``stis_index`` shifts it into each sequence's left-padded frame.
``batch_stis_masks`` is the same index scattered into a dense mask.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import AttentionConfig
from .tensor import index_mask

__all__ = ["SparseMask", "build_power_mask", "power_table", "gather_width", "stis_index",
           "batch_stis_masks"]


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


@functools.lru_cache(maxsize=256)
def power_table(cfg: AttentionConfig, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Causal power-mask rows 0..length-1 as an (L, K) index and validity.

    Row i lists the positions query i sees, ascending, in its first
    ``valid[i].sum()`` slots; K is the longest row. Causally, row i does
    not depend on the sequence length: case 3 (the final blk positions)
    lies inside every window that may see it, because blk <= win * blk.
    So row i here is ``build_power_mask(n).rows[i]`` for every n > i.
    """
    span = cfg.window_span
    width = min(span, length)
    i = np.arange(length)[:, None]
    window = i - width + 1 + np.arange(width)                      # case 1
    powers = _power_distances(-(-length // cfg.blk))
    starts = ((i // cfg.blk - powers) * cfg.blk)[:, :, None]      # case 2, earlier blocks only
    blocks = (starts + np.arange(cfg.blk)).reshape(length, -1)
    blocks_ok = (blocks >= 0) & (blocks <= i - span)               # outside the window
    cand = np.concatenate([window, blocks], axis=1)
    ok = np.concatenate([window >= 0, blocks_ok], axis=1)
    keyed = np.sort(np.where(ok, cand, length), axis=1)
    k = int(ok.sum(axis=1).max())
    idx, valid = keyed[:, :k], keyed[:, :k] < length
    idx = np.where(valid, idx, 0)
    idx.flags.writeable = valid.flags.writeable = False
    return idx, valid


def gather_width(cfg: AttentionConfig, length: int) -> int:
    """Key slots per query in the STIS attention index of a length-L frame."""
    return power_table(cfg, length)[0].shape[1]


def stis_index(lengths: np.ndarray, total_len: int,
               cfg: AttentionConfig) -> tuple[np.ndarray, np.ndarray]:
    """The causal power mask of a left-padded batch as an attention index.

    Returns int positions and their validity, each (B, 1, L, K): query
    slot p of a length-n sequence is real position p - (L - n), its row of
    ``power_table`` shifted by the padding. Padding queries see nothing.
    """
    table, ok = power_table(cfg, total_len)
    pad = total_len - np.asarray(lengths, dtype=np.int64)[:, None]
    pos = np.arange(total_len)[None, :] - pad                      # real position, < 0 on padding
    rows = np.maximum(pos, 0)
    valid = ok[rows] & (pos >= 0)[:, :, None]
    idx = np.where(valid, table[rows] + pad[:, :, None], 0)
    return idx[:, None], valid[:, None]


def batch_stis_masks(lengths: np.ndarray, total_len: int, cfg: AttentionConfig) -> np.ndarray:
    """Causal power masks for a left-padded batch.

    Returns bool (B, 1, 1, L, L): each sequence's mask sits in the bottom
    right corner of its padded frame, so padding positions are neither
    queries nor keys. It is ``stis_index`` scattered into dense form.
    """
    return index_mask(*stis_index(lengths, total_len, cfg), total_len)

"""Item-id embeddings and rotary position encoding.

Id 0 names no item: its embedding row is pinned to zero and never
receives gradient (batches hold no padding, and training rejects id 0).
Positions are 0-indexed within each sequence, so they restart at every
segment of a packed stream.
"""

from __future__ import annotations

import numpy as np

from .errors import ConfigError, DataError
from .tensor import Tensor, rope, take_rows

__all__ = ["EmbeddingTable", "RoPECache", "embed", "apply_rope"]


class EmbeddingTable:
    """num_items + 1 rows of dimension d; row 0 is reserved for id 0."""

    def __init__(self, num_items: int, dim: int, rng: np.random.Generator):
        weights = rng.normal(0.0, 0.02, (num_items + 1, dim))
        weights[0] = 0.0
        self.weights = Tensor(weights, requires_grad=True)
        self.num_items = num_items

    @property
    def rows(self) -> int:
        return self.num_items + 1

    def item_vectors(self) -> Tensor:
        """Rows 1..num_items (row 0 excluded), used for scoring."""
        return self.weights[1:]

    def clamp_padding(self) -> None:
        """Re-pin row 0: zero weights, zero pending gradient."""
        self.weights.data[0] = 0.0
        if self.weights.grad is not None:
            self.weights.grad[0] = 0.0


def embed(ids: np.ndarray, table: EmbeddingTable) -> Tensor:
    """Look up a batch of id matrices, shape (..., L) -> (..., L, d)."""
    ids = np.asarray(ids, dtype=np.int64)
    if ids.size and (ids.min() < 0 or ids.max() >= table.rows):
        bad = ids[(ids < 0) | (ids >= table.rows)].flat[0]
        raise DataError(f"item id {int(bad)} outside embedding table with {table.rows} rows")
    return take_rows(table.weights, ids)


class RoPECache:
    """Precomputed tables for rotary position encoding.

    The head dimension is split in halves; coordinate pair (j, j + d/2)
    rotates by angle position * BASE**(-2j/d). Rotations are orthogonal, so
    vector norms are preserved and post-rotation dot products depend only on
    the position difference. ``cos`` and ``sin`` are (max_len, d_head), each
    pair's angle written at both of its coordinates, and ``rotate`` is the
    signed permutation with ``x @ rotate == concat(-x[d/2:], x[:d/2])``.
    """

    BASE = 10000.0

    def __init__(self, d_head: int, max_len: int):
        if d_head % 2 != 0:
            raise ConfigError(f"rotary encoding needs an even head dimension, got {d_head}")
        self.d_head = d_head
        self.max_len = max_len
        half = d_head // 2
        inv_freq = self.BASE ** (-np.arange(half, dtype=np.float64) * 2.0 / d_head)
        angles = np.arange(max_len, dtype=np.float64)[:, None] * inv_freq[None, :]
        self.cos = np.tile(np.cos(angles), 2)
        self.sin = np.tile(np.sin(angles), 2)
        eye = np.eye(half)
        self.rotate = np.block([[0 * eye, eye], [-eye, 0 * eye]])


def apply_rope(x: Tensor, w: Tensor, heads: int, positions: np.ndarray,
               cache: RoPECache) -> Tensor:
    """Project rows to query or key heads and rotate each head's vectors
    by their position-dependent angles: ``x @ w`` split into ``heads``
    heads, then ``y * cos + (y @ rotate) * sin``, one tape op
    (``tensor.rope``) that keeps no pre-rotation projection.

    x: (..., L, d_in) rows; w: (d_in, heads * d_head); positions: int
    array of shape (L,), one per row. Returns (..., L, heads, d_head).
    """
    if w.shape[-1] != heads * cache.d_head:
        raise ConfigError(f"rope cache built for d_head={cache.d_head}, a weight of width "
                          f"{w.shape[-1]} does not split into {heads} such heads")
    positions = np.asarray(positions, dtype=np.int64)
    if positions.shape != x.shape[-2:-1]:
        raise ConfigError(f"rope positions must be 1-D, one per row of {x.shape[-2]}; "
                          f"got shape {positions.shape}")
    if positions.max(initial=0) >= cache.max_len:
        raise ConfigError(f"position {positions.max()} exceeds rope cache length {cache.max_len}")
    return rope(x, w, heads, cache.cos[positions, None], cache.sin[positions, None], cache.rotate)

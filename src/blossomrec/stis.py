"""Short-term interest pathway: causal power-law attention mask over full K/V.

A query at position i may attend position j <= i when any of three cases
holds:

  1. i - j < win * blk                            (local window)
  2. i//blk - j//blk is a power of two (2^t, t >= 0)  (power distances)
  3. j lies in the final blk positions            (freshest interactions)

The pattern is causal only; the model never looks ahead. Per-row visible
counts grow logarithmically in the sequence length, which is the point:
the mask is stored as a per-row key index, not dense L x L bytes.

``power_table`` is the one construction of the mask: it holds every row
once per (config, length), cached across batches. ``stis_index`` reads
each query's row and shifts it by its segment's start in the packed
stream, both read from the batch's ``data.SeqContext``, for all queries
at once; the encoder gathers the K/V rows of that index.
``batch_stis_masks`` runs ``stis_index`` on each sequence of a left-padded
batch alone and returns dense masks, a reference for checks and tests
that the model does not call.
``verify.brute_force_power_mask`` evaluates the three cases literally
and is the table's oracle.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import AttentionConfig
from .data import SeqContext
from .tensor import index_mask

__all__ = ["power_table", "stis_index", "batch_stis_masks"]


def _power_distances(max_blocks: int) -> np.ndarray:
    """Powers of two up to max_blocks - 1 (block-index distances)."""
    if max_blocks <= 1:
        return np.empty(0, dtype=np.int64)
    top = int(np.floor(np.log2(max_blocks - 1)))
    return 2 ** np.arange(top + 1, dtype=np.int64)


@functools.lru_cache(maxsize=256)
def power_table(cfg: AttentionConfig, length: int) -> tuple[np.ndarray, np.ndarray]:
    """Causal power-mask rows 0..length-1 as an (L, K) index and validity.

    Row i lists the positions query i sees, ascending, in its first
    ``valid[i].sum()`` slots; K is the longest row. Causally, row i does
    not depend on the sequence length: case 3 (the final blk positions)
    lies inside every window that may see it, because blk <= win * blk.
    So the first n rows of any longer table are the length-n table's rows.
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


def stis_index(ctx: SeqContext, q_rows: np.ndarray,
               cfg: AttentionConfig) -> tuple[np.ndarray, np.ndarray]:
    """The causal power mask of the packed stream ``ctx`` describes, as an
    attention index for the queries at stream rows ``q_rows``.

    A query at position p of its segment sees row p of ``power_table``
    shifted by its segment's start. One table serves every segment: it is
    built for the furthest position asked (the last query of the longest
    segment is at length - 1), and the first n rows of a longer table are
    the length-n table. Returns int32 rows and their validity, each
    (1, 1, Nq, K).
    """
    positions = ctx.positions[q_rows]
    table, ok = power_table(cfg, int(positions.max(initial=0)) + 1)
    # a query's segment starts ``position`` rows before it
    idx = np.add(table[positions], (q_rows - positions)[:, None], dtype=np.int32)
    return idx[None, None], ok[positions][None, None]


def batch_stis_masks(lengths: np.ndarray, width: int, cfg: AttentionConfig) -> np.ndarray:
    """Causal power masks for a left-padded batch ``width`` slots wide.

    Returns bool (B, 1, 1, L, L): each sequence runs alone as a stream of
    one segment, and its ``stis_index`` (``index_mask``) fills the bottom
    right corner of its mask, so padding slots are neither queries nor
    keys.
    """
    out = np.zeros((len(lengths), 1, 1, width, width), dtype=bool)
    for b, n in enumerate(lengths):
        ctx = SeqContext.from_lengths([n])
        out[b, :, :, width - n:, width - n:] = index_mask(
            *stis_index(ctx, ctx.query_rows(None), cfg), n)[0]
    return out

"""Long-term interest pathway: compress key blocks, score them against each
query, and let attention see only the top-k selection blocks.

Pipeline per sequence, all KV groups at once:

  1. split keys into overlapping compression blocks (size block_size,
     stride ``stride``);
  2. compress each block to one vector with a fixed random MLP;
  3. softmax importance of each compressed block per query position
     (only blocks lying entirely at or before the query are scored);
  4. remap compression-block scores onto selection-block scores by summing
     the scores of overlapping compression blocks;
  5. sum the per-head selection scores within each KV group so all heads of
     a group share one ranking;
  6. take the top-k causally started selection blocks per query (ties go to
     the lower block index; fewer than k valid blocks means take them all);
  7. expand the chosen blocks into an attention index, ``ltis_index``:
     each query's top_k * sel_block_size key positions, causally cut. The
     queries may be only the newest rows of the frame the keys span (the
     last layer at inference asks for one), and steps 3-6 then run on
     those rows alone. The encoder attends over this index, gathering its
     K/V rows or, on short frames, masking densely (``fusion`` explains
     the choice).
     ``build_ltis_masks`` is the index as a dense mask, a reference for
     checks and tests that the model does not call.

A sequence with at most top_k selection blocks skips steps 1-6: every
started block is selected whatever the scores, so each query sees its
causal prefix.

Selection is a discrete ranking, so no gradient flows through it: by
design the blocks are scored through a fixed random projection
(``CompressionMLP``), drawn once from the model's seed and never trained.
The whole pipeline runs on plain arrays.
"""

from __future__ import annotations

import numpy as np

from .config import AttentionConfig
from .tensor import index_mask, masked_softmax, parameter

__all__ = [
    "CompressionMLP",
    "split_blocks",
    "compress_sequence",
    "importance_scores",
    "remap_matrix",
    "remap_scores",
    "select_topk",
    "selection_to_visibility",
    "ltis_index",
    "build_ltis_masks",
]


class CompressionMLP:
    """Fixed random map from an entire (block_size x d_head) block to a
    single d_head vector.

    A random intra-block position bias is added before flattening, so the
    compression is sensitive to the order of rows within a block, then a
    single tanh hidden layer of width d_head produces the compressed key.
    The weights are drawn from ``rng`` as ``tensor.parameter`` draws
    learnable ones (Glorot uniform; the bias small normal) and never
    trained.
    """

    def __init__(self, block_size: int, d_head: int, rng: np.random.Generator):
        self.pos_bias = rng.normal(0.0, 0.02, (block_size, d_head))
        self.w1 = parameter((block_size * d_head, d_head), rng).data
        self.w2 = parameter((d_head, d_head), rng).data

    def apply_stack(self, blocks: np.ndarray) -> np.ndarray:
        """Compress stacked blocks, (..., M, block_size, d_head) -> (..., M, d_head)."""
        flat = (blocks + self.pos_bias).reshape(blocks.shape[:-2] + (-1,))
        return np.tanh(flat @ self.w1) @ self.w2


def _block_starts(length: int, cfg: AttentionConfig) -> np.ndarray:
    """(M,) first position of each compression block: i * stride, or for a
    sequence shorter than one block, L - block_size for its single block,
    whose positions before 0 are zeros."""
    shift = min(length - cfg.block_size, 0)
    return np.arange(cfg.num_cmp_blocks(length)) * cfg.stride + shift


def split_blocks(keys: np.ndarray, cfg: AttentionConfig) -> np.ndarray:
    """Cut (..., L, d_head) keys into the blocks ``_block_starts`` gives,
    (..., M, block_size, d_head); consecutive blocks overlap by
    block_size - stride positions."""
    starts = _block_starts(keys.shape[-2], cfg)
    pad = -starts[0]
    if pad:
        zeros = np.zeros(keys.shape[:-2] + (pad, keys.shape[-1]))
        keys = np.concatenate([zeros, keys], axis=-2)
    return keys[..., (starts + pad)[:, None] + np.arange(cfg.block_size), :]


def compress_sequence(keys: np.ndarray, phi: CompressionMLP, cfg: AttentionConfig) -> np.ndarray:
    """All compression blocks of (..., L, d_head) keys, compressed: (..., M, d_head)."""
    return phi.apply_stack(split_blocks(keys, cfg))


def importance_scores(q: np.ndarray, cmp_keys: np.ndarray, cfg: AttentionConfig,
                      seq_len: int) -> np.ndarray:
    """Softmax attention of each query over the compressed keys.

    q: (..., L, d_head), cmp_keys: (..., M, d_head), leading axes
    broadcasting. The q rows are the last L queries of a length-``seq_len``
    sequence. Scores are scaled by 1/sqrt(d_head) and normalized over the
    causally valid blocks only; invalid blocks (and rows with no valid
    block) score exactly zero. Returns (..., L, M).
    """
    t = np.arange(seq_len)[-q.shape[-2]:, None]
    valid = _block_starts(seq_len, cfg) + cfg.block_size - 1 <= t
    logits = (q @ np.swapaxes(cmp_keys, -1, -2)) * (1.0 / np.sqrt(cfg.d_head))
    return masked_softmax(logits, valid, axis=-1).data


def remap_matrix(num_cmp: int, num_sel: int, cfg: AttentionConfig) -> np.ndarray:
    """(M, N_sel) linear map from compression-block scores to selection-block
    scores.

    Entry (i, j) counts how many (m, n) offset pairs with
    m < sel_block_size/stride and n < block_size/stride satisfy
    (sel_block_size/stride) * j - m - n == i, i.e. how often compression
    block i overlaps selection block j in the offset sum.
    """
    a = cfg.sel_block_size // cfg.stride
    b = cfg.block_size // cfg.stride
    mat = np.zeros((num_cmp, num_sel))
    for j in range(num_sel):
        for m in range(a):
            for n in range(b):
                i = a * j - m - n
                if 0 <= i < num_cmp:
                    mat[i, j] += 1.0
    return mat


def remap_scores(cmp_scores: np.ndarray, cfg: AttentionConfig, num_sel: int) -> np.ndarray:
    """Convert (..., M) compression-block scores to (..., N_sel) selection-block
    scores; out-of-range compression indices contribute zero."""
    return cmp_scores @ remap_matrix(cmp_scores.shape[-1], num_sel, cfg)


def select_topk(scores: np.ndarray, cfg: AttentionConfig, seq_len: int) -> np.ndarray:
    """Boolean (..., L, N_sel) selection of the top-k blocks per query.

    ``scores`` rows are the last L queries of a length-``seq_len``
    sequence; leading axes (KV groups) are ranked independently. A block
    is a candidate once it has started (first position <= query). Ties
    break toward the lower block index; when fewer than top_k blocks are
    valid, all of them are selected.
    """
    length, num_sel = scores.shape[-2:]
    t = np.arange(seq_len)[-length:, None]
    valid = (np.arange(num_sel)[None, :] * cfg.sel_block_size) <= t
    ranked = np.where(valid, scores, -np.inf)
    # stable argsort of descending scores == ties resolved to lower index
    cols = np.argsort(-ranked, axis=-1, kind="stable")[..., : cfg.top_k]
    take = np.minimum(cfg.top_k, valid.sum(axis=1))
    keep = np.arange(cols.shape[-1]) < take[:, None]
    chosen = np.zeros(ranked.shape, dtype=bool)
    np.put_along_axis(chosen, cols, np.broadcast_to(keep, cols.shape), axis=-1)
    return chosen


def selection_to_visibility(selected: np.ndarray, length: int, cfg: AttentionConfig) -> np.ndarray:
    """Expand (L, N_sel) block choices into a causal (L, L) position mask:
    step 7 done densely, the reference ``ltis_index`` is checked against."""
    per_pos = np.repeat(selected, cfg.sel_block_size, axis=1)[:, :length]
    causal = np.tril(np.ones((length, length), dtype=bool))
    return per_pos & causal


def ltis_index(q_data: np.ndarray, k_data: np.ndarray, lengths: np.ndarray,
               cfg: AttentionConfig, phi_key: CompressionMLP) -> tuple[np.ndarray, np.ndarray]:
    """Run the whole selection pipeline, batched, and return the positions
    each query attends.

    k_data: (B, kv_groups, L, d_head) spans the left-padded frame, and
    q_data: (B, heads, Lq, d_head) holds the queries of its last Lq slots
    (Lq = L for every query). Both are plain arrays: selection carries no
    gradient. ``lengths`` gives each sequence's real length inside the
    frame. Returns int frame positions and their validity, each
    (B, kv_groups, Lq, K) with K = top_k * sel_block_size: the chosen
    blocks in ascending order, causally cut (K is the frame length when
    that is smaller). Padding queries see nothing.

    A sequence with at most top_k selection blocks selects every started
    block whatever the scores, so each query sees exactly its causal
    prefix; compression, scoring and top-k are skipped for it.
    """
    batch, _, rows, _ = q_data.shape
    total_len = k_data.shape[2]
    # a frame no wider than top_k blocks holds only saturated sequences
    width = min(cfg.top_k * cfg.sel_block_size, total_len)
    idx = np.zeros((batch, cfg.kv_groups, rows, width), dtype=np.int64)
    valid = np.zeros(idx.shape, dtype=bool)
    slots = np.arange(width)
    hpg = cfg.heads_per_group
    for b in range(batch):
        n = int(lengths[b])
        m = min(n, rows)                     # real queries, the last m rows
        if m == 0:
            continue
        pad = total_len - n
        t = np.arange(n - m, n)[:, None]
        num_sel = cfg.num_sel_blocks(n)
        if num_sel <= cfg.top_k:
            idx[b, :, rows - m:] = pad + np.where(slots <= t, slots, 0)
            valid[b, :, rows - m:] = slots <= t
            continue
        cmp_keys = compress_sequence(k_data[b, :, pad:], phi_key, cfg)        # (g, M, d)
        queries = q_data[b, :, rows - m:].reshape(cfg.kv_groups, hpg, m, cfg.d_head)
        cmp_scores = importance_scores(queries, cmp_keys[:, None], cfg, n)    # (g, hpg, m, M)
        chosen = select_topk(remap_scores(cmp_scores, cfg, num_sel).sum(axis=1), cfg, n)
        # chosen block ids first, ascending; fewer than top_k only early on
        blocks = np.argsort(~chosen, axis=-1, kind="stable")[..., :cfg.top_k]
        pos = (blocks[..., None] * cfg.sel_block_size
               + np.arange(cfg.sel_block_size)).reshape(cfg.kv_groups, m, width)
        ok = (slots // cfg.sel_block_size < chosen.sum(axis=-1)[..., None]) & (pos <= t)
        idx[b, :, rows - m:] = pad + np.where(ok, pos, 0)
        valid[b, :, rows - m:] = ok
    return idx, valid


def build_ltis_masks(q_data: np.ndarray, k_data: np.ndarray, lengths: np.ndarray,
                     cfg: AttentionConfig, phi_key: CompressionMLP) -> np.ndarray:
    """``ltis_index`` scattered into dense visibility masks, bool
    (B, kv_groups, 1, Lq, L)."""
    return index_mask(*ltis_index(q_data, k_data, lengths, cfg, phi_key), k_data.shape[2])

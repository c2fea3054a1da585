"""Long-term interest pathway: compress key blocks, score them against each
query, and let attention see only the top-k selection blocks.

``ltis_index`` runs the whole pipeline on a packed stream, rows first, in
one pass, with no loop over segments, all KV groups at once:

  1. cut every segment's keys into overlapping compression blocks (size
     block_size, stride ``stride``), back to back; a segment shorter than
     one block has a single block whose positions before 0 are zeros;
  2. compress each block to one vector with a fixed random MLP;
  3. softmax importance of each compressed block per query (only blocks
     lying entirely at or before the query are scored): each segment's
     queries are scored against that segment's compressed keys alone, one
     batched product over all segments, with the keys padded to the most
     blocks any segment has (by blocks the causal check drops) and the
     queries to the most any segment has, so no query gets a copy of its
     segment's keys;
  4. remap compression-block scores onto selection-block scores by summing
     the scores of overlapping compression blocks (``remap_matrix``);
  5. sum the per-head selection scores within each KV group so all heads of
     a group share one ranking;
  6. take the top-k causally started selection blocks per query (ties go to
     the lower block index; fewer than k started blocks means take them
     all);
  7. expand the chosen blocks into each query's top_k * sel_block_size key
     rows, causally cut and offset by its segment's start in the stream,
     as the batch's ``data.SeqContext`` gives it. The queries may be only
     each segment's last rows (the last layer at inference asks for
     one); steps 3-6 then run on those rows alone. The rows are int32,
     and the encoder gathers the K/V rows of this index.

A segment with at most top_k selection blocks skips steps 1-6: every
started block is selected whatever the scores, so each query sees its
causal prefix. ``build_ltis_masks`` runs ``ltis_index`` on each sequence
of a left-padded batch alone and returns dense masks, a reference for
checks and tests that the model does not call. Both are checked against
``verify``'s naive per-query selection.

Selection is a discrete ranking, so no gradient flows through it: by
design the blocks are scored through a fixed random projection
(``CompressionMLP``), drawn once from the model's seed and never trained.
The whole pipeline runs on plain arrays: step 3 is the row softmax kernel
the tape's ops share (``tensor._exp_shifted``), in place on the logits.
"""

from __future__ import annotations

import functools

import numpy as np

from .config import AttentionConfig
from .data import SeqContext
from .tensor import _exp_shifted, glorot, index_mask

__all__ = ["CompressionMLP", "remap_matrix", "ltis_index", "build_ltis_masks"]


class CompressionMLP:
    """Fixed random map from an entire (block_size x d_head) block to a
    single d_head vector.

    A random intra-block position bias is added before flattening, so the
    compression is sensitive to the order of rows within a block, then a
    single tanh hidden layer of width d_head produces the compressed key.
    The weights are drawn from ``rng`` as the encoder's learnable ones
    are (``tensor.glorot``), the bias small normal, and never trained.
    """

    def __init__(self, block_size: int, d_head: int, rng: np.random.Generator):
        self.pos_bias = rng.normal(0.0, 0.02, (block_size, d_head))
        self.w1 = glorot((block_size * d_head, d_head), rng)
        self.w2 = glorot((d_head, d_head), rng)

    def apply_stack(self, blocks: np.ndarray) -> np.ndarray:
        """Compress stacked blocks, (..., M, block_size, d_head) -> (..., M, d_head)."""
        flat = (blocks + self.pos_bias).reshape(blocks.shape[:-2] + (-1,))
        return np.tanh(flat @ self.w1) @ self.w2


def _cmp_geometry(lengths, cfg: AttentionConfig) -> tuple[np.ndarray, np.ndarray]:
    """For each length, its number of compression blocks
    (``cfg.num_cmp_blocks``) and its first block's start: 0, or for a
    sequence shorter than one block, L - block_size for its single block,
    whose positions before 0 are zeros."""
    past = np.asarray(lengths, dtype=np.int64) - cfg.block_size
    return np.maximum(past // cfg.stride, 0) + 1, np.minimum(past, 0)


@functools.lru_cache(maxsize=256)
def remap_matrix(num_cmp: int, num_sel: int, cfg: AttentionConfig) -> np.ndarray:
    """(M, N_sel) linear map from compression-block scores to selection-block
    scores, read-only and cached across batches.

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
    mat.flags.writeable = False
    return mat


def _rank(scores: np.ndarray, t: np.ndarray, cfg: AttentionConfig) -> tuple[np.ndarray, np.ndarray]:
    """The top-k blocks of (..., L, N_sel) scores whose rows are queries
    at positions ``t``, (L, 1): their ids, best first (..., L, top_k), and
    which of those picks count, (L, top_k); a row with fewer than top_k
    started blocks counts only that many."""
    valid = (np.arange(scores.shape[-1]) * cfg.sel_block_size) <= t
    ranked = np.where(valid, scores, -np.inf).reshape(-1, scores.shape[-1])
    rows = np.arange(len(ranked))
    cols = np.empty((len(ranked), cfg.top_k), dtype=np.int64)
    for pick in range(cfg.top_k):
        # argmax takes the first of equal maxima: ties go to the lower block
        cols[:, pick] = ranked.argmax(axis=-1)
        if pick < cfg.top_k - 1:
            ranked[rows, cols[:, pick]] = -np.inf
    cols = cols.reshape(scores.shape[:-1] + (cfg.top_k,))
    return cols, np.arange(cfg.top_k) < valid.sum(axis=-1)[:, None]


def ltis_index(q_data: np.ndarray, k_data: np.ndarray, ctx: SeqContext, q_rows: np.ndarray,
               cfg: AttentionConfig, phi_key: CompressionMLP) -> tuple[np.ndarray, np.ndarray]:
    """Run the whole selection pipeline on a packed stream and return the
    rows each query attends.

    k_data: (N, kv_groups, d_head) is the stream ``ctx`` describes: one
    segment per sequence, back to back, each sequence's rows oldest first.
    q_data: (Nq, heads, d_head) holds the queries of the stream rows
    ``q_rows``, in stream order (``ctx.query_rows``). Both are plain
    arrays: selection carries no gradient. Returns int32 stream rows and
    their validity, each (kv_groups, Nq, K) with K = top_k *
    sel_block_size: the chosen blocks in ascending order, causally cut
    and offset by the segment's start (K is the longest length when that
    is smaller).

    A sequence with at most top_k selection blocks selects every started
    block whatever the scores, so each query sees exactly its causal
    prefix; compression, scoring and top-k are skipped for it. All other
    segments are scored in one pass (``_top_blocks``).
    """
    lengths = ctx.lengths
    cap = cfg.top_k * cfg.sel_block_size       # longer segments are scored
    t = ctx.positions[q_rows][:, None]         # each query's position in its segment
    longest = max(lengths.tolist(), default=0)
    width = min(cap, longest)
    if longest > cap:
        seg = np.arange(len(lengths)).repeat(lengths)[q_rows]    # each query's segment
        scored = (lengths[seg] > cap).nonzero()[0]
        heads = q_data.reshape(-1, cfg.kv_groups, cfg.heads_per_group, cfg.d_head)
        q = np.take(heads.swapaxes(0, 1), scored, axis=1)     # (g, R, hpg, d_head)
        blocks = np.empty((cfg.kv_groups, len(t), cfg.top_k), dtype=np.int32)
        blocks[:] = np.arange(cfg.top_k)
        blocks[:, scored] = _top_blocks(q, k_data, ctx, seg[scored], t[scored], cfg, phi_key)
        pos = blocks[..., None] * cfg.sel_block_size + np.arange(cfg.sel_block_size, dtype=np.int32)
        pos = pos.reshape(cfg.kv_groups, len(t), width)
    else:   # a saturated query takes every started slot: its causal prefix
        pos = np.arange(width, dtype=np.int32)[None, None].repeat(cfg.kv_groups, axis=0)
    valid = pos <= t
    rows = np.where(valid, pos, 0)
    rows += q_rows[:, None] - t                # a query's segment starts ``t`` rows before it
    return rows, valid


def _top_blocks(q: np.ndarray, k: np.ndarray, ctx: SeqContext, seg: np.ndarray, t: np.ndarray,
                cfg: AttentionConfig, phi_key: CompressionMLP) -> np.ndarray:
    """Steps 1-6 for the queries of many segments at once: R queries
    (kv_groups, R, heads_per_group, d_head) of segments ``seg`` (in
    stream order) at positions ``t`` (R, 1), over the stream keys k
    (N, kv_groups, d_head) that ``ctx`` describes. Returns the chosen
    blocks, (kv_groups, R, top_k), ascending; a row with fewer than top_k
    started blocks fills its last slots with a block past every segment's
    end.

    Every segment's compression blocks are cut and compressed back to
    back. Each segment's queries are then scored against its own
    compressed keys, all segments in one batched product: the keys padded
    to the most blocks any segment has by repeating its last block (a
    padding block would end past its segment's end, so the causal check
    drops it and it scores 0), the queries to the most any segment has
    (a padding query is zeros, and its scores are dropped). When every
    segment has as many queries, as in a batch of equal lengths or one
    query per segment, the queries need no padding. ``remap_matrix`` of
    that many blocks holds every shorter segment's as its top-left corner,
    and N_sel is padded likewise.
    """
    long = ctx.lengths > cfg.top_k * cfg.sel_block_size
    seg = (long.cumsum() - 1)[seg]                     # among the long segments
    n, starts = ctx.lengths[long], ctx.starts[long]
    num_cmp, shift = _cmp_geometry(n, cfg)
    offset = num_cmp.cumsum() - num_cmp                # each segment's first block
    owner = np.arange(len(n)).repeat(num_cmp)
    first = (np.arange(num_cmp.sum()) - offset[owner]) * cfg.stride + shift[owner]
    at = first[:, None] + np.arange(cfg.block_size)    # (blocks, block_size) positions
    inside = at >= 0
    blocks = np.take(k.swapaxes(0, 1), np.where(inside, starts[owner, None] + at, 0), axis=1)
    cmp_keys = phi_key.apply_stack(np.where(inside[..., None], blocks, 0.0))
    block = np.arange(num_cmp.max())
    own = offset[:, None] + np.minimum(block, num_cmp[:, None] - 1)     # (S, M)
    keys = np.take(cmp_keys, own, axis=1).swapaxes(-1, -2)             # (g, S, d_head, M)
    g, rows, hpg, d = q.shape
    count = np.bincount(seg, minlength=len(n))        # each segment's queries
    most = int(count.max())
    if rows == most * len(n):    # no segment has fewer queries than another
        cmp_scores = q.reshape(g, len(n), most * hpg, d) @ keys
        cmp_scores = cmp_scores.reshape(g, rows, hpg, -1)
    else:
        slot = np.arange(rows) - (count.cumsum() - count)[seg]   # each query's place in its segment
        padded = np.zeros((g, len(n), most, hpg, d))
        padded[:, seg, slot] = q
        cmp_scores = (padded.reshape(g, len(n), most * hpg, d) @ keys).reshape(
            g, len(n), most, hpg, -1)[:, seg, slot]
        del padded
    cmp_scores *= 1.0 / np.sqrt(cfg.d_head)                        # (g, R, hpg, M)
    # block m ends at m * stride + shift + block_size - 1, at or before t
    seen = block * cfg.stride <= t - (shift[seg, None] + cfg.block_size - 1)   # (R, M)
    _, total = _exp_shifted(cmp_scores, ~seen[:, None])            # in place
    np.divide(cmp_scores, total, out=cmp_scores, where=total > 0)
    num_sel = cfg.num_sel_blocks(int(n.max()))
    sel_scores = cmp_scores @ remap_matrix(cmp_scores.shape[-1], num_sel, cfg)
    del cmp_scores
    cols, keep = _rank(sel_scores.sum(axis=2), t, cfg)
    # block num_sel starts past every segment's end, so nothing sees it
    return np.sort(np.where(keep, cols, num_sel), axis=-1)


def build_ltis_masks(q_data: np.ndarray, k_data: np.ndarray, lengths: np.ndarray,
                     cfg: AttentionConfig, phi_key: CompressionMLP) -> np.ndarray:
    """``ltis_index`` of a left-padded batch as dense visibility masks,
    bool (B, kv_groups, 1, Lq, L).

    k_data (B, kv_groups, L, d_head) holds each sequence's keys in its
    last ``lengths[b]`` slots, and q_data (B, heads, Lq, d_head) the
    queries of the last Lq slots, heads first. Each runs alone, rows
    first, as a stream of one segment, and its index (``index_mask``)
    fills its mask's bottom-right corner; padding slots are neither
    queries nor keys.
    """
    rows, width = q_data.shape[2], k_data.shape[2]
    out = np.zeros((len(lengths), cfg.kv_groups, 1, rows, width), dtype=bool)
    for b, n in enumerate(lengths):
        ctx = SeqContext.from_lengths([n])
        queries = ctx.query_rows(rows)
        first = rows - len(queries)          # the sequence's first query slot
        index = ltis_index(q_data[b, :, first:].swapaxes(0, 1),
                           k_data[b, :, width - n:].swapaxes(0, 1), ctx, queries, cfg, phi_key)
        out[b, :, :, first:, width - n:] = index_mask(*index, n)
    return out

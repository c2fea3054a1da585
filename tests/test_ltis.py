"""Long-term interest selection: the blocks ``ltis_index`` compresses, the
importance and selection scores it ranks, top-k, the dense frame masks,
and attention under the selection.

Which blocks a query selects is checked against ``verify``'s naive
per-query selection, an oracle that shares no code with ``ltis``; the
steps between are observed on ``ltis_index`` itself, through a stand-in
compression or by capturing what it hands to its softmax and ranking."""

import dataclasses
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from blossomrec import ltis
from blossomrec.config import AttentionConfig
from blossomrec.data import SeqContext
from blossomrec.errors import ConfigError
from blossomrec.fusion import dense_causal_gqa, grouped_attention
from blossomrec.gradcheck import grad_check
from blossomrec.ltis import CompressionMLP, build_ltis_masks, ltis_index, remap_matrix
from blossomrec.tensor import Tensor, glorot, parameter
from blossomrec.verify import _naive_selection, ltis_selection_error

from chains import weighted_sum


def small_cfg(**kw):
    base = dict(block_size=4, stride=2, sel_block_size=4, top_k=2, win=2, blk=1,
                heads=2, kv_groups=1, d_model=8, d_head=4)
    base.update(kw)
    return AttentionConfig(**base)


def point_cfg(**kw):
    """Compression and selection blocks of one position each, one head:
    each query's selection scores are its softmax of q.k over the
    positions up to it."""
    base = dict(block_size=1, stride=1, sel_block_size=1, top_k=1, win=1, blk=1,
                heads=1, kv_groups=1, d_model=2, d_head=2)
    base.update(kw)
    return AttentionConfig(**base)


PAPER = AttentionConfig()  # block 32, stride 16, selection 16, top-4
EXP_SHIFTED, RANK = ltis._exp_shifted, ltis._rank


class LastKey:
    """Stand-in compression that keeps each block's last key, so a test
    sets the compressed keys through k."""

    @staticmethod
    def apply_stack(blocks):
        return blocks[..., -1, :]


def one_segment(q, k, cfg, phi, rows=None):
    """``ltis_index`` of a stream holding one segment: q (m, heads, d) its
    last m queries, k (n, kv_groups, d) its keys."""
    ctx = SeqContext.from_lengths(np.array([len(k)]))
    return ltis_index(q, k, ctx, ctx.query_rows(rows), cfg, phi)


def picked_blocks(idx, valid, cfg):
    """The selection blocks each query's valid slots fall in, for a stream
    of one segment: per KV group, one set per query."""
    return [[set((row[ok] // cfg.sel_block_size).tolist()) for row, ok in zip(rows, oks)]
            for rows, oks in zip(idx, valid)]


def compression_io(k, cfg, phi):
    """The key blocks ``ltis_index`` hands to ``phi.apply_stack`` for one
    segment of keys (n, kv_groups, d), group by group (kv_groups, M,
    block_size, d), and the compressed keys it gets back."""
    seen = []
    spy = SimpleNamespace(apply_stack=lambda blocks: seen.append((blocks, phi.apply_stack(blocks)))
                          or seen[-1][1])
    one_segment(np.zeros((len(k), cfg.heads, cfg.d_head)), k, cfg, spy)
    (blocks, out), = seen
    return blocks, out


def captured_scores(monkeypatch, q, k, cfg, phi, rows=None):
    """``one_segment``, also returning the compression-block importance its
    softmax gives, (kv_groups, R, heads_per_group, M), and the group
    selection scores it ranks, (kv_groups, R, N_sel). The softmax kernel
    works in place, so the array it is handed ends up holding the
    importance."""
    seen = {}
    monkeypatch.setattr(ltis, "_exp_shifted",
                        lambda x, *a: EXP_SHIFTED(seen.setdefault("cmp", x), *a))
    monkeypatch.setattr(ltis, "_rank", lambda scores, *a: RANK(seen.setdefault("sel", scores), *a))
    idx, valid = one_segment(q, k, cfg, phi, rows)
    return idx, valid, seen["cmp"], seen["sel"]


def unit_keys(scales):
    """For ``point_cfg``: keys scales[i] * e_0, and the query e_0 at every
    position."""
    k = np.zeros((len(scales), 1, 2))
    k[:, 0, 0] = scales
    q = np.zeros((len(scales), 1, 2))
    q[:, 0, 0] = 1.0
    return q, k


class TestSplitBlocks:
    def test_block_count_200(self):
        phi = CompressionMLP(32, 16, np.random.default_rng(0))
        blocks, _ = compression_io(np.zeros((200, 2, 16)), PAPER, phi)
        assert blocks.shape == (2, 11, 32, 16)

    def test_block_count_2048(self):
        assert PAPER.num_cmp_blocks(2048) == 127

    def test_single_block_boundary(self):
        cfg = dataclasses.replace(PAPER, top_k=1)  # 32 keys are scored at top-1
        keys = np.arange(32 * 2 * 16, dtype=float).reshape(32, 2, 16)
        blocks, _ = compression_io(keys, cfg, CompressionMLP(32, 16, np.random.default_rng(0)))
        assert blocks.shape == (2, 1, 32, 16)
        assert np.array_equal(blocks[:, 0], keys.swapaxes(0, 1))

    def test_overlap_and_coverage(self):
        cfg = small_cfg(kv_groups=2)
        keys = np.arange(10 * 4, dtype=float).reshape(10, 4)
        # each KV group's keys are split on their own
        blocks, _ = compression_io(np.stack([keys, -keys], axis=1), cfg, LastKey)
        assert blocks.shape[1] == cfg.num_cmp_blocks(10) == 4
        for i, block in enumerate(blocks[0]):
            assert np.array_equal(block, keys[i * 2: i * 2 + 4])
        assert np.array_equal(blocks[1], -blocks[0])

    def test_short_sequence_left_pad(self):
        cfg = small_cfg(sel_block_size=2, top_k=1)  # 3 keys are scored, in one block
        blocks, _ = compression_io(np.ones((3, 1, 4)), cfg, LastKey)
        assert blocks.shape == (1, 1, 4, 4)
        assert np.all(blocks[0, 0, :1] == 0.0)
        assert np.all(blocks[0, 0, 1:] == 1.0)

    def test_block_count_law(self):
        for length in range(32, 2049, 61):
            for bs, stride in ((32, 16), (16, 16), (64, 32)):
                cfg = AttentionConfig(block_size=bs, stride=stride, sel_block_size=2 * stride)
                if length < bs:
                    continue
                assert cfg.num_cmp_blocks(length) == (length - bs) // stride + 1


class TestCompression:
    def test_zero_block_zero_output_layer(self):
        phi = CompressionMLP(4, 4, np.random.default_rng(0))
        phi.w2[:] = 0.0
        out = phi.apply_stack(np.zeros((1, 4, 4)))
        assert np.all(out == 0.0)

    def test_draws_match_parameter_initializers(self):
        """The fixed projection is drawn like learnable weights are, in the
        same order: position bias, then w1, then w2."""
        ours, ref = np.random.default_rng(8), np.random.default_rng(8)
        phi = CompressionMLP(4, 3, ours)
        want = [ref.normal(0.0, 0.02, (4, 3)), glorot((12, 3), ref), glorot((3, 3), ref)]
        for got, w in zip((phi.pos_bias, phi.w1, phi.w2), want):
            assert np.array_equal(got, w)
        assert ours.random() == ref.random()

    def test_row_permutation_changes_output(self):
        rng = np.random.default_rng(1)
        phi = CompressionMLP(4, 4, rng)
        block = rng.normal(size=(1, 4, 4))
        out = phi.apply_stack(block)
        permuted = phi.apply_stack(block[:, ::-1].copy())
        assert np.abs(out - permuted).max() > 1e-6

    def test_bad_block_shape(self):
        phi = CompressionMLP(4, 4, np.random.default_rng(2))
        with pytest.raises(ValueError, match="broadcast"):
            phi.apply_stack(np.zeros((1, 3, 4)))

    def test_compressed_key_shape(self):
        """``ltis_index`` compresses every block of every KV group in one
        call: (kv_groups, M, d_head) keys, each group's its own."""
        rng = np.random.default_rng(4)
        cfg = small_cfg(kv_groups=2)
        phi = CompressionMLP(4, 4, rng)
        blocks, out = compression_io(rng.normal(size=(10, 2, 4)), cfg, phi)
        assert out.shape == (2, cfg.num_cmp_blocks(10), 4) == (2, 4, 4)
        assert np.array_equal(out[1], phi.apply_stack(blocks[1]))
        short = dataclasses.replace(cfg, sel_block_size=2, top_k=1)
        assert compression_io(np.ones((3, 2, 4)), short, phi)[1].shape == (2, 1, 4)


class TestImportanceScores:
    def test_orthogonal_is_uniform_over_valid(self, monkeypatch):
        cfg = small_cfg(block_size=4, stride=4, sel_block_size=4, top_k=1)
        # blocks cover [0,4), [4,8): block 1 only fully past position 7;
        # each compresses to its last key, at 3 and 7
        q = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (8, cfg.heads, 1))
        k = np.zeros((8, 1, 4))
        k[3, 0, 1] = k[7, 0, 2] = 1.0
        idx, valid, cmp_scores, _ = captured_scores(monkeypatch, q, k, cfg, LastKey)
        scores = cmp_scores[0, :, 0]
        assert np.allclose(scores[3], [1.0, 0.0])
        assert np.allclose(scores[7], [0.5, 0.5])
        assert np.all(scores[:3] == 0.0)  # no block fully at/before queries 0..2
        assert picked_blocks(idx, valid, cfg)[0][7] == {0}  # the tie goes to block 0
        # the last rows alone score as they do among all rows
        last = captured_scores(monkeypatch, q[2:], k, cfg, LastKey, rows=6)[2]
        assert np.array_equal(last, cmp_scores[:, 2:])

    def test_dominant_key_wins(self, monkeypatch):
        """Block 1's compressed key dominates, but only queries at or past
        its end (7) may score it: queries 4-6 see block 1 started and
        still take block 0."""
        cfg = small_cfg(block_size=4, stride=4, sel_block_size=4, top_k=1, d_head=8)
        e = np.eye(8)
        q = np.tile(e[0], (12, cfg.heads, 1))
        k = np.zeros((12, 1, 8))
        k[3, 0], k[7, 0], k[11, 0] = e[1], 10.0 * e[0], e[2]
        idx, valid, cmp_scores, _ = captured_scores(monkeypatch, q, k, cfg, LastKey)
        assert cmp_scores[0, 11, 0, 1] > 0.9
        assert picked_blocks(idx, valid, cfg)[0] == [{0}] * 7 + [{1}] * 5

    def test_rows_sum_to_one_over_valid(self, monkeypatch):
        rng = np.random.default_rng(5)
        cfg = small_cfg()
        q = rng.normal(size=(10, 2, 4))  # two heads
        k = rng.normal(size=(10, 1, 4))
        phi = CompressionMLP(4, 4, rng)
        sums = captured_scores(monkeypatch, q, k, cfg, phi)[2].sum(axis=-1)
        has_valid = np.arange(10) >= 3  # first block ends at position 3
        assert np.abs(sums[:, has_valid] - 1.0).max() < 1e-12
        assert np.all(sums[:, ~has_valid] == 0.0)


class TestBlockScores:
    def test_paired_invariants(self, monkeypatch):
        """Importance rows sum to 1 (or 0 before the first complete block),
        and each KV group ranks the sum over its heads of their importance
        mapped through ``remap_matrix``."""
        rng = np.random.default_rng(30)
        cfg = small_cfg(heads=4, kv_groups=2)
        length = 12
        q = rng.normal(size=(length, cfg.heads, cfg.d_head))
        k = rng.normal(size=(length, cfg.kv_groups, cfg.d_head))
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        _, _, cmp_scores, sel_scores = captured_scores(monkeypatch, q, k, cfg, phi)
        sums = cmp_scores.sum(axis=-1)
        assert np.all((np.abs(sums - 1.0) < 1e-12) | (sums == 0.0))
        assert np.all(sel_scores >= 0.0)
        mat = remap_matrix(cmp_scores.shape[-1], cfg.num_sel_blocks(length), cfg)
        want = sum(cmp_scores[:, :, h] @ mat for h in range(cfg.heads_per_group))
        assert np.abs(sel_scores - want).max() < 1e-15


class TestRemap:
    def test_degenerate_identity(self):
        cfg = AttentionConfig(block_size=16, stride=16, sel_block_size=16)
        mat = remap_matrix(5, 5, cfg)
        assert np.array_equal(mat, np.eye(5))

    def test_paper_geometry_sums_adjacent(self):
        # selection 16, compression 32, stride 16: sel[j] = cmp[j] + cmp[j-1]
        cmp_scores = np.array([[0.1, 0.2, 0.3, 0.4]])
        out = cmp_scores @ remap_matrix(4, 4, PAPER)
        assert np.allclose(out, [[0.1, 0.1 + 0.2, 0.2 + 0.3, 0.3 + 0.4]])

    def test_zero_in_zero_out(self):
        """A segment padded with zero-scored blocks keeps its own selection
        scores: a shorter segment's matrix is the top-left corner of a
        longer one's, which is what lets ``ltis_index`` score every segment
        against one matrix."""
        rng = np.random.default_rng(6)
        for cfg in (small_cfg(), PAPER, AttentionConfig(block_size=8, stride=4, sel_block_size=8)):
            big, small = remap_matrix(9, 6, cfg), remap_matrix(5, 3, cfg)
            assert not big.flags.writeable
            assert np.array_equal(big[:5, :3], small)
            scores = rng.random((2, 5))
            padded = np.concatenate([scores, np.zeros((2, 4))], axis=1)
            assert np.abs((padded @ big)[:, :3] - scores @ small).max() < 1e-15

    def test_linearity(self, monkeypatch):
        """Remapping is linear, so a KV group's selection scores are the sum
        of what each of its heads scores alone."""
        rng = np.random.default_rng(6)
        cfg, alone = small_cfg(heads=2), small_cfg(heads=1)
        q = rng.normal(size=(12, 2, 4))
        k = rng.normal(size=(12, 1, 4))
        phi = CompressionMLP(4, 4, rng)
        both = captured_scores(monkeypatch, q, k, cfg, phi)[3]
        heads = [captured_scores(monkeypatch, q[:, h:h + 1], k, alone, phi)[3] for h in range(2)]
        assert np.abs(both - (heads[0] + heads[1])).max() < 1e-15

    def test_multiplicity_counts_offset_pairs(self):
        # sel/stride = 2 and block/stride = 2 make the centre compression
        # block count twice: weights (1, 2, 1)
        cfg = AttentionConfig(block_size=8, stride=4, sel_block_size=8)
        mat = remap_matrix(6, 3, cfg)
        assert mat[:, 1].tolist() == [1.0, 2.0, 1.0, 0.0, 0.0, 0.0][:6]


def block_visibility(per_query, cfg):
    """Causal (L, L) position mask of each query's selection blocks."""
    length = len(per_query)
    vis = np.zeros((length, length), dtype=bool)
    for t, blocks in enumerate(per_query):
        for j in blocks:
            vis[t, j * cfg.sel_block_size:(j + 1) * cfg.sel_block_size] = True
    return np.tril(vis)


def oracle_masks(q, k, lengths, cfg, phi):
    """``build_ltis_masks`` rebuilt from ``verify._naive_selection``, one
    sequence of the left-padded frame at a time."""
    total = q.shape[2]
    want = np.zeros((len(lengths), cfg.kv_groups, 1, total, total), dtype=bool)
    for b, n in enumerate(lengths):
        if n == 0:
            continue
        pad = total - n
        chosen = _naive_selection(q[b, :, pad:], k[b, :, pad:], phi, cfg)
        for g, per_query in enumerate(chosen):
            want[b, g, 0, pad:, pad:] = block_visibility(per_query, cfg)
    return want


class TestGroupAggregation:
    def test_head_to_group_mapping(self):
        cfg = AttentionConfig(heads=8, kv_groups=2)
        assert cfg.group_of_head(3) == 0
        assert cfg.group_of_head(4) == 1

    def test_sum_within_group(self):
        """Two heads share one KV group: the group's selection ranks the sum
        of both heads' selection scores, so swapping the heads changes
        nothing."""
        rng = np.random.default_rng(7)
        cfg = small_cfg(sel_block_size=2, top_k=2, heads=2, kv_groups=1)
        n = 12
        q = rng.normal(size=(1, 2, n, cfg.d_head))
        k = rng.normal(size=(1, 1, n, cfg.d_head))
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        lengths = np.array([n])
        masks = build_ltis_masks(q, k, lengths, cfg, phi)
        assert np.array_equal(masks, oracle_masks(q, k, lengths, cfg, phi))
        swapped = build_ltis_masks(q[:, ::-1].copy(), k, lengths, cfg, phi)
        assert np.array_equal(swapped, masks)

    @pytest.mark.parametrize("heads, kv_groups", [(4, 2), (2, 2)])
    def test_build_ltis_masks_matches_per_step_rebuild(self, heads, kv_groups):
        """Rebuild every row of a left-padded batch one query at a time
        (``oracle_masks``): the chosen blocks land in the bottom-right
        corner of the frame."""
        rng = np.random.default_rng(30)
        cfg = small_cfg(sel_block_size=2, top_k=2, heads=heads, kv_groups=kv_groups)
        lengths, total = np.array([3, 9, 14, 0]), 14
        q = rng.normal(size=(len(lengths), heads, total, cfg.d_head))
        k = rng.normal(size=(len(lengths), kv_groups, total, cfg.d_head))
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        masks = build_ltis_masks(q, k, lengths, cfg, phi)
        assert np.array_equal(masks, oracle_masks(q, k, lengths, cfg, phi))

    def test_saturated_shortcut_equals_full_pipeline(self):
        """Up to top_k * sel_block_size = 8 items every started block is
        selected, so the shortcut (no scoring) must equal scoring each
        query."""
        rng = np.random.default_rng(31)
        cfg = small_cfg(sel_block_size=4, top_k=2, heads=4, kv_groups=2)
        lengths = np.arange(0, 11)
        total = int(lengths.max())
        q = rng.normal(size=(len(lengths), cfg.heads, total, cfg.d_head))
        k = rng.normal(size=(len(lengths), cfg.kv_groups, total, cfg.d_head))
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        masks = build_ltis_masks(q, k, lengths, cfg, phi)
        assert np.array_equal(masks, oracle_masks(q, k, lengths, cfg, phi))
        for b, n in enumerate(lengths):
            if n <= 8:  # the causal prefix, whatever the scores
                pad = total - n
                prefix = np.tril(np.ones((n, n), dtype=bool))
                assert all(np.array_equal(m, prefix) for m in masks[b, :, 0, pad:, pad:])

    def test_selection_matches_naive_oracle(self):
        assert ltis_selection_error(range(3), (0, 10, 24, 32)) == 0


class TestQueryRows:
    """``ltis_index`` given only each segment's last query rows."""

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_last_rows_equal_last_rows_of_full_index(self, rows):
        """Packed segments: lengths 16 and 9 are scored over several
        compression blocks, 6 in one left-padded block, 4 and 2 are
        saturated (at most top_k selection blocks), and 0 is empty."""
        rng = np.random.default_rng(32)
        cfg = small_cfg(block_size=8, stride=2, sel_block_size=2, top_k=2, heads=4, kv_groups=2)
        lengths = np.array([16, 9, 6, 4, 2, 0])
        starts = np.cumsum(lengths) - lengths
        q = rng.normal(size=(lengths.sum(), cfg.heads, cfg.d_head))
        k = rng.normal(size=(lengths.sum(), cfg.kv_groups, cfg.d_head))
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        ctx = SeqContext.from_lengths(lengths)
        full_idx, full_valid = ltis_index(q, k, ctx, np.arange(lengths.sum()), cfg, phi)
        last = np.concatenate([np.arange(max(n - rows, 0), n) + start
                               for start, n in zip(starts, lengths)])
        idx, valid = ltis_index(q[last], k, ctx, last, cfg, phi)
        assert idx.shape == (cfg.kv_groups, len(last), full_idx.shape[-1])
        assert np.array_equal(valid, full_valid[:, last])
        assert np.array_equal(idx, full_idx[:, last])
        assert valid.any(axis=-1).all()
        for start, n in zip(starts, lengths):
            rows_of = (full_idx >= start) & (full_idx < start + n)
            segment = full_valid[:, start:start + n]
            # every valid slot holds a row of the query's own segment
            assert np.array_equal(segment & rows_of[:, start:start + n], segment)

    @pytest.mark.parametrize("queries", [[38, 39], [37, 38, 39], [39, 79]])
    def test_queries_of_one_segment_among_several(self, queries):
        """Two scored segments of 40, with the queries all in the first
        (as many as there are segments, or not) or one in each: each query
        is scored against its own segment's compressed keys, so the index
        equals those rows of the full index."""
        rng = np.random.default_rng(33)
        cfg = small_cfg(block_size=8, stride=4, sel_block_size=4, top_k=2, win=2,
                        heads=4, kv_groups=2, d_head=4)
        ctx = SeqContext.from_lengths(np.array([40, 40]))
        q = rng.normal(size=(80, cfg.heads, cfg.d_head))
        k = rng.normal(size=(80, cfg.kv_groups, cfg.d_head))
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        full_idx, full_valid = ltis_index(q, k, ctx, np.arange(80), cfg, phi)
        rows = np.array(queries)
        idx, valid = ltis_index(q[rows], k, ctx, rows, cfg, phi)
        assert np.array_equal(valid, full_valid[:, rows])
        assert np.array_equal(idx, full_idx[:, rows])


def loop_ltis_index(q, k, lengths, cfg, phi, rows=None):
    """``ltis_index`` laid out one segment at a time from the per-query
    block sets of ``verify._naive_selection``: each query's blocks in
    ascending order, causally cut, then slots that are not valid. It is
    the reference the batched pass must equal exactly. q (Nq, heads, d)
    and k (N, kv_groups, d) are rows first, as ``ltis_index`` takes them."""
    cap = cfg.top_k * cfg.sel_block_size
    width = min(cap, int(max(lengths, default=0)))
    idx = np.zeros((cfg.kv_groups, len(q), cap), dtype=np.int64)
    valid = np.zeros(idx.shape, dtype=bool)
    start = lo = 0                           # segment's first key row, first query row
    for n in lengths:
        m = n if rows is None else min(n, rows)
        idx[:, lo:lo + m] = start
        chosen = _naive_selection(q[lo:lo + m].swapaxes(0, 1), k[start:start + n].swapaxes(0, 1),
                                  phi, cfg)
        for g, per_query in enumerate(chosen):
            for r, blocks in enumerate(per_query):
                pos = (np.array(sorted(blocks))[:, None] * cfg.sel_block_size
                       + np.arange(cfg.sel_block_size)).ravel()
                ok = pos <= n - m + r
                idx[g, lo + r, :len(pos)] = start + np.where(ok, pos, 0)
                valid[g, lo + r, :len(pos)] = ok
        start, lo = start + n, lo + m
    assert not valid[..., width:].any()
    return idx[..., :width], valid[..., :width]


class TestBatchedSelection:
    """``ltis_index`` scores every segment in one pass; it must pick
    exactly what the naive oracle picks for each segment alone."""

    @pytest.mark.parametrize("rows", [None, 1])
    @pytest.mark.parametrize("cfg", [
        AttentionConfig(heads=4, kv_groups=2, d_model=32, d_head=8),
        # compression blocks longer than the saturation length, so scored
        # segments of up to 63 rows take the single left-padded block
        AttentionConfig(block_size=64, stride=8, sel_block_size=16, top_k=1,
                        heads=4, kv_groups=1, d_model=16, d_head=4),
        # one head per group: each group ranks its one head's scores
        AttentionConfig(heads=2, kv_groups=2, d_model=16, d_head=8),
    ], ids=["desk", "long-block", "head-per-group"])
    def test_equals_per_segment_loop(self, monkeypatch, cfg, rows):
        """Lengths 1, 31, 64, 65, 200 and 512, shuffled: saturated and
        scored segments interleave, and 512 pads every other segment's
        compression and selection blocks."""
        rng = np.random.default_rng(33)
        lengths = rng.permutation([1, 31, 64, 65, 200, 512]).tolist()
        starts = np.cumsum(lengths) - lengths
        last = np.concatenate([np.arange(n - min(n, rows or n), n) + s
                               for s, n in zip(starts, lengths)])
        q = rng.normal(size=(sum(lengths), cfg.heads, cfg.d_head))[last]
        k = rng.normal(size=(sum(lengths), cfg.kv_groups, cfg.d_head))
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        want = loop_ltis_index(q, k, lengths, cfg, phi, rows=rows)
        calls = []
        compress = phi.apply_stack
        monkeypatch.setattr(phi, "apply_stack", lambda blocks: calls.append(1) or compress(blocks))
        ctx = SeqContext.from_lengths(np.array(lengths))
        idx, valid = ltis_index(q, k, ctx, last, cfg, phi)
        assert calls == [1]                      # every segment's blocks at once
        assert np.array_equal(valid, want[1])
        assert np.array_equal(idx, want[0])
        # not vacuous: some query picks a block past its first top_k
        pos = idx - np.repeat(starts, [min(n, rows or n) for n in lengths])[:, None]
        assert pos[valid].max() >= idx.shape[-1]

    def test_published_stream_peak_holds_no_per_query_keys(self):
        """Published settings, four sequences of 512 (R = 2048 queries,
        M = 31 compression blocks): the call peaks at 12.0 MB, under a
        13 MB bound that a (kv_groups, R, M, d_head) copy of each query's
        compressed keys (16.3 MB; the call peaked at 24.3 MB with it)
        cannot fit in. Its selection is the naive oracle's, and its key
        rows are int32."""
        cfg, n, b = PAPER, 512, 4
        rng = np.random.default_rng(34)
        q = rng.normal(size=(b * n, cfg.heads, cfg.d_head))
        k = rng.normal(size=(b * n, cfg.kv_groups, cfg.d_head))
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        ctx = SeqContext.from_lengths(np.full(b, n))
        rows = ctx.query_rows(None)
        ltis_index(q, k, ctx, rows, cfg, phi)   # fills the remap cache
        tracemalloc.start()
        try:
            idx, valid = ltis_index(q, k, ctx, rows, cfg, phi)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        key_copy = 8 * cfg.kv_groups * b * n * cfg.num_cmp_blocks(n) * cfg.d_head
        bound = 13e6
        assert bound < key_copy
        assert peak < bound, peak
        assert idx.dtype == np.int32
        want = loop_ltis_index(q, k, [n] * b, cfg, phi)
        assert np.array_equal(valid, want[1])
        assert np.array_equal(idx, want[0])


class TestSelectTopK:
    """Top-k on ``ltis_index`` at ``point_cfg`` with ``LastKey``: block i
    is position i and compresses to k[i], so the keys set the scores."""

    def picks(self, scales, cfg):
        q, k = unit_keys(scales)
        return picked_blocks(*one_segment(q, k, cfg, LastKey), cfg)[0]

    def test_ordering(self):
        assert self.picks([0.1, 0.5, 0.3, 0.1], point_cfg(top_k=2))[3] == {1, 2}

    def test_tie_goes_to_lower_index(self):
        assert self.picks([0.4, 0.4, 0.2], point_cfg())[1:] == [{0}, {0}]
        # before the first complete 4-key compression block every score is 0
        assert self.picks([0.0, 9.0, 9.0, 9.0, 9.0], point_cfg(block_size=4))[1:3] == [{0}, {0}]

    def test_saturation(self):
        """A scored query with fewer than top_k started blocks takes them
        all and leaves the other slots not valid."""
        cfg = point_cfg(top_k=4)
        q, k = unit_keys(np.random.default_rng(9).normal(size=6))
        idx, valid = one_segment(q, k, cfg, LastKey)
        for t, picked in enumerate(picked_blocks(idx, valid, cfg)[0]):
            assert picked == set(range(t + 1)) if t < 4 else len(picked) == 4
            assert valid[0, t].sum() == min(t + 1, 4)

    def test_causal_validity_per_query(self):
        """Selection blocks of 3: block 1's score counts compression blocks
        1 and 2, complete by query 2, but block 1 starts at 3, so query 2
        must take block 0."""
        assert self.picks([0.0, 5.0, 5.0, 0.0, 0.0, 0.0],
                          point_cfg(sel_block_size=3)) == [{0}] * 3 + [{1}] * 3

    def test_selected_count_is_min_k_valid(self):
        rng = np.random.default_rng(10)
        cfg = small_cfg(sel_block_size=2, top_k=3, heads=4, kv_groups=2)
        length = 13
        q = rng.normal(size=(length, cfg.heads, cfg.d_head))
        k = rng.normal(size=(length, cfg.kv_groups, cfg.d_head))
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        picks = picked_blocks(*one_segment(q, k, cfg, phi), cfg)
        for per_query in picks:
            assert [len(p) for p in per_query] == [min(cfg.top_k, t // 2 + 1) for t in range(length)]
        # KV groups are ranked independently
        alone = small_cfg(sel_block_size=2, top_k=3, heads=2, kv_groups=1)
        for g in range(2):
            group = one_segment(q[:, 2 * g:2 * g + 2], k[:, g:g + 1], alone, phi)
            assert picked_blocks(*group, alone)[0] == picks[g]

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        cfg = small_cfg(sel_block_size=2, top_k=2)
        q = rng.normal(size=(9, cfg.heads, cfg.d_head))
        k = rng.normal(size=(9, cfg.kv_groups, cfg.d_head))
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        a = one_segment(q, k, cfg, phi)
        b = one_segment(q.copy(), k.copy(), cfg, phi)
        assert all(np.array_equal(x, y) for x, y in zip(a, b))


def gather_oracle(q, k, v, selected, cfg):
    """Per-query gather + softmax, the literal formulation."""
    h, length, dk = q.shape
    out = np.zeros((length, h * dk))
    for head in range(h):
        group = cfg.group_of_head(head)
        for t in range(length):
            positions = []
            for j in sorted(selected[group][t]):
                start = j * cfg.sel_block_size
                stop = min(start + cfg.sel_block_size, length, t + 1)
                positions.extend(range(start, stop))
            if not positions:
                continue
            gathered_k = k[group, positions]
            gathered_v = v[group, positions]
            logits = gathered_k @ q[head, t] / np.sqrt(dk)
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            out[t, head * dk: (head + 1) * dk] = weights @ gathered_v
    return out


def attend_selected(q, k, v, selected, cfg):
    """The model's LTIS attention for one unpadded sequence: grouped_attention
    under the visibility of per-group block choices, one set per query."""
    vis = np.stack([block_visibility(per_query, cfg) for per_query in selected])
    return grouped_attention(q, k, v, cfg, vis[None, :, None])


class TestLtisAttention:
    def test_full_selection_equals_dense(self):
        for seed in range(20):
            rng = np.random.default_rng(seed)
            length = int(rng.integers(8, 65))
            cfg = small_cfg(top_k=64, heads=2, kv_groups=2)
            q = rng.normal(size=(1, cfg.heads, length, cfg.d_head))
            k = rng.normal(size=(1, cfg.kv_groups, length, cfg.d_head))
            v = rng.normal(size=(1, cfg.kv_groups, length, cfg.d_head))
            full = [[set(range(cfg.num_sel_blocks(length)))] * length] * cfg.kv_groups
            out = attend_selected(Tensor(q), Tensor(k), Tensor(v), full, cfg)
            oracle = dense_causal_gqa(q[0], k[0], v[0], cfg)
            assert np.abs(out.data[0] - oracle).max() < 1e-10, seed

    def test_own_position_block_returns_one_hot(self):
        cfg = small_cfg(sel_block_size=1, stride=1, top_k=1, heads=1, kv_groups=1, d_head=4)
        length = 4
        rng = np.random.default_rng(12)
        q = rng.normal(size=(1, 1, length, 4))
        k = rng.normal(size=(1, 1, length, 4))
        v = np.eye(4)[None, None]  # one-hot value rows
        selected = [[{t} for t in range(length)]]  # own block only
        out = attend_selected(Tensor(q), Tensor(k), Tensor(v), selected, cfg)
        assert np.abs(out.data[0] - v[0, 0]).max() < 1e-12

    def test_partial_selection_matches_gather_oracle(self):
        rng = np.random.default_rng(13)
        cfg = small_cfg(sel_block_size=2, top_k=2, heads=4, kv_groups=2)
        length = 11
        q = rng.normal(size=(1, cfg.heads, length, cfg.d_head))
        k = rng.normal(size=(1, cfg.kv_groups, length, cfg.d_head))
        v = rng.normal(size=(1, cfg.kv_groups, length, cfg.d_head))
        selected = _naive_selection(q[0], k[0], CompressionMLP(cfg.block_size, cfg.d_head, rng), cfg)
        out = attend_selected(Tensor(q), Tensor(k), Tensor(v), selected, cfg)
        oracle = gather_oracle(q[0], k[0], v[0], selected, cfg)
        assert np.abs(out.data[0] - oracle).max() < 1e-12

    def test_gradient(self):
        rng = np.random.default_rng(14)
        cfg = small_cfg(sel_block_size=2, top_k=1, heads=2, kv_groups=1)
        length = 6
        q = parameter(rng.normal(size=(1, cfg.heads, length, cfg.d_head)))
        k = parameter(rng.normal(size=(1, cfg.kv_groups, length, cfg.d_head)))
        v = parameter(rng.normal(size=(1, cfg.kv_groups, length, cfg.d_head)))
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        selected = _naive_selection(q.data[0], k.data[0], phi, cfg)
        w = rng.normal(size=(length, cfg.heads * cfg.d_head))

        def f():
            return weighted_sum(attend_selected(q, k, v, selected, cfg), w)

        assert grad_check(f, {"q": q, "k": k, "v": v}) < 1e-4


class TestVisibilityAndBatchMasks:
    def test_build_ltis_masks_respects_padding(self):
        rng = np.random.default_rng(15)
        cfg = small_cfg(heads=2, kv_groups=1)
        total = 9
        q = rng.normal(size=(2, cfg.heads, total, cfg.d_head))
        k = rng.normal(size=(2, cfg.kv_groups, total, cfg.d_head))
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        masks = build_ltis_masks(q, k, np.array([5, 9]), cfg, phi)
        assert masks.shape == (2, 1, 1, total, total)
        assert not masks[0, 0, 0, :4].any()
        assert not masks[0, 0, 0, :, :4].any()
        # block 0 has always started, so every real query gathers something;
        # nothing may leak above the diagonal
        for b, pad in ((0, 4), (1, 0)):
            real = masks[b, 0, 0, pad:, pad:]
            assert real.sum(axis=1).min() >= 1
            assert not np.triu(real, k=1).any()

    def test_divisibility_enforced(self):
        with pytest.raises(ConfigError, match="divide"):
            AttentionConfig(block_size=32, stride=16, sel_block_size=15)

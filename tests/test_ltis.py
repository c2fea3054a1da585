"""Long-term interest selection: block splitting, compression, scoring,
remapping, group aggregation, top-k, and attention under the selection."""

import numpy as np
import pytest

from blossomrec.config import AttentionConfig
from blossomrec.errors import ConfigError
from blossomrec.fusion import dense_causal_gqa, grouped_attention
from blossomrec.gradcheck import grad_check
from blossomrec.ltis import (
    CompressionMLP,
    build_ltis_masks,
    compress_sequence,
    importance_scores,
    ltis_index,
    remap_matrix,
    remap_scores,
    select_topk,
    selection_to_visibility,
    split_blocks,
)
from blossomrec.tensor import Tensor, parameter
from blossomrec.verify import ltis_selection_error


def small_cfg(**kw):
    base = dict(block_size=4, stride=2, sel_block_size=4, top_k=2, win=2, blk=1,
                heads=2, kv_groups=1, d_model=8, d_head=4)
    base.update(kw)
    return AttentionConfig(**base)


PAPER = AttentionConfig()  # block 32, stride 16, selection 16, top-4


class TestSplitBlocks:
    def test_block_count_200(self):
        assert split_blocks(np.zeros((200, 16)), PAPER).shape == (11, 32, 16)

    def test_block_count_2048(self):
        assert PAPER.num_cmp_blocks(2048) == 127

    def test_single_block_boundary(self):
        keys = np.arange(32 * 16, dtype=float).reshape(32, 16)
        blocks = split_blocks(keys, PAPER)
        assert len(blocks) == 1
        assert np.array_equal(blocks[0], keys)

    def test_overlap_and_coverage(self):
        cfg = small_cfg()
        keys = np.arange(10 * 4, dtype=float).reshape(10, 4)
        blocks = split_blocks(keys, cfg)
        assert len(blocks) == cfg.num_cmp_blocks(10) == 4
        for i, block in enumerate(blocks):
            assert np.array_equal(block, keys[i * 2: i * 2 + 4])
        # a leading (KV group) axis is split group by group
        stacked = split_blocks(np.stack([keys, -keys]), cfg)
        assert np.array_equal(stacked, np.stack([blocks, -blocks]))

    def test_short_sequence_left_pad(self):
        cfg = small_cfg()
        blocks = split_blocks(np.ones((2, 4)), cfg)
        assert len(blocks) == 1
        assert np.all(blocks[0, :2] == 0.0)
        assert np.all(blocks[0, 2:] == 1.0)

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
        want = [parameter((4, 3), ref, scale=0.02), parameter((12, 3), ref), parameter((3, 3), ref)]
        for got, w in zip((phi.pos_bias, phi.w1, phi.w2), want):
            assert np.array_equal(got, w.data)
        assert ours.random() == ref.random()

    def test_row_permutation_changes_output(self):
        rng = np.random.default_rng(1)
        cfg = small_cfg()
        phi = CompressionMLP(4, 4, rng)
        block = rng.normal(size=(4, 4))
        out = compress_sequence(block, phi, cfg)
        permuted = compress_sequence(block[::-1].copy(), phi, cfg)
        assert np.abs(out - permuted).max() > 1e-6

    def test_bad_block_shape(self):
        phi = CompressionMLP(4, 4, np.random.default_rng(2))
        with pytest.raises(ValueError, match="broadcast"):
            phi.apply_stack(np.zeros((1, 3, 4)))

    def test_compress_sequence_shape(self):
        rng = np.random.default_rng(4)
        cfg = small_cfg()
        phi = CompressionMLP(4, 4, rng)
        keys = rng.normal(size=(2, 10, 4))
        out = compress_sequence(keys, phi, cfg)
        assert out.shape == (2, cfg.num_cmp_blocks(10), 4) == (2, 4, 4)
        assert np.array_equal(out[1], compress_sequence(keys[1], phi, cfg))
        assert compress_sequence(np.ones((2, 4)), phi, cfg).shape == (1, 4)


class TestImportanceScores:
    def test_orthogonal_is_uniform_over_valid(self):
        cfg = small_cfg(block_size=4, stride=4, sel_block_size=4)
        # blocks cover [0,4), [4,8): block 1 only fully past position 7
        q = np.tile(np.array([1.0, 0.0, 0.0, 0.0]), (8, 1))
        cmp_keys = np.array([[0, 1, 0, 0], [0, 0, 1, 0]], dtype=float)
        scores = importance_scores(q, cmp_keys, cfg, seq_len=8)
        assert np.allclose(scores[3], [1.0, 0.0])
        assert np.allclose(scores[7], [0.5, 0.5])
        assert np.all(scores[:3] == 0.0)  # no block fully at/before queries 0..2
        # the last rows alone score as they do among all rows
        assert np.array_equal(importance_scores(q[2:], cmp_keys, cfg, seq_len=8), scores[2:])

    def test_dominant_key_wins(self):
        cfg = small_cfg(block_size=4, stride=4, sel_block_size=4, d_head=8)
        e = np.eye(8)
        q = np.tile(e[0], (12, 1))
        cmp_keys = np.stack([e[1], 10.0 * e[0], e[2]])
        scores = importance_scores(q, cmp_keys, cfg, seq_len=12)
        assert scores[11, 1] > 0.9

    def test_rows_sum_to_one_over_valid(self):
        rng = np.random.default_rng(5)
        cfg = small_cfg()
        q = rng.normal(size=(2, 10, 4))  # two heads
        cmp_keys = rng.normal(size=(4, 4))
        scores = importance_scores(q, cmp_keys, cfg, seq_len=10)
        sums = scores.sum(axis=-1)
        has_valid = np.arange(10) >= 3  # first block ends at position 3
        assert np.abs(sums[:, has_valid] - 1.0).max() < 1e-12
        assert np.all(sums[:, ~has_valid] == 0.0)


class TestBlockScores:
    def test_paired_invariants(self):
        rng = np.random.default_rng(30)
        cfg = small_cfg()
        length = 12
        q = rng.normal(size=(length, cfg.d_head))
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        cmp_keys = compress_sequence(rng.normal(size=(length, cfg.d_head)), phi, cfg)
        cmp_scores = importance_scores(q, cmp_keys, cfg, seq_len=length)
        sel_scores = remap_scores(cmp_scores, cfg, num_sel=cfg.num_sel_blocks(length))
        sums = cmp_scores.sum(axis=-1)
        assert np.all((np.abs(sums - 1.0) < 1e-12) | (sums == 0.0))
        assert np.all(sel_scores >= 0.0)
        # every selection score is a (weighted) sum of compression scores
        mat = remap_matrix(cmp_scores.shape[-1], cfg.num_sel_blocks(length), cfg)
        want = cmp_scores @ mat
        assert np.abs(sel_scores - want).max() < 1e-15


class TestRemap:
    def test_degenerate_identity(self):
        cfg = AttentionConfig(block_size=16, stride=16, sel_block_size=16)
        mat = remap_matrix(5, 5, cfg)
        assert np.array_equal(mat, np.eye(5))

    def test_paper_geometry_sums_adjacent(self):
        # selection 16, compression 32, stride 16: sel[j] = cmp[j] + cmp[j-1]
        cmp_scores = np.array([[0.1, 0.2, 0.3, 0.4]])
        out = remap_scores(cmp_scores, PAPER, num_sel=4)
        assert np.allclose(out, [[0.1, 0.1 + 0.2, 0.2 + 0.3, 0.3 + 0.4]])

    def test_zero_in_zero_out(self):
        out = remap_scores(np.zeros((3, 7)), PAPER, num_sel=8)
        assert np.all(out == 0.0)

    def test_linearity(self):
        rng = np.random.default_rng(6)
        cfg = small_cfg()
        a = rng.normal(size=(5, 6))
        b = rng.normal(size=(5, 6))
        alpha, beta = 1.7, -0.4
        lhs = remap_scores(alpha * a + beta * b, cfg, num_sel=4)
        rhs = alpha * remap_scores(a, cfg, num_sel=4) + beta * remap_scores(b, cfg, num_sel=4)
        assert np.abs(lhs - rhs).max() < 1e-12

    def test_multiplicity_counts_offset_pairs(self):
        # sel/stride = 2 and block/stride = 2 make the centre compression
        # block count twice: weights (1, 2, 1)
        cfg = AttentionConfig(block_size=8, stride=4, sel_block_size=8)
        mat = remap_matrix(6, 3, cfg)
        assert mat[:, 1].tolist() == [1.0, 2.0, 1.0, 0.0, 0.0, 0.0][:6]


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

        cmp_keys = compress_sequence(k[0, 0], phi, cfg)
        a, b = (remap_scores(importance_scores(q[0, h], cmp_keys, cfg, n), cfg,
                             num_sel=cfg.num_sel_blocks(n)) for h in range(2))
        chosen = select_topk(a + b, cfg, seq_len=n)
        assert np.array_equal(masks[0, 0, 0], selection_to_visibility(chosen, n, cfg))
        swapped = build_ltis_masks(q[:, ::-1].copy(), k, lengths, cfg, phi)
        assert np.array_equal(swapped, masks)

    @pytest.mark.parametrize("heads, kv_groups", [(4, 2), (2, 2)])
    def test_build_ltis_masks_matches_per_step_rebuild(self, heads, kv_groups):
        """Rebuild every row of a left-padded batch one head at a time: each
        head's selection scores are summed into its KV group's ranking, and
        the chosen blocks land in the bottom-right corner of the frame."""
        rng = np.random.default_rng(30)
        cfg = small_cfg(sel_block_size=2, top_k=2, heads=heads, kv_groups=kv_groups)
        lengths, total = np.array([3, 9, 14, 0]), 14
        q = rng.normal(size=(len(lengths), heads, total, cfg.d_head))
        k = rng.normal(size=(len(lengths), kv_groups, total, cfg.d_head))
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        masks = build_ltis_masks(q, k, lengths, cfg, phi)
        assert np.array_equal(masks, per_step_masks(q, k, lengths, cfg, phi))

    def test_saturated_shortcut_equals_full_pipeline(self):
        """Up to top_k * sel_block_size = 8 items every started block is
        selected, so the shortcut (no scoring) must equal running every step."""
        rng = np.random.default_rng(31)
        cfg = small_cfg(sel_block_size=4, top_k=2, heads=4, kv_groups=2)
        lengths = np.arange(0, 11)
        total = int(lengths.max())
        q = rng.normal(size=(len(lengths), cfg.heads, total, cfg.d_head))
        k = rng.normal(size=(len(lengths), cfg.kv_groups, total, cfg.d_head))
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        masks = build_ltis_masks(q, k, lengths, cfg, phi)
        assert np.array_equal(masks, per_step_masks(q, k, lengths, cfg, phi))
        for b, n in enumerate(lengths):
            if n <= 8:  # the causal prefix, whatever the scores
                pad = total - n
                prefix = np.tril(np.ones((n, n), dtype=bool))
                assert all(np.array_equal(m, prefix) for m in masks[b, :, 0, pad:, pad:])

    def test_selection_matches_naive_oracle(self):
        assert ltis_selection_error(range(3), (0, 10, 24, 32)) == 0


class TestQueryRows:
    """``ltis_index`` given only each segment's newest query rows."""

    @pytest.mark.parametrize("rows", [1, 3, 7])
    def test_last_rows_equal_last_rows_of_full_index(self, rows):
        """Packed segments: lengths 16 and 9 are scored over several
        compression blocks, 6 in one left-padded block, 4 and 2 are
        saturated (at most top_k selection blocks), and 0 is empty."""
        rng = np.random.default_rng(32)
        cfg = small_cfg(block_size=8, stride=2, sel_block_size=2, top_k=2, heads=4, kv_groups=2)
        lengths = np.array([16, 9, 6, 4, 2, 0])
        starts = np.cumsum(lengths) - lengths
        q = rng.normal(size=(1, cfg.heads, lengths.sum(), cfg.d_head))
        k = rng.normal(size=(1, cfg.kv_groups, lengths.sum(), cfg.d_head))
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        full_idx, full_valid = ltis_index(q, k, lengths, cfg, phi)
        newest = np.concatenate([np.arange(max(n - rows, 0), n) + start
                                 for start, n in zip(starts, lengths)])
        idx, valid = ltis_index(q[:, :, newest], k, lengths, cfg, phi, rows=rows)
        assert idx.shape == (1, cfg.kv_groups, len(newest), full_idx.shape[-1])
        assert np.array_equal(valid, full_valid[:, :, newest])
        assert np.array_equal(idx, full_idx[:, :, newest])
        assert valid.any(axis=-1).all()
        for start, n in zip(starts, lengths):
            rows_of = (full_idx >= start) & (full_idx < start + n)
            segment = full_valid[:, :, start:start + n]
            # every valid slot holds a row of the query's own segment
            assert np.array_equal(segment & rows_of[:, :, start:start + n], segment)


def loop_ltis_index(q, k, lengths, cfg, phi, rows=None):
    """``ltis_index`` one segment at a time, from the per-step functions:
    the reference the batched pass must equal exactly."""
    width = min(cfg.top_k * cfg.sel_block_size, int(max(lengths, default=0)))
    idx = np.zeros((1, cfg.kv_groups, q.shape[2], width), dtype=np.int64)
    valid = np.zeros(idx.shape, dtype=bool)
    slots = np.arange(width)
    start = lo = 0                           # segment's first key row, first query row
    for n in lengths:
        m = n if rows is None else min(n, rows)
        t = np.arange(n - m, n)[:, None]
        out = (0, slice(None), slice(lo, lo + m))
        num_sel = cfg.num_sel_blocks(n)
        if num_sel <= cfg.top_k:
            idx[out] = start + np.where(slots <= t, slots, 0)
            valid[out] = slots <= t
        else:
            cmp_keys = compress_sequence(k[0, :, start:start + n], phi, cfg)
            queries = q[0, :, lo:lo + m].reshape(cfg.kv_groups, cfg.heads_per_group, m, -1)
            cmp_scores = importance_scores(queries, cmp_keys[:, None], cfg, n)
            scores = remap_scores(cmp_scores, cfg, num_sel).sum(axis=1)
            # top-k by a stable sort, apart from ltis's own ranking
            started = np.arange(num_sel) * cfg.sel_block_size <= t
            cols = np.argsort(-np.where(started, scores, -np.inf), axis=-1,
                              kind="stable")[..., :cfg.top_k]
            keep = np.arange(cfg.top_k) < started.sum(axis=1)[:, None]
            chosen = np.zeros(scores.shape, dtype=bool)
            np.put_along_axis(chosen, cols, np.broadcast_to(keep, cols.shape), axis=-1)
            blocks = np.argsort(~chosen, axis=-1, kind="stable")[..., :cfg.top_k]
            pos = (blocks[..., None] * cfg.sel_block_size
                   + np.arange(cfg.sel_block_size)).reshape(cfg.kv_groups, m, width)
            ok = (slots // cfg.sel_block_size < chosen.sum(axis=-1)[..., None]) & (pos <= t)
            idx[out] = start + np.where(ok, pos, 0)
            valid[out] = ok
        start, lo = start + n, lo + m
    return idx, valid


class TestBatchedSelection:
    """``ltis_index`` scores every segment in one pass; it must pick
    exactly what scoring each segment alone picks."""

    @pytest.mark.parametrize("rows", [None, 1])
    @pytest.mark.parametrize("cfg", [
        AttentionConfig(heads=4, kv_groups=2, d_model=32, d_head=8),
        # compression blocks longer than the saturation length, so scored
        # segments of up to 63 rows take the single left-padded block
        AttentionConfig(block_size=64, stride=8, sel_block_size=16, top_k=1,
                        heads=4, kv_groups=1, d_model=16, d_head=4),
    ], ids=["desk", "long-block"])
    def test_equals_per_segment_loop(self, monkeypatch, cfg, rows):
        """Lengths 1, 31, 64, 65, 200 and 512, shuffled: saturated and
        scored segments interleave, and 512 pads every other segment's
        compression and selection blocks."""
        rng = np.random.default_rng(33)
        lengths = rng.permutation([1, 31, 64, 65, 200, 512]).tolist()
        starts = np.cumsum(lengths) - lengths
        newest = np.concatenate([np.arange(n - min(n, rows or n), n) + s
                                 for s, n in zip(starts, lengths)])
        q = rng.normal(size=(1, cfg.heads, sum(lengths), cfg.d_head))[:, :, newest]
        k = rng.normal(size=(1, cfg.kv_groups, sum(lengths), cfg.d_head))
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        want = loop_ltis_index(q, k, lengths, cfg, phi, rows=rows)
        calls = []
        compress = phi.apply_stack
        monkeypatch.setattr(phi, "apply_stack", lambda blocks: calls.append(1) or compress(blocks))
        idx, valid = ltis_index(q, k, lengths, cfg, phi, rows=rows)
        assert calls == [1]                      # every segment's blocks at once
        assert np.array_equal(valid, want[1])
        assert np.array_equal(idx, want[0])
        # not vacuous: some query picks a block past its first top_k
        pos = idx - np.repeat(starts, [min(n, rows or n) for n in lengths])[:, None]
        assert pos[valid].max() >= idx.shape[-1]


def per_step_masks(q, k, lengths, cfg, phi):
    """``build_ltis_masks`` rebuilt from the per-step functions, one head at
    a time, each head's selection scores summed into its KV group."""
    total = q.shape[2]
    want = np.zeros((len(lengths), cfg.kv_groups, 1, total, total), dtype=bool)
    for b, n in enumerate(lengths):
        if n == 0:
            continue
        pad = total - n
        shared = np.zeros((cfg.kv_groups, n, cfg.num_sel_blocks(n)))
        for head in range(cfg.heads):
            g = cfg.group_of_head(head)
            cmp_keys = compress_sequence(k[b, g, pad:], phi, cfg)
            cmp_scores = importance_scores(q[b, head, pad:], cmp_keys, cfg, n)
            sums = cmp_scores.sum(axis=-1)
            assert np.all((np.abs(sums - 1.0) < 1e-12) | (sums == 0.0))
            shared[g] += remap_scores(cmp_scores, cfg, num_sel=cfg.num_sel_blocks(n))
        for g in range(cfg.kv_groups):
            chosen = select_topk(shared[g], cfg, seq_len=n)
            want[b, g, 0, pad:, pad:] = selection_to_visibility(chosen, n, cfg)
    return want


class TestSelectTopK:
    def test_ordering(self):
        cfg = small_cfg(sel_block_size=1, stride=1, top_k=2)
        chosen = select_topk(np.array([[0.1, 0.5, 0.3, 0.1]]), cfg, seq_len=4)
        assert set(np.flatnonzero(chosen[0])) == {1, 2}

    def test_tie_goes_to_lower_index(self):
        cfg = small_cfg(sel_block_size=1, stride=1, top_k=1)
        chosen = select_topk(np.array([[0.4, 0.4, 0.2]]), cfg, seq_len=3)
        assert set(np.flatnonzero(chosen[0])) == {0}

    def test_saturation(self):
        cfg = small_cfg(sel_block_size=1, stride=1, top_k=4)
        chosen = select_topk(np.array([[0.4, 0.4, 0.2]]), cfg, seq_len=3)
        assert chosen[0].all()

    def test_causal_validity_per_query(self):
        cfg = small_cfg(sel_block_size=4, top_k=8)
        scores = np.ones((8, 2))
        chosen = select_topk(scores, cfg, seq_len=8)
        # block 1 starts at position 4: invalid for queries 0..3
        assert not chosen[:4, 1].any()
        assert chosen[4:, 1].all()
        assert chosen[:, 0].all()

    def test_selected_count_is_min_k_valid(self):
        rng = np.random.default_rng(10)
        cfg = small_cfg(sel_block_size=2, top_k=3)
        length = 13
        scores = rng.normal(size=(length, cfg.num_sel_blocks(length)))
        chosen = select_topk(scores, cfg, seq_len=length)
        for t in range(length):
            valid = np.arange(cfg.num_sel_blocks(length)) * 2 <= t
            assert chosen[t].sum() == min(cfg.top_k, valid.sum())
        # leading (KV group) planes are ranked independently
        stacked = select_topk(np.stack([scores, -scores]), cfg, seq_len=length)
        assert np.array_equal(stacked[0], chosen)
        assert np.array_equal(stacked[1], select_topk(-scores, cfg, seq_len=length))

    def test_deterministic(self):
        rng = np.random.default_rng(11)
        cfg = small_cfg(sel_block_size=2, top_k=2)
        scores = rng.normal(size=(9, 5))
        a = select_topk(scores, cfg, seq_len=9)
        b = select_topk(scores.copy(), cfg, seq_len=9)
        assert np.array_equal(a, b)


def gather_oracle(q, k, v, selected, cfg):
    """Per-query gather + softmax, the literal formulation."""
    h, length, dk = q.shape
    out = np.zeros((length, h * dk))
    for head in range(h):
        group = cfg.group_of_head(head)
        for t in range(length):
            positions = []
            for j in np.flatnonzero(selected[group, t]):
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
    under the visibility of per-group block choices (kv_groups, L, N_sel)."""
    length = q.shape[-2]
    vis = np.stack([selection_to_visibility(plane, length, cfg) for plane in selected])
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
            full = np.ones((cfg.kv_groups, length, cfg.num_sel_blocks(length)), dtype=bool)
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
        selected = np.zeros((1, length, length), dtype=bool)
        selected[0, np.arange(length), np.arange(length)] = True  # own block only
        out = attend_selected(Tensor(q), Tensor(k), Tensor(v), selected, cfg)
        assert np.abs(out.data[0] - v[0, 0]).max() < 1e-12

    def test_partial_selection_matches_gather_oracle(self):
        rng = np.random.default_rng(13)
        cfg = small_cfg(sel_block_size=2, top_k=2, heads=4, kv_groups=2)
        length = 11
        q = rng.normal(size=(1, cfg.heads, length, cfg.d_head))
        k = rng.normal(size=(1, cfg.kv_groups, length, cfg.d_head))
        v = rng.normal(size=(1, cfg.kv_groups, length, cfg.d_head))
        scores = rng.normal(size=(cfg.kv_groups, length, cfg.num_sel_blocks(length)))
        selected = np.stack([select_topk(scores[g], cfg, seq_len=length)
                             for g in range(cfg.kv_groups)])
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
        scores = rng.normal(size=(length, cfg.num_sel_blocks(length)))
        selected = select_topk(scores, cfg, seq_len=length)[None]
        w = rng.normal(size=(length, cfg.heads * cfg.d_head))

        def f():
            return (attend_selected(q, k, v, selected, cfg) * Tensor(w)).sum()

        assert grad_check(f, {"q": q, "k": k, "v": v}) < 1e-4


class TestVisibilityAndBatchMasks:
    def test_selection_to_visibility_is_causal(self):
        cfg = small_cfg(sel_block_size=2)
        selected = np.ones((5, 3), dtype=bool)
        vis = selection_to_visibility(selected, 5, cfg)
        assert np.array_equal(vis, np.tril(np.ones((5, 5), dtype=bool)))

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

"""Power-mask construction (``power_table``) and attention under the power mask."""

import numpy as np
import pytest

from blossomrec.config import AttentionConfig
from blossomrec.data import SeqContext
from blossomrec.fusion import dense_causal_gqa, grouped_attention
from blossomrec.gradcheck import grad_check
from blossomrec.stis import batch_stis_masks, power_table, stis_index
from blossomrec.tensor import Tensor, parameter
from blossomrec.verify import brute_force_power_mask


def cfg_with(blk=1, win=2, **kw):
    base = dict(block_size=8, stride=4, sel_block_size=4, top_k=2,
                heads=2, kv_groups=1, d_model=8, d_head=4)
    base.update(kw)
    return AttentionConfig(blk=blk, win=win, **base)


def mask_rows(length, cfg):
    """Row i of the length-L power mask as ``power_table`` holds it."""
    idx, valid = power_table(cfg, length)
    return [idx[i][valid[i]].tolist() for i in range(length)]


def dense_mask(length, cfg):
    return batch_stis_masks(np.array([length]), length, cfg)[0, 0, 0]


def brute_rows(length, cfg):
    return [np.flatnonzero(row).tolist() for row in brute_force_power_mask(length, cfg)]


class TestBuildPowerMask:
    """The causal power mask as ``power_table`` builds it."""

    def test_spec_row_example(self):
        # L=8, blk=1, win=2: row 7 sees window {6,7}, power
        # distances {1,2,4} -> {6,5,3}, and the last block {7}
        assert mask_rows(8, cfg_with(blk=1, win=2))[7] == [3, 5, 6, 7]

    def test_length_one(self):
        assert mask_rows(1, cfg_with()) == [[0]]

    def test_window_saturation(self):
        length = 16
        for i, row in enumerate(mask_rows(length, cfg_with(blk=1, win=length))):
            assert row == list(range(i + 1))

    def test_matches_brute_force(self):
        rng = np.random.default_rng(11)
        for _ in range(25):
            length = int(rng.integers(1, 80))
            cfg = cfg_with(blk=int(rng.integers(1, 5)), win=int(rng.integers(1, 4)))
            assert np.array_equal(dense_mask(length, cfg), brute_force_power_mask(length, cfg)), \
                (length, cfg.blk, cfg.win)

    def test_last_block_always_visible(self):
        length, cfg = 33, cfg_with(blk=3, win=1)
        for i, row in enumerate(mask_rows(length, cfg)):
            expected = set(range(max(0, length - cfg.blk), min(i + 1, length)))
            assert expected.issubset(row)

    def test_row_count_bound(self):
        for length in (64, 256, 1024, 4096):
            for blk, win in ((1, 2), (4, 2), (8, 1)):
                _, valid = power_table(cfg_with(blk=blk, win=win), length)
                bound = win * blk + int(np.floor(np.log2(max(1, length // blk)))) * blk + blk
                assert valid.sum(axis=1).max() <= bound, (length, blk, win)

    def test_monotone_in_win(self):
        length = 50
        small = dense_mask(length, cfg_with(blk=2, win=1))
        large = dense_mask(length, cfg_with(blk=2, win=3))
        assert small.any() and np.all(large[small])

    def test_log_growth_per_row(self):
        cfg = cfg_with(blk=1, win=2)
        for length in (64, 128, 256, 512):
            a = power_table(cfg, length)[1].sum(axis=1).max()
            b = power_table(cfg, 2 * length)[1].sum(axis=1).max()
            assert b - a <= 2 * cfg.blk


class TestStisAttention:
    def test_all_visible_equals_dense_oracle(self):
        rng = np.random.default_rng(12)
        cfg = cfg_with(blk=1, win=64, heads=4, kv_groups=2)
        length = 24
        q = rng.normal(size=(1, cfg.heads, length, cfg.d_head))
        k = rng.normal(size=(1, cfg.kv_groups, length, cfg.d_head))
        v = rng.normal(size=(1, cfg.kv_groups, length, cfg.d_head))
        mask = batch_stis_masks(np.array([length]), length, cfg)
        out = grouped_attention(Tensor(q), Tensor(k), Tensor(v), cfg, mask)
        oracle = dense_causal_gqa(q[0], k[0], v[0], cfg)
        assert np.abs(out.data[0] - oracle).max() < 1e-10

    def test_self_only_mask_returns_values(self):
        rng = np.random.default_rng(13)
        cfg = cfg_with(heads=1, kv_groups=1)
        length = 6
        mask = np.eye(length, dtype=bool)
        q = rng.normal(size=(1, 1, length, cfg.d_head))
        k = rng.normal(size=(1, 1, length, cfg.d_head))
        v = rng.normal(size=(1, 1, length, cfg.d_head))
        out = grouped_attention(Tensor(q), Tensor(k), Tensor(v), cfg, mask)
        assert np.abs(out.data[0] - v[0, 0]).max() < 1e-12

    def test_length_mismatch(self):
        cfg = cfg_with()
        mask = batch_stis_masks(np.array([5]), 5, cfg)
        q = Tensor(np.zeros((1, 2, 6, 4)))
        kv = Tensor(np.zeros((1, 1, 6, 4)))
        with pytest.raises(ValueError, match="broadcast"):
            grouped_attention(q, kv, kv, cfg, mask)

    def test_gradient(self):
        rng = np.random.default_rng(14)
        cfg = cfg_with(blk=1, win=2, heads=2, kv_groups=2)
        length = 7
        q = parameter(rng.normal(size=(1, cfg.heads, length, cfg.d_head)))
        k = parameter(rng.normal(size=(1, cfg.kv_groups, length, cfg.d_head)))
        v = parameter(rng.normal(size=(1, cfg.kv_groups, length, cfg.d_head)))
        mask = batch_stis_masks(np.array([length]), length, cfg)
        w = rng.normal(size=(length, cfg.heads * cfg.d_head))

        def f():
            return (grouped_attention(q, k, v, cfg, mask) * Tensor(w)).sum()

        assert grad_check(f, {"q": q, "k": k, "v": v}) < 1e-4


class TestBatchMasks:
    def test_padding_corner_placement(self):
        cfg = cfg_with(blk=1, win=2)
        masks = batch_stis_masks(np.array([3, 5]), 5, cfg)
        assert masks.shape == (2, 1, 1, 5, 5)
        # first sequence: two leading pad slots never visible, never queried
        assert not masks[0, 0, 0, :2].any()
        assert not masks[0, 0, 0, :, :2].any()
        assert np.array_equal(masks[0, 0, 0, 2:, 2:], brute_force_power_mask(3, cfg))
        assert np.array_equal(masks[1, 0, 0], brute_force_power_mask(5, cfg))


class TestPowerTable:
    @pytest.mark.parametrize("blk, win", [(1, 1), (1, 2), (1, 8), (2, 2), (3, 1), (4, 3)])
    def test_table_rows_equal_mask_rows(self, blk, win):
        """Causal rows depend only on the query position, so the table for
        length n holds the brute-force mask rows for every n."""
        cfg = cfg_with(blk=blk, win=win)
        for n in range(1, 131):
            idx, valid = power_table(cfg, n)
            rows = brute_rows(n, cfg)
            assert idx.shape[1] == max(len(r) for r in rows)
            for i in range(n):
                assert idx[i][valid[i]].tolist() == rows[i], (n, i)

    def test_table_is_cached_and_read_only(self):
        cfg = cfg_with(blk=2, win=3)
        assert power_table(cfg, 40) is power_table(cfg, 40)
        with pytest.raises(ValueError):
            power_table(cfg, 40)[0][0, 0] = 1

    @pytest.mark.parametrize("blk, win", [(1, 2), (2, 3)])
    def test_stream_index_is_shifted_table_rows(self, blk, win):
        """Packed segments of lengths 3, 1, 9, 0 and 5: each row's index is
        its position's row of the longest segment's table, plus its
        segment's start, so it sees only its own segment's causal rows."""
        cfg = cfg_with(blk=blk, win=win)
        lengths = np.array([3, 1, 9, 0, 5])
        starts = np.cumsum(lengths) - lengths
        positions = np.concatenate([np.arange(n) for n in lengths])
        row_starts = np.repeat(starts, lengths)
        idx, valid = stis_index(SeqContext.from_lengths(lengths), np.arange(18), cfg)
        table, ok = power_table(cfg, 9)
        assert np.array_equal(idx[0, 0], table[positions] + row_starts[:, None])
        assert np.array_equal(valid[0, 0], ok[positions])
        for row, (p, start) in enumerate(zip(positions, row_starts)):
            n = lengths[np.searchsorted(starts, start, side="right") - 1]
            seen = idx[0, 0, row][valid[0, 0, row]] - start
            assert seen.tolist() == brute_rows(n, cfg)[p]

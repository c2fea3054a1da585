"""Sparsity accounting: the published totals, honest dedup, complexity."""

import numpy as np
import pytest

from blossomrec.analysis import complexity_report, count_participating
from blossomrec.config import AttentionConfig
from blossomrec.stis import power_table

PAPER = AttentionConfig()
PUBLISHED_TOTALS = {256: 103, 512: 120, 1024: 153, 2048: 218}


class TestCountParticipating:
    @pytest.mark.parametrize("length,total", sorted(PUBLISHED_TOTALS.items()))
    def test_published_totals_exact(self, length, total):
        assert count_participating(length, PAPER).total == total

    def test_reduction_at_2048(self):
        r = count_participating(2048, PAPER)
        assert abs(r.reduction - 0.894) < 0.0005
        assert f"{100 * r.reduction:.1f}" == "89.4"

    def test_category_breakdown_at_256(self):
        r = count_participating(256, PAPER)
        assert (r.compressed, r.selected, r.window, r.power, r.last_block) == (15, 64, 15, 8, 1)

    def test_dedup_never_exceeds_category_sum(self):
        for length in (256, 512, 1024, 2048):
            r = count_participating(length, PAPER)
            assert r.dedup_union <= r.total

    def test_block_count_matches_formula(self):
        for length in (256, 777, 2048):
            r = count_participating(length, PAPER)
            assert r.num_cmp_blocks == (length - 32) // 16 + 1


class TestComplexityReport:
    def test_scoring_term_arithmetic(self):
        rep = complexity_report(2048, AttentionConfig(d_model=64))
        assert rep["ltis_scoring"] == 127 * 127 * 64

    def test_dense_comparator(self):
        rep = complexity_report(2048, AttentionConfig(d_model=64))
        assert rep["dense"] == 2048 * 2048 * 64

    def test_sub_dense_for_long_sequences(self):
        for length in (256, 512, 1024, 2048, 4096):
            rep = complexity_report(length, PAPER)
            assert rep["ratio_vs_dense"] < 1.0

    def test_discrepancy_is_reported(self):
        rep = complexity_report(1024, PAPER)
        assert rep["ltis_attention_stated"] != rep["ltis_attention_actual_per_query_gather"]
        assert "differs" in rep["note"]


def row_counts(length, cfg):
    return power_table(cfg, length)[1].sum(axis=1)


class TestMaskDensity:
    """Visible counts of the causal power mask, as ``complexity_report`` sums them."""

    def test_saturated_mask(self):
        cfg = AttentionConfig(win=8, blk=1)
        assert row_counts(8, cfg).tolist() == list(range(1, 9))
        assert complexity_report(8, cfg)["stis_total_actual"] == 8 * 9 // 2 * cfg.d_model

    def test_row_bound_brute_force(self):
        cfg = AttentionConfig(win=1, blk=1)
        assert row_counts(1024, cfg).max() <= 1 + int(np.log2(1024)) + 1

    def test_density_shrinks_with_length(self):
        d_small = row_counts(256, PAPER).sum() / 256**2
        d_large = row_counts(2048, PAPER).sum() / 2048**2
        assert d_large < d_small

    def test_log_growth_of_row_counts(self):
        for length in (128, 256, 512, 1024, 2048):
            a = row_counts(length, PAPER).max()
            b = row_counts(2 * length, PAPER).max()
            assert b - a <= 2 * PAPER.blk

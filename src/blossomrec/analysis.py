"""Sparsity and complexity accounting.

``count_participating`` reproduces the published participating-interaction
totals with a category-sum convention (compressed keys + selected
positions + window + one-sided power positions + last block, no
deduplication across categories). That convention was reverse-engineered
from the published totals, so a deduplicated count (``dedup_union``) is
reported alongside it. It takes the top_k most recent blocks in place of
the real selection, so it under-counts: 196 at L = 2048, where the
model's indices touch up to 207.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

from .config import AttentionConfig
from .stis import power_table

__all__ = ["SparsityReport", "count_participating", "complexity_report"]


@dataclass
class SparsityReport:
    length: int
    num_cmp_blocks: int
    compressed: int
    selected: int
    window: int
    power: int
    last_block: int
    total: int            # category sum (no cross-category dedup)
    dedup_union: int      # last query's union with a stand-in selection: an under-count
    reduction: float      # 1 - total / length
    flops_dense: int
    flops_blossom: int

    def as_dict(self) -> dict:
        return asdict(self)


def _dedup_union(length: int, cfg: AttentionConfig) -> int:
    """Distinct participants for the last query position.

    Position-level union of the short-term mask's last row with the top-k
    most recent selection blocks (the deterministic stand-in for a
    score-based choice), plus the compressed keys, which are extra
    participants rather than sequence positions.
    """
    idx, valid = power_table(cfg, length)
    visible = set(idx[-1][valid[-1]].tolist())
    num_sel = cfg.num_sel_blocks(length)
    take = min(cfg.top_k, num_sel)
    for j in range(num_sel - take, num_sel):
        start, stop = j * cfg.sel_block_size, min((j + 1) * cfg.sel_block_size, length)
        visible.update(range(start, stop))
    return len(visible) + cfg.num_cmp_blocks(length)


def count_participating(length: int, cfg: AttentionConfig) -> SparsityReport:
    """Participating-interaction count for one sequence length.

    Category sum: M compressed keys + top_k * sel_block_size selected
    positions + (2 * win * blk - 1) window positions + floor(log2 L) power
    positions + 1 last-block position.
    """
    m = cfg.num_cmp_blocks(length)
    compressed = m
    selected = cfg.top_k * cfg.sel_block_size
    window = 2 * cfg.win * cfg.blk - 1
    power = int(math.floor(math.log2(length))) if length > 1 else 0
    last_block = 1
    total = compressed + selected + window + power + last_block
    return SparsityReport(
        length=length,
        num_cmp_blocks=m,
        compressed=compressed,
        selected=selected,
        window=window,
        power=power,
        last_block=last_block,
        total=total,
        dedup_union=_dedup_union(length, cfg),
        reduction=1.0 - total / length,
        flops_dense=length * length * cfg.d_model,
        flops_blossom=complexity_report(length, cfg)["blossom_total_stated"],
    )


def complexity_report(length: int, cfg: AttentionConfig) -> dict:
    """Stated asymptotic cost terms next to the implementation's actual
    gathered-attention cost.

    The stated long-term attention term G*(sel*k)^2*d does not match the
    per-query gathered cost L*k*sel*d of the implementation; both are
    reported and the discrepancy is flagged rather than resolved.
    """
    m = cfg.num_cmp_blocks(length)
    d = cfg.d_model
    sel_k = cfg.sel_block_size * cfg.top_k
    ltis_scoring = m * m * d
    ltis_stated = cfg.kv_groups * sel_k**2 * d
    ltis_actual = length * sel_k * d
    stis_stated = int(math.log2(max(2, length // cfg.blk))) * d
    stis_actual = int(power_table(cfg, length)[1].sum()) * d
    dense = length * length * d
    blossom_total = ltis_scoring + ltis_stated + stis_stated
    return {
        "length": length,
        "dense": dense,
        "ltis_scoring": ltis_scoring,
        "ltis_attention_stated": ltis_stated,
        "ltis_attention_actual_per_query_gather": ltis_actual,
        "stis_per_query_stated": stis_stated,
        "stis_total_actual": stis_actual,
        "blossom_total_stated": blossom_total,
        "ratio_vs_dense": blossom_total / dense,
        "note": ("stated long-term term G*(sel*k)^2*d differs from the per-query "
                 "gathered cost L*k*sel*d; stated short-term term is per-query "
                 "visible count, not total cost"),
    }


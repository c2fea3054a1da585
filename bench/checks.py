"""Correctness checks run on every benchmark run.

Each check is a plain function of arrays, so the benchmark's own tests can
feed it deliberately wrong input and see it fail.
"""

from __future__ import annotations

import numpy as np

from blossomrec import fusion, ltis, stis
from blossomrec.tensor import Tensor

TOLERANCE = 1e-8


def loss_ok(loss: float) -> bool:
    """A training loss must be a finite number."""
    return bool(np.isfinite(loss))


def top_items_ok(top: np.ndarray, scores: np.ndarray, num_items: int, k: int) -> bool:
    """A served top-k list: k distinct real item ids, over finite scores,
    none outscored by an item left out."""
    top = np.asarray(top)
    if len(top) != k or len(set(top.tolist())) != k:
        return False
    if top.min() < 1 or top.max() > num_items or not np.isfinite(scores).all():
        return False
    rest = np.delete(scores, top - 1)
    return bool(rest.size == 0 or scores[top - 1].min() >= rest.max())


def padding_invariance_errors(batched: np.ndarray, single: np.ndarray) -> np.ndarray:
    """Per-user max abs difference between the last hidden state computed in
    a left-padded batch and the one computed for the user alone."""
    batched = np.asarray(batched, dtype=np.float64)
    single = np.asarray(single, dtype=np.float64)
    if batched.shape != single.shape:
        raise ValueError(f"hidden states disagree in shape: {batched.shape} vs {single.shape}")
    return np.abs(batched - single).reshape(len(batched), -1).max(axis=1)


def dense_oracle_error(length: int, cfg, seed: int) -> float:
    """Max abs error of the fused sparse pathways against the dense causal
    oracle on one random (q, k, v) of the given length.

    At the published settings both pathways see the whole causal prefix
    while ``length`` is at most the local window (win * blk = 8), so the
    error must be at rounding level. Longer inputs make the pathways sparse
    and the error large, which is how the check is shown to bite.
    """
    rng = np.random.default_rng(seed)
    q = rng.normal(size=(1, cfg.heads, length, cfg.d_head))
    k = rng.normal(size=(1, cfg.kv_groups, length, cfg.d_head))
    v = rng.normal(size=(1, cfg.kv_groups, length, cfg.d_head))
    lengths = np.array([length])
    phi = ltis.CompressionMLP(cfg.block_size, cfg.d_head, rng)
    ltis_mask = ltis.build_ltis_masks(q, k, lengths, cfg, phi)
    stis_mask = stis.batch_stis_masks(lengths, length, cfg)
    o_l = fusion.grouped_attention(Tensor(q), Tensor(k), Tensor(v), cfg, ltis_mask)
    o_s = fusion.grouped_attention(Tensor(q), Tensor(k), Tensor(v), cfg, stis_mask)
    width = cfg.heads * cfg.d_head
    fused, _ = fusion.gated_fuse(o_l, o_s, Tensor(rng.normal(size=(2 * width, width))),
                                 Tensor(rng.normal(size=width)))
    dense = fusion.dense_causal_gqa(q[0], k[0], v[0], cfg)
    return float(np.abs(fused.data[0] - dense).max())

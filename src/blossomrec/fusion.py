"""Grouped-query attention, sigmoid output gating, and the encoder stack.

One encoder layer projects its input to Q/K/V, applies rotary encoding,
runs the long-term (block selection) and short-term (power mask) pathways
over the same Q/K/V, fuses the two outputs through a learnable per-entry
sigmoid gate, and finishes with the usual post-norm residual + feed-forward
sandwich. A layer built for one pathway alone holds no gate and runs that
pathway only. A stack of layers ends with one affine output projection.

The encoder runs on a packed stream, (N, d): a batch's rows, one
sequence's segment after another, with N the sum of the lengths, as in
the ``cu_seqlens`` layout of varlen attention kernels. ``data.SeqBatch``
builds batches in that layout, so there is no padding to skip.
``data.SeqContext`` holds each segment's start and length and each row's
position within its segment. Dropout draws its keep-mask over the
stream's rows. Q, K and V stay rows first, (N, heads or kv_groups,
d_head), from projection to gather, as varlen kernels take them.

Each pathway reduces to an attention index over stream rows: K key rows
per query (``ltis.ltis_index``, ``stis.stis_index``), built once per
layer from the same ``SeqContext`` and query rows, whose K/V rows
``_attend`` gathers (``tensor.gathered_attention``, O(N * K) work) on
every stream, however short. ``grouped_attention`` under the index
scattered into a dense mask (``tensor.index_mask``) computes the same
thing; it is the reference ``verify`` checks the gather against.

Inference needs only the last position's output. ``encode(rows=1)``
runs every layer but the last in full, since the next layer reads all of
their rows as K/V; the last layer projects K/V over the whole stream but
Q, both indices, both attentions, the gate, the residuals, the layer
norms, the FFN and the output affine over each segment's last row
alone, through the same ``_attend``.
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from .config import AttentionConfig
from .data import SeqContext
from .embedding import RoPECache, apply_rope
from .errors import ConfigError
from . import ltis as ltis_mod
from . import stis as stis_mod
from .tensor import (
    Tensor,
    affine,
    ffn,
    gathered_attention,
    glorot,
    masked_softmax,
    matmul,
    mul,
    parameter,
    reshape,
    residual_norm,
    sigmoid_gate,
    take_rows,
    transpose,
)

__all__ = [
    "BlossomLayerParams",
    "grouped_attention",
    "gated_fuse",
    "encoder_layer",
    "encode",
    "dense_causal_gqa",
]


def grouped_attention(q: Tensor, k: Tensor, v: Tensor, cfg: AttentionConfig,
                      mask: np.ndarray) -> Tensor:
    """Scaled dot-product attention with K/V shared across head groups.

    q: (B, heads, L, d_head); k, v: (B, kv_groups, Lk, d_head). ``mask`` is
    a boolean array broadcastable to (B, kv_groups, heads_per_group, L, Lk);
    a query with nothing visible yields a zero row, one with a visible NaN
    logit a NaN row. Heads are concatenated into (B, L, heads * d_head).
    """
    b, h, length, dk = q.shape
    g = k.shape[1]
    if h != cfg.heads or g != cfg.kv_groups:
        raise ConfigError(f"got {h} heads / {g} groups, config says {cfg.heads}/{cfg.kv_groups}")
    hpg = cfg.heads_per_group
    lk = k.shape[2]

    q5 = reshape(q, (b, g, hpg, length, dk))
    k5 = reshape(k, (b, g, 1, lk, dk))
    v5 = reshape(v, (b, g, 1, lk, dk))
    logits = mul(matmul(q5, transpose(k5, (0, 1, 2, 4, 3))), 1.0 / np.sqrt(dk))
    ctxv = matmul(masked_softmax(logits, mask), v5)  # (b, g, hpg, L, dk)
    return reshape(transpose(ctxv, (0, 3, 1, 2, 4)), (b, length, h * dk))


def _attend(q: Tensor, k: Tensor, v: Tensor, index: tuple[np.ndarray, np.ndarray],
            w_o: Tensor) -> Tensor:
    """Attend over an (idx, valid) index by gathering its K/V rows (the
    heads come back merged) and project back to model width with ``w_o``."""
    return matmul(gathered_attention(q, k, v, *index), w_o)


def gated_fuse(o_ltis: Tensor, o_stis: Tensor, gate_w: Tensor, gate_b: Tensor) -> tuple[Tensor, Tensor]:
    """Sigmoid-gated convex combination of the two pathway outputs.

    alpha = sigmoid(affine([o_ltis; o_stis])), elementwise output
    alpha * o_ltis + (1 - alpha) * o_stis, one tape op
    (``tensor.sigmoid_gate``) that keeps alpha alone for backward: the
    concat is formed again there, from the two outputs the graph already
    holds. Returns (fused, alpha); alpha is a Tensor with no tape node, so
    no gradient flows through it.
    """
    if o_ltis.shape != o_stis.shape:
        raise ValueError(f"pathway outputs disagree: {o_ltis.shape} vs {o_stis.shape}")
    fused, alpha = sigmoid_gate(o_ltis, o_stis, gate_w, gate_b)
    return fused, Tensor(alpha)


@dataclass
class BlossomLayerParams:
    """Weights of one encoder layer, for the pathway it was built for:
    the learnable tensors ``parameters()`` names, plus the fixed random
    projection LTIS selection scores with. The gate (``gate_w``,
    ``gate_b``) exists only where both pathways run and ``cmp_key`` only
    where LTIS runs; a pathway that does not run them holds None.
    ``encoder_layer`` runs what the layer holds, so ``init`` is the one
    place a pathway name becomes weights."""

    w_q: Tensor
    w_k: Tensor
    w_v: Tensor
    w_o: Tensor
    gate_w: Tensor | None
    gate_b: Tensor | None
    ffn_w1: Tensor
    ffn_b1: Tensor
    ffn_w2: Tensor
    ffn_b2: Tensor
    ln1_gamma: Tensor
    ln1_beta: Tensor
    ln2_gamma: Tensor
    ln2_beta: Tensor
    cmp_key: ltis_mod.CompressionMLP | None

    @classmethod
    def init(cls, cfg: AttentionConfig, rng: np.random.Generator,
             pathway: str = "both") -> "BlossomLayerParams":
        """Draw every weight, in declaration order, whatever the pathway,
        so each weight a pathway keeps is the same draw in every pathway's
        model; then drop what ``pathway`` does not run."""
        d, dk = cfg.d_model, cfg.d_head
        layer = cls(
            w_q=parameter(glorot((d, cfg.heads * dk), rng)),
            w_k=parameter(glorot((d, cfg.kv_groups * dk), rng)),
            w_v=parameter(glorot((d, cfg.kv_groups * dk), rng)),
            w_o=parameter(glorot((cfg.heads * dk, d), rng)),
            gate_w=parameter(glorot((2 * d, d), rng)),
            gate_b=parameter(np.zeros(d)),
            ffn_w1=parameter(glorot((d, 4 * d), rng)),
            ffn_b1=parameter(np.zeros(4 * d)),
            ffn_w2=parameter(glorot((4 * d, d), rng)),
            ffn_b2=parameter(np.zeros(d)),
            ln1_gamma=parameter(np.ones(d)),
            ln1_beta=parameter(np.zeros(d)),
            ln2_gamma=parameter(np.ones(d)),
            ln2_beta=parameter(np.zeros(d)),
            cmp_key=ltis_mod.CompressionMLP(cfg.block_size, dk, rng),
        )
        if pathway != "both":
            layer.gate_w = layer.gate_b = None
        if pathway == "stis":
            layer.cmp_key = None
        return layer

    def parameters(self) -> dict[str, Tensor]:
        """The learnable tensors the layer holds, in declaration order."""
        return {f.name: getattr(self, f.name) for f in fields(self)
                if isinstance(getattr(self, f.name), Tensor)}


def _keep_mask(shape: tuple[int, ...], rate: float,
               rng: np.random.Generator | None) -> np.ndarray | None:
    """Inverted dropout's bool keep-mask over stream rows, drawn from
    ``rng``, or None (no dropout) without an RNG or a positive rate."""
    if rng is None or rate <= 0.0:
        return None
    return rng.random(shape) >= rate


def encoder_layer(h_prev: Tensor, params: BlossomLayerParams, cfg: AttentionConfig,
                  ctx: SeqContext, rope: RoPECache,
                  dropout_rate: float = 0.0, rng: np.random.Generator | None = None,
                  rows: int | None = None) -> Tensor:
    """One post-norm encoder layer with gated dual-pathway attention on
    the packed stream, (N, d) -> (N, d).

    The layer runs the pathway its weights hold: LTIS where ``params``
    holds ``cmp_key``, STIS where it holds no ``cmp_key`` or holds the
    gate, and the gate where it holds ``gate_w``.
    Each pathway's index goes to ``_attend``, which gathers its K/V rows.
    Each residual site, with its dropout and layer norm, is one tape op
    (``tensor.residual_norm``), and so is the FFN (``tensor.ffn``).
    Dropout draws its keep-masks from ``rng``, and is identity without
    one. K/V always span the stream; with ``rows`` set, only each
    segment's last ``rows`` rows are queries and every later step runs
    on them alone, so the output is (Nq, d): those rows of the full
    output, in stream order.
    """
    q_rows = ctx.query_rows(rows)
    h_q = h_prev if rows is None else take_rows(h_prev, q_rows)
    q = apply_rope(h_q, params.w_q, cfg.heads, ctx.positions[q_rows], rope)
    k = apply_rope(h_prev, params.w_k, cfg.kv_groups, ctx.positions, rope)
    v = reshape(matmul(h_prev, params.w_v), (h_prev.shape[0], cfg.kv_groups, cfg.d_head))

    o_ltis = o_stis = None
    if params.cmp_key is not None:
        index = ltis_mod.ltis_index(q.data, k.data, ctx, q_rows, cfg, params.cmp_key)
        o_ltis = _attend(q, k, v, index, params.w_o)
    if params.cmp_key is None or params.gate_w is not None:
        o_stis = _attend(q, k, v, stis_mod.stis_index(ctx, q_rows, cfg), params.w_o)

    if params.gate_w is not None:
        fused, _ = gated_fuse(o_ltis, o_stis, params.gate_w, params.gate_b)
    else:
        fused = o_ltis if o_stis is None else o_stis

    mixed = residual_norm(h_q, fused, params.ln1_gamma, params.ln1_beta,
                          _keep_mask(fused.shape, dropout_rate, rng), dropout_rate)
    ff = ffn(mixed, params.ffn_w1, params.ffn_b1, params.ffn_w2, params.ffn_b2)
    return residual_norm(mixed, ff, params.ln2_gamma, params.ln2_beta,
                         _keep_mask(ff.shape, dropout_rate, rng), dropout_rate)


def encode(embedded: Tensor, layers: list[BlossomLayerParams], w_n: Tensor, b_n: Tensor,
           cfg: AttentionConfig, ctx: SeqContext, rope: RoPECache,
           dropout_rate: float = 0.0, rng: np.random.Generator | None = None,
           rows: int | None = None) -> Tensor:
    """Run the layer stack and the final affine projection on the packed
    stream, (N, d) -> (N, d). Each layer runs the pathway its weights
    hold.

    With ``rows`` set, the last layer and the projection compute only each
    segment's last ``rows`` rows, (N, d) -> (Nq, d); earlier layers
    run every row, because the next layer reads them all as K/V.
    """
    if not layers:
        raise ConfigError("encode needs at least one layer")
    hidden = embedded
    for depth, params in enumerate(layers, start=1):
        hidden = encoder_layer(hidden, params, cfg, ctx, rope,
                               dropout_rate=dropout_rate, rng=rng,
                               rows=rows if depth == len(layers) else None)
    return affine(hidden, w_n, b_n)


def dense_causal_gqa(q: np.ndarray, k: np.ndarray, v: np.ndarray,
                     cfg: AttentionConfig) -> np.ndarray:
    """Reference oracle: dense causal grouped attention, head by head,
    (heads, L, d_head) queries -> (L, heads * d_head) merged heads.

    Deliberately naive (python loops, its own per-row softmax) and
    tape-free, so the sparse pathways can be validated against it.
    """
    q = np.asarray(q, dtype=np.float64)
    k = np.asarray(k, dtype=np.float64)
    v = np.asarray(v, dtype=np.float64)
    h, length, dk = q.shape
    out = np.zeros((length, h * dk))
    for head in range(h):
        group = cfg.group_of_head(head)
        for i in range(length):
            logits = k[group, : i + 1] @ q[head, i] / np.sqrt(dk)
            weights = np.exp(logits - logits.max())
            weights /= weights.sum()
            out[i, head * dk: (head + 1) * dk] = weights @ v[group, : i + 1]
    return out

"""GQA, sigmoid gating, the encoder layer, and the full-density collapse."""

import numpy as np
import pytest

from blossomrec.config import AttentionConfig
from blossomrec.data import SeqContext
from blossomrec.embedding import RoPECache, apply_rope
from blossomrec.errors import ConfigError
from blossomrec import fusion
from blossomrec.fusion import (
    BlossomLayerParams,
    dense_causal_gqa,
    encode,
    encoder_layer,
    gated_fuse,
    grouped_attention,
)
from blossomrec.gradcheck import grad_check
from blossomrec.ltis import CompressionMLP, build_ltis_masks, ltis_index
from blossomrec.stis import batch_stis_masks, stis_index
from blossomrec.tensor import (
    Tensor, gathered_attention, index_mask, matmul, parameter, reshape, transpose, zero_grads,
)
from blossomrec.verify import gathered_equivalence_error

from chains import (
    chain_ffn, chain_gate, chain_gathered_attention, chain_residual_norm, chain_rope,
    complex_step_derivative, weighted_sum,
)


def make_cfg(**kw):
    base = dict(block_size=4, stride=2, sel_block_size=2, top_k=1, win=1, blk=1,
                heads=2, kv_groups=1, d_model=6, d_head=4)
    base.update(kw)
    return AttentionConfig(**base)


def causal_mask(length):
    return np.tril(np.ones((length, length), dtype=bool))


def numpy_norm(x, gamma=1.0, beta=0.0):
    """Textbook layer norm over the last axis, in plain numpy."""
    centered = x - x.mean(axis=-1, keepdims=True)
    return centered / np.sqrt((centered ** 2).mean(axis=-1, keepdims=True) + 1e-5) * gamma + beta


class TestGqa:
    def test_groups_equal_heads_is_multihead(self):
        rng = np.random.default_rng(0)
        cfg = make_cfg(heads=4, kv_groups=4)
        length = 10
        q = rng.normal(size=(1, 4, length, 4))
        k = rng.normal(size=(1, 4, length, 4))
        v = rng.normal(size=(1, 4, length, 4))
        out = grouped_attention(Tensor(q), Tensor(k), Tensor(v), cfg, causal_mask(length))
        # per-head naive attention, each head with its own k/v
        want = dense_causal_gqa(q[0], k[0], v[0], cfg)
        assert np.abs(out.data[0] - want).max() < 1e-12

    def test_single_group_shares_kv(self):
        rng = np.random.default_rng(1)
        cfg = make_cfg(heads=2, kv_groups=1)
        length = 6
        q = rng.normal(size=(1, 2, length, 4))
        kv = rng.normal(size=(1, 1, length, 4))
        out = grouped_attention(Tensor(q), Tensor(kv), Tensor(kv), cfg, causal_mask(length)).data
        # identical queries in both heads -> identical head outputs
        q2 = np.stack([q[:, 0], q[:, 0]], axis=1)
        out2 = grouped_attention(Tensor(q2), Tensor(kv), Tensor(kv), cfg, causal_mask(length)).data
        assert np.abs(out2[..., :4] - out2[..., 4:]).max() < 1e-14
        assert out.shape == (1, length, 8)

    def test_random_vs_naive_oracle(self):
        rng = np.random.default_rng(2)
        cfg = make_cfg(heads=4, kv_groups=2)
        length = 13
        q = rng.normal(size=(1, 4, length, 4))
        k = rng.normal(size=(1, 2, length, 4))
        v = rng.normal(size=(1, 2, length, 4))
        w_o = rng.normal(size=(16, cfg.d_model))
        out = matmul(grouped_attention(Tensor(q), Tensor(k), Tensor(v), cfg, causal_mask(length)),
                     Tensor(w_o))
        want = dense_causal_gqa(q[0], k[0], v[0], cfg) @ w_o
        assert np.abs(out.data[0] - want).max() < 1e-10

    def test_band_config_rejected(self):
        cfg = make_cfg(heads=4, kv_groups=2)
        q = Tensor(np.zeros((1, 3, 5, 4)))
        kv = Tensor(np.zeros((1, 2, 5, 4)))
        with pytest.raises(ConfigError, match="heads"):
            grouped_attention(q, kv, kv, cfg, causal_mask(5))


class TestGatedFuse:
    def test_equal_inputs_pass_through(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(size=(5, 6)))
        gate_w = Tensor(rng.normal(size=(12, 6)))
        gate_b = Tensor(rng.normal(size=6))
        fused, alpha = gated_fuse(x, x, gate_w, gate_b)
        assert np.abs(fused.data - x.data).max() < 1e-14
        assert np.all((alpha.data > 0) & (alpha.data < 1))

    def test_saturated_gate_selects_first(self):
        rng = np.random.default_rng(4)
        a = Tensor(rng.normal(size=(4, 3)))
        b = Tensor(rng.normal(size=(4, 3)))
        gate_w = Tensor(np.zeros((6, 3)))
        gate_b = Tensor(np.full(3, 50.0))  # sigmoid(50) ~ 1
        fused, _ = gated_fuse(a, b, gate_w, gate_b)
        assert np.abs(fused.data - a.data).max() < 1e-6

    def test_output_bounded_by_inputs(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(7, 4))
        b = rng.normal(size=(7, 4))
        gate_w = Tensor(rng.normal(size=(8, 4)))
        gate_b = Tensor(rng.normal(size=4))
        fused, _ = gated_fuse(Tensor(a), Tensor(b), gate_w, gate_b)
        lo, hi = np.minimum(a, b), np.maximum(a, b)
        assert np.all(fused.data >= lo - 1e-12)
        assert np.all(fused.data <= hi + 1e-12)

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="disagree"):
            gated_fuse(Tensor(np.zeros((2, 3))), Tensor(np.zeros((2, 4))),
                       Tensor(np.zeros((7, 3))), Tensor(np.zeros(3)))

    def test_gate_gradient(self):
        rng = np.random.default_rng(6)
        a = parameter(rng.normal(size=(3, 4)))
        b = parameter(rng.normal(size=(3, 4)))
        gate_w = parameter(rng.normal(size=(8, 4)))
        gate_b = parameter(rng.normal(size=4))
        w = rng.normal(size=(3, 4))

        def f():
            fused, _ = gated_fuse(a, b, gate_w, gate_b)
            return weighted_sum(fused, w)

        assert grad_check(f, {"o_ltis": a, "o_stis": b, "gate_w": gate_w, "gate_b": gate_b}) < 1e-6

    @pytest.mark.parametrize("learner", ["o_ltis", "o_stis", "gate_w", "gate_b"])
    def test_backward_keeps_alpha_alone(self, learner):
        """With each input the only learner in turn, the gate's tape node
        holds alpha and no other array (no concat of the two outputs), and
        the learner's gradient equals the one it gets when all four learn."""
        rng = np.random.default_rng(8)
        data = {"o_ltis": rng.normal(size=(2, 5, 4)), "o_stis": rng.normal(size=(2, 5, 4)),
                "gate_w": rng.normal(size=(8, 4)), "gate_b": rng.normal(size=4)}
        w = rng.normal(size=(2, 5, 4))
        everyone = {name: parameter(x) for name, x in data.items()}
        gated_fuse(*everyone.values())[0].backward(w)
        ts = {name: parameter(x) if name == learner else Tensor(x) for name, x in data.items()}
        fused, alpha = gated_fuse(*ts.values())
        held = [c.cell_contents for c in fused._backward.__closure__
                if isinstance(c.cell_contents, np.ndarray)]
        assert len(held) == 1 and held[0] is alpha.data
        fused.backward(w)
        assert np.array_equal(ts[learner].grad, everyone[learner].grad)
        assert all(t.grad is None for name, t in ts.items() if name != learner)

    def test_alpha_carries_no_node(self):
        """alpha is reported, not differentiated: it has no tape node."""
        rng = np.random.default_rng(7)
        a, b = parameter(rng.normal(size=(3, 4))), parameter(rng.normal(size=(3, 4)))
        _, alpha = gated_fuse(a, b, parameter(rng.normal(size=(8, 4))), parameter(np.zeros(4)))
        assert alpha._backward is None and not alpha.requires_grad


def layer_inputs(cfg, lengths, rng, total=None):
    """A packed stream of segments of ``lengths``, (N, d_model)."""
    total = total or int(max(lengths))
    ctx = SeqContext.from_lengths(np.array(lengths))
    rope = RoPECache(cfg.d_head, total + 1)
    h = Tensor(rng.normal(size=(sum(lengths), cfg.d_model)))
    return h, ctx, rope


class TestEncoderLayer:
    def test_zeroed_outputs_reduce_to_double_norm(self):
        rng = np.random.default_rng(7)
        cfg = make_cfg()
        params = BlossomLayerParams.init(cfg, rng)
        params.w_o.data[:] = 0.0          # attention contribution vanishes
        params.ffn_w2.data[:] = 0.0       # feed-forward contribution vanishes
        params.ffn_b2.data[:] = 0.0
        h, ctx, rope = layer_inputs(cfg, [8, 8], rng)
        out = encoder_layer(h, params, cfg, ctx, rope)
        assert np.abs(out.data - numpy_norm(numpy_norm(h.data))).max() < 1e-12

    def test_evaluation_determinism(self):
        rng = np.random.default_rng(8)
        cfg = make_cfg()
        params = BlossomLayerParams.init(cfg, rng)
        h, ctx, rope = layer_inputs(cfg, [6, 9], rng)
        a = encoder_layer(h, params, cfg, ctx, rope).data
        b = encoder_layer(h, params, cfg, ctx, rope).data
        assert np.array_equal(a, b)

    def test_full_layer_gradient(self):
        rng = np.random.default_rng(9)
        cfg = make_cfg()
        params = BlossomLayerParams.init(cfg, rng)
        h, ctx, rope = layer_inputs(cfg, [7], rng)
        w = rng.normal(size=(7, cfg.d_model))

        def f():
            return weighted_sum(encoder_layer(h, params, cfg, ctx, rope), w)

        assert grad_check(f, params.parameters(), h=1e-5) < 1e-4

    def test_layer_holds_only_what_its_pathway_runs(self):
        """Only the fused layer holds the gate, and only a layer that runs
        LTIS its fixed projection; each weight a pathway keeps is the same
        draw in every pathway's layer."""
        cfg = make_cfg()
        layers = {p: BlossomLayerParams.init(cfg, np.random.default_rng(11), p)
                  for p in ("both", "ltis", "stis")}
        full = layers["both"].parameters()
        assert {"gate_w", "gate_b"} < full.keys()
        for pathway, layer in layers.items():
            held = layer.parameters()
            assert held.keys() == (full.keys() if pathway == "both"
                                   else full.keys() - {"gate_w", "gate_b"})
            for name, p in held.items():
                assert np.array_equal(p.data, full[name].data), (pathway, name)
            assert (layer.cmp_key is None) == (pathway == "stis")
        assert np.array_equal(layers["ltis"].cmp_key.w1, layers["both"].cmp_key.w1)

    @pytest.mark.parametrize("built, run", [("ltis", "both"), ("stis", "both"),
                                            ("stis", "ltis")])
    def test_layer_runs_no_pathway_it_was_not_built_for(self, built, run):
        rng = np.random.default_rng(12)
        cfg = make_cfg()
        params = BlossomLayerParams.init(cfg, rng, built)
        h, ctx, rope = layer_inputs(cfg, [8], rng)
        with pytest.raises(ConfigError, match="cannot run pathway"):
            encoder_layer(h, params, cfg, ctx, rope, pathway=run)

    def test_pathway_ablation_modes(self):
        rng = np.random.default_rng(10)
        cfg = make_cfg()
        params = BlossomLayerParams.init(cfg, rng)
        h, ctx, rope = layer_inputs(cfg, [8], rng)
        outs = {p: encoder_layer(h, params, cfg, ctx, rope, pathway=p).data
                for p in ("both", "ltis", "stis")}
        assert not np.array_equal(outs["ltis"], outs["stis"])
        assert not np.array_equal(outs["both"], outs["ltis"])


class TestPackedStream:
    """The encoder layer on a packed stream: segments never see each
    other, positions restart in each, and both pathways always gather."""

    CFG = make_cfg(block_size=8, stride=4, sel_block_size=4, top_k=2, win=2,
                   heads=4, kv_groups=2, d_model=8, d_head=4)

    def test_positions_restart_at_each_segment(self, monkeypatch):
        ctx = SeqContext.from_lengths(np.array([3, 0, 2, 4]))
        assert ctx.starts.tolist() == [0, 3, 3, 5]
        assert ctx.positions.tolist() == [0, 1, 2, 0, 1, 0, 1, 2, 3]
        assert ctx.query_rows(None).tolist() == list(range(9))
        assert ctx.query_rows(1).tolist() == [2, 4, 8]
        assert ctx.query_rows(2).tolist() == [1, 2, 3, 4, 7, 8]
        seen = []

        def spy(x, w, heads, positions, cache):
            seen.append(np.asarray(positions).tolist())
            return apply_rope(x, w, heads, positions, cache)

        monkeypatch.setattr(fusion, "apply_rope", spy)
        rng = np.random.default_rng(16)
        params = BlossomLayerParams.init(self.CFG, rng)
        h = Tensor(rng.normal(size=(9, self.CFG.d_model)))
        rope = RoPECache(self.CFG.d_head, 5)
        encoder_layer(h, params, self.CFG, ctx, rope)
        encoder_layer(h, params, self.CFG, ctx, rope, rows=1)
        assert seen == [ctx.positions.tolist()] * 2 + [[2, 1, 3], ctx.positions.tolist()]

    @pytest.mark.parametrize("pathway", ["both", "ltis", "stis"])
    def test_segments_equal_each_sequence_alone(self, pathway):
        """Lengths 1 and 40 (the longest), and 13 and 27, scored over
        several selection blocks: each segment's rows and its share of
        every parameter gradient equal the sequence run alone."""
        cfg = self.CFG
        rng = np.random.default_rng(17)
        params = BlossomLayerParams.init(cfg, rng)
        named = params.parameters()
        lengths = [1, 13, 27, 40]
        h, ctx, rope = layer_inputs(cfg, lengths, rng)
        w = rng.normal(size=h.shape)

        def run(x, context, weights):
            zero_grads(named)
            out = encoder_layer(x, params, cfg, context, rope, pathway=pathway)
            out.backward(weights)
            return out.data, {k: p.grad for k, p in named.items() if p.grad is not None}

        packed, grads = run(h, ctx, w)
        summed = {}
        for start, n in zip(ctx.starts, lengths):
            rows = slice(start, start + n)
            alone = SeqContext.from_lengths(np.array([n]))
            out, part = run(Tensor(h.data[rows]), alone, w[rows])
            assert np.abs(packed[rows] - out).max() < 1e-12
            for k, g in part.items():
                summed[k] = summed.get(k, 0.0) + g
        assert grads.keys() == summed.keys()
        for k in grads:
            assert np.abs(grads[k] - summed[k]).max() < 1e-12, k

    def test_both_pathways_gather_on_short_streams(self, monkeypatch):
        """Even a 3-row stream, narrower than either index, gathers."""
        calls = []

        def spy(*args):
            calls.append(args[3].shape)
            return gathered_attention(*args)

        monkeypatch.setattr(fusion, "gathered_attention", spy)
        rng = np.random.default_rng(19)
        params = BlossomLayerParams.init(self.CFG, rng)
        h, ctx, rope = layer_inputs(self.CFG, [3], rng)
        encoder_layer(h, params, self.CFG, ctx, rope)
        assert calls == [(2, 3, 3), (1, 3, 3)]


def chain_qkv(p, cfg, ctx, rope, q_rows):
    """The layer's rotated queries (of the stream rows ``q_rows``),
    rotated keys and values, in numpy from the arrays ``p`` by name, rows
    first: (rows, heads or groups, d_head)."""
    def rotate(x, w, num, positions):
        return chain_rope(x, w, num, rope.cos[positions, None], rope.sin[positions, None],
                          rope.rotate)

    h = p["h"]
    return (rotate(h[q_rows], p["w_q"], cfg.heads, ctx.positions[q_rows]),
            rotate(h, p["w_k"], cfg.kv_groups, ctx.positions),
            (h @ p["w_v"]).reshape(len(h), cfg.kv_groups, -1))


def chain_layer(p, cfg, ctx, rope, rows, indices, keeps, rate):
    """``encoder_layer`` with dropout as plain numpy on the arrays
    ``p`` by name (the input ``h`` and the parameters), real or complex:
    attention over each (idx, valid) of ``indices`` (LTIS, then STIS) as
    ``chain_gathered_attention``, the gate when there are two, and each
    residual site and the FFN as their chains from ``chains``, with
    dropout by the two keep-masks ``keeps``."""
    q_rows = ctx.query_rows(rows)
    q, k, v = chain_qkv(p, cfg, ctx, rope, q_rows)
    outs = [chain_gathered_attention(q, k, v, *index) @ p["w_o"] for index in indices]
    fused = outs[0] if len(outs) == 1 else chain_gate(*outs, p["gate_w"], p["gate_b"])[0]
    mixed = chain_residual_norm(p["h"][q_rows], fused, p["ln1_gamma"], p["ln1_beta"],
                                keeps[0], rate)
    ff = chain_ffn(mixed, p["ffn_w1"], p["ffn_b1"], p["ffn_w2"], p["ffn_b2"])
    return chain_residual_norm(mixed, ff, p["ln2_gamma"], p["ln2_beta"], keeps[1], rate)


class TestFusedChain:
    """The training layer against ``chain_layer``."""

    CFG = make_cfg(block_size=8, stride=4, sel_block_size=4, top_k=2, win=2,
                   heads=4, kv_groups=2, d_model=8, d_head=4)

    @pytest.mark.parametrize("rows", [None, 1])
    @pytest.mark.parametrize("pathway", ["both", "ltis", "stis"])
    def test_dropout_layer_equals_its_chain(self, pathway, rows):
        """At dropout 0.3, on segments of 1, 13, 27 and 40 rows (the
        longer ones scored over several selection blocks): the layer draws
        two keep-masks of its output's shape and nothing more (the
        generators end in the same state), its output is bit for bit the
        chain's on the same selection and masks, and for each learner, the
        input's too, the gradient along a random direction is the chain's
        complex-step derivative along it, within 1e-12 of the norms. The
        layer holds only what its pathway runs, and every learner gets a
        gradient."""
        cfg = self.CFG
        rng = np.random.default_rng(22)
        params = BlossomLayerParams.init(cfg, rng, pathway)
        for p in params.parameters().values():   # no zero bias or unit gain
            p.data += rng.normal(0.0, 0.3, p.shape)
        h, ctx, rope = layer_inputs(cfg, [1, 13, 27, 40], rng)
        learners = {"h": parameter(h.data), **params.parameters()}
        draws = np.random.default_rng(23)
        out = encoder_layer(learners["h"], params, cfg, ctx, rope, dropout_rate=0.3,
                            rng=draws, pathway=pathway, rows=rows)
        seed = np.random.default_rng(24).normal(size=out.shape)
        out.backward(seed)
        grads = {name: t.grad for name, t in learners.items() if t.grad is not None}
        assert out.shape == (81 if rows is None else 4, cfg.d_model)
        assert ("gate_w" in learners) == (pathway == "both")
        assert grads.keys() == learners.keys()

        chain_draws = np.random.default_rng(23)
        keeps = [chain_draws.random(out.shape) >= 0.3 for _ in range(2)]
        assert draws.random() == chain_draws.random()
        xs = [t.data for t in learners.values()]
        q_rows = ctx.query_rows(rows)
        q, k, _ = chain_qkv(dict(zip(learners, xs)), cfg, ctx, rope, q_rows)
        indices = []
        if pathway != "stis":
            indices.append(ltis_index(q, k, ctx, q_rows, cfg, params.cmp_key))
        if pathway != "ltis":
            indices.append(stis_index(ctx, q_rows, cfg))

        def chain(*arrays):
            return chain_layer(dict(zip(learners, arrays)), cfg, ctx, rope, rows, indices,
                               keeps, 0.3)

        assert np.array_equal(out.data, chain(*xs))
        directions = np.random.default_rng(25)
        for i, name in enumerate(learners):
            grad = grads.get(name, np.zeros(xs[i].shape))
            v = directions.normal(size=grad.shape)
            err = abs(complex_step_derivative(chain, xs, i, v, seed) - (grad * v).sum())
            assert err <= 1e-12 * np.linalg.norm(grad) * np.linalg.norm(v), name


def reference_layer(h, params, cfg, rope_base=10000.0):
    """One encoder layer on one sequence, h (n, d_model), dense and
    tape-free: the textbook half-split RoPE at positions 0..n-1,
    ``dense_causal_gqa`` for both pathways, then the gate, the post-norms
    and the tanh FFN. It is the layer only where both pathways see the
    whole causal prefix."""
    p = {name: t.data for name, t in params.parameters().items()}
    n, half = len(h), cfg.d_head // 2

    def heads(x, num):
        return x.reshape(n, num, cfg.d_head).transpose(1, 0, 2)

    def rope(x):
        angle = np.arange(n)[:, None] * rope_base ** (-np.arange(half) * 2.0 / cfg.d_head)
        x1, x2 = x[..., :half], x[..., half:]
        return np.concatenate([x1 * np.cos(angle) - x2 * np.sin(angle),
                               x1 * np.sin(angle) + x2 * np.cos(angle)], axis=-1)

    q, k = rope(heads(h @ p["w_q"], cfg.heads)), rope(heads(h @ p["w_k"], cfg.kv_groups))
    o = dense_causal_gqa(q, k, heads(h @ p["w_v"], cfg.kv_groups), cfg) @ p["w_o"]
    alpha = 1.0 / (1.0 + np.exp(-(np.concatenate([o, o], axis=-1) @ p["gate_w"] + p["gate_b"])))
    mixed = numpy_norm(h + alpha * o + (1.0 - alpha) * o, p["ln1_gamma"], p["ln1_beta"])
    ff = np.tanh(mixed @ p["ffn_w1"] + p["ffn_b1"]) @ p["ffn_w2"] + p["ffn_b2"]
    return numpy_norm(mixed + ff, p["ln2_gamma"], p["ln2_beta"])


class TestDenseReference:
    """The encoder layer on a packed stream against ``reference_layer``,
    which rotates every query and key at its real position."""

    # win * blk = 8 and top_k * sel_block_size = 8: up to length 8 both
    # pathways see the whole causal prefix
    CFG = make_cfg(block_size=8, stride=4, sel_block_size=4, top_k=2, win=8,
                   heads=4, kv_groups=2, d_model=8, d_head=4)

    @pytest.mark.parametrize("rows", [None, 1])
    def test_packed_layer_matches_dense_reference(self, rows):
        cfg = self.CFG
        rng = np.random.default_rng(21)
        params = BlossomLayerParams.init(cfg, rng)
        for p in params.parameters().values():   # no zero bias or unit gain
            p.data += rng.normal(0.0, 0.3, p.shape)
        lengths = [5, 1, 8]
        h, ctx, rope = layer_inputs(cfg, lengths, rng)
        out = encoder_layer(h, params, cfg, ctx, rope, rows=rows).data
        want = np.concatenate([reference_layer(h.data[s:s + n], params, cfg)[-(rows or n):]
                               for s, n in zip(ctx.starts, lengths)])
        assert out.shape == want.shape
        assert np.abs(out - want).max() < 1e-10


def dense_attend(cfg):
    """``fusion._attend`` as ``grouped_attention`` under the index as a
    dense mask (``index_mask``), on the stream as a batch of one with its
    heads first."""
    def masked(q, k, v, index, w_o):
        batch = [reshape(transpose(t, (1, 0, 2)), (1, t.shape[1], t.shape[0], t.shape[2]))
                 for t in (q, k, v)]
        out = grouped_attention(*batch, cfg, index_mask(*index, k.shape[0]))
        return matmul(reshape(out, out.shape[1:]), w_o)

    return masked


class TestGatherOrDense:
    """The encoder layer gathers on every pathway; attending under the same
    index as a dense mask (``grouped_attention`` + ``index_mask``, the
    reference ``verify`` keeps) must agree in values and every gradient."""

    CFG = make_cfg(block_size=8, stride=4, sel_block_size=4, top_k=2, win=2,
                   heads=4, kv_groups=2, d_model=8, d_head=4)

    def run_layer(self, monkeypatch, dense, lengths, seed=16):
        """Layer output and gradients, with ``fusion._attend`` swapped for
        the dense-mask form when ``dense``."""
        cfg = self.CFG
        if dense:
            monkeypatch.setattr(fusion, "_attend", dense_attend(cfg))
        rng = np.random.default_rng(seed)
        params = BlossomLayerParams.init(cfg, rng)
        h, ctx, rope = layer_inputs(cfg, lengths, rng)
        w = rng.normal(size=h.shape)
        named = params.parameters()
        zero_grads(named)
        out = encoder_layer(h, params, cfg, ctx, rope)
        out.backward(w)
        monkeypatch.undo()
        grads = {name: p.grad for name, p in named.items() if p.grad is not None}
        return out.data, grads

    @pytest.mark.parametrize("lengths", [[20, 13, 1], [48, 30, 9], [64, 64]])
    def test_branches_agree(self, monkeypatch, lengths):
        out_g, grads_g = self.run_layer(monkeypatch, False, lengths)
        out_d, grads_d = self.run_layer(monkeypatch, True, lengths)
        assert np.abs(out_g - out_d).max() < 1e-8
        assert grads_g.keys() == grads_d.keys()
        for name in grads_g:
            assert np.abs(grads_g[name] - grads_d[name]).max() < 1e-8, name

    @pytest.mark.parametrize("frame, dense", [(20, False), (40, True)])
    def test_one_query_row_is_last_row_of_full_frame(self, monkeypatch, frame, dense):
        """A layer computing one query row per segment equals the last row
        of each segment of the full layer, gathered or under the dense
        mask; an empty segment contributes no row."""
        cfg = self.CFG
        if dense:
            monkeypatch.setattr(fusion, "_attend", dense_attend(cfg))
        rng = np.random.default_rng(18)
        params = BlossomLayerParams.init(cfg, rng)
        h, ctx, rope = layer_inputs(cfg, [frame, frame // 2, 1, 0, 9], rng)
        full = encoder_layer(h, params, cfg, ctx, rope).data
        one = encoder_layer(h, params, cfg, ctx, rope, rows=1).data
        assert one.shape == (4, cfg.d_model)
        assert np.abs(one - full[ctx.query_rows(1)]).max() < 1e-12

    @pytest.mark.parametrize("lengths", [(0, 3, 17, 20), (0, 3, 17, 40)])
    def test_gathered_equivalence_check(self, lengths):
        assert gathered_equivalence_error(range(3), lengths) < 1e-8


class TestEncode:
    def test_single_layer_base_case(self):
        rng = np.random.default_rng(11)
        cfg = make_cfg()
        params = BlossomLayerParams.init(cfg, rng)
        h, ctx, rope = layer_inputs(cfg, [6], rng)
        w_n = Tensor(np.eye(cfg.d_model))
        b_n = Tensor(np.zeros(cfg.d_model))
        full = encode(h, [params], w_n, b_n, cfg, ctx, rope)
        single = encoder_layer(h, params, cfg, ctx, rope)
        assert np.abs(full.data - single.data).max() < 1e-15

    def test_identity_projection(self):
        rng = np.random.default_rng(12)
        cfg = make_cfg()
        layers = [BlossomLayerParams.init(cfg, rng) for _ in range(2)]
        h, ctx, rope = layer_inputs(cfg, [5, 5], rng)
        w_n = Tensor(np.eye(cfg.d_model))
        b_n = Tensor(np.zeros(cfg.d_model))
        out = encode(h, layers, w_n, b_n, cfg, ctx, rope)
        stacked = h
        for lp in layers:
            stacked = encoder_layer(stacked, lp, cfg, ctx, rope)
        assert np.abs(out.data - stacked.data).max() < 1e-15

    def test_output_shape(self):
        rng = np.random.default_rng(13)
        cfg = make_cfg(d_model=8, d_head=4, heads=2)
        layers = [BlossomLayerParams.init(cfg, rng) for _ in range(2)]
        h, ctx, rope = layer_inputs(cfg, [16, 12], rng, total=16)
        out = encode(h, layers, parameter(rng.normal(size=(8, 8))),
                     Tensor(np.zeros(8)), cfg, ctx, rope)
        assert out.shape == (28, 8)
        last = encode(h, layers, parameter(rng.normal(size=(8, 8))),
                      Tensor(np.zeros(8)), cfg, ctx, rope, rows=1)
        assert last.shape == (2, 8)

    def test_empty_stack_rejected(self):
        cfg = make_cfg()
        rng = np.random.default_rng(14)
        h, ctx, rope = layer_inputs(cfg, [4], rng)
        with pytest.raises(ConfigError, match="layer"):
            encode(h, [], Tensor(np.eye(cfg.d_model)), Tensor(np.zeros(cfg.d_model)),
                   cfg, ctx, rope)


class TestFullDensityCollapse:
    def test_fused_equals_dense_for_any_gate(self):
        """All selection blocks chosen + saturated window: both pathways are
        dense causal attention, so the gate mixes two equal tensors."""
        for seed in range(5):
            rng = np.random.default_rng(100 + seed)
            cfg = make_cfg(top_k=1000, win=1000, heads=2, kv_groups=2, d_head=4)
            length = 12
            q = rng.normal(size=(1, cfg.heads, length, cfg.d_head))
            k = rng.normal(size=(1, cfg.kv_groups, length, cfg.d_head))
            v = rng.normal(size=(1, cfg.kv_groups, length, cfg.d_head))
            lengths = np.array([length])
            phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
            o_l = grouped_attention(Tensor(q), Tensor(k), Tensor(v), cfg,
                                    build_ltis_masks(q, k, lengths, cfg, phi))
            o_s = grouped_attention(Tensor(q), Tensor(k), Tensor(v), cfg,
                                    batch_stis_masks(lengths, length, cfg))
            width = cfg.heads * cfg.d_head
            gate_w = Tensor(rng.normal(scale=3.0, size=(2 * width, width)))
            gate_b = Tensor(rng.normal(size=width))
            fused, _ = gated_fuse(o_l, o_s, gate_w, gate_b)
            oracle = dense_causal_gqa(q[0], k[0], v[0], cfg)
            assert np.abs(fused.data[0] - oracle).max() < 1e-8


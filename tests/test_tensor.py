"""Numeric-core tests: forward oracles and backward checks for every
primitive the attention stack relies on."""

import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from blossomrec import tensor as tensor_mod
from blossomrec.config import AttentionConfig
from blossomrec.fusion import grouped_attention
from blossomrec.gradcheck import grad_check
from blossomrec.tensor import (
    Tensor,
    affine,
    ffn,
    gathered_attention,
    index_mask,
    linear_cross_entropy,
    masked_softmax,
    matmul,
    mul,
    no_grad,
    parameter,
    residual_norm,
    rope,
    sigmoid_gate,
    take_rows,
)

from chains import (
    chain_affine, chain_ffn, chain_gate, chain_residual_norm, chain_rope, complex_step_grads,
)


def logits_loss(x, targets):
    """``linear_cross_entropy`` over raw (N, V) logits: an identity ``w``
    makes ``h @ w.T`` the logits themselves."""
    return linear_cross_entropy(x, Tensor(np.eye(x.shape[1])), targets)


def naive_matmul(a, b):
    """Entrywise sum-of-products, the slow way."""
    out = np.zeros((a.shape[0], b.shape[1]))
    for i in range(a.shape[0]):
        for j in range(b.shape[1]):
            for k in range(a.shape[1]):
                out[i, j] += a[i, k] * b[k, j]
    return out


class TestMatmul:
    def test_identity(self):
        a = Tensor([[1.0, 0.0], [0.0, 1.0]])
        b = Tensor([[3.0, 4.0], [5.0, 6.0]])
        assert np.array_equal(matmul(a, b).data, b.data)

    def test_hand_arithmetic(self):
        out = matmul(Tensor([[1.0, 2.0]]), Tensor([[3.0], [4.0]]))
        assert out.data.tolist() == [[11.0]]

    def test_against_triple_loop(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(5, 7))
        b = rng.normal(size=(7, 3))
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.abs(got - naive_matmul(a, b)).max() < 1e-12

    def test_shape_mismatch(self):
        with pytest.raises(ValueError, match="inner dimensions"):
            matmul(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_broadcast_batched(self):
        rng = np.random.default_rng(1)
        a = rng.normal(size=(4, 2, 3, 5))
        b = rng.normal(size=(5, 6))
        got = matmul(Tensor(a), Tensor(b)).data
        assert np.allclose(got, a @ b)


class TestMaskedSoftmax:
    def test_uniform(self):
        out = masked_softmax(Tensor([0.0, 0.0, 0.0]), np.ones(3, dtype=bool))
        assert np.allclose(out.data, [1 / 3] * 3, atol=1e-15)

    def test_single_survivor(self):
        out = masked_softmax(Tensor([1.0, 1.0]), np.array([True, False]))
        assert out.data.tolist() == [1.0, 0.0]

    def test_against_exp_sum_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.normal(size=9)
        got = masked_softmax(Tensor(x), np.ones(9, dtype=bool)).data
        want = np.exp(x) / np.exp(x).sum()
        assert np.abs(got - want).max() < 1e-12

    def test_fully_masked_row_is_zeros(self):
        out = masked_softmax(Tensor([[1.0, 2.0], [3.0, 4.0]]),
                             np.array([[False, False], [True, True]]))
        assert out.data[0].tolist() == [0.0, 0.0]
        assert abs(out.data[1].sum() - 1.0) < 1e-15
        assert np.all(np.isfinite(out.data))

    @settings(max_examples=60, deadline=None)
    @given(st.integers(3, 30), st.integers(0, 10_000))
    def test_rows_nonnegative_and_normalized(self, n, seed):
        rng = np.random.default_rng(seed)
        x = rng.normal(scale=5.0, size=(4, n))
        mask = rng.random((4, n)) < 0.6
        out = masked_softmax(Tensor(x), mask).data
        assert (out >= 0).all()
        sums = out.sum(axis=-1)
        alive = mask.any(axis=-1)
        assert np.abs(sums[alive] - 1.0).max() < 1e-12
        assert np.all(sums[~alive] == 0.0)

    def test_mask_shape_mismatch(self):
        with pytest.raises(ValueError, match="mask shape"):
            masked_softmax(Tensor(np.ones((2, 3))), np.ones((2, 4), dtype=bool))

    def test_gradient(self):
        rng = np.random.default_rng(3)
        x = parameter(rng.normal(size=(3, 5)))
        mask = rng.random((3, 5)) < 0.7
        w = rng.normal(size=(3, 5))

        def f():
            return (masked_softmax(x, mask) * Tensor(w)).sum()

        assert grad_check(f, [x]) < 1e-7


def random_index(rng, groups, pads, length, width):
    """Distinct causal key slots for a packed stream of ``len(pads)``
    segments of ``length`` rows each, (groups, len(pads) * length,
    width): segment b's first ``pads[b]`` rows stand where padding would
    in a left-padded batch, so no query sees them, and they and its row
    ``pads[b]`` see nothing; its other rows see up to ``width`` random
    keys of their own segment at or before them."""
    idx = np.zeros((groups, len(pads) * length, width), dtype=np.int64)
    valid = np.zeros(idx.shape, dtype=bool)
    for b, pad in enumerate(pads):
        start = b * length
        for g in range(groups):
            for i in range(pad + 1, length):  # row ``pad`` sees nothing
                keys = rng.permutation(np.arange(pad, i + 1))[: rng.integers(1, width + 1)]
                idx[g, start + i, : len(keys)] = start + keys
                valid[g, start + i, : len(keys)] = True
    return idx, valid


def one_row_per_chunk(monkeypatch, q, k, idx):
    """Shrink ``CHUNK_BYTES`` to one query row's gathered block, so
    ``gathered_attention`` runs a chunk per query row."""
    monkeypatch.setattr(tensor_mod, "CHUNK_BYTES", 8 * k.shape[1] * idx.shape[-1] * q.shape[-1])


def merged_shape(q):
    """The (L, heads * d) shape of ``gathered_attention``'s output."""
    length, h, d = q.shape
    return length, h * d


def attention_and_grads(q, k, v, idx, valid, w):
    qt, kt, vt = parameter(q), parameter(k), parameter(v)
    out = gathered_attention(qt, kt, vt, idx, valid)
    out.backward(w)
    return out.data, qt.grad, kt.grad, vt.grad


class TestGatheredAttention:
    @pytest.mark.parametrize("groups", [1, 2])  # one index for all groups (STIS), or one each (LTIS)
    def test_gradient(self, groups, monkeypatch):
        """Central differences agree in one chunk and in a chunk per query row."""
        rng = np.random.default_rng(40)
        q = parameter(rng.normal(size=(12, 4, 2)))
        k = parameter(rng.normal(size=(12, 2, 2)))
        v = parameter(rng.normal(size=(12, 2, 2)))
        idx, valid = random_index(rng, groups, (2, 0), 6, 3)
        w = rng.normal(size=merged_shape(q))

        def f():
            return (gathered_attention(q, k, v, idx, valid) * Tensor(w)).sum()

        assert grad_check(f, {"q": q, "k": k, "v": v}) < 1e-6
        one_row_per_chunk(monkeypatch, q, k, idx)
        assert grad_check(f, {"q": q, "k": k, "v": v}) < 1e-6

    def test_matches_dense_masked_softmax(self):
        """Head j of group g is head g * 2 + j, in columns 3 * head to
        3 * head + 3 of the merged output."""
        rng = np.random.default_rng(41)
        q = rng.normal(size=(14, 4, 3))
        k = rng.normal(size=(14, 2, 3))
        v = rng.normal(size=(14, 2, 3))
        idx, valid = random_index(rng, 2, (3, 0), 7, 4)
        mask = index_mask(idx, valid, 14)  # (2, 1, 14, 14)
        qh, kh, vh = (x.transpose(1, 0, 2) for x in (q, k, v))   # heads first
        logits = qh.reshape(2, 2, 14, 3) @ kh[:, None].swapaxes(-1, -2) / np.sqrt(3)
        want = masked_softmax(Tensor(logits), mask).data @ vh[:, None]   # (2, 2, 14, 3)
        got = gathered_attention(Tensor(q), Tensor(k), Tensor(v), idx, valid).data
        assert got.shape == (14, 12)
        for head in range(4):
            cols = got[:, 3 * head: 3 * head + 3]
            assert np.abs(cols - want[head // 2, head % 2]).max() < 1e-12

    def test_rows_with_nothing_visible_are_exact_zeros(self):
        rng = np.random.default_rng(42)
        q = parameter(rng.normal(size=(10, 2, 4)))
        k = parameter(rng.normal(size=(10, 1, 4)))
        v = parameter(rng.normal(size=(10, 1, 4)))
        idx, valid = random_index(rng, 1, (2, 0), 5, 2)
        out = gathered_attention(q, k, v, idx, valid)
        out.sum().backward()
        empty = ~valid.any(axis=-1)[0]  # (rows,)
        assert empty[:3].all() and empty[5]
        assert np.all(out.data[empty] == 0.0)
        assert np.all(q.grad[empty] == 0.0)

    def test_chunks_match_one_chunk(self, monkeypatch):
        """Ten chunks, nine of 5 query rows and one of 1, give the
        one-chunk output and query gradient bit for bit, and K/V gradients
        that differ only by the order of the chunks' sums; row 7, which
        sees nothing, sits inside the second chunk and stays exact zeros."""
        rng = np.random.default_rng(43)
        h, g, length, width, d = 4, 2, 23, 5, 3
        q = rng.normal(size=(2 * length, h, d))
        k, v = rng.normal(size=(2, 2 * length, g, d))
        idx, valid = random_index(rng, g, (4, 0), length, width)
        valid[:, 7] = False
        w = rng.normal(size=merged_shape(q))
        whole = attention_and_grads(q, k, v, idx, valid, w)
        row_bytes = 8 * g * width * d
        monkeypatch.setattr(tensor_mod, "CHUNK_BYTES", 5 * row_bytes + row_bytes // 2)
        assert tensor_mod._chunk_rows(g * width * d) == 5
        chunked = attention_and_grads(q, k, v, idx, valid, w)
        for got, want in zip(chunked[:2], whole[:2]):
            assert np.array_equal(got, want)
        for got, want in zip(chunked[2:], whole[2:]):
            assert np.abs(got - want).max() < 1e-12
        out, dq = chunked[:2]
        assert np.all(out[7] == 0.0) and np.all(dq[7] == 0.0)
        assert np.any(out[6] != 0.0) and np.any(out[8] != 0.0)

    @pytest.mark.parametrize("length,width", [(0, 3), (5, 0)])
    def test_no_query_rows_or_no_slots(self, length, width, monkeypatch):
        """Zero query rows give empty outputs; K = 0 gives exact zeros; both
        give zero K/V gradients, at one chunk and at a chunk per row."""
        rng = np.random.default_rng(44)
        q = rng.normal(size=(length, 2, 4))
        k, v = rng.normal(size=(2, 5, 1, 4))
        idx = np.zeros((1, length, width), dtype=np.int64)
        valid = np.ones(idx.shape, dtype=bool)
        for chunked in (False, True):
            if chunked:
                monkeypatch.setattr(tensor_mod, "CHUNK_BYTES", 1)
            out, dq, dk, dv = attention_and_grads(q, k, v, idx, valid, np.ones(merged_shape(q)))
            assert out.shape == merged_shape(q) and dq.shape == q.shape
            assert np.all(out == 0.0) and np.all(dq == 0.0)
            assert np.all(dk == 0.0) and np.all(dv == 0.0)

    @pytest.mark.parametrize("bad", [5, -1])
    @pytest.mark.parametrize("slot_valid", [True, False])
    def test_index_outside_the_keys_is_rejected(self, bad, slot_valid):
        """Key -1 of group 0 would wrap round to key 4's row of the flat
        K/V table, and key 5 of 5 would read past key 4; either is an
        error whether or not its slot is valid."""
        rng = np.random.default_rng(45)
        q = Tensor(rng.normal(size=(3, 4, 2)))
        k, v = (Tensor(x) for x in rng.normal(size=(2, 5, 2, 2)))
        idx = np.zeros((2, 3, 2), dtype=np.int64)
        valid = np.ones(idx.shape, dtype=bool)
        idx[0, 1, 1] = bad
        valid[0, 1, 1] = slot_valid
        with pytest.raises(ValueError, match=f"key index {bad} outside"):
            gathered_attention(q, k, v, idx, valid)

    def test_heads_must_split_into_groups(self):
        rng = np.random.default_rng(46)
        q = Tensor(rng.normal(size=(4, 3, 2)))
        k, v = (Tensor(x) for x in rng.normal(size=(2, 4, 2, 2)))
        idx = np.zeros((2, 4, 1), dtype=np.int64)
        with pytest.raises(ValueError, match="3 query heads do not split into 2"):
            gathered_attention(q, k, v, idx, np.ones(idx.shape, dtype=bool))

    def test_query_and_key_heads_must_have_one_width(self):
        """Queries of width 4 against K/V of width 8 would read each K row
        as two half-rows and return an output of the wrong width."""
        rng = np.random.default_rng(53)
        q = Tensor(rng.normal(size=(5, 2, 4)))
        k, v = (Tensor(x) for x in rng.normal(size=(2, 6, 1, 8)))
        idx = np.zeros((1, 5, 1), dtype=np.int64)
        with pytest.raises(ValueError, match="query heads of width 4, K/V heads of width 8"):
            gathered_attention(q, k, v, idx, np.ones(idx.shape, dtype=bool))

    def test_keys_and_values_must_match(self):
        """Keys of 6 rows and values of 4: an index checked against the
        keys could name value rows that do not exist."""
        rng = np.random.default_rng(50)
        q = Tensor(rng.normal(size=(3, 4, 2)))
        k, v = Tensor(rng.normal(size=(6, 2, 2))), Tensor(rng.normal(size=(4, 2, 2)))
        idx = np.zeros((2, 3, 1), dtype=np.int64)
        with pytest.raises(ValueError, match="k and v disagree"):
            gathered_attention(q, k, v, idx, np.ones(idx.shape, dtype=bool))

    def test_index_and_validity_must_match(self):
        """A validity of one group for an index of two would be
        broadcast over the groups."""
        rng = np.random.default_rng(51)
        q = Tensor(rng.normal(size=(3, 4, 2)))
        k, v = (Tensor(x) for x in rng.normal(size=(2, 5, 2, 2)))
        idx = np.zeros((2, 3, 1), dtype=np.int64)
        with pytest.raises(ValueError, match=r"index \(2, 3, 1\), validity \(1, 3, 1\): not"):
            gathered_attention(q, k, v, idx, np.ones((1, 3, 1), dtype=bool))

    @pytest.mark.parametrize("shape", [(2, 7, 1), (2, 4, 1), (3, 5, 1), (5, 1)],
                             ids=["7-rows", "4-rows", "3-groups", "no-group-axis"])
    def test_index_must_have_a_row_per_query(self, shape):
        """An index of 7 (or 4) rows for 5 queries, of 3 groups for 2, or
        without a group axis; 7 rows would be cut to the first 5."""
        rng = np.random.default_rng(52)
        q = Tensor(rng.normal(size=(5, 4, 2)))
        k, v = (Tensor(x) for x in rng.normal(size=(2, 5, 2, 2)))
        idx = np.zeros(shape, dtype=np.int64)
        with pytest.raises(ValueError, match=r"index .*: not \(2 or 1, 5, K\)"):
            gathered_attention(q, k, v, idx, np.ones(shape, dtype=bool))

    def test_one_gathered_chunk_alive_at_a_time(self):
        """Forward and backward over 16 chunks of 2 MB gathered K/V peak
        at what the call keeps (softmax weights, output, seed and the
        three gradients: 8.4 MB) plus 4.9 MB, not at the 33.5 MB of one
        gathered (G, L, K, d) block (54.5 MB when the whole block was
        gathered)."""
        rng = np.random.default_rng(47)
        h, g, length, width, d = 4, 2, 2048, 64, 16
        q, k, v = (parameter(rng.normal(size=(length, n, d))) for n in (h, g, g))
        idx = rng.integers(0, length, size=(g, length, width))
        valid = rng.random(idx.shape) < 0.9
        w = rng.normal(size=merged_shape(q))
        assert length == 16 * tensor_mod._chunk_rows(g * width * d)
        kept = (8 * g * length * width * (h // g)   # weights
                + 8 * (3 * q.size + k.size + v.size))   # output, seed, gradients
        tracemalloc.start()
        try:
            gathered_attention(q, k, v, idx, valid).backward(w)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < kept + 3 * tensor_mod.CHUNK_BYTES, (peak, kept)

    @pytest.mark.parametrize("groups", [1, 2])
    @pytest.mark.parametrize("chunk_rows", [None, 1, 5])
    def test_no_grad_output_equals_grad_enabled(self, groups, chunk_rows, monkeypatch):
        """Without a gradient to come the weights go through a reused
        chunk buffer, and the output is the grad-enabled call's bit for
        bit, in one chunk, a chunk per row and chunks of 5 rows."""
        rng = np.random.default_rng(48)
        h, length, width, d = 4, 23, 5, 3
        q = rng.normal(size=(2 * length, h, d))
        k, v = rng.normal(size=(2, 2 * length, 2, d))
        idx, valid = random_index(rng, groups, (4, 0), length, width)
        if chunk_rows:
            monkeypatch.setattr(tensor_mod, "CHUNK_BYTES", 8 * 2 * width * d * chunk_rows)
        learning = gathered_attention(parameter(q), parameter(k), parameter(v), idx, valid)
        with no_grad():
            frozen = gathered_attention(parameter(q), parameter(k), parameter(v), idx, valid)
        constant = gathered_attention(Tensor(q), Tensor(k), Tensor(v), idx, valid)
        assert learning._backward is not None
        assert frozen._backward is None and constant._backward is None
        assert np.array_equal(frozen.data, learning.data)
        assert np.array_equal(constant.data, learning.data)

    def test_no_grad_keeps_one_chunk_of_weights(self):
        """Under ``no_grad``, 16 chunks of 2 MB gathered K/V peak at the
        1 MB output plus about one chunk (3.6 MB in all), where keeping
        every row's softmax weights (4.2 MB) and key rows (2.1 MB) took
        9.7 MB."""
        rng = np.random.default_rng(49)
        h, g, length, width, d = 4, 2, 2048, 64, 16
        q, k, v = (Tensor(rng.normal(size=(length, n, d))) for n in (h, g, g))
        idx = rng.integers(0, length, size=(g, length, width))
        valid = rng.random(idx.shape) < 0.9
        assert length == 16 * tensor_mod._chunk_rows(g * width * d)
        tracemalloc.start()
        try:
            with no_grad():
                gathered_attention(q, k, v, idx, valid)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * q.size + 3 * tensor_mod.CHUNK_BYTES // 2, peak

    def test_index_mask(self):
        idx = np.array([[[0, 0], [0, 1], [2, 0]]])
        valid = np.array([[[False, False], [True, True], [True, False]]])
        mask = index_mask(idx, valid, 3)
        assert mask.shape == (1, 1, 3, 3)
        assert mask[0, 0].tolist() == [[False, False, False], [True, True, False],
                                       [False, False, True]]


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 2), st.integers(1, 2), st.integers(1, 4), st.integers(1, 5),
       st.integers(0, 5), st.integers(0, 2**32 - 1),
       st.lists(st.tuples(st.floats(0.0, 1.0, exclude_max=True),
                          st.sampled_from([np.nan, np.inf, -np.inf])), max_size=3))
def test_row_softmax_ops_share_one_contract(groups, hpg, length, lk, slots, seed, faults):
    """Every op that normalizes rows runs one kernel, so none hides a fault
    another shows. With NaN, +inf and -inf placed among finite logits (in
    ``masked_softmax``'s logits, and in the q and k that attention's come
    from), random masks, rows with nothing visible, and K = 0:
    ``gathered_attention`` equals ``grouped_attention`` (on a batch of
    one) under ``index_mask`` of the same index, NaN in the same places;
    and a ``masked_softmax`` row sums to 1, is all zeros (nothing finite
    visible), or, with a visible NaN, is NaN throughout."""
    rng = np.random.default_rng(seed)
    slots = min(slots, lk)
    h, d = groups * hpg, 2
    q = rng.normal(size=(length, h, d))
    k, v = rng.normal(size=(2, lk, groups, d))
    idx = np.stack([rng.permutation(lk)[:slots] for _ in range(groups * length)])
    idx = idx.reshape(groups, length, slots)
    valid = rng.random(idx.shape) < 0.7
    valid[..., rng.random(length) < 0.2, :] = False      # queries with nothing visible
    x = rng.normal(scale=3.0, size=(6, lk))
    mask = rng.random(x.shape) < 0.7
    mask[rng.random(6) < 0.2] = False
    qk = np.concatenate([q.reshape(-1), k.reshape(-1)])
    for at, value in faults:
        qk[int(at * qk.size)] = value
        x.flat[int(at * x.size)] = value
    q, k = qk[:q.size].reshape(q.shape), qk[q.size:].reshape(k.shape)

    cfg = AttentionConfig(heads=h, kv_groups=groups, d_head=d)
    with np.errstate(invalid="ignore"):   # inf - inf and 0 * inf are the point
        got = gathered_attention(Tensor(q), Tensor(k), Tensor(v), idx, valid).data
        want = grouped_attention(*(Tensor(x.transpose(1, 0, 2)[None]) for x in (q, k, v)), cfg,
                                 index_mask(idx, valid, lk)).data[0]
        p = masked_softmax(Tensor(x), mask).data
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=1e-12, equal_nan=True)
    visible_nan = (mask & np.isnan(x)).any(axis=-1)
    assert np.isnan(p[visible_nan]).all()
    clean = ~(mask & (np.isnan(x) | (x == np.inf))).any(axis=-1)
    sums = p[clean].sum(axis=-1)
    assert np.all((np.abs(sums - 1.0) < 1e-12) | (p[clean] == 0.0).all(axis=-1))


def zeros_like(x):
    return Tensor(np.zeros_like(np.asarray(x)))


class TestLayerNorm:
    """``residual_norm`` is layer norm of a residual sum; with a zero
    residual branch it normalizes its first operand."""

    @staticmethod
    def norm(x):
        x = Tensor(x)
        n = x.shape[-1]
        return residual_norm(x, zeros_like(x.data), Tensor(np.ones(n)), Tensor(np.zeros(n)))

    def test_constant_row_is_zero(self):
        assert np.abs(self.norm([[2.0, 2.0, 2.0]]).data).max() < 1e-6

    def test_two_point_row(self):
        assert np.abs(self.norm([[1.0, 3.0]]).data - np.array([[-1.0, 1.0]])).max() < 1e-4

    def test_moments(self):
        rng = np.random.default_rng(4)
        out = self.norm(rng.normal(size=(6, 17))).data
        assert np.abs(out.mean(axis=-1)).max() < 1e-12
        assert np.abs(out.var(axis=-1) - 1.0).max() < 1e-4

    def test_matches_numpy_layer_norm(self):
        """Against the textbook form: the mean and variance of the sum,
        the keep-mask scaled by 1 / (1 - rate)."""
        rng = np.random.default_rng(5)
        x, y = rng.normal(size=(2, 4, 7))
        gamma, beta = rng.normal(size=(2, 7))
        keep = rng.random(y.shape) >= 0.25
        out = residual_norm(Tensor(x), Tensor(y), Tensor(gamma), Tensor(beta), keep, 0.25).data
        s = x + np.where(keep, y / 0.75, 0.0)
        centered = s - s.mean(axis=-1, keepdims=True)
        sigma = np.sqrt((centered ** 2).mean(axis=-1, keepdims=True) + 1e-5)
        want = centered / sigma * gamma + beta
        assert np.abs(out - want).max() < 1e-12

    def test_bad_affine_shape(self):
        x = Tensor(np.ones((2, 3)))
        with pytest.raises(ValueError, match="affine params"):
            residual_norm(x, x, Tensor(np.ones(4)), Tensor(np.zeros(4)))

    def test_bad_operand_shapes(self):
        ones, x = Tensor(np.ones(3)), Tensor(np.ones((2, 3)))
        with pytest.raises(ValueError, match="disagree"):
            residual_norm(x, Tensor(np.ones((1, 3))), ones, ones)
        with pytest.raises(ValueError, match="keep-mask"):
            residual_norm(x, x, ones, ones, np.ones((1, 3), dtype=bool), 0.1)
        with pytest.raises(ValueError, match="keep-mask"):
            residual_norm(x, x, ones, ones, np.ones((2, 3), dtype=bool), 1.0)

    def test_gradient(self):
        """Central differences on all four inputs, under a keep-mask."""
        rng = np.random.default_rng(5)
        x, y = parameter(rng.normal(size=(2, 6))), parameter(rng.normal(size=(2, 6)))
        gamma, beta = parameter(rng.normal(size=6)), parameter(rng.normal(size=6))
        keep = rng.random((2, 6)) >= 0.3
        w = rng.normal(size=(2, 6))

        def f():
            return (residual_norm(x, y, gamma, beta, keep, 0.3) * Tensor(w)).sum()

        assert grad_check(f, {"x": x, "y": y, "gamma": gamma, "beta": beta}) < 1e-6


class TestFfn:
    def test_matches_numpy(self):
        rng = np.random.default_rng(30)
        x, w1, b1, w2, b2 = (rng.normal(size=s) for s in [(2, 3, 4), (4, 8), (8,), (8, 5), (5,)])
        out = ffn(*(Tensor(t) for t in (x, w1, b1, w2, b2))).data
        assert out.shape == (2, 3, 5)
        assert np.abs(out - (np.tanh(x @ w1 + b1) @ w2 + b2)).max() < 1e-12

    def test_rejects_bad_shapes(self):
        x, w1, b1, w2, b2 = (Tensor(np.ones(s)) for s in [(2, 4), (4, 8), (8,), (8, 4), (4,)])
        with pytest.raises(ValueError, match="ffn"):
            ffn(x, w1, b1, Tensor(np.ones((7, 4))), b2)
        with pytest.raises(ValueError, match="ffn"):
            ffn(x, w1, Tensor(np.ones(4)), w2, b2)
        with pytest.raises(ValueError, match="ffn"):
            ffn(Tensor(np.ones(4)), w1, b1, w2, b2)


def rope_tables(rng, length, d):
    """Angle tables of a (length, d) RoPE cache, one (1, d) row per row
    shared by its heads, and its (d, d) rotation."""
    half = d // 2
    angles = rng.uniform(0.0, 2.0 * np.pi, size=(length, 1, half))
    eye = np.eye(half)
    return (np.tile(np.cos(angles), 2), np.tile(np.sin(angles), 2),
            np.block([[0 * eye, eye], [-eye, 0 * eye]]))


class Zeros(tuple):
    """The shape of a fused op's input that is all zeros."""


def fused_cases():
    """(name, fused op, its chain, input shapes): each op takes the
    inputs as tensors and its chain takes their arrays, drawn from
    N(0, 1) (a ``Zeros`` shape is an all-zero input); RoPE's angle tables
    and rotation, and the dropout keep-mask at rate 0.3, are constants.
    Layer norm is ``residual_norm`` on a zero residual branch."""
    cos, sin, rotate = rope_tables(np.random.default_rng(12), 5, 6)
    keep = np.random.default_rng(13).random((2, 5, 6)) >= 0.3
    return [
        ("affine", affine, chain_affine, [(2, 5, 4), (4, 3), (3,)]),
        ("ffn", ffn, chain_ffn, [(2, 5, 4), (4, 16), (16,), (16, 3), (3,)]),
        ("layer_norm", residual_norm, chain_residual_norm, [(2, 5, 6), Zeros((2, 5, 6)), (6,), (6,)]),
        ("residual_norm", residual_norm, chain_residual_norm, [(2, 5, 6), (2, 5, 6), (6,), (6,)]),
        ("residual_norm_dropout", lambda *t: residual_norm(*t, keep, 0.3),
         lambda *t: chain_residual_norm(*t, keep, 0.3), [(2, 5, 6), (2, 5, 6), (6,), (6,)]),
        ("gate", lambda *t: sigmoid_gate(*t)[0], lambda *t: chain_gate(*t)[0],
         [(2, 5, 3), (2, 5, 3), (6, 3), (3,)]),
        ("rope", lambda x, w: rope(x, w, 3, cos, sin, rotate),
         lambda x, w: chain_rope(x, w, 3, cos, sin, rotate), [(2, 5, 4), (4, 18)]),
    ]


FUSED = fused_cases()


class TestFusedOps:
    """Each fused op against the numpy chain of expressions it replaces,
    kept in ``chains`` as the reference: the same forward bit for bit, one
    tape node, and the chain's complex-step gradients for every input."""

    @staticmethod
    def inputs(shapes, seed):
        rng = np.random.default_rng(seed)
        return [parameter(np.zeros(shape) if isinstance(shape, Zeros) else rng.normal(size=shape))
                for shape in shapes]

    @pytest.mark.parametrize("name, fused, chain, shapes", FUSED, ids=[c[0] for c in FUSED])
    def test_forward_bit_identical_to_chain(self, name, fused, chain, shapes):
        for seed in range(3):
            xs = self.inputs(shapes, seed)
            out = fused(*xs)
            assert np.array_equal(out.data, chain(*(x.data for x in xs)))
            # one node, whose parents are the inputs themselves
            assert len(out._parents) == len(xs)
            assert all(p is x for p, x in zip(out._parents, xs))

    @pytest.mark.parametrize("name, fused, chain, shapes", FUSED, ids=[c[0] for c in FUSED])
    def test_gradient_check(self, name, fused, chain, shapes):
        xs = self.inputs(shapes, 4)
        w = Tensor(np.random.default_rng(5).normal(size=fused(*xs).shape))
        assert grad_check(lambda: (fused(*xs) * w).sum(), xs) < 1e-6

    @pytest.mark.parametrize("name, fused, chain, shapes", FUSED, ids=[c[0] for c in FUSED])
    def test_gradients_match_chain(self, name, fused, chain, shapes):
        xs = self.inputs(shapes, 6)
        seed = np.random.default_rng(7).normal(size=fused(*xs).shape)
        fused(*xs).backward(seed)
        wants = complex_step_grads(chain, [x.data for x in xs], seed)
        for got, want in zip((x.grad for x in xs), wants):
            assert got.shape == want.shape
            assert np.abs(got - want).max() <= 1e-12 * np.abs(want).max()

    @pytest.mark.parametrize("name, fused, chain, shapes", FUSED, ids=[c[0] for c in FUSED])
    def test_constant_inputs_get_no_gradient(self, name, fused, chain, shapes):
        """With one input learning, only it gets a gradient, equal to the
        one it gets when every input learns; for each input in turn."""
        xs = self.inputs(shapes, 8)
        seed = np.random.default_rng(9).normal(size=fused(*xs).shape)
        fused(*xs).backward(seed)
        for i, x in enumerate(xs):
            ts = [Tensor(t.data) for t in xs]
            ts[i] = parameter(x.data)
            fused(*ts).backward(seed)
            assert np.array_equal(ts[i].grad, x.grad), i
            assert all(t.grad is None for j, t in enumerate(ts) if j != i)

    def test_gate_alpha_matches_chain_and_has_no_node(self):
        a, b, w, bias = self.inputs([(4, 3), (4, 3), (6, 3), (3,)], 10)
        _, alpha = sigmoid_gate(a, b, w, bias)
        assert isinstance(alpha, np.ndarray)
        assert np.array_equal(alpha, chain_gate(a.data, b.data, w.data, bias.data)[1])

    def test_affine_rejects_bad_shapes(self):
        with pytest.raises(ValueError, match="affine"):
            affine(Tensor(np.ones((2, 3))), Tensor(np.ones((3, 4))), Tensor(np.ones(3)))
        with pytest.raises(ValueError, match="affine"):
            affine(Tensor(np.ones((2, 3))), Tensor(np.ones((2, 4))), Tensor(np.ones(4)))


class TestPrimitiveGradients:
    """Every primitive against central differences, through odd compositions."""

    def setup_method(self):
        self.rng = np.random.default_rng(6)

    def check(self, f, params, tol=1e-6):
        assert grad_check(f, params) < tol

    def test_elementwise_chain(self):
        x = parameter(self.rng.normal(size=(3, 4)))
        y = parameter(self.rng.normal(size=(3, 4)) + 3.0)
        self.check(lambda: (x * x * y).sum(), [x, y])

    def test_broadcast_mul(self):
        x = parameter(self.rng.normal(size=(4, 1, 3)))
        y = parameter(self.rng.normal(size=(5, 3)))
        self.check(lambda: (x * y * y).sum(), [x, y])

    def test_matmul_grad(self):
        a = parameter(self.rng.normal(size=(3, 4)))
        b = parameter(self.rng.normal(size=(4, 2)))

        def f():
            ab = matmul(a, b)
            return (ab * ab).sum()

        self.check(f, [a, b])

    def test_batched_matmul_grad(self):
        a = parameter(self.rng.normal(size=(2, 3, 4)))
        b = parameter(self.rng.normal(size=(4, 3)))
        self.check(lambda: (matmul(a, b) * matmul(a, b)).sum(), [a, b])

    def test_reshape_transpose_slice(self):
        x = parameter(self.rng.normal(size=(4, 6)))

        def f():
            y = x.reshape((2, 2, 6)).transpose((2, 0, 1))[1:4, :, 1]
            return (y * y).sum()

        self.check(f, [x])

    def test_take_rows_grad_and_duplicates(self):
        table = parameter(self.rng.normal(size=(7, 3)))
        ids = np.array([[1, 1, 4], [0, 6, 1]])

        def f():
            rows = take_rows(table, ids)
            return (rows * rows).sum()

        self.check(f, [table])
        out = take_rows(table, ids)
        out.backward(np.ones_like(out.data))
        # rows 2, 3, 5 never looked up -> zero gradient
        assert np.all(table.grad[[2, 3, 5]] == 0.0)
        assert np.any(table.grad[1] != 0.0)

    def test_take_rows_scatter_matches_add_at(self):
        """The per-column ``np.bincount`` scatter adds in index order, as
        ``np.add.at`` does, so repeated ids give the same gradient bit for
        bit."""
        table = parameter(self.rng.normal(size=(50, 8)))
        ids = self.rng.integers(0, 20, size=(40, 30))   # rows 20-49 never looked up
        g = self.rng.normal(size=(40, 30, 8))
        take_rows(table, ids).backward(g)
        want = np.zeros_like(table.data)
        np.add.at(want, ids, g)
        assert np.array_equal(table.grad, want)

    def test_take_along_last_grad(self):
        """The picked-target term of the cross-entropy, through an
        upstream op, with a target column repeated across rows."""
        x = parameter(self.rng.normal(size=(4, 5)))
        targets = np.array([2, 0, 2, 4])
        self.check(lambda: logits_loss(x * x, targets) * 3.0, [x])

    def test_log_sum_exp_matches_numpy(self):
        """The cross-entropy is the row-mean of log-sum-exp minus the
        target logit."""
        x = self.rng.normal(scale=10.0, size=(4, 9))
        targets = np.array([0, 8, 3, 3])
        got = float(logits_loss(Tensor(x), targets).data)
        lse = np.log(np.exp(x - x.max(-1, keepdims=True)).sum(-1)) + x.max(-1)
        want = (lse - x[np.arange(4), targets]).mean()
        assert abs(got - want) < 1e-12

    def test_log_sum_exp_grad(self):
        x = parameter(self.rng.normal(size=(2, 5)))
        self.check(lambda: logits_loss(x, np.array([1, 4])), [x])


class TestSoftmaxCrossEntropy:
    def test_gradcheck_with_extreme_rows(self):
        rng = np.random.default_rng(11)
        x = parameter(rng.normal(scale=3.0, size=(5, 7)))
        x.data[1] = rng.uniform(-1e3, 1e3, 7)
        x.data[3] = np.array([1e3, -1e3, 0.0, 999.0, -999.0, 1.0, 2.0])
        targets = np.array([6, 2, 0, 3, 5])
        loss = logits_loss(x, targets)
        loss.backward()
        assert np.isfinite(float(loss.data)) and np.all(np.isfinite(x.grad))
        assert grad_check(lambda: logits_loss(x, targets), [x], h=1e-6) < 1e-6

    def test_saturated_target(self):
        x = Tensor(np.array([[1e3, -1e3, 0.0, 1.0], [-1e3, 2.0, 1e3, -5.0]]))
        loss = logits_loss(x, np.array([0, 2]))
        assert 0.0 <= float(loss.data) < 1e-12

    def test_gradient_is_softmax_minus_onehot_over_n(self):
        rng = np.random.default_rng(12)
        x = parameter(rng.normal(size=(3, 6)))
        targets = np.array([5, 0, 5])
        logits_loss(x, targets).backward()
        p = np.exp(x.data - x.data.max(1, keepdims=True))
        p /= p.sum(1, keepdims=True)
        p[np.arange(3), targets] -= 1.0
        assert np.abs(x.grad - p / 3.0).max() < 1e-15

    @pytest.mark.parametrize("bad", [-1, 3])
    def test_target_outside_the_vocabulary_is_rejected(self, bad):
        """A target of -1 would otherwise score the last item, as numpy
        wraps a negative index; V is one past the last."""
        with pytest.raises(ValueError, match="outside"):
            logits_loss(Tensor([[0.0, 1.0, 5.0]]), [bad])

    def test_matches_numpy_reference_at_chunk_boundaries(self):
        """Loss and both gradients equal one (T, V) logit matrix in plain
        numpy, for T one row, one chunk less one, one chunk, one chunk and
        one, and three chunks and five; some rows score every item at +1e3
        or -1e3."""
        rng = np.random.default_rng(13)
        vocab, d = 4096, 8
        c = tensor_mod._chunk_rows(vocab)
        assert c == 64
        for n in (1, c - 1, c, c + 1, 3 * c + 5):
            h = parameter(rng.normal(size=(n, d)))
            w = parameter(rng.normal(size=(vocab, d)))
            w.data[:, 0] = rng.choice([-1.0, 1.0], vocab)
            h.data[n // 2] = h.data[-1] = 0.0
            h.data[n // 2, 0], h.data[-1, 0] = 1e3, -1e3   # a row of ±1e3 logits
            targets = rng.integers(0, vocab, n)
            loss = linear_cross_entropy(h, w, targets)
            loss.backward()

            logits = h.data @ w.data.T
            mx = logits.max(axis=1, keepdims=True)
            lse = np.log(np.exp(logits - mx).sum(axis=1)) + mx[:, 0]
            want = (lse - logits[np.arange(n), targets]).mean()
            dlogits = np.exp(logits - lse[:, None])
            dlogits[np.arange(n), targets] -= 1.0
            dlogits /= n
            assert abs(float(loss.data) - want) < 1e-12, n
            assert np.abs(h.grad - dlogits @ w.data).max() < 1e-12, n
            assert np.abs(w.grad - dlogits.T @ h.data).max() < 1e-12, n

    def test_gradcheck_across_chunks(self, monkeypatch):
        """Central differences on both operands, with chunks of two rows."""
        rng = np.random.default_rng(14)
        vocab = 5
        monkeypatch.setattr(tensor_mod, "CHUNK_BYTES", 2 * 8 * vocab)
        assert tensor_mod._chunk_rows(vocab) == 2
        h = parameter(rng.normal(size=(7, 3)))
        w = parameter(rng.normal(size=(vocab, 3)))
        targets = np.array([4, 0, 2, 2, 1, 3, 4])
        err = grad_check(lambda: linear_cross_entropy(h, w, targets), {"h": h, "w": w}, h=1e-6)
        assert err < 1e-6


class TestFusedLossGradients:
    """``linear_cross_entropy`` forms both gradients in its forward; the
    backward only scales and hands them on."""

    @staticmethod
    def operands(rng, n=200, vocab=4096, d=6):
        h = parameter(rng.normal(size=(n, d)))
        w = parameter(rng.normal(size=(vocab, d)))
        return h, w, rng.integers(0, vocab, n)

    def test_backward_reads_neither_operand(self):
        rng = np.random.default_rng(21)
        h, w, targets = self.operands(rng)
        assert h.shape[0] > 3 * tensor_mod._chunk_rows(w.shape[0])
        logits = h.data @ w.data.T
        p = np.exp(logits - logits.max(axis=1, keepdims=True))
        p /= p.sum(axis=1, keepdims=True)
        p[np.arange(len(targets)), targets] -= 1.0
        p /= len(targets)
        want_h, want_w = p @ w.data, p.T @ h.data
        loss = linear_cross_entropy(h, w, targets)
        h.data[...] = np.nan
        w.data[...] = np.nan
        loss.backward()
        assert np.abs(h.grad - want_h).max() < 1e-12
        assert np.abs(w.grad - want_w).max() < 1e-12

    def test_upstream_seed_scales_both_gradients(self):
        h, w, targets = self.operands(np.random.default_rng(22))
        linear_cross_entropy(h, w, targets).backward()
        unit = h.grad, w.grad
        h.grad = w.grad = None
        (linear_cross_entropy(h, w, targets) * 2.5).backward()
        for got, ref in zip((h.grad, w.grad), unit):
            assert np.abs(got - 2.5 * ref).max() <= 1e-15 * np.abs(2.5 * ref).max()

    def test_second_backward_raises(self):
        h, w, targets = self.operands(np.random.default_rng(23))
        loss = linear_cross_entropy(h, w, targets)
        loss.backward()
        with pytest.raises(RuntimeError, match="second time"):
            loss.backward()

    def test_no_gradient_work_without_a_learner(self):
        """With constant operands or under ``no_grad``, the call's peak
        stays below one chunk of logits plus one (V, d) buffer; with
        learning operands it allocates the (V, d) and (N, d) gradients and
        crosses that bound."""
        rng = np.random.default_rng(24)
        n, vocab, d = 512, 2048, 256
        h_data, w_data = rng.normal(size=(n, d)), rng.normal(size=(vocab, d))
        targets = rng.integers(0, vocab, n)
        bound = tensor_mod.CHUNK_BYTES + vocab * d * 8

        def peak(h, w):
            tracemalloc.start()
            try:
                loss = linear_cross_entropy(h, w, targets)
                return tracemalloc.get_traced_memory()[1], float(loss.data)
            finally:
                tracemalloc.stop()

        learning, want = peak(parameter(h_data), parameter(w_data))
        constant, got = peak(Tensor(h_data), Tensor(w_data))
        with no_grad():
            frozen, got_frozen = peak(parameter(h_data), parameter(w_data))
        assert got == want == got_frozen
        assert constant < bound and frozen < bound, (constant, frozen, bound)
        assert learning > bound, (learning, bound)

    def test_one_chunk_of_logits_alive_at_a_time(self):
        """Under ``no_grad``, a call over 4 chunks of 2 MB logits peaks at
        one chunk and the small per-row buffers (2.08 MB measured), not at
        two chunks (4.01 MB when a chunk outlived the next one's matmul)."""
        rng = np.random.default_rng(25)
        n, vocab, d = 512, 2048, 256
        h, w = parameter(rng.normal(size=(n, d))), parameter(rng.normal(size=(vocab, d)))
        targets = rng.integers(0, vocab, n)
        assert n == 4 * tensor_mod._chunk_rows(vocab)
        with no_grad():
            tracemalloc.start()
            try:
                linear_cross_entropy(h, w, targets)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
        assert peak < 1.25 * tensor_mod.CHUNK_BYTES, peak


def unit_norm(x, y):
    """``residual_norm`` of x + y with unit gain and zero shift: without
    dropout it hands one gradient array to both x and y."""
    n = x.shape[-1]
    return residual_norm(x, y, Tensor(np.ones(n)), Tensor(np.zeros(n)))


def chain_unit_norm(x, y):
    return chain_residual_norm(x, y, 1.0, 0.0)


class TestTapeMechanics:
    def test_diamond_graph_accumulates_once(self):
        x = parameter(np.array([2.0]))
        y = x * 3.0
        z = y * y  # two paths to y
        z.backward(np.ones(1))
        assert x.grad.tolist() == [36.0]

    @pytest.mark.parametrize("interior_first", [True, False])
    def test_shared_gradient_array_is_not_written_through(self, interior_first):
        """``residual_norm`` hands one array to both operands and each owns
        it as its first gradient. With the inner norm's backward first,
        interior h's second contribution (from c = h * w) lands on an
        array that the other branch w still holds; adding in place would
        change w's gradient too."""
        rng = np.random.default_rng(15)
        xd, yd, seed = rng.normal(size=(3, 2, 4))

        def loss(x, y, norm):
            h, w = x * y, x * 5.0
            inner, c = norm(h, w), h * w
            return norm(c, inner) if interior_first else norm(inner, c)

        x, y = parameter(xd), parameter(yd)
        loss(x, y, unit_norm).backward(seed)
        want = complex_step_grads(lambda *t: loss(*t, chain_unit_norm), [xd, yd], seed)
        for got, ref in zip((x.grad, y.grad), want):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    @pytest.mark.parametrize("shared_first", [True, False])
    def test_leaves_sharing_one_array_stay_apart(self, shared_first):
        """Leaves a and b own the one array ``residual_norm`` hands them;
        b's second contribution must not reach a's gradient."""
        rng = np.random.default_rng(16)
        ad, bd, seed = rng.normal(size=(3, 2, 4))

        def loss(a, b, norm):
            shared, extra = norm(a, b), b * 2.0
            return norm(shared, extra) if shared_first else norm(extra, shared)

        a, b = parameter(ad), parameter(bd)
        loss(a, b, unit_norm).backward(seed)
        want = complex_step_grads(lambda *t: loss(*t, chain_unit_norm), [ad, bd], seed)
        for got, ref in zip((a.grad, b.grad), want):
            assert np.abs(got - ref).max() <= 1e-12 * np.abs(ref).max()

    def test_seed_gradient_is_copied(self):
        """``reshape`` hands on a view of its gradient, so without the copy
        x's gradient would be a view of the caller's seed."""
        x = parameter(np.array([1.0, 2.0]))
        seed = np.ones(2)
        x.reshape((2,)).backward(seed)
        seed[:] = 9.0
        assert x.grad.tolist() == [1.0, 1.0]

    def test_backward_needs_scalar(self):
        x = parameter(np.ones((2, 2)))
        with pytest.raises(ValueError, match="scalar"):
            (x * 2.0).backward()

    def test_forward_determinism(self):
        rng = np.random.default_rng(7)
        x = rng.normal(size=(8, 8))
        a = masked_softmax(Tensor(x), np.tril(np.ones((8, 8), dtype=bool))).data
        b = masked_softmax(Tensor(x), np.tril(np.ones((8, 8), dtype=bool))).data
        assert np.array_equal(a, b)

    def test_sigmoid_bit_identical_to_three_exp_formula(self):
        x = np.concatenate([[0.0, 1e-300, -1e-300, 30.0, -30.0, 800.0, -800.0],
                            np.linspace(-40.0, 40.0, 801)])
        old = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))),
                       np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))
        assert np.array_equal(tensor_mod._sigmoid(x), old)

    def test_no_nan_inf_under_extreme_logits(self):
        x = Tensor(np.array([[1e8, -1e8, 0.0]]))
        out = masked_softmax(x, np.array([[True, True, True]]))
        assert np.all(np.isfinite(out.data))

    @pytest.mark.parametrize("op", [mul, matmul])
    @pytest.mark.parametrize("learn_first", [True, False])
    def test_constant_operand_product_is_never_formed(self, monkeypatch, op, learn_first):
        """Backward reduces a product only for the operand that learns, and
        that operand's gradient is bit-identical to a run where both learn."""
        rng = np.random.default_rng(11)
        x, c = rng.normal(size=(4, 4)), rng.normal(size=(4, 4))
        reduced = []
        real = tensor_mod._unbroadcast

        def spy(g, shape):
            reduced.append(shape)
            return real(g, shape)

        def grad_of_x(constant):
            xt, ct = parameter(x), (Tensor(c) if constant else parameter(c))
            (op(xt, ct) if learn_first else op(ct, xt)).sum().backward()
            return xt.grad

        both = grad_of_x(constant=False)
        monkeypatch.setattr(tensor_mod, "_unbroadcast", spy)
        alone = grad_of_x(constant=True)
        assert len(reduced) == 1
        assert np.array_equal(alone, both)

    def test_no_grad_suppresses_recording(self):
        from blossomrec.tensor import no_grad

        x = parameter(np.array([2.0]))
        with no_grad():
            silent = x * 3.0
        assert silent._backward is None
        assert not silent.requires_grad
        # recording resumes outside the context
        loud = (x * 3.0).sum()
        loud.backward()
        assert x.grad.tolist() == [3.0]

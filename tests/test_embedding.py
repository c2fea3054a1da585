"""Embedding lookups and rotary position encoding."""

import numpy as np
import pytest

from blossomrec.embedding import EmbeddingTable, RoPECache, apply_rope, embed
from blossomrec.errors import ConfigError, DataError
from blossomrec.tensor import Tensor, mul, reshape

from chains import weighted_sum


@pytest.fixture
def table():
    return EmbeddingTable(num_items=8, dim=4, rng=np.random.default_rng(0))


class TestEmbed:
    def test_all_padding_is_zero(self, table):
        out = embed(np.array([[0, 0, 0]]), table)
        assert np.all(out.data == 0.0)

    def test_lookup_identity(self, table):
        out = embed(np.array([[5]]), table)
        assert np.array_equal(out.data[0, 0], table.weights.data[5])

    def test_ragged_batch_padding(self, table):
        ids = np.array([[0, 0, 3, 1], [0, 2, 2, 7]])
        out = embed(ids, table).data
        # direct indexing oracle
        for b in range(2):
            for p in range(4):
                assert np.array_equal(out[b, p], table.weights.data[ids[b, p]])
        assert np.all(out[0, :2] == 0.0)

    def test_out_of_range_names_id(self, table):
        with pytest.raises(DataError, match="17"):
            embed(np.array([[1, 17]]), table)

    def test_gradient_only_at_looked_up_rows(self, table):
        out = embed(np.array([[3, 5, 3]]), table)
        out.backward(np.ones_like(out.data))
        grad = table.weights.grad
        touched = {3, 5}
        for row in range(table.rows):
            if row in touched:
                assert np.any(grad[row] != 0.0)
            else:
                assert np.all(grad[row] == 0.0)

    def test_padding_row_pinned(self, table):
        table.weights.data[0] = 9.0
        table.weights.grad = np.ones_like(table.weights.data)
        table.clamp_padding()
        assert np.all(table.weights.data[0] == 0.0)
        assert np.all(table.weights.grad[0] == 0.0)
        assert np.all(table.weights.grad[1:] == 1.0)


def rotate(x, positions, cache):
    """``apply_rope`` of (..., L, d_head) rows on their own: one head
    through an identity projection, which passes them through exactly."""
    eye = Tensor(np.eye(cache.d_head))
    return reshape(apply_rope(x, eye, 1, positions, cache), x.shape)


class TestRope:
    def test_position_zero_is_identity(self):
        cache = RoPECache(d_head=8, max_len=16)
        x = np.random.default_rng(1).normal(size=(1, 3, 8))
        x[:, 1:] = 0.0
        out = rotate(Tensor(x), np.array([0, 0, 0]), cache)
        assert np.abs(out.data - x).max() < 1e-15

    def test_norm_preserved(self):
        cache = RoPECache(d_head=8, max_len=64)
        rng = np.random.default_rng(2)
        x = rng.normal(size=(2, 10, 8))
        out = rotate(Tensor(x), np.arange(10), cache).data
        assert np.abs(np.linalg.norm(out, axis=-1) - np.linalg.norm(x, axis=-1)).max() < 1e-10

    def test_relative_position_property(self):
        """q.k after rotation depends only on the position offset:
        100 random pairs x 10 offsets."""
        cache = RoPECache(d_head=8, max_len=256)
        rng = np.random.default_rng(3)
        for _ in range(100):
            q = rng.normal(size=(1, 1, 8))
            k = rng.normal(size=(1, 1, 8))
            offset = int(rng.integers(0, 16))
            dots = []
            for base in rng.integers(0, 200, size=10):
                rq = rotate(Tensor(q), np.array([int(base) + offset]), cache).data[0, 0]
                rk = rotate(Tensor(k), np.array([int(base)]), cache).data[0, 0]
                dots.append(rq @ rk)
            assert np.abs(np.diff(dots)).max() < 1e-10

    def test_odd_head_dim_rejected(self):
        with pytest.raises(ConfigError, match="even"):
            RoPECache(d_head=7, max_len=8)

    @pytest.mark.parametrize("shape, positions", [
        ((3, 7, 8), np.array([0, 1, 2, 3, 5, 8, 13]))])
    def test_matches_half_split_rotation(self, shape, positions):
        """One signed-permutation rotation gives the textbook half-split
        formula's outputs exactly, and as input gradients the same
        formula's transpose, the rotation by minus each angle."""
        from blossomrec.tensor import parameter

        cache = RoPECache(d_head=8, max_len=16)
        rng = np.random.default_rng(6)
        data, seed = rng.normal(size=shape), rng.normal(size=shape)
        cos, sin = cache.cos[positions][..., :4], cache.sin[positions][..., :4]

        def half_split(x, sin):
            x1, x2 = x[..., :4], x[..., 4:]
            return np.concatenate([x1 * cos - x2 * sin, x1 * sin + x2 * cos], axis=-1)

        x = parameter(data)
        out = rotate(x, positions, cache)
        out.backward(seed)
        assert np.array_equal(out.data, half_split(data, sin))
        assert np.array_equal(x.grad, half_split(seed, -sin))

    def test_positions_must_be_one_dimensional(self):
        """A (B, L) position array, one row per sequence of a padded batch,
        is refused: positions are one per row of a stream."""
        cache = RoPECache(d_head=4, max_len=32)
        x, w = Tensor(np.zeros((2, 5, 8))), Tensor(np.zeros((8, 8)))
        with pytest.raises(ConfigError, match="1-D"):
            apply_rope(x, w, 2, np.zeros((2, 5), dtype=np.int64), cache)

    def test_positions_must_match_rows(self):
        """One position for 5 rows would broadcast, rotating every row by
        position 3."""
        cache = RoPECache(d_head=4, max_len=32)
        x, w = Tensor(np.zeros((5, 8))), Tensor(np.zeros((8, 8)))
        with pytest.raises(ConfigError, match=r"one per row of 5; got shape \(1,\)"):
            apply_rope(x, w, 2, np.array([3]), cache)

    def test_negative_positions_are_rejected(self):
        """Position -1 would index the last row of the cache, rotating
        like position max_len - 1."""
        cache = RoPECache(d_head=4, max_len=32)
        x, w = Tensor(np.zeros((2, 8))), Tensor(np.zeros((8, 8)))
        with pytest.raises(ConfigError, match="position -1 is negative"):
            apply_rope(x, w, 2, np.array([0, -1]), cache)

    def test_weight_must_split_into_cached_heads(self):
        cache = RoPECache(d_head=4, max_len=32)
        x = Tensor(np.zeros((1, 5, 8)))
        with pytest.raises(ConfigError, match="d_head=4"):
            apply_rope(x, Tensor(np.zeros((8, 12))), 2, np.arange(5), cache)

    def test_gradient_flows(self):
        from blossomrec.gradcheck import grad_check
        from blossomrec.tensor import parameter

        cache = RoPECache(d_head=4, max_len=16)
        x = parameter(np.random.default_rng(5).normal(size=(1, 6, 4)))

        def f():
            y = rotate(x, np.arange(6), cache)
            return weighted_sum(mul(y, y))

        assert grad_check(f, [x]) < 1e-7

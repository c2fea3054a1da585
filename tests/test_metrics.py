"""Sampled-negative ranking metrics."""

import numpy as np
import pytest

from blossomrec.metrics import aggregate, rank_metrics, sample_negatives


class TestSampleNegatives:
    def test_exclusion_contract(self):
        history = set(range(1, 6))
        negs = sample_negatives(history, vocab_size=200, target=7, n=100, seed=0, user=1)
        assert len(negs) == 100
        assert len(set(negs.tolist())) == 100
        assert not (set(negs.tolist()) & history)
        assert 7 not in negs

    def test_deterministic_per_seed_and_user(self):
        a = sample_negatives(set(), 150, 3, 50, seed=4, user=9)
        b = sample_negatives(set(), 150, 3, 50, seed=4, user=9)
        c = sample_negatives(set(), 150, 3, 50, seed=4, user=10)
        assert np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_insufficient_candidates(self):
        with pytest.raises(ValueError, match="candidates"):
            sample_negatives(set(range(1, 60)), 100, 60, n=100, seed=0, user=2)

    @staticmethod
    def _reference(history, vocab_size, target, n, seed, user):
        """The per-item list the sampler draws from, built one id at a time."""
        excluded = set(history) | {target}
        candidates = [i for i in range(1, vocab_size + 1) if i not in excluded]
        if len(candidates) < n:
            raise ValueError(f"user {user}: only {len(candidates)} candidates for {n} negatives")
        rng = np.random.default_rng([seed, user])
        return rng.choice(np.array(candidates, dtype=np.int64), size=n, replace=False)

    def test_matches_per_item_reference(self):
        rng = np.random.default_rng(17)
        vocab = 150
        for user in range(200):
            history = set(rng.integers(-3, vocab + 5, size=int(rng.integers(0, 60))).tolist())
            history |= set(rng.choice([0, -1, 999], size=int(rng.integers(0, 3))).tolist())
            target = int(rng.integers(-1, vocab + 3))
            want = self._reference(history, vocab, target, 40, 5, user)
            got = sample_negatives(history, vocab, target, 40, seed=5, user=user)
            assert got.dtype == want.dtype
            assert np.array_equal(got, want), user

    def test_shortage_message_matches_reference(self):
        history = set(range(-2, 58)) | {999}
        with pytest.raises(ValueError) as want:
            self._reference(history, 100, 0, 100, 0, 3)
        with pytest.raises(ValueError) as got:
            sample_negatives(history, 100, 0, n=100, seed=0, user=3)
        assert str(got.value) == str(want.value) == "user 3: only 43 candidates for 100 negatives"


class TestRankMetrics:
    def test_best_rank(self):
        assert rank_metrics(5.0, np.array([1.0, 2.0, 3.0]), k=10) == (1.0, 1.0, 1.0)

    def test_rank_three(self):
        rec, rr, ndcg = rank_metrics(2.0, np.array([5.0, 4.0, 1.0, 0.0]), k=10)
        assert rec == 1.0
        assert rr == pytest.approx(1 / 3)
        assert ndcg == pytest.approx(0.5)  # 1 / log2(4)

    def test_miss(self):
        negs = np.arange(20, dtype=float) + 10.0
        assert rank_metrics(1.0, negs, k=10) == (0.0, 0.0, 0.0)

    def test_pessimistic_ties(self):
        # equal-scoring negatives rank above the target ...
        rec, rr, _ = rank_metrics(2.0, np.array([2.0, 1.0]), k=10)
        assert rr == pytest.approx(1 / 2)
        # ... so a constant scorer earns nothing
        assert rank_metrics(0.0, np.zeros(100), k=10) == (0.0, 0.0, 0.0)

    def test_tied_negative_counts_like_a_higher_one(self):
        # lowering a strictly-better negative to an exact tie keeps the rank
        above = rank_metrics(2.0, np.array([3.0, 1.0]), k=10)
        tied = rank_metrics(2.0, np.array([2.0, 1.0]), k=10)
        assert above == tied

    def test_monotone_in_target_score(self):
        rng = np.random.default_rng(0)
        negs = rng.normal(size=100)
        prev = (0.0, 0.0, 0.0)
        for score in np.linspace(-3, 3, 25):
            cur = rank_metrics(float(score), negs, k=10)
            assert all(c >= p for c, p in zip(cur, prev))
            prev = cur

    def test_ndcg_and_mrr_bounded_by_recall(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            t = float(rng.normal())
            negs = rng.normal(size=30)
            rec, rr, ndcg = rank_metrics(t, negs, k=5)
            assert ndcg <= rec + 1e-12
            assert rr <= rec + 1e-12

    def test_nan_scores_rank_pessimistically(self):
        """A NaN target misses; a NaN negative outranks the target."""
        assert rank_metrics(float("nan"), np.arange(20.0), k=10) == (0.0, 0.0, 0.0)
        rec, rr, _ = rank_metrics(2.0, np.array([np.nan, 1.0]), k=10)
        assert (rec, rr) == (1.0, 0.5)


class TestAggregate:
    def test_means_and_range(self):
        res = aggregate([(1.0, 1.0, 1.0), (0.0, 0.0, 0.0)], k=10, num_negatives=100)
        assert res.recall_at_k == 0.5
        assert res.num_users == 2
        for v in (res.recall_at_k, res.mrr_at_k, res.ndcg_at_k):
            assert 0.0 <= v <= 1.0

    def test_empty(self):
        res = aggregate([], k=10, num_negatives=100, num_skipped=3)
        assert res.num_users == 0
        assert res.num_skipped == 3
        assert res.ndcg_at_k == 0.0

    def test_as_dict_keys(self):
        d = aggregate([(1.0, 0.5, 0.63)], k=10, num_negatives=100).as_dict()
        assert set(d) == {"recall@10", "mrr@10", "ndcg@10", "num_users",
                          "num_negatives", "num_skipped"}

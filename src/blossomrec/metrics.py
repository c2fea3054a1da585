"""Ranking metrics under sampled-negative evaluation.

The true next item is ranked against n uniformly sampled unseen negatives.
Ties are handled pessimistically: a negative scoring exactly the target's
score counts as ranked above it, so a constant scorer earns zero. NaN
counts the same way: a NaN target ranks below every negative, and a NaN
negative above the target.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EvalResult", "sample_negatives", "rank_metrics", "aggregate"]


@dataclass
class EvalResult:
    recall_at_k: float
    mrr_at_k: float
    ndcg_at_k: float
    k: int
    num_users: int
    num_negatives: int
    num_skipped: int = 0

    def as_dict(self) -> dict:
        return {
            f"recall@{self.k}": self.recall_at_k,
            f"mrr@{self.k}": self.mrr_at_k,
            f"ndcg@{self.k}": self.ndcg_at_k,
            "num_users": self.num_users,
            "num_negatives": self.num_negatives,
            "num_skipped": self.num_skipped,
        }


def sample_negatives(history: set[int], vocab_size: int, target: int,
                     n: int, seed: int, user: int) -> np.ndarray:
    """Draw n distinct unseen items, excluding history and the target.

    The candidates are ids 1..vocab_size in ascending order; history ids
    outside that range are ignored. Deterministic in (seed, user). Raises
    ValueError when fewer than n candidates exist; callers skip such users
    with a diagnostic.
    """
    excluded = np.fromiter([*history, target], dtype=np.int64)
    keep = np.ones(vocab_size + 1, dtype=bool)
    keep[0] = False
    keep[excluded[(excluded >= 1) & (excluded <= vocab_size)]] = False
    candidates = np.flatnonzero(keep)
    if len(candidates) < n:
        raise ValueError(f"user {user}: only {len(candidates)} candidates for {n} negatives")
    rng = np.random.default_rng([seed, user])
    return rng.choice(candidates, size=n, replace=False)


def rank_metrics(target_score: float, negative_scores: np.ndarray, k: int) -> tuple[float, float, float]:
    """Per-user (recall, reciprocal rank, ndcg) at cutoff k.

    rank = 1 + #(negatives not scoring strictly below the target); a miss
    (rank > k) zeroes all three.
    """
    negative_scores = np.asarray(negative_scores, dtype=np.float64)
    rank = 1 + int((~(negative_scores < target_score)).sum())
    if rank > k:
        return 0.0, 0.0, 0.0
    return 1.0, 1.0 / rank, 1.0 / np.log2(rank + 1.0)


def aggregate(per_user: list[tuple[float, float, float]], k: int,
              num_negatives: int, num_skipped: int = 0) -> EvalResult:
    """Arithmetic mean of per-user metric triples."""
    if not per_user:
        return EvalResult(0.0, 0.0, 0.0, k, 0, num_negatives, num_skipped)
    arr = np.asarray(per_user, dtype=np.float64)
    return EvalResult(
        recall_at_k=float(arr[:, 0].mean()),
        mrr_at_k=float(arr[:, 1].mean()),
        ndcg_at_k=float(arr[:, 2].mean()),
        k=k,
        num_users=len(per_user),
        num_negatives=num_negatives,
        num_skipped=num_skipped,
    )

"""Ranking metrics under sampled-negative evaluation.

The true next item is ranked against n uniformly sampled unseen negatives.
Ties are handled pessimistically: a negative scoring exactly the target's
score counts as ranked above it, so a constant scorer earns zero. NaN
counts the same way: a NaN target ranks below every negative, and a NaN
negative above the target.

Evaluation works a batch of users at a time: ``draw_negatives`` sorts and
dedupes every user's excluded ids in one pass and maps each user's drawn
indices to item ids with one ``searchsorted``, and ``rank_batch`` ranks
every target at once. Only the draws themselves run per user, each from
its own ``(seed, user)`` stream. ``sample_negatives`` and ``rank_metrics``
are the one-user calls of the same code.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["EvalResult", "draw_negatives", "sample_negatives", "rank_batch",
           "rank_metrics", "aggregate"]


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


def draw_negatives(excluded: np.ndarray, lengths: np.ndarray, vocab_size: int, n: int,
                   seed: int, users: list[int]) -> tuple[np.ndarray, np.ndarray]:
    """Draw n distinct unseen items per row, excluding that row's ids.

    ``excluded`` is every row's excluded ids back to back, ``lengths[b]``
    of them for row b; ids outside 1..vocab_size are ignored. Row b's
    candidates are the other ids in 1..vocab_size, ascending. Returns the
    candidate count per row, (B,), and the draws of the rows with at
    least n candidates, (R, n) in row order; the other rows draw nothing.
    Row b's draw is deterministic in (seed, users[b]): it is
    ``default_rng([seed, users[b]]).choice(candidates, n, replace=False)``,
    formed as the same stream's draw of n indices into the candidates,
    mapped to ids by one ``searchsorted``.
    """
    span = vocab_size + 1
    rows = np.repeat(np.arange(len(lengths)), lengths)
    inside = (excluded >= 1) & (excluded <= vocab_size)
    # (row, id) as one sortable key; np.unique would import numpy.ma on first use
    keys = np.sort(rows[inside] * span + excluded[inside])
    keys = keys[np.concatenate(([True], keys[1:] != keys[:-1]))]
    rows = keys // span
    count = np.bincount(rows, minlength=len(lengths))
    start = np.cumsum(count) - count
    # row * span + the number of candidates below each excluded id: a row's
    # candidate j lies above exactly those of its excluded ids whose count is <= j
    below = keys - (np.arange(len(keys)) - start[rows]) - 1
    candidates = vocab_size - count
    drawn = np.flatnonzero(candidates >= n)
    index = np.array([np.random.Generator(np.random.PCG64([seed, users[b]]))
                      .choice(c, size=n, replace=False)
                      for b, c in zip(drawn.tolist(), candidates[drawn].tolist())],
                     dtype=np.int64).reshape(len(drawn), n)
    passed = np.searchsorted(below, drawn[:, None] * span + index, side="right")
    return candidates, index + 1 + passed - start[drawn][:, None]


def sample_negatives(history: set[int], vocab_size: int, target: int,
                     n: int, seed: int, user: int) -> np.ndarray:
    """Draw n distinct unseen items, excluding history and the target.

    The candidates are ids 1..vocab_size in ascending order; history ids
    outside that range are ignored. Deterministic in (seed, user). Raises
    ValueError when fewer than n candidates exist; callers skip such users
    with a diagnostic. One row of ``draw_negatives``.
    """
    excluded = np.fromiter([*history, target], dtype=np.int64)
    candidates, negatives = draw_negatives(excluded, np.array([len(excluded)]), vocab_size,
                                           n, seed, [user])
    if not len(negatives):
        raise ValueError(f"user {user}: only {candidates[0]} candidates for {n} negatives")
    return negatives[0]


def rank_batch(target_scores: np.ndarray, negative_scores: np.ndarray, k: int) -> np.ndarray:
    """Per-row (recall, reciprocal rank, ndcg) at cutoff k, (B, 3), for
    target scores (B,) against negative scores (B, n).

    rank = 1 + #(negatives not scoring strictly below the target); a miss
    (rank > k) zeroes all three.
    """
    target_scores = np.asarray(target_scores, dtype=np.float64)
    negative_scores = np.asarray(negative_scores, dtype=np.float64)
    rank = 1.0 + np.count_nonzero(~(negative_scores < target_scores[:, None]), axis=1)
    per_row = np.stack([np.ones_like(rank), 1.0 / rank, 1.0 / np.log2(rank + 1.0)], axis=1)
    return np.where((rank <= k)[:, None], per_row, 0.0)


def rank_metrics(target_score: float, negative_scores: np.ndarray, k: int) -> tuple[float, float, float]:
    """Per-user (recall, reciprocal rank, ndcg) at cutoff k: one row of
    ``rank_batch``."""
    negatives = np.asarray(negative_scores, dtype=np.float64).reshape(1, -1)
    recall, rr, ndcg = rank_batch([target_score], negatives, k)[0].tolist()
    return recall, rr, ndcg


def aggregate(per_user: list[tuple[float, float, float]] | np.ndarray, k: int,
              num_negatives: int, num_skipped: int = 0) -> EvalResult:
    """Arithmetic mean of per-user metric triples, a list or a (U, 3) array."""
    if not len(per_user):
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

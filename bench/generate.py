"""Seeded interaction-log generator for the benchmark workloads.

History lengths are heavy-tailed (Pareto, clipped to a per-workload
maximum) and item popularity is Zipf-like. Both are drawn by stratified
sampling: the i-th of n draws comes from the quantile (i + u) / n with u
uniform, and the draws are then shuffled. Every seed therefore yields
nearly the same multiset of lengths and item counts, and only which user
and position gets which value changes. That keeps the cost of a run nearly
independent of the seed, which is what lets run-to-run spread stay small.

The log is written as ``user<TAB>item<TAB>timestamp`` so the benchmark can
read it back through ``blossomrec.data.load_interactions``.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np


@dataclass(frozen=True)
class TrafficShape:
    """What the generated log looks like."""

    users: int
    items: int
    min_len: int      # shortest history, in interactions
    max_len: int      # histories are clipped here
    tail: float       # Pareto index of history lengths; smaller is heavier
    zipf: float       # popularity exponent: item of rank r has weight r**-zipf


def _stratified(rng: np.random.Generator, n: int) -> np.ndarray:
    """n uniform draws, one from each of n equal strata of [0, 1), shuffled."""
    return rng.permutation((np.arange(n) + rng.random(n)) / n)


def history_lengths(shape: TrafficShape, rng: np.random.Generator) -> np.ndarray:
    u = _stratified(rng, shape.users)
    raw = shape.min_len * (1.0 - u) ** (-1.0 / shape.tail)
    return np.clip(np.floor(raw), shape.min_len, shape.max_len).astype(np.int64)


def _zipf_ranks(shape: TrafficShape, rng: np.random.Generator, n: int) -> np.ndarray:
    weights = np.arange(1, shape.items + 1, dtype=np.float64) ** -shape.zipf
    cdf = np.cumsum(weights) / weights.sum()
    return np.minimum(np.searchsorted(cdf, _stratified(rng, n), side="right"), shape.items - 1)


def generate(shape: TrafficShape, seed: int) -> list[np.ndarray]:
    """Per-user item sequences (token numbers 0..items-1), time ordered.

    Each user's last two items, which become the validation and test
    targets, come from stratified popularity draws of their own, so the
    popularity mix of the targets is also the same for every seed.
    """
    rng = np.random.default_rng(seed)
    lengths = history_lengths(shape, rng)
    token_of_rank = rng.permutation(shape.items)
    body = token_of_rank[_zipf_ranks(shape, rng, int((lengths - 2).sum()))]
    valid = token_of_rank[_zipf_ranks(shape, rng, shape.users)]
    test = token_of_rank[_zipf_ranks(shape, rng, shape.users)]
    cuts = np.cumsum(lengths - 2)[:-1]
    return [np.concatenate([part, [v, t]])
            for part, v, t in zip(np.split(body, cuts), valid, test)]


def arrival_order(lengths: np.ndarray, strata: int, rng: np.random.Generator) -> np.ndarray:
    """The order in which users first appear in the log.

    Users are split by history length into ``strata`` equal groups, and
    the order takes one user from each group in turn. Any ``strata``
    consecutive users, such as one evaluation batch, then hold the whole
    length mix and pad to about the same width, so evaluation cost does
    not depend on the shuffle.
    """
    by_length = np.argsort(lengths, kind="stable")
    per = len(lengths) // strata
    groups = [rng.permutation(by_length[s * per: (s + 1) * per]) for s in range(strata)]
    rest = rng.permutation(by_length[strata * per:])
    return np.concatenate([np.stack(groups, axis=1).reshape(-1), rest]).astype(np.int64)


def write_log(sequences: list[np.ndarray], path: Path, seed: int, strata: int) -> int:
    """Write sequences as an interaction TSV; returns the record count.

    Users arrive in ``arrival_order``; each user's interactions get
    consecutive timestamps after the previous user's.
    """
    rng = np.random.default_rng([seed, 1])
    order = arrival_order(np.array([len(s) for s in sequences]), strata, rng)
    lines = ["user\titem\ttimestamp\n"]
    clock = 0
    for user in order:
        lines.extend(f"u{user}\ti{item}\t{clock + pos}\n" for pos, item in enumerate(sequences[user]))
        clock += len(sequences[user])
    path.write_text("".join(lines))
    return len(lines) - 1

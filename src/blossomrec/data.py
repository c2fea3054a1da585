"""Interaction-log ingestion, leave-one-out splitting, batching and the
packed stream's geometry, and a synthetic block-interest generator.

Input format: one interaction per line, ``user<TAB>item<TAB>timestamp``,
with an optional header line starting with ``user``. Tokens are mapped to
contiguous integer ids starting at 1 in first-seen order (0 is no item)
and the mapping is persisted next to the log.

A batch (``SeqBatch``) is its rows: its sequences' item ids back to back,
with no padding, plus their lengths, from which ``SeqContext`` works out
the packed stream's geometry.

Ingestion works on whole columns: the file is read into memory in one
piece, split into lines, and each check, parse and token -> id mapping is
one pass over a column. Only a malformed log is scanned line by line, to
name its first bad line in the error.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass, field
from itertools import chain, compress, count, repeat
from operator import truth
from pathlib import Path

import numpy as np

from .errors import ConfigError, DataError

__all__ = [
    "InteractionLog",
    "SeqBatch",
    "SeqContext",
    "SplitDataset",
    "load_interactions",
    "write_interactions",
    "leave_one_out_split",
    "make_synthetic",
]


@dataclass
class InteractionLog:
    """Interaction records plus the token -> id maps built at ingestion.

    Per-user sequences are sorted by ascending timestamp, ties keeping the
    input order.
    """

    user_ids: np.ndarray      # (N,) int64, 1-based
    item_ids: np.ndarray      # (N,) int64, 1-based
    timestamps: np.ndarray    # (N,) float64 seconds
    user_map: dict[str, int] = field(default_factory=dict)
    item_map: dict[str, int] = field(default_factory=dict)

    @property
    def num_users(self) -> int:
        return len(self.user_map)

    @property
    def num_items(self) -> int:
        return len(self.item_map)

    def __len__(self) -> int:
        return len(self.item_ids)

    def sequences(self) -> dict[int, list[int]]:
        """Per-user item sequences in time order (stable under ties), keyed
        in the order users first appear in time order."""
        if not len(self):
            return {}
        by_time = np.argsort(self.timestamps, kind="stable")
        # a stable sort by user keeps each user's records in time order;
        # by_user holds their positions in time order
        by_user = np.argsort(self.user_ids[by_time], kind="stable")
        grouped = by_time[by_user]
        del by_time
        users = self.user_ids[grouped]
        bounds = np.concatenate(([0], np.flatnonzero(users[1:] != users[:-1]) + 1, [len(users)]))
        # a user's first position in time order is its group's first
        order = np.argsort(by_user[bounds[:-1]])
        keys = users[bounds[order]].tolist()
        del by_user, users
        # one Python int per item id, shared by every sequence that holds it
        shared = np.arange(int(self.item_ids.max()) + 1).astype(object)
        items = shared[self.item_ids[grouped]]
        del grouped
        items = items.tolist()
        return dict(zip(keys, map(items.__getitem__, map(slice, bounds[order].tolist(),
                                                          bounds[order + 1].tolist()))))


def _first_seen_ids(tokens: list[str]) -> tuple[np.ndarray, dict[str, int]]:
    """One pass over a token column: each token's id, 1, 2, ... in
    first-seen order, and the token -> id map."""
    mapping = defaultdict(count(1).__next__)
    ids = np.fromiter(map(mapping.__getitem__, tokens), dtype=np.int64, count=len(tokens))
    return ids, dict(mapping)


def _persist_mapping(mapping: dict[str, int], path: Path) -> None:
    with path.open("w") as fh:
        for token, idx in mapping.items():
            fh.write(f"{token}\t{idx}\n")


def _is_float(text: str) -> bool:
    try:
        float(text)
    except ValueError:
        return False
    return True


def _parses_as_record(line: str) -> bool:
    """A first line starting with 'user' is data, not a header, if it parses."""
    parts = line.split("\t")
    return len(parts) == 3 and _is_float(parts[2])


def load_interactions(path: str | Path) -> InteractionLog:
    """Read a TSV interaction log; raises DataError naming the first
    malformed line. Blank lines are skipped but still counted.

    The token -> id maps are written next to the input as
    ``<path>.users.tsv`` and ``<path>.items.tsv``.
    """
    path = Path(path)
    if not path.exists():
        raise DataError(f"dataset file not found: {path}")
    # universal newlines: CRLF and a lone CR both end a line
    try:
        lines = path.read_text().split("\n")
    except UnicodeDecodeError as exc:
        raise DataError(f"{path}: not {exc.encoding} text: {exc.reason} "
                        f"at byte {exc.start}") from None
    if lines[0].lower().startswith("user") and not _parses_as_record(lines[0]):
        lines[0] = ""                           # the header line, skipped like a blank one
    kept = np.fromiter(map(truth, map(str.strip, lines)), dtype=bool, count=len(lines))
    linenos = np.flatnonzero(kept) + 1
    if len(linenos) < len(lines):
        lines = list(compress(lines, kept.tolist()))
    del kept
    if not lines:
        raise DataError(f"{path}: no interaction records")
    tabs = np.fromiter(map(str.count, lines, repeat("\t")), dtype=np.int64, count=len(lines))
    wrong = np.flatnonzero(tabs != 2)
    # only the records before the first line with a wrong field count are
    # read: a bad timestamp among them is the first bad line
    n = int(wrong[0]) if len(wrong) else len(lines)
    bad_line = lines[n] if len(wrong) else None
    del lines[n:], tabs, wrong
    joined = "\t".join(lines)
    del lines
    tokens = joined.split("\t")
    del joined
    try:
        timestamps = np.fromiter(map(float, tokens[2::3]), dtype=np.float64, count=n)
    except ValueError:
        row, raw = next((row, raw) for row, raw in enumerate(tokens[2::3]) if not _is_float(raw))
        raise DataError(f"{path}:{linenos[row]}: bad timestamp {raw!r}") from None
    if bad_line is not None:
        raise DataError(f"{path}:{linenos[n]}: expected user<TAB>item<TAB>timestamp, "
                        f"got {bad_line!r}")
    user_ids, user_map = _first_seen_ids(tokens[0::3])
    item_ids, item_map = _first_seen_ids(tokens[1::3])
    del tokens
    _persist_mapping(user_map, path.with_name(path.name + ".users.tsv"))
    _persist_mapping(item_map, path.with_name(path.name + ".items.tsv"))
    return InteractionLog(user_ids=user_ids, item_ids=item_ids, timestamps=timestamps,
                          user_map=user_map, item_map=item_map)


def write_interactions(log: InteractionLog, path: str | Path) -> None:
    """Write a log back out in the same TSV format (token form)."""
    inv_user = {v: k for k, v in log.user_map.items()}
    inv_item = {v: k for k, v in log.item_map.items()}
    with Path(path).open("w") as fh:
        for u, i, t in zip(log.user_ids, log.item_ids, log.timestamps):
            # repr round-trips float64 exactly; %g would clip epoch seconds
            fh.write(f"{inv_user[int(u)]}\t{inv_item[int(i)]}\t{float(t)!r}\n")


@dataclass
class SplitDataset:
    """Leave-one-out split: per retained user, the train prefix plus the
    held-out validation (second-to-last) and test (last) items."""

    users: list[int]
    train: dict[int, list[int]]       # user -> prefix sequence
    valid_target: dict[int, int]
    test_target: dict[int, int]
    num_items: int
    dropped_users: int

    def context(self, user: int, split: str) -> list[int]:
        """History visible when predicting the given split's target."""
        if split == "valid":
            return self.train[user]
        if split == "test":
            return self.train[user] + [self.valid_target[user]]
        raise ValueError(f"split must be 'valid' or 'test', got {split!r}")

    def target(self, user: int, split: str) -> int:
        """The held-out item the given split predicts."""
        if split == "valid":
            return self.valid_target[user]
        if split == "test":
            return self.test_target[user]
        raise ValueError(f"split must be 'valid' or 'test', got {split!r}")


def leave_one_out_split(log: InteractionLog, min_len: int = 3) -> SplitDataset:
    """Hold out each user's last item for test and second-to-last for
    validation; users with fewer than ``min_len`` interactions are dropped.
    ``min_len`` must be at least 2, the two held-out items."""
    if min_len < 2:
        raise ConfigError(f"min_len must be at least 2, got {min_len}")
    train: dict[int, list[int]] = {}
    valid_t: dict[int, int] = {}
    test_t: dict[int, int] = {}
    users: list[int] = []
    dropped = 0
    for user, seq in log.sequences().items():
        if len(seq) < min_len:
            dropped += 1
            continue
        users.append(user)
        valid_t[user] = seq[-2]
        test_t[user] = seq[-1]
        del seq[-2:]                # the fresh list becomes the train prefix in place
        train[user] = seq
    if not users:
        raise DataError(f"no users with at least {min_len} interactions")
    return SplitDataset(users=users, train=train, valid_target=valid_t,
                        test_target=test_t, num_items=log.num_items, dropped_users=dropped)


@dataclass
class SeqBatch:
    """A batch as its rows: each sequence's item ids, oldest first, back
    to back in one array (the packed stream's order), plus the lengths."""

    ids: np.ndarray       # (N,) int64, N = lengths.sum()
    lengths: np.ndarray   # (B,) int64

    @classmethod
    def from_sequences(cls, seqs: list[list[int]], max_len: int) -> "SeqBatch":
        """Keep the most recent ``max_len`` items of each sequence."""
        if max_len < 1:
            raise ConfigError(f"max_len must be at least 1, got {max_len}")
        trimmed = [s[-max_len:] for s in seqs]
        lengths = np.fromiter(map(len, trimmed), dtype=np.int64, count=len(trimmed))
        ids = np.fromiter(chain.from_iterable(trimmed), dtype=np.int64, count=int(lengths.sum()))
        return cls(ids=ids, lengths=lengths)


@dataclass
class SeqContext:
    """Per-batch geometry of the packed stream, and the only code that
    works it out. Segment b holds sequence b's real rows, oldest first
    (the varlen ``cu_seqlens`` layout)."""

    lengths: np.ndarray       # (B,) segment lengths
    starts: np.ndarray        # (B,) stream row of each segment's oldest item
    positions: np.ndarray     # (N,) position of each stream row within its segment

    @classmethod
    def from_lengths(cls, lengths: np.ndarray) -> "SeqContext":
        """The geometry of segments of ``lengths``."""
        lengths = np.asarray(lengths, dtype=np.int64)
        starts = np.cumsum(lengths) - lengths
        positions = np.arange(int(lengths.sum())) - np.repeat(starts, lengths)
        return cls(lengths=lengths, starts=starts, positions=positions)

    def query_rows(self, rows: int | None) -> np.ndarray:
        """Stream rows of each segment's last ``rows`` items, in stream
        order (every row for None)."""
        if rows is None:
            return np.arange(len(self.positions))
        return np.flatnonzero(self.positions >= np.repeat(self.lengths - rows, self.lengths))


def make_synthetic(num_users: int, num_items: int, blocks_per_user: int,
                   block_len: int, noise_rate: float, seed: int) -> InteractionLog:
    """Generate sequences made of contiguous interest blocks.

    Each block draws its items from one small item cluster (contiguous
    ranges of the raw item space); a ``noise_rate`` fraction of positions is
    replaced by uniform random items. Deterministic per seed.
    """
    if min(num_users, num_items, blocks_per_user, block_len) < 1:
        raise DataError("synthetic generator parameters must be positive")
    if not 0.0 <= noise_rate <= 1.0:
        raise DataError(f"noise_rate must lie in [0, 1], got {noise_rate}")
    rng = np.random.default_rng(seed)
    cluster_width = min(num_items, max(2, min(10, num_items // max(1, blocks_per_user * 2))))
    users: list[str] = []
    items: list[str] = []
    for u in range(1, num_users + 1):
        for _ in range(blocks_per_user):
            start = int(rng.integers(1, max(2, num_items - cluster_width + 2)))
            for _ in range(block_len):
                if noise_rate > 0.0 and rng.random() < noise_rate:
                    item = int(rng.integers(1, num_items + 1))
                else:
                    item = start + int(rng.integers(0, cluster_width))
                users.append(f"u{u}")
                items.append(f"i{item}")
    user_ids, user_map = _first_seen_ids(users)
    item_ids, item_map = _first_seen_ids(items)
    # each user's clock starts at 0 and ticks once per interaction
    timestamps = np.tile(np.arange(blocks_per_user * block_len, dtype=np.float64), num_users)
    return InteractionLog(user_ids=user_ids, item_ids=item_ids, timestamps=timestamps,
                          user_map=user_map, item_map=item_map)

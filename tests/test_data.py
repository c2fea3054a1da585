"""Ingestion, splitting, batching, and the synthetic generator."""

import gc
import hashlib
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy import stats

from blossomrec.data import (
    InteractionLog,
    SeqBatch,
    leave_one_out_split,
    load_interactions,
    make_synthetic,
    write_interactions,
)
from blossomrec.errors import ConfigError, DataError


def write(tmp_path, text, name="log.tsv"):
    p = tmp_path / name
    p.write_text(text)
    return p


# -- per-line reference implementations -------------------------------------
# The loader and the split once worked one line and one record at a time.
# Those loops are kept here as oracles for the whole-column code.

def _reference_parses(line):
    parts = line.split("\t")
    if len(parts) != 3:
        return False
    try:
        float(parts[2])
    except ValueError:
        return False
    return True


def reference_load(path):
    """Arrays and maps of a log, or the DataError, as the per-line loader
    gave them."""
    records = []
    with open(path) as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.rstrip("\n")
            if not line.strip():
                continue
            if lineno == 1 and line.lower().startswith("user") and not _reference_parses(line):
                continue
            parts = line.split("\t")
            if len(parts) != 3:
                raise DataError(f"{path}:{lineno}: expected user<TAB>item<TAB>timestamp, got {line!r}")
            try:
                ts = float(parts[2])
            except ValueError:
                raise DataError(f"{path}:{lineno}: bad timestamp {parts[2]!r}") from None
            records.append((parts[0], parts[1], ts))
    if not records:
        raise DataError(f"{path}: no interaction records")
    user_map, item_map = {}, {}
    users, items, times = [], [], []
    for user, item, ts in records:
        users.append(user_map.setdefault(user, len(user_map) + 1))
        items.append(item_map.setdefault(item, len(item_map) + 1))
        times.append(ts)
    return {"user_ids": np.array(users, dtype=np.int64), "item_ids": np.array(items, dtype=np.int64),
            "timestamps": np.array(times, dtype=np.float64),
            "user_map": user_map, "item_map": item_map}


def reference_sequences(log):
    order = np.argsort(log.timestamps, kind="stable")
    out = {}
    for idx in order:
        out.setdefault(int(log.user_ids[idx]), []).append(int(log.item_ids[idx]))
    return out


def reference_split(log, min_len=3):
    users, train, valid_t, test_t, dropped = [], {}, {}, {}, 0
    for user, seq in reference_sequences(log).items():
        if len(seq) < min_len:
            dropped += 1
            continue
        users.append(user)
        train[user], valid_t[user], test_t[user] = seq[:-2], seq[-2], seq[-1]
    return users, train, valid_t, test_t, dropped


def assert_loads_like_reference(path, raw: bytes):
    """The loader matches the reference on a log's bytes: the arrays and
    their dtypes, both maps in order and their files' bytes, or the error
    text."""
    path.write_bytes(raw)
    for suffix in (".users.tsv", ".items.tsv"):
        path.with_name(path.name + suffix).unlink(missing_ok=True)
    try:
        want = reference_load(path)
    except DataError as exc:
        with pytest.raises(DataError) as got:
            load_interactions(path)
        assert str(got.value) == str(exc)
        assert not path.with_name(path.name + ".users.tsv").exists()
        return
    log = load_interactions(path)
    for name in ("user_ids", "item_ids", "timestamps"):
        array = getattr(log, name)
        assert array.dtype == want[name].dtype, name
        assert array.tobytes() == want[name].tobytes(), name    # NaN and -0.0 too
    for name, suffix in (("user_map", ".users.tsv"), ("item_map", ".items.tsv")):
        mapping = getattr(log, name)
        assert type(mapping) is dict
        assert list(mapping.items()) == list(want[name].items()), name
        text = "".join(f"{token}\t{idx}\n" for token, idx in want[name].items())
        assert path.with_name(path.name + suffix).read_bytes() == text.encode(), name
    return log


# Each case is a log's bytes; ids name what it exercises.
LOADER_CASES = {
    "crlf": b"a\tx\t3\r\nb\ty\t1\r\na\ty\t2\r\n",
    "lone-cr": b"a\tx\t3\rb\ty\t1\ra\ty\t2",
    "mixed-newlines": b"a\tx\t3\r\nb\ty\t1\rc\tz\t0\n",
    "blank-lines": b"\n\na\tx\t3\n   \n\t\t\n \t \t \nb\ty\t1\n\n\n",
    "only-tab-blanks": b"\t\t\n\t\t",
    "unicode-blank-lines": "\u3000\na\tx\t1\n\x0c\n\x85\n".encode(),
    "header": b"user\titem\ttimestamp\na\tx\t1\n",
    "header-upper-case": b"USER\tITEM\tTIME\na\tx\t1\n",
    "header-two-fields": b"user\titem\na\tx\t1\n",
    "header-parses-as-data": b"user1\ti\t5\nuser1\tj\t6\n",
    "header-only": b"user\titem\ttimestamp\n",
    "header-on-line-2": b"\nuser\titem\ttimestamp\na\tx\t1\n",
    "bad-count-before-bad-timestamp": b"a\tx\t1\n\nb\ty\nc\tz\tnoon\n",
    "bad-timestamp-before-bad-count": b"a\tx\t1\nc\tz\tnoon\n\nb\ty\n",
    "bad-count-on-line-1": b"a\tx\nb\ty\tzz\n",
    "four-fields": b"a\tx\t1\nb\ty\t2\t3\n",
    "no-trailing-newline": b"a\tx\t1\nb\ty\t2",
    "unicode-tokens": "\u00fcn\u00ef\t\u2603\t1\n\u7528\u6237\t\u7269\t2\n\u00fcn\u00ef\t\u7269\t3\n".encode(),
    "tokens-with-spaces": b" a \t x y \t 1 \na\tx y\t2\n a\tx\t3\n",
    "timestamp-forms": b"a\tx\t1e3\na\ty\tinf\na\tz\tnan\na\tw\t1_000\na\tv\t 7\na\tu\t-0.0\n",
    "timestamp-unicode-digit": "a\tx\t\u0663\n".encode(),
    "timestamp-double-underscore": b"a\tx\t1__0\n",
    "timestamp-blank-field": b"a\tx\t \n",
    "empty-file": b"",
}


class TestLoaderMatchesReference:
    @pytest.mark.parametrize("raw", LOADER_CASES.values(), ids=LOADER_CASES.keys())
    def test_edge_case(self, tmp_path, raw):
        assert_loads_like_reference(tmp_path / "log.tsv", raw)

    def test_cases_cover_errors_and_logs(self, tmp_path):
        """The table is not vacuous: it holds both logs that load and each
        kind of error."""
        errors = []
        path = tmp_path / "log.tsv"
        for raw in LOADER_CASES.values():
            path.write_bytes(raw)
            try:
                reference_load(path)
            except DataError as exc:
                errors.append(str(exc).split(": ", 1)[1])
        assert len(errors) < len(LOADER_CASES)
        for kind in ("expected user", "bad timestamp", "no interaction records"):
            assert any(e.startswith(kind) for e in errors), kind

    token = st.text(alphabet="uab \u00e9\u2603", max_size=3)
    timestamp = st.one_of(st.integers(-5, 10**6).map(str), st.floats(allow_nan=True).map(repr),
                          st.sampled_from(["1e3", "inf", "nan", "1_000", " 7", "x", "", "1__0"]))
    line = st.one_of(st.tuples(token, token, timestamp).map("\t".join),
                     st.text(alphabet="\tu s\x0b1", max_size=5),
                     st.sampled_from(["user\titem\ttimestamp", "User\tx\t1", "user\tx"]))

    @settings(max_examples=150, deadline=None,
              suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(lines=st.lists(line, max_size=12),
           newlines=st.lists(st.sampled_from(["\n", "\r\n", "\r"]), min_size=12, max_size=12),
           trailing=st.booleans())
    def test_generated_logs(self, tmp_path, lines, newlines, trailing):
        text = "".join(line + nl for line, nl in zip(lines, newlines))
        if not trailing and text:
            text = text[:-1]
        assert_loads_like_reference(tmp_path / "log.tsv", text.encode())


class TestSplitMatchesReference:
    """``sequences`` and ``leave_one_out_split`` against per-record loops."""

    CASES = {
        "ties": "u\ta\t1\nv\tb\t1\nu\tc\t1\nv\td\t0\nu\te\t1\nv\tf\t1\n",
        "out-of-order": "u\tlate\t9\nu\tfirst\t1\nu\tmid\t5\nu\tmid2\t5\n",
        "interleaved": "u\ta\t5\nv\tb\t1\nw\tc\t3\nu\td\t2\nv\te\t4\nw\tf\t0\nu\tg\t9\n",
        "user-order-by-time": "late\ta\t9\nlate\tb\t10\nlate\tc\t11\nearly\td\t0\n"
                              "early\te\t1\nearly\tf\t2\nshort\tg\t5\n",
        "nan-timestamps": "u\ta\tnan\nu\tb\t1\nu\tc\tnan\nv\td\tnan\nv\te\t2\nv\tf\t0\n",
    }

    def assert_splits_like_reference(self, log, min_len=3):
        assert list(log.sequences().items()) == list(reference_sequences(log).items())
        users, train, valid_t, test_t, dropped = reference_split(log, min_len)
        ds = leave_one_out_split(log, min_len)
        assert ds.users == users
        assert list(ds.train.items()) == list(train.items())
        assert ds.valid_target == valid_t and ds.test_target == test_t
        assert ds.dropped_users == dropped and ds.num_items == log.num_items
        return ds

    @pytest.mark.parametrize("text", CASES.values(), ids=CASES.keys())
    def test_case(self, tmp_path, text):
        self.assert_splits_like_reference(load_interactions(write(tmp_path, text)), min_len=2)

    def test_users_ordered_by_first_interaction_in_time(self, tmp_path):
        log = load_interactions(write(tmp_path, self.CASES["user-order-by-time"]))
        ds = self.assert_splits_like_reference(log)
        assert ds.users == [log.user_map["early"], log.user_map["late"]]
        assert ds.dropped_users == 1

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(st.integers(1, 6), st.integers(1, 9),
                              st.sampled_from([0.0, 1.0, 2.0, 2.5, 7.0, -1.0, float("nan")])),
                    max_size=40),
           st.integers(2, 4))
    def test_generated_logs(self, records, min_len):
        users, items, times = zip(*records) if records else ((), (), ())
        log = InteractionLog(user_ids=np.array(users, dtype=np.int64),
                             item_ids=np.array(items, dtype=np.int64),
                             timestamps=np.array(times, dtype=np.float64),
                             user_map={f"u{u}": u for u in set(users)},
                             item_map={f"i{i}": i for i in range(1, 10)})
        assert list(log.sequences().items()) == list(reference_sequences(log).items())
        if any(len(s) >= min_len for s in reference_sequences(log).values()):
            self.assert_splits_like_reference(log, min_len)

    def test_bench_shaped_log(self, tmp_path):
        """A generated log of a few thousand lines: heavy-tailed histories,
        users interleaved, many timestamp ties."""
        path = write_generated_log(tmp_path / "big.tsv", 3000, seed=3)
        log = assert_loads_like_reference(path, path.read_bytes())
        self.assert_splits_like_reference(log)


def write_generated_log(path, lines, seed):
    """A log of about ``lines`` lines: users with heavy-tailed history
    lengths, interleaved, Zipf-like items over a 6000-item catalogue, and
    integer timestamps with ties."""
    rng = np.random.default_rng(seed)
    lengths = np.minimum(4 * (1.0 - rng.random(lines)) ** -1.0, 50).astype(int)
    lengths = lengths[:np.searchsorted(np.cumsum(lengths), lines) + 1]
    users = rng.permutation(np.repeat(np.arange(len(lengths)), lengths))
    items = np.minimum(rng.zipf(1.3, len(users)), 6000)
    times = np.sort(rng.integers(0, len(users) // 2, len(users)))
    path.write_text("user\titem\ttimestamp\n" + "".join(
        f"u{u}\ti{i}\t{t}\n" for u, i, t in zip(users.tolist(), items.tolist(), times.tolist())))
    return path


class TestLoadInteractions:
    def test_basic_parse(self, tmp_path):
        p = write(tmp_path, "alice\tapple\t3\nbob\tpear\t1\nalice\tpear\t2\n")
        log = load_interactions(p)
        assert len(log) == 3
        assert log.num_users == 2
        assert log.num_items == 2

    def test_header_skipped(self, tmp_path):
        p = write(tmp_path, "user\titem\ttimestamp\nu1\ti1\t5\n")
        assert len(load_interactions(p)) == 1

    def test_header_only_is_empty(self, tmp_path):
        p = write(tmp_path, "user\titem\ttimestamp\n")
        with pytest.raises(DataError, match="no interaction"):
            load_interactions(p)

    def test_first_line_user_token_is_data(self, tmp_path):
        # a token that merely starts with "user" must not be eaten as a header
        p = write(tmp_path, "user123\titemA\t3.5\nuser123\titemB\t4\n")
        assert len(load_interactions(p)) == 2

    def test_malformed_line_reports_number(self, tmp_path):
        p = write(tmp_path, "u1\ti1\t1\nu2 bad line\n")
        with pytest.raises(DataError, match=":2"):
            load_interactions(p)

    def test_bad_timestamp(self, tmp_path):
        p = write(tmp_path, "u1\ti1\tnoon\n")
        with pytest.raises(DataError, match="timestamp"):
            load_interactions(p)

    def test_missing_file(self, tmp_path):
        with pytest.raises(DataError, match="not found"):
            load_interactions(tmp_path / "absent.tsv")

    def test_out_of_order_timestamps_sorted(self, tmp_path):
        p = write(tmp_path, "u\tlater\t9\nu\tfirst\t1\nu\tmiddle\t5\n")
        log = load_interactions(p)
        seq = log.sequences()[1]
        assert seq == [log.item_map["first"], log.item_map["middle"], log.item_map["later"]]

    def test_tie_keeps_input_order(self, tmp_path):
        p = write(tmp_path, "u\ta\t1\nu\tb\t1\nu\tc\t1\n")
        seq = load_interactions(p).sequences()[1]
        assert seq == [1, 2, 3]

    def test_ids_contiguous_first_seen(self, tmp_path):
        p = write(tmp_path, "u1\tzebra\t1\nu2\tapple\t2\nu1\tapple\t3\n")
        log = load_interactions(p)
        assert log.item_map == {"zebra": 1, "apple": 2}
        assert log.user_map == {"u1": 1, "u2": 2}

    def test_mapping_persisted_alongside(self, tmp_path):
        p = write(tmp_path, "u1\tx\t1\n")
        load_interactions(p)
        assert (tmp_path / "log.tsv.items.tsv").read_text() == "x\t1\n"
        assert (tmp_path / "log.tsv.users.tsv").read_text() == "u1\t1\n"

    def test_round_trip(self, tmp_path):
        log = make_synthetic(5, 20, 2, 6, 0.2, seed=3)
        out = tmp_path / "rt.tsv"
        write_interactions(log, out)
        reloaded = load_interactions(out)
        assert np.array_equal(log.user_ids, reloaded.user_ids)
        assert np.array_equal(log.item_ids, reloaded.item_ids)
        assert np.array_equal(log.timestamps, reloaded.timestamps)

    def test_round_trip_epoch_timestamps(self, tmp_path):
        src = tmp_path / "epoch.tsv"
        src.write_text("u\ta\t1317642061.0\nu\tb\t1317642061.25\nu\tc\t1317699999.5\n")
        log = load_interactions(src)
        out = tmp_path / "epoch_rt.tsv"
        write_interactions(log, out)
        again = load_interactions(out)
        assert np.array_equal(log.timestamps, again.timestamps)


class TestLeaveOneOut:
    def make_log(self, tmp_path, rows):
        text = "".join(f"{u}\t{i}\t{t}\n" for u, i, t in rows)
        return load_interactions(write(tmp_path, text))

    def test_split_definition(self, tmp_path):
        log = self.make_log(tmp_path, [("u", "a", 1), ("u", "b", 2), ("u", "c", 3), ("u", "d", 4)])
        ds = leave_one_out_split(log)
        a, b, c, d = (log.item_map[x] for x in "abcd")
        assert ds.train[1] == [a, b]
        assert ds.valid_target[1] == c
        assert ds.test_target[1] == d
        assert ds.context(1, "valid") == [a, b]
        assert ds.context(1, "test") == [a, b, c]
        assert (ds.target(1, "valid"), ds.target(1, "test")) == (c, d)

    @pytest.mark.parametrize("split", ["Valid", "train", ""])
    def test_unknown_split_rejected(self, tmp_path, split):
        """``target`` used to return the test target for any split but 'valid'."""
        log = self.make_log(tmp_path, [("u", "a", 1), ("u", "b", 2), ("u", "c", 3)])
        ds = leave_one_out_split(log)
        for lookup in (ds.context, ds.target):
            with pytest.raises(ValueError, match="split must be 'valid' or 'test'"):
                lookup(1, split)

    def test_short_users_dropped(self, tmp_path):
        log = self.make_log(tmp_path, [("u1", "a", 1), ("u1", "b", 2),
                                       ("u2", "a", 1), ("u2", "b", 2), ("u2", "c", 3)])
        ds = leave_one_out_split(log, min_len=3)
        assert ds.users == [log.user_map["u2"]]
        assert ds.dropped_users == 1

    def test_no_drop_preserves_count(self, tmp_path):
        log = make_synthetic(8, 30, 1, 5, 0.0, seed=1)
        ds = leave_one_out_split(log)
        assert len(ds.users) == 8
        assert ds.dropped_users == 0

    def test_partition_no_leakage(self, tmp_path):
        log = make_synthetic(6, 25, 2, 5, 0.3, seed=2)
        ds = leave_one_out_split(log)
        for u in ds.users:
            full = log.sequences()[u]
            assert ds.train[u] + [ds.valid_target[u], ds.test_target[u]] == full

    @pytest.mark.parametrize("min_len", [1, 0, -1])
    def test_min_len_below_two_rejected(self, tmp_path, min_len):
        """Two items are held out, so a shorter user has nothing to split."""
        log = self.make_log(tmp_path, [("u", "a", 1), ("v", "a", 1), ("v", "b", 2)])
        with pytest.raises(ConfigError, match="min_len"):
            leave_one_out_split(log, min_len=min_len)

    def test_min_len_two_keeps_empty_prefix(self, tmp_path):
        log = self.make_log(tmp_path, [("u", "a", 1), ("v", "a", 1), ("v", "b", 2)])
        ds = leave_one_out_split(log, min_len=2)
        assert ds.users == [log.user_map["v"]] and ds.train[ds.users[0]] == []

    def test_all_users_too_short(self, tmp_path):
        log = self.make_log(tmp_path, [("u", "a", 1)])
        with pytest.raises(DataError, match="at least"):
            leave_one_out_split(log)


class TestSeqBatch:
    def test_rows_back_to_back(self):
        batch = SeqBatch.from_sequences([[1, 2, 3], [], [7]], max_len=5)
        assert batch.ids.tolist() == [1, 2, 3, 7]
        assert batch.lengths.tolist() == [3, 0, 1]
        assert batch.ids.dtype == batch.lengths.dtype == np.int64

    def test_truncation_keeps_most_recent(self):
        batch = SeqBatch.from_sequences([[1, 2, 3, 4, 5, 6], [8, 9]], max_len=4)
        assert batch.ids.tolist() == [3, 4, 5, 6, 8, 9]
        assert batch.lengths.tolist() == [4, 2]

    @pytest.mark.parametrize("max_len", [0, -1])
    def test_nonpositive_max_len_rejected(self, max_len):
        """``s[-0:]`` keeps every item and ``s[1:]`` drops the oldest, so
        neither would be a cut to the most recent ``max_len``."""
        with pytest.raises(ConfigError, match="max_len must be at least 1"):
            SeqBatch.from_sequences([[1, 2, 3]], max_len)


class TestSynthetic:
    def test_single_cluster_when_clean(self):
        log = make_synthetic(1, 100, 1, 30, 0.0, seed=5)
        items = log.item_ids
        # All 30 items sit inside one small contiguous token cluster;
        # contiguity is over raw tokens, so recover them from the map.
        tokens = sorted(int(tok[1:]) for tok in log.item_map)
        assert max(tokens) - min(tokens) < 10

    def test_deterministic(self):
        a = make_synthetic(4, 40, 2, 6, 0.5, seed=9)
        b = make_synthetic(4, 40, 2, 6, 0.5, seed=9)
        assert np.array_equal(a.item_ids, b.item_ids)
        assert a.item_map == b.item_map

    def test_full_noise_is_uniform(self):
        log = make_synthetic(10, 20, 10, 100, 1.0, seed=13)  # 10k draws
        tokens = np.array(sorted(int(t[1:]) for t in log.item_map))
        assert len(tokens) == 20  # every item seen
        raw = np.array([int(k[1:]) for k, v in sorted(log.item_map.items(), key=lambda kv: kv[1])])
        counts = np.bincount(raw[log.item_ids - 1], minlength=21)[1:]
        assert stats.chisquare(counts).pvalue > 0.001

    def test_acceptance_config_unchanged(self):
        """The acceptance tests' SYNTH config gives the arrays and maps it
        gave when records were mapped to ids one at a time (their hash,
        taken then)."""
        log = make_synthetic(num_users=500, num_items=200, blocks_per_user=4, block_len=25,
                             noise_rate=0.1, seed=42)
        digest = hashlib.sha256()
        for array in (log.user_ids, log.item_ids, log.timestamps):
            digest.update(array.dtype.str.encode())
            digest.update(array.tobytes())
        for mapping in (log.user_map, log.item_map):
            assert type(mapping) is dict
            digest.update(repr(list(mapping.items())).encode())
        assert digest.hexdigest() == "2ca25ad952c8896e269041580a47552ee1a693da5493e9c584b3b699d593cb58"

    def test_one_item_catalogue(self):
        """A cluster is at most the catalogue wide: with one item, every
        draw is that item (the width's floor of 2 once made ``i2``)."""
        log = make_synthetic(3, 1, 2, 5, 0.3, seed=4)
        assert log.item_map == {"i1": 1}
        assert log.item_ids.tolist() == [1] * 30

    def test_bad_noise_rate(self):
        with pytest.raises(DataError, match="noise_rate"):
            make_synthetic(1, 10, 1, 5, 1.5, seed=0)


class TestIngestionMemory:
    """Peak traced bytes per line of ``load_interactions`` and of
    ``leave_one_out_split`` on a generated 60k-line log. The whole-column
    code reads about 232 and 34 (the per-line code read 258 and 41).
    Keeping the file's text and line list alive to the end of the load
    reads 318. In the split, copying each train prefix instead of trimming
    it in place reads 37, one int object per record instead of per item id
    38, and keeping the sort's index arrays alive 50."""

    LINES = 60_000

    @pytest.fixture(scope="class")
    def log_path(self, tmp_path_factory):
        return write_generated_log(tmp_path_factory.mktemp("big") / "log.tsv", self.LINES, seed=1)

    def peak_per_line(self, fn):
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            fn()
            peak = tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()
        return peak / self.LINES

    def test_load(self, log_path):
        assert self.peak_per_line(lambda: load_interactions(log_path)) < 250

    def test_split(self, log_path):
        log = load_interactions(log_path)
        assert self.peak_per_line(lambda: leave_one_out_split(log)) < 36

"""Ingestion, splitting, batching, and the synthetic generator."""

import numpy as np
import pytest
from scipy import stats

from blossomrec.data import (
    SeqBatch,
    SeqContext,
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
        assert len(load_interactions(p, persist_mapping=False)) == 2

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
        reloaded = load_interactions(out, persist_mapping=False)
        assert np.array_equal(log.user_ids, reloaded.user_ids)
        assert np.array_equal(log.item_ids, reloaded.item_ids)
        assert np.array_equal(log.timestamps, reloaded.timestamps)

    def test_round_trip_epoch_timestamps(self, tmp_path):
        src = tmp_path / "epoch.tsv"
        src.write_text("u\ta\t1317642061.0\nu\tb\t1317642061.25\nu\tc\t1317699999.5\n")
        log = load_interactions(src, persist_mapping=False)
        out = tmp_path / "epoch_rt.tsv"
        write_interactions(log, out)
        again = load_interactions(out, persist_mapping=False)
        assert np.array_equal(log.timestamps, again.timestamps)


class TestLeaveOneOut:
    def make_log(self, tmp_path, rows):
        text = "".join(f"{u}\t{i}\t{t}\n" for u, i, t in rows)
        return load_interactions(write(tmp_path, text), persist_mapping=False)

    def test_split_definition(self, tmp_path):
        log = self.make_log(tmp_path, [("u", "a", 1), ("u", "b", 2), ("u", "c", 3), ("u", "d", 4)])
        ds = leave_one_out_split(log)
        a, b, c, d = (log.item_map[x] for x in "abcd")
        assert ds.train[1] == [a, b]
        assert ds.valid_target[1] == c
        assert ds.test_target[1] == d
        assert ds.context(1, "valid") == [a, b]
        assert ds.context(1, "test") == [a, b, c]

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
    def test_left_padding(self):
        batch = SeqBatch.from_sequences([[1, 2, 3], [7]], max_len=5)
        assert batch.ids.tolist() == [[1, 2, 3], [0, 0, 7]]
        assert batch.lengths.tolist() == [3, 1]

    def test_truncation_keeps_most_recent(self):
        batch = SeqBatch.from_sequences([[1, 2, 3, 4, 5, 6]], max_len=4)
        assert batch.ids.tolist() == [[3, 4, 5, 6]]


class TestSeqContext:
    """``pack`` and ``frame_mask`` move arrays between a left-padded frame
    and the packed stream; checked against a loop over the sequences."""

    LENGTHS = np.array([3, 0, 5, 1, 4])
    TOTAL = 6       # wider than the longest, so every frame row has padding

    def newest(self, rows):
        """Per sequence: its query count m and the frame width Lq."""
        width = self.TOTAL if rows is None else min(rows, self.TOTAL)
        return [min(n, width) for n in self.LENGTHS], width

    @pytest.mark.parametrize("rows", [None, 1, 3])
    def test_pack_equals_per_sequence_loop(self, rows):
        ctx = SeqContext.from_lengths(self.LENGTHS, self.TOTAL)
        m, width = self.newest(rows)
        frame = np.random.default_rng(40).normal(size=(len(m), 2, width, 3))
        want = np.concatenate([frame[b, :, width - mb:] for b, mb in enumerate(m)], axis=1)
        assert np.array_equal(ctx.pack(frame, rows), want[None])
        # its rows are the stream rows ``query_rows`` names
        positions = np.concatenate([np.arange(n - mb, n) for n, mb in zip(self.LENGTHS, m)])
        assert np.array_equal(ctx.positions[ctx.query_rows(rows)], positions)

    @pytest.mark.parametrize("rows", [None, 1, 3])
    def test_frame_mask_equals_per_sequence_loop(self, rows):
        """A random index of 4 slots over each query's own segment, 2 KV
        groups, some slots not valid."""
        ctx = SeqContext.from_lengths(self.LENGTHS, self.TOTAL)
        m, width = self.newest(rows)
        rng = np.random.default_rng(41)
        starts = np.cumsum(self.LENGTHS) - self.LENGTHS
        seg = np.repeat(np.arange(len(m)), m)
        pos = rng.integers(0, self.LENGTHS[seg][:, None], size=(1, 2, len(seg), 4))
        idx, valid = starts[seg][:, None] + pos, rng.random(pos.shape) < 0.7
        want = np.zeros((len(m), 2, 1, width, self.TOTAL), dtype=bool)
        r = 0
        for b, (n, mb) in enumerate(zip(self.LENGTHS, m)):
            for j in range(mb):
                for g in range(2):
                    for p, ok in zip(pos[0, g, r], valid[0, g, r]):
                        want[b, g, 0, width - mb + j, self.TOTAL - n + p] |= ok
                r += 1
        got = ctx.frame_mask(idx, valid, rows)
        assert np.array_equal(got, want)
        assert got.sum() > 10
        # padding slots are neither queries nor keys
        for b, (n, mb) in enumerate(zip(self.LENGTHS, m)):
            assert not got[b, :, :, :width - mb].any()
            assert not got[b, ..., :self.TOTAL - n].any()


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

    def test_bad_noise_rate(self):
        with pytest.raises(DataError, match="noise_rate"):
            make_synthetic(1, 10, 1, 5, 1.5, seed=0)

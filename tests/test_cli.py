"""CLI behavior: commands, exit codes, config precedence, determinism."""

import dataclasses
import json

import numpy as np
import pytest

from blossomrec.cli import main
from blossomrec.config import AttentionConfig, RunConfig, parse_config_file, resolve_run_config
from blossomrec.data import leave_one_out_split, load_interactions
from blossomrec.errors import ConfigError
from blossomrec.model import Model, save_checkpoint
from blossomrec.verify import brute_force_power_mask

TINY = ["--d-model", "8", "--d-head", "4", "--heads", "2", "--kv-groups", "1",
        "--block-size", "4", "--stride", "2", "--sel-block-size", "2", "--top-k", "2",
        "--win", "2", "--blk", "1", "--max-len", "16", "--batch-size", "16",
        "--negatives", "10", "--layers", "1"]
TINY_ATTENTION = AttentionConfig(d_model=8, d_head=4, heads=2, kv_groups=1, block_size=4,
                                 stride=2, sel_block_size=2, top_k=2, win=2, blk=1)


@pytest.fixture(scope="module")
def synth_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("data") / "synth.tsv"
    code = main(["synth", "--users", "50", "--items", "40", "--blocks", "2",
                 "--block-len", "8", "--noise", "0.1", "--seed", "5", "--out", str(path)])
    assert code == 0
    return path


def run_train(synth_path, out_dir, extra=()):
    return main(["train", "--dataset", str(synth_path), "--out-dir", str(out_dir),
                 "--epochs", "2", "--seed", "7", "--lr", "0.01", "--dropout", "0.1",
                 *TINY, *extra])


class TestTrainCommand:
    def test_metric_log_line_count(self, synth_path, tmp_path):
        assert run_train(synth_path, tmp_path / "run") == 0
        lines = (tmp_path / "run" / "metrics.jsonl").read_text().splitlines()
        assert len(lines) == 2
        assert all("train_loss" in json.loads(line) for line in lines)

    def test_missing_dataset_exits_3(self, tmp_path):
        code = main(["train", "--dataset", str(tmp_path / "absent.tsv"),
                     "--out-dir", str(tmp_path / "x"), *TINY])
        assert code == 3

    def test_seeded_training_byte_identical(self, synth_path, tmp_path):
        run_train(synth_path, tmp_path / "a")
        run_train(synth_path, tmp_path / "b")
        log_a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
        log_b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
        assert log_a == log_b

    def test_validation_that_ranks_no_user_exits_3(self, synth_path, tmp_path, capsys):
        """With 100 negatives over 40 items, no user has enough unseen
        items to be ranked. Training once logged every validation metric
        as 0.0 and wrote the first epoch's checkpoint."""
        out_dir = tmp_path / "none"
        assert run_train(synth_path, out_dir, extra=("--negatives", "100")) == 3
        err = capsys.readouterr().err
        assert err.startswith("data error: validation ranked no user: all 50 ")
        assert "fewer than 100 unseen items" in err
        assert (out_dir / "metrics.jsonl").read_text() == ""
        assert not (out_dir / "checkpoint.npz").exists()

    def test_bad_config_key_exits_2(self, synth_path, tmp_path):
        cfg_file = tmp_path / "bad.cfg"
        cfg_file.write_text("warp_speed = 9\n")
        code = main(["train", "--dataset", str(synth_path), "--out-dir", str(tmp_path / "y"),
                     "--config", str(cfg_file), *TINY])
        assert code == 2

    @pytest.mark.parametrize("flag, value", [
        ("--batch-size", "0"), ("--epochs", "0"), ("--max-len", "0"), ("--layers", "0"),
        ("--eval-k", "0"), ("--negatives", "0"), ("--lr", "0"), ("--lr", "-0.01"),
        ("--min-len", "1"), ("--min-len", "0")])
    def test_out_of_range_setting_exits_2(self, synth_path, tmp_path, capsys, flag, value):
        out_dir = tmp_path / "z"
        assert run_train(synth_path, out_dir, extra=(flag, value)) == 2
        err = capsys.readouterr().err
        assert err.startswith("config error: ")
        assert flag[2:].replace("-", "_") in err
        assert not (out_dir / "checkpoint.npz").exists()


    def test_log_not_utf8_is_a_data_error(self, tmp_path, capsys):
        """A 0xff byte used to end train and eval with a UnicodeDecodeError
        traceback (exit 1)."""
        bad = tmp_path / "bad.tsv"
        bad.write_bytes(b"u1\ti1\t1\nu1\t\xffi2\t2\nu1\ti3\t3\n")
        checkpoint = tmp_path / "model.npz"
        save_checkpoint(Model(3, TINY_ATTENTION, 1, seed=0, max_len=16), checkpoint)
        capsys.readouterr()
        for argv in (["train", "--dataset", str(bad), "--out-dir", str(tmp_path / "x"), *TINY],
                     ["eval", "--checkpoint", str(checkpoint), "--dataset", str(bad)]):
            assert main(argv) == 3, argv[0]
            err = capsys.readouterr().err
            assert err.startswith("data error: ") and str(bad) in err, argv[0]


class TestEvalCommand:
    def test_eval_trained_checkpoint(self, synth_path, tmp_path, capsys):
        run_train(synth_path, tmp_path / "run")
        code = main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
                     "--dataset", str(synth_path), "--split", "test",
                     "--negatives", "10", "--seed", "7"])
        assert code == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        assert set(out) >= {"recall@10", "mrr@10", "ndcg@10", "num_users"}
        assert out["num_users"] == 50

    def test_vocab_mismatch_exits_4(self, synth_path, tmp_path):
        run_train(synth_path, tmp_path / "run")
        other = tmp_path / "other.tsv"
        main(["synth", "--users", "10", "--items", "80", "--blocks", "1",
              "--block-len", "6", "--noise", "0.0", "--seed", "1", "--out", str(other)])
        code = main(["eval", "--checkpoint", str(tmp_path / "run" / "checkpoint.npz"),
                     "--dataset", str(other), "--negatives", "10"])
        assert code == 4

    def test_unreadable_checkpoint_exits_4(self, synth_path, tmp_path, capsys):
        code = main(["eval", "--checkpoint", str(tmp_path / "ghost.npz"),
                     "--dataset", str(synth_path)])
        assert code == 4
        assert run_train(synth_path, tmp_path / "run") == 0
        with np.load(tmp_path / "run" / "checkpoint.npz") as archive:
            arrays = dict(archive)
        meta = json.loads(arrays["__meta__"].tobytes())
        attention = meta["config"].pop("attention")
        no_win = {**meta, "config": {**meta["config"],
                                     "attention": {k: v for k, v in attention.items() if k != "win"}}}
        extra = {**meta, "config": {**meta["config"], "attention": {**attention, "window": 3}}}
        geometry = {**meta, "config": {**meta["config"], "attention": {**attention, "stride": 3}}}
        bogus = {**meta, "config": {**meta["config"], "attention": attention, "pathway": "bogus"}}
        no_layers = {**meta, "config": {**meta["config"], "attention": attention, "num_layers": 0}}
        headers = {"not-json": (b"{version: 2", None),
                   "no-config": (json.dumps({"version": meta["version"]}).encode(), None),
                   "no-field": (json.dumps(meta).encode(), None),
                   "no-attention-field": (json.dumps(no_win).encode(), "'win'"),
                   "unknown-attention-field": (json.dumps(extra).encode(), "'window'"),
                   "bad-geometry": (json.dumps(geometry).encode(), "stride (3)"),
                   "unknown-pathway": (json.dumps(bogus).encode(), "'bogus'"),
                   "no-layers": (json.dumps(no_layers).encode(), "at least one layer")}
        capsys.readouterr()
        for name, (header, named) in headers.items():
            path = tmp_path / f"{name}.npz"
            np.savez(path, **{**arrays, "__meta__": np.frombuffer(header, dtype=np.uint8)})
            code = main(["eval", "--checkpoint", str(path), "--dataset", str(synth_path)])
            assert code == 4, name
            err = capsys.readouterr().err
            assert err.startswith("checkpoint error: "), name
            assert named is None or named in err, name


    @pytest.mark.parametrize("key, value", [
        ("num_layers", "2"), ("win", "8"), ("max_len", -5), ("dropout", 1.5), ("num_items", 0),
        ("seed", -1)])
    def test_bad_header_value_exits_4(self, synth_path, tmp_path, capsys, key, value):
        """A header value of the wrong type or out of range is a checkpoint
        error naming the field, not a traceback or a model that loads."""
        num_items = leave_one_out_split(load_interactions(synth_path)).num_items
        path = tmp_path / "model.npz"
        save_checkpoint(Model(num_items, TINY_ATTENTION, 1, seed=0, max_len=16), path)
        with np.load(path) as archive:
            arrays = dict(archive)
        meta = json.loads(arrays["__meta__"].tobytes())
        config = meta["config"]
        (config["attention"] if key in config["attention"] else config)[key] = value
        arrays["__meta__"] = np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8)
        np.savez(path, **arrays)
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(path), "--dataset", str(synth_path)])
        err = capsys.readouterr().err
        assert code == 4
        assert err.startswith("checkpoint error: ") and key in err


class TestReportCommand:
    def test_paper_default_totals(self, capsys):
        assert main(["report", "--paper-defaults", "--lengths", "256,512,1024,2048",
                     "--format", "json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        totals = [row["total"] for row in payload["participating"]]
        assert totals == [103, 120, 153, 218]

    def test_reduction_prints_89_4(self, capsys):
        main(["report", "--paper-defaults", "--lengths", "2048"])
        assert "89.4%" in capsys.readouterr().out

    def test_deterministic_output(self, capsys):
        main(["report", "--lengths", "256", "--paper-defaults"])
        first = capsys.readouterr().out
        main(["report", "--lengths", "256", "--paper-defaults"])
        assert capsys.readouterr().out == first

    def test_custom_geometry_flags(self, capsys):
        assert main(["report", "--lengths", "64", "--win", "2", "--blk", "2",
                     "--block-size", "8", "--stride", "4", "--sel-block-size", "4",
                     "--top-k", "2", "--format", "json"]) == 0
        row = json.loads(capsys.readouterr().out)["participating"][0]
        assert row["num_cmp_blocks"] == (64 - 8) // 4 + 1
        assert row["window"] == 2 * 2 * 2 - 1
        assert row["selected"] == 2 * 4


    @pytest.mark.parametrize("extra", [["--win", "2"], ["--config", "geometry.cfg"]],
                             ids=["win", "config"])
    def test_paper_defaults_with_geometry_exits_2(self, extra, tmp_path, monkeypatch, capsys):
        """``--paper-defaults`` fixes the geometry, so a geometry flag or a
        config file next to it is an error, not silently ignored."""
        monkeypatch.chdir(tmp_path)
        (tmp_path / "geometry.cfg").write_text("win = 2\n")
        assert main(["report", "--paper-defaults", "--lengths", "256", *extra]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ") and "--paper-defaults" in captured.err
        assert captured.out == ""

    @pytest.mark.parametrize("lengths", ["0", "-5", "256,0", "abc"])
    def test_bad_lengths_exit_2(self, capsys, lengths):
        assert main(["report", "--paper-defaults", "--lengths", lengths]) == 2
        captured = capsys.readouterr()
        assert captured.err.startswith("config error: ")
        assert captured.out == ""


class TestDumpMaskCommand:
    def test_pair_count_matches_brute_force(self, tmp_path, capsys):
        out = tmp_path / "mask.csv"
        assert main(["dump-mask", "--length", "8", "--blk", "1", "--win", "2",
                     "--out", str(out)]) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "row,visible_index"
        cfg = AttentionConfig(blk=1, win=2)
        expected = int(brute_force_power_mask(8, cfg).sum())
        assert len(lines) - 1 == expected

    def test_length_one(self, tmp_path):
        out = tmp_path / "one.csv"
        main(["dump-mask", "--length", "1", "--out", str(out)])
        assert out.read_text().splitlines() == ["row,visible_index", "0,0"]

    def test_idempotent_overwrite(self, tmp_path):
        out = tmp_path / "m.csv"
        main(["dump-mask", "--length", "16", "--out", str(out)])
        first = out.read_bytes()
        main(["dump-mask", "--length", "16", "--out", str(out)])
        assert out.read_bytes() == first

    def test_unwritable_path_exits_5(self, tmp_path):
        assert main(["dump-mask", "--length", "4",
                     "--out", str(tmp_path / "no" / "dir" / "m.csv")]) == 5

    @pytest.mark.parametrize("length", ["0", "-3"])
    def test_nonpositive_length_exits_2(self, tmp_path, capsys, length):
        out = tmp_path / "m.csv"
        assert main(["dump-mask", "--length", length, "--out", str(out)]) == 2
        assert capsys.readouterr().err.startswith("config error: ")
        assert not out.exists()


class TestConfigPrecedence:
    def test_flags_beat_file_beats_defaults(self, tmp_path):
        cfg_file = tmp_path / "run.cfg"
        cfg_file.write_text("win = 4\nblk = 2\nseed = 99\n")
        merged = resolve_run_config(parse_config_file(cfg_file), {"win": 6})
        assert merged.win == 6        # flag wins
        assert merged.blk == 2        # file beats default
        assert merged.seed == 99
        assert merged.heads == RunConfig().heads  # untouched default

    def test_env_seed_fallback(self, monkeypatch):
        monkeypatch.setenv("BLOSSOM_SEED", "321")
        assert resolve_run_config(None, {}).seed == 321
        # explicit seed beats the environment
        assert resolve_run_config(None, {"seed": 1}).seed == 1

    def test_unknown_key_raises(self):
        with pytest.raises(ConfigError, match="unknown"):
            resolve_run_config({"quantum": 3}, None)

    def test_config_file_syntax(self, tmp_path):
        bad = tmp_path / "bad.cfg"
        bad.write_text("this is not a pair\n")
        with pytest.raises(ConfigError, match="key = value"):
            parse_config_file(bad)

    @pytest.mark.parametrize("bad", [{"lr": -1.0}, {"epochs": 0}, {"batch_size": 0},
                                     {"pathway": "dense"}, {"patience": -5}, {"min_len": 0}],
                             ids=lambda bad: next(iter(bad)))
    def test_run_config_checks_itself(self, bad):
        """A RunConfig built directly, as ``train`` may be handed one, is
        checked as one ``resolve_run_config`` merges is."""
        with pytest.raises(ConfigError, match=next(iter(bad))):
            RunConfig(**bad)

    def test_comments_and_blanks(self, tmp_path):
        f = tmp_path / "ok.cfg"
        f.write_text("# comment\n\nwin = 3  # trailing\n")
        assert parse_config_file(f) == {"win": 3}


class TestSeedFallback:
    """BLOSSOM_SEED applies only to the commands that read a seed."""

    @pytest.mark.parametrize("argv", [
        ["report", "--lengths", "256"],
        ["dump-mask", "--length", "4", "--out", "mask.csv"],
    ], ids=["report", "dump-mask"])
    def test_command_without_seed_ignores_it(self, argv, tmp_path, monkeypatch):
        monkeypatch.chdir(tmp_path)
        monkeypatch.setenv("BLOSSOM_SEED", "abc")
        assert main(argv) == 0

    @pytest.mark.parametrize("command", ["train", "synth"])
    def test_command_with_seed_rejects_bad_value(self, command, synth_path, tmp_path,
                                                 monkeypatch, capsys):
        monkeypatch.setenv("BLOSSOM_SEED", "abc")
        argv = {"train": ["train", "--dataset", str(synth_path),
                          "--out-dir", str(tmp_path / "run"), *TINY],
                "synth": ["synth", "--out", str(tmp_path / "log.tsv")]}[command]
        assert main(argv) == 2
        assert "BLOSSOM_SEED must be an integer" in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestNegativeSeed:
    """A negative seed is a config error (exit 2) on every command that
    reads one, before any output is written."""

    @pytest.mark.parametrize("command", ["train", "eval", "synth"])
    def test_exits_2(self, command, synth_path, tmp_path, capsys):
        checkpoint = tmp_path / "model.npz"
        num_items = leave_one_out_split(load_interactions(synth_path)).num_items
        save_checkpoint(Model(num_items, TINY_ATTENTION, 1, seed=0, max_len=16), checkpoint)
        argv = {"train": ["train", "--dataset", str(synth_path),
                          "--out-dir", str(tmp_path / "run"), *TINY],
                "eval": ["eval", "--checkpoint", str(checkpoint), "--dataset", str(synth_path)],
                "synth": ["synth", "--out", str(tmp_path / "log.tsv")]}[command]
        capsys.readouterr()
        assert main([*argv, "--seed", "-1"]) == 2
        out = capsys.readouterr()
        assert out.out == "" and "seed must be non-negative, got -1" in out.err
        assert sorted(p.name for p in tmp_path.iterdir()) == ["model.npz"]


class TestUnreadFlags:
    """Each command registers only the config flags it reads, so any other
    is a usage error (exit 2) instead of being ignored."""

    @pytest.mark.parametrize("argv", [
        ["verify", "--quick", "--lr", "0"],
        ["verify", "--quick", "--config", "run.cfg"],
        ["synth", "--out", "log.tsv", "--lr", "0.1"],
        ["dump-mask", "--length", "4", "--out", "mask.csv", "--lr", "0.1"],
        ["report", "--lengths", "64", "--seed", "3"],
        ["eval", "--checkpoint", "checkpoint.npz", "--top-k", "3"],
    ], ids=["verify-lr", "verify-config", "synth-lr", "dump-mask-lr", "report-seed",
            "eval-top-k"])
    def test_unread_flag_is_a_usage_error(self, argv, tmp_path, monkeypatch, capsys):
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "unrecognized arguments: " + argv[-2] in capsys.readouterr().err
        assert not any(tmp_path.iterdir())


class TestSharedConfigFile:
    """A command reads and checks only its own keys of a --config file."""

    def test_other_commands_key_is_not_read(self, synth_path, tmp_path, capsys):
        cfg_file = tmp_path / "shared.cfg"
        cfg_file.write_text("lr = 0\nseed = 5\n")
        out = tmp_path / "log.tsv"
        assert main(["synth", "--users", "5", "--items", "10", "--out", str(out),
                     "--config", str(cfg_file)]) == 0
        assert out.exists()
        code = main(["train", "--dataset", str(synth_path), "--out-dir", str(tmp_path / "run"),
                     "--config", str(cfg_file), *TINY])
        assert code == 2
        assert "lr must be positive" in capsys.readouterr().err
        assert not (tmp_path / "run" / "checkpoint.npz").exists()

    def test_own_keys_are_read(self, tmp_path):
        cfg_file = tmp_path / "shared.cfg"
        cfg_file.write_text("lr = 0\nseed = 5\n")
        a, b = tmp_path / "a.tsv", tmp_path / "b.tsv"
        main(["synth", "--users", "5", "--items", "10", "--out", str(a), "--config", str(cfg_file)])
        main(["synth", "--users", "5", "--items", "10", "--out", str(b), "--seed", "5"])
        assert a.read_bytes() == b.read_bytes()


class TestVerifyCommand:
    def test_quick_suite_passes(self, capsys):
        assert main(["verify", "--quick"]) == 0
        out = capsys.readouterr().out
        assert "FAIL" not in out
        assert out.count("PASS") == 8


class TestDefaults:
    def test_config_file_keys_cover_every_field(self):
        from blossomrec.config import _RUN_FIELD_TYPES

        fields = set(RunConfig.__dataclass_fields__)
        assert set(_RUN_FIELD_TYPES) | {"dataset"} == fields

    def test_published_training_defaults(self):
        run = RunConfig()
        assert (run.d_model, run.layers, run.heads) == (128, 2, 8)
        assert (run.lr, run.batch_size, run.dropout) == (0.001, 2048, 0.2)
        assert (run.patience, run.max_len) == (15, 200)
        assert (run.block_size, run.stride, run.sel_block_size) == (32, 16, 16)
        assert (run.top_k, run.win, run.blk) == (4, 8, 1)
        assert (run.eval_k, run.negatives) == (10, 100)
        assert run.attention() == AttentionConfig()

    def test_run_config_fields_unchanged(self):
        """The flat config keys (config file, flags) with their types and
        defaults, written out so that moving where a field is declared
        cannot change one."""
        want = {
            "dataset": ("str", ""), "d_model": ("int", 128), "layers": ("int", 2),
            "heads": ("int", 8), "kv_groups": ("int", 2), "d_head": ("int", 16),
            "block_size": ("int", 32), "stride": ("int", 16), "sel_block_size": ("int", 16),
            "top_k": ("int", 4), "win": ("int", 8), "blk": ("int", 1),
            "max_len": ("int", 200), "lr": ("float", 0.001), "batch_size": ("int", 2048),
            "dropout": ("float", 0.2), "seed": ("int", 0), "epochs": ("int", 200),
            "patience": ("int", 15), "eval_k": ("int", 10), "negatives": ("int", 100),
            "min_len": ("int", 3), "pathway": ("str", "both"),
        }
        got = {f.name: (f.type, f.default) for f in dataclasses.fields(RunConfig)}
        assert got == want
        assert RunConfig().attention() == AttentionConfig()


class TestEvalAgainstRandomBaseline:
    def test_untrained_model_matches_random_ranking(self, tmp_path, capsys):
        """Pure-noise data (no repetition signal): an untrained model must
        rank like chance, recall@10 ~ 10/101 within 3 sigma."""
        path = tmp_path / "noise.tsv"
        main(["synth", "--users", "200", "--items", "300", "--blocks", "1",
              "--block-len", "12", "--noise", "1.0", "--seed", "17", "--out", str(path)])
        capsys.readouterr()
        num_items = leave_one_out_split(load_interactions(path)).num_items
        save_checkpoint(Model(num_items, TINY_ATTENTION, 1, seed=1, max_len=16),
                        tmp_path / "checkpoint.npz")
        assert main(["eval", "--checkpoint", str(tmp_path / "checkpoint.npz"),
                     "--dataset", str(path), "--split", "test", "--negatives", "100",
                     "--seed", "1"]) == 0
        out = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
        p = 10 / 101
        sigma = np.sqrt(p * (1 - p) / out["num_users"])
        assert abs(out["recall@10"] - p) <= 3 * sigma

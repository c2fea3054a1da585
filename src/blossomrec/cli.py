"""Command-line entry point.

Commands: train, eval, report, dump-mask, synth, verify. Exit codes are
fixed so scripts can branch: 0 ok, 2 config error or usage error,
3 data error, 4 checkpoint error, 5 io error. Each command registers only
the config flags it reads, so any other is a usage error: train takes
them all, eval --dataset, the evaluation settings and --seed, report and
dump-mask the attention geometry, synth --seed, verify none. A --config
file is read for those same keys only: one file can serve every command,
and a command neither reads nor checks the keys that are another
command's. ``report --paper-defaults`` takes no geometry flag and no
--config. train, eval and synth fall back to BLOSSOM_SEED when no seed is
set, and every command is bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from . import analysis, data as data_mod, model as model_mod
from .config import (_RUN_FIELD_TYPES, AttentionConfig, RunConfig, parse_config_file,
                     resolve_run_config)
from .errors import CheckpointError, ConfigError, DataError
from .stis import power_table

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_CHECKPOINT = 4
EXIT_IO = 5

_CONFIG_FLAGS = list(RunConfig.__dataclass_fields__)
_ATTENTION_FLAGS = list(AttentionConfig.__dataclass_fields__)


def _add_config_flags(parser: argparse.ArgumentParser, names: list[str]) -> None:
    for name in names:
        parser.add_argument(f"--{name.replace('_', '-')}", dest=name, default=None,
                            type=_RUN_FIELD_TYPES[name])
    parser.add_argument("--config", default=None, help="flat key = value config file")
    parser.set_defaults(config_keys=tuple(names))


def _resolve(args: argparse.Namespace) -> RunConfig:
    """The command's config: defaults < --config < flags, over only the
    keys the command registered; the file's other keys are not read."""
    keys = args.config_keys
    file_values = parse_config_file(args.config) if args.config else {}
    flags = {k: getattr(args, k) for k in keys}
    if "seed" not in keys:   # the seed is unused, so BLOSSOM_SEED must not fail the command
        flags["seed"] = RunConfig.seed
    return resolve_run_config({k: v for k, v in file_values.items() if k in keys}, flags)


def cmd_train(args: argparse.Namespace) -> int:
    run = _resolve(args)
    if not run.dataset:
        raise DataError("train needs a dataset path (--dataset)")
    out_dir = Path(args.out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    log = data_mod.load_interactions(run.dataset)
    dataset = data_mod.leave_one_out_split(log, min_len=run.min_len)
    model = model_mod.Model(dataset.num_items, run.attention(), run.layers,
                            seed=run.seed, max_len=run.max_len,
                            dropout=run.dropout, pathway=run.pathway)
    metrics_path = out_dir / "metrics.jsonl"
    with metrics_path.open("w") as fh:
        def log_line(record: dict) -> None:
            fh.write(json.dumps(record, sort_keys=True) + "\n")
            fh.flush()

        state = model_mod.train(model, dataset, run, log_line=log_line)
    ckpt_path = out_dir / "checkpoint.npz"
    model_mod.save_checkpoint(model, ckpt_path)
    print(json.dumps({
        "epochs_run": state.epoch,
        "best_epoch": state.best_epoch,
        "best_valid_ndcg": state.best_metric,
        "checkpoint": str(ckpt_path),
        "metrics_log": str(metrics_path),
    }, sort_keys=True))
    return EXIT_OK


def cmd_eval(args: argparse.Namespace) -> int:
    model = model_mod.load_checkpoint(args.checkpoint)
    run = _resolve(args)
    if not run.dataset:
        raise DataError("eval needs a dataset path (--dataset)")
    log = data_mod.load_interactions(run.dataset)
    dataset = data_mod.leave_one_out_split(log, min_len=run.min_len)
    if dataset.num_items != model.num_items:
        raise CheckpointError(
            f"checkpoint was trained on {model.num_items} items, dataset has {dataset.num_items}")
    result = model_mod.evaluate(model, dataset, split=args.split, k=run.eval_k,
                                n_negatives=run.negatives, seed=run.seed)
    print(json.dumps(result.as_dict(), sort_keys=True))
    return EXIT_OK


def _report_config(args: argparse.Namespace) -> AttentionConfig:
    if args.paper_defaults:
        if args.config or any(getattr(args, k) is not None for k in args.config_keys):
            raise ConfigError("--paper-defaults takes no attention flag and no --config")
        return AttentionConfig()
    return _resolve(args).attention()


def _check_length(length: int) -> int:
    if length < 1:
        raise ConfigError(f"sequence length must be at least 1, got {length}")
    return length


def cmd_report(args: argparse.Namespace) -> int:
    cfg = _report_config(args)
    try:
        lengths = [int(x) for x in args.lengths.split(",") if x]
    except ValueError:
        raise ConfigError(f"--lengths takes comma-separated integers, got {args.lengths!r}") from None
    lengths = [_check_length(length) for length in lengths]
    reports = [analysis.count_participating(length, cfg) for length in lengths]
    complexities = [analysis.complexity_report(length, cfg) for length in lengths]
    if args.format == "json":
        print(json.dumps({
            "participating": [r.as_dict() for r in reports],
            "complexity": complexities,
        }, sort_keys=True))
        return EXIT_OK
    header = f"{'L':>6} {'M':>5} {'cmp':>5} {'sel':>5} {'win':>5} {'pow':>5} {'last':>5} {'total':>6} {'dedup':>6} {'reduction':>10}"
    print(header)
    for r in reports:
        print(f"{r.length:>6} {r.num_cmp_blocks:>5} {r.compressed:>5} {r.selected:>5} "
              f"{r.window:>5} {r.power:>5} {r.last_block:>5} {r.total:>6} {r.dedup_union:>6} "
              f"{100.0 * r.reduction:>9.1f}%")
    print()
    print(f"{'L':>6} {'dense':>14} {'stated total':>14} {'ratio':>10}   gather-vs-stated note")
    for c in complexities:
        print(f"{c['length']:>6} {c['dense']:>14} {c['blossom_total_stated']:>14} "
              f"{c['ratio_vs_dense']:>10.4f}   actual per-query gather {c['ltis_attention_actual_per_query_gather']}"
              f" vs stated {c['ltis_attention_stated']}")
    return EXIT_OK


def cmd_dump_mask(args: argparse.Namespace) -> int:
    cfg = _resolve(args).attention()
    idx, valid = power_table(cfg, _check_length(args.length))
    rows = valid.nonzero()[0]
    out = Path(args.out)
    try:
        with out.open("w") as fh:
            fh.write("row,visible_index\n")
            fh.writelines(f"{i},{j}\n" for i, j in zip(rows.tolist(), idx[valid].tolist()))
    except OSError as exc:
        print(f"cannot write {out}: {exc}", file=sys.stderr)
        return EXIT_IO
    print(f"wrote {len(rows)} visible pairs for L={args.length} to {out}")
    return EXIT_OK


def cmd_synth(args: argparse.Namespace) -> int:
    run = _resolve(args)
    log = data_mod.make_synthetic(args.users, args.items, args.blocks,
                                  args.block_len, args.noise, run.seed)
    data_mod.write_interactions(log, args.out)
    print(f"wrote {len(log)} interactions for {log.num_users} users / {log.num_items} items to {args.out}")
    return EXIT_OK


def cmd_verify(args: argparse.Namespace) -> int:
    from .verify import run_verification

    ok = run_verification(quick=args.quick)
    return EXIT_OK if ok else 1


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(prog="blossomrec",
                                     description="Block-level fused sparse attention recommender")
    sub = parser.add_subparsers(dest="command", required=True)

    p_train = sub.add_parser("train", help="train a model and write checkpoint + metric log")
    p_train.add_argument("--out-dir", required=True)
    _add_config_flags(p_train, _CONFIG_FLAGS)
    p_train.set_defaults(func=cmd_train)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint with sampled negatives")
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=("valid", "test"), default="test")
    _add_config_flags(p_eval, ["dataset", "min_len", "eval_k", "negatives", "seed"])
    p_eval.set_defaults(func=cmd_eval)

    p_report = sub.add_parser("report", help="participating-interaction and complexity tables")
    p_report.add_argument("--lengths", default="256,512,1024,2048")
    p_report.add_argument("--paper-defaults", action="store_true",
                          help="use the published hyperparameter settings")
    p_report.add_argument("--format", choices=("table", "json"), default="table")
    _add_config_flags(p_report, _ATTENTION_FLAGS)
    p_report.set_defaults(func=cmd_report)

    p_dump = sub.add_parser("dump-mask",
                            help="write the causal power mask as row,visible_index CSV")
    p_dump.add_argument("--length", type=int, required=True)
    p_dump.add_argument("--out", required=True)
    _add_config_flags(p_dump, _ATTENTION_FLAGS)
    p_dump.set_defaults(func=cmd_dump_mask)

    p_synth = sub.add_parser("synth", help="generate a synthetic interaction log")
    p_synth.add_argument("--users", type=int, default=500)
    p_synth.add_argument("--items", type=int, default=200)
    p_synth.add_argument("--blocks", type=int, default=4)
    p_synth.add_argument("--block-len", type=int, default=25)
    p_synth.add_argument("--noise", type=float, default=0.1)
    p_synth.add_argument("--out", required=True)
    _add_config_flags(p_synth, ["seed"])
    p_synth.set_defaults(func=cmd_synth)

    p_verify = sub.add_parser("verify", help="run the oracle and gradient suites")
    p_verify.add_argument("--quick", action="store_true", help="smaller seeds/sizes")
    p_verify.set_defaults(func=cmd_verify)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except DataError as exc:
        print(f"data error: {exc}", file=sys.stderr)
        return EXIT_DATA
    except CheckpointError as exc:
        print(f"checkpoint error: {exc}", file=sys.stderr)
        return EXIT_CHECKPOINT
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())

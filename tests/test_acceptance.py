"""Acceptance criteria, one test per criterion, at their stated tolerances.

Run with ``pytest tests/test_acceptance.py -v -s`` to see one PASS/FAIL
line per criterion.
"""

import json
import time

import pytest

from blossomrec.analysis import count_participating
from blossomrec.cli import main
from blossomrec.config import PATHWAYS, AttentionConfig, RunConfig
from blossomrec.data import leave_one_out_split, make_synthetic, write_interactions
from blossomrec.model import Model, evaluate, evaluate_popularity, train
from blossomrec.stis import power_table
from blossomrec.verify import dense_equivalence_error, gradient_error, mask_law_holds


def _report(num: int, name: str, ok: bool, detail: str = "") -> None:
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num} ({name}): {detail}")


# -- criterion 5/6 shared training runs -------------------------------------

SYNTH = dict(num_users=500, num_items=200, blocks_per_user=4, block_len=25,
             noise_rate=0.1, seed=42)
DESK_CFG = dict(block_size=32, stride=16, sel_block_size=16, top_k=4, win=8, blk=1,
                heads=4, kv_groups=2, d_model=32, d_head=8)
# Batch 32 rather than a user-count-sized batch: the gate needs enough
# optimizer steps within 20 epochs to learn to downweight the pathway
# whose blocks are ranked through a fixed random projection (selection
# passes no gradient, so that projection is never trained).
DESK_RUN = dict(d_model=32, d_head=8, heads=4, kv_groups=2, layers=1, max_len=100,
                lr=0.006, batch_size=32, dropout=0.1, seed=42, epochs=20,
                patience=50, eval_k=10, negatives=100)


@pytest.fixture(scope="module")
def desk_dataset():
    return leave_one_out_split(make_synthetic(**SYNTH))


def _train_desk_model(dataset, pathway: str):
    cfg = AttentionConfig(**DESK_CFG)
    run = RunConfig(pathway=pathway, **DESK_RUN)
    model = Model(dataset.num_items, cfg, run.layers, seed=run.seed,
                  max_len=run.max_len, dropout=run.dropout, pathway=pathway)
    train(model, dataset, run)
    return model


@pytest.fixture(scope="module")
def trained(desk_dataset):
    start = time.time()
    model = _train_desk_model(desk_dataset, "both")
    return model, time.time() - start


def test_criterion_1_published_interaction_totals(capsys):
    start = time.time()
    code = main(["report", "--paper-defaults", "--lengths", "256,512,1024,2048",
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    elapsed = time.time() - start
    totals = [row["total"] for row in payload["participating"]]
    reductions = [row["reduction"] for row in payload["participating"]]
    ok = (code == 0 and totals == [103, 120, 153, 218]
          and f"{100 * reductions[-1]:.1f}%" == "89.4%" and elapsed < 1.0)
    with capsys.disabled():
        _report(1, "published totals", ok, f"totals={totals}, "
                f"reduction@2048={100 * reductions[-1]:.1f}%, {elapsed:.2f}s")
    assert totals == [103, 120, 153, 218]
    assert f"{100 * reductions[-1]:.1f}%" == "89.4%"
    assert elapsed < 1.0


def test_criterion_2_dense_oracle_equivalence():
    start = time.time()
    worst = dense_equivalence_error(range(20), (16, 32, 64))
    elapsed = time.time() - start
    ok = worst < 1e-8 and elapsed < 30.0
    _report(2, "dense-oracle equivalence", ok, f"max abs err {worst:.3e}, {elapsed:.1f}s")
    assert worst < 1e-8
    assert elapsed < 30.0


def test_criterion_3_gradient_correctness():
    """Tape gradients against central differences for a model of each
    pathway, every parameter group checked and reached; only the fused
    model holds a gate."""
    start = time.time()
    err, names, dead = gradient_error()
    groups = {"embedding", "w_q", "w_k", "w_v", "gate",
              "ffn", "ln1", "ln2", "w_n", "b_n", "w_o"}
    covered = {pathway: {g for g in groups if any(g in name for name in names
                                                  if name.startswith(f"{pathway}:"))}
               for pathway in PATHWAYS}
    wanted = {pathway: groups if pathway == "both" else groups - {"gate"} for pathway in PATHWAYS}
    elapsed = time.time() - start
    ok = err <= 1e-6 and covered == wanted and not dead and elapsed < 120.0
    _report(3, "gradient correctness", ok,
            f"max rel err {err:.3e} over {len(names)} parameters of {len(PATHWAYS)} pathways, "
            f"unreached {dead}, {elapsed:.1f}s")
    assert covered == wanted, "a parameter group is missing from the check, or held in vain"
    assert dead == [], "the loss reaches no gradient to these parameters"
    assert err <= 1e-6
    assert elapsed < 120.0


def test_criterion_4_mask_law_suite():
    start = time.time()
    assert mask_law_holds(50)
    growth_ok = True
    for blk, win in ((1, 2), (2, 2), (4, 1)):
        cfg = AttentionConfig(blk=blk, win=win)
        for length in (128, 256, 512, 1024):
            a = power_table(cfg, length)[0].shape[1]
            b = power_table(cfg, 2 * length)[0].shape[1]
            growth_ok &= (b - a) <= 2 * blk
    elapsed = time.time() - start
    ok = growth_ok and elapsed < 30.0
    _report(4, "mask law suite", ok, f"50 configs cross-checked, log growth ok, {elapsed:.1f}s")
    assert growth_ok
    assert elapsed < 30.0


@pytest.mark.slow
def test_criterion_5_desk_scale_learning(desk_dataset, trained):
    model, train_time = trained
    untrained = Model(desk_dataset.num_items, AttentionConfig(**DESK_CFG), 1,
                      seed=777, max_len=100)
    ndcg_trained = evaluate(model, desk_dataset, split="test", k=10,
                            n_negatives=100, seed=42).ndcg_at_k
    ndcg_untrained = evaluate(untrained, desk_dataset, split="test", k=10,
                              n_negatives=100, seed=42).ndcg_at_k
    ndcg_pop = evaluate_popularity(desk_dataset, split="test", k=10,
                                   n_negatives=100, seed=42).ndcg_at_k
    ok = (ndcg_trained >= ndcg_untrained + 0.05
          and ndcg_trained >= ndcg_pop + 0.05
          and train_time < 600.0)
    _report(5, "desk-scale learning", ok,
            f"trained {ndcg_trained:.3f} vs untrained {ndcg_untrained:.3f} "
            f"vs popularity {ndcg_pop:.3f}, train {train_time:.0f}s")
    assert ndcg_trained >= ndcg_untrained + 0.05
    assert ndcg_trained >= ndcg_pop + 0.05
    assert train_time < 600.0


@pytest.mark.slow
def test_criterion_6_ablation_direction(desk_dataset, trained):
    model, train_time = trained
    start = time.time()
    ndcg = {}
    for pathway in ("ltis", "stis"):
        ablated = _train_desk_model(desk_dataset, pathway)
        ndcg[pathway] = evaluate(ablated, desk_dataset, split="test", k=10,
                                 n_negatives=100, seed=42).ndcg_at_k
    ndcg["both"] = evaluate(model, desk_dataset, split="test", k=10,
                            n_negatives=100, seed=42).ndcg_at_k
    elapsed = time.time() - start + train_time
    ok = (ndcg["both"] >= max(ndcg["ltis"], ndcg["stis"]) - 0.01) and elapsed < 1800.0
    _report(6, "ablation direction", ok,
            f"ltis {ndcg['ltis']:.3f}, stis {ndcg['stis']:.3f}, fused {ndcg['both']:.3f}, "
            f"all runs {elapsed:.0f}s")
    assert ndcg["both"] >= max(ndcg["ltis"], ndcg["stis"]) - 0.01
    assert elapsed < 1800.0


def test_criterion_7_training_determinism(tmp_path):
    log = make_synthetic(30, 40, 2, 8, 0.1, seed=3)
    dataset_path = tmp_path / "synth.tsv"
    write_interactions(log, dataset_path)
    flags = ["--d-model", "8", "--d-head", "4", "--heads", "2", "--kv-groups", "1",
             "--block-size", "4", "--stride", "2", "--sel-block-size", "2",
             "--top-k", "2", "--win", "2", "--blk", "1", "--max-len", "16",
             "--batch-size", "16", "--negatives", "10", "--layers", "1",
             "--epochs", "3", "--seed", "7", "--dropout", "0.2", "--lr", "0.01"]
    for name in ("a", "b"):
        code = main(["train", "--dataset", str(dataset_path),
                     "--out-dir", str(tmp_path / name), *flags])
        assert code == 0
    log_a = (tmp_path / "a" / "metrics.jsonl").read_bytes()
    log_b = (tmp_path / "b" / "metrics.jsonl").read_bytes()
    ok = log_a == log_b and len(log_a) > 0
    _report(7, "training determinism", ok, f"{len(log_a)} bytes, identical={log_a == log_b}")
    assert log_a == log_b


def test_criterion_8_counting_honesty(capsys):
    code = main(["report", "--paper-defaults", "--lengths", "256,512,1024,2048",
                 "--format", "json"])
    payload = json.loads(capsys.readouterr().out)
    rows = payload["participating"]
    both_reported = all("dedup_union" in r and "total" in r for r in rows)
    honest = all(r["dedup_union"] <= r["total"] for r in rows)
    pairs = [(r["dedup_union"], r["total"]) for r in rows]
    ok = code == 0 and both_reported and honest
    with capsys.disabled():
        _report(8, "counting honesty", ok, f"(dedup, total) per L: {pairs}")
    assert both_reported
    assert honest
    # same invariant straight from the library
    for length in (256, 512, 1024, 2048):
        r = count_participating(length, AttentionConfig())
        assert r.dedup_union <= r.total

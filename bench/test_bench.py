"""The benchmark's own tests. Run from the repository root:

    python3 -m pytest bench -q

A smoke run of every workload at tiny size, checks that the correctness
checks fail on deliberately wrong input, and checks that BENCHMARK.json,
the generator and the tracer agree with the code.
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from dataclasses import replace

import pytest

import run

run.use_checkout_library()

import numpy as np  # noqa: E402

import blossomrec  # noqa: E402
import checks  # noqa: E402
import tracing  # noqa: E402
import workloads as wl  # noqa: E402
from generate import TrafficShape, arrival_order, generate, history_lengths  # noqa: E402

SPEC = json.loads((run.ROOT / "BENCHMARK.json").read_text())


def _run_tiny(workload: str, trace: int, seed: int = 3) -> dict:
    proc = subprocess.run(
        [sys.executable, str(run.BENCH_DIR / "run.py"), "--workload", workload, "--seed", str(seed),
         "--trace", str(trace), "--size", "tiny"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_emits_every_metric_with_its_unit(workload, trace):
    result = _run_tiny(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in expected}
    for m in expected:
        got = result["metrics"][m["name"]]
        assert set(got) == {"value", "unit"}
        assert got["unit"] == m["unit"], m["name"]
        assert isinstance(got["value"], (int, float)) and math.isfinite(got["value"]), m["name"]
    if not trace:
        # Tiny inputs may rank no target in the top 10, so NDCG may be 0 here.
        assert all(result["metrics"][m["name"]]["value"] > 0 for m in expected
                   if m["name"] != "valid_ndcg10")
    else:
        # The compression MLPs get no gradient at this commit.
        assert result["metrics"]["model.params_reached_frac"]["value"] < 1.0


def test_exits_nonzero_without_library(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for f in run.BENCH_DIR.glob("*.py"):
        (bench / f.name).write_text(f.read_text())
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "train-long", "--seed", "1",
                           "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout


# -- the checks fail on wrong input -------------------------------------------


def test_loss_check():
    assert checks.loss_ok(2.5)
    assert not checks.loss_ok(float("nan"))
    assert not checks.loss_ok(float("inf"))


def test_top_items_check():
    scores = np.array([0.1, 0.9, 0.5, 0.7, 0.2])
    assert checks.top_items_ok(np.array([2, 4]), scores, 5, 2)
    assert not checks.top_items_ok(np.array([2, 2]), scores, 5, 2)      # duplicate
    assert not checks.top_items_ok(np.array([2, 3]), scores, 5, 2)      # item 4 outscores 3
    assert not checks.top_items_ok(np.array([0, 2]), scores, 5, 2)      # padding id
    assert not checks.top_items_ok(np.array([2, 4]), np.where(scores > 0.8, np.nan, scores), 5, 2)


def test_padding_check_catches_a_perturbed_state():
    rng = np.random.default_rng(0)
    h = rng.normal(size=(4, 32))
    assert checks.padding_invariance_errors(h, h.copy()).max() == 0.0
    wrong = h.copy()
    wrong[2, 5] += 1e-6
    errors = checks.padding_invariance_errors(h, wrong)
    assert errors[2] > checks.TOLERANCE and errors[[0, 1, 3]].max() == 0.0


def test_oracle_check_passes_at_full_visibility_and_fails_when_sparse():
    assert checks.dense_oracle_error(wl.ORACLE_LENGTH, wl.ATTENTION, seed=1) < checks.TOLERANCE
    # At length 40 the power mask and top-k selection drop positions.
    assert checks.dense_oracle_error(40, wl.ATTENTION, seed=1) > 1e-3


def _tiny_prepared(tmp_path, workload="serve-eval", **traffic):
    w = wl.WORKLOADS[workload].tiny()
    w = replace(w, traffic=replace(w.traffic, **traffic))
    return w, wl.setup(w, 5, tmp_path)


def test_too_small_catalogue_counts_skipped_users_as_failures(tmp_path):
    # 60 items cannot give a 40-item history 100 unseen negatives.
    w, prepared = _tiny_prepared(tmp_path, items=60)
    outcome = wl.Outcome()
    wl.interleaved_phase(w, prepared, 5, wl.NoTrace(), outcome)
    assert outcome.failed > 0
    assert any("skipped" in f for f in outcome.failures)


def test_training_step_holds_the_previous_graph_through_the_next_forward(tmp_path, monkeypatch):
    # As in model.train, the previous loss is released only once the next
    # sequence_loss has returned, so peak memory counts both graphs.
    w, prepared = _tiny_prepared(tmp_path)
    outcome = wl.Outcome()
    returned, held_during_forward = [], []
    real = wl.model_mod.sequence_loss

    def spy(*args, **kwargs):
        held_during_forward.append(outcome.held_loss)
        returned.append(real(*args, **kwargs))
        return returned[-1]

    monkeypatch.setattr(wl.model_mod, "sequence_loss", spy)
    params = prepared.model.parameters()
    opt = wl.model_mod.Adam(params, lr=wl.LR)
    rng = np.random.default_rng(0)
    for users in wl.stratified_batches(prepared.dataset, w.batch, 2, rng):
        wl._train_step(prepared, users, params, opt, rng, wl.NoTrace(), outcome, timed=True)
    assert held_during_forward == [None, returned[0]]
    assert outcome.held_loss is returned[1]


def test_non_finite_weights_fail_training_and_serving(tmp_path):
    w, prepared = _tiny_prepared(tmp_path)
    prepared.model.table.weights.data[1:] = np.nan
    outcome = wl.run_phases(w, prepared, 5, wl.NoTrace())
    assert any("non-finite loss" in f for f in outcome.failures)
    assert any("bad top" in f for f in outcome.failures)


# -- generator --------------------------------------------------------------


SHAPE = TrafficShape(users=64, items=300, min_len=4, max_len=80, tail=0.6, zipf=1.0)


def test_generator_is_deterministic_per_seed():
    a, b, c = generate(SHAPE, 7), generate(SHAPE, 7), generate(SHAPE, 8)
    assert all(np.array_equal(x, y) for x, y in zip(a, b))
    assert not all(len(x) == len(y) and np.array_equal(x, y) for x, y in zip(a, c))


def test_lengths_are_heavy_tailed_within_bounds_and_nearly_seed_free():
    l1 = history_lengths(SHAPE, np.random.default_rng(1))
    l2 = history_lengths(SHAPE, np.random.default_rng(2))
    assert l1.min() >= SHAPE.min_len and l1.max() == SHAPE.max_len
    assert np.median(l1) < l1.mean()  # right-skewed
    assert abs(np.sort(l1) - np.sort(l2)).max() <= 0.2 * SHAPE.max_len


def test_popularity_is_zipf_like():
    items = np.concatenate(generate(SHAPE, 3))
    counts = np.sort(np.bincount(items, minlength=SHAPE.items))[::-1]
    assert counts[0] > 20 * counts[SHAPE.items // 2]


def test_arrival_order_puts_every_length_stratum_in_each_batch():
    lengths = history_lengths(SHAPE, np.random.default_rng(4))
    order = arrival_order(lengths, 8, np.random.default_rng(5))
    assert sorted(order.tolist()) == list(range(SHAPE.users))
    stratum = np.empty(SHAPE.users, dtype=int)
    stratum[np.argsort(lengths, kind="stable")] = np.arange(SHAPE.users) // 8
    for lo in range(0, SHAPE.users, 8):
        assert sorted(stratum[order[lo: lo + 8]]) == list(range(8))


# -- tracer and BENCHMARK.json ------------------------------------------------


def test_tracer_restores_every_wrapped_function(tmp_path):
    before = {name: getattr(blossomrec.model, name) for name in ("sequence_loss", "embed", "evaluate")}
    forward = blossomrec.Model.forward
    with tracing.Tracer() as tracer:
        assert blossomrec.model.embed is not before["embed"]
        w, prepared = _tiny_prepared(tmp_path)
        wl.run_phases(w, prepared, 5, tracer)
    assert {name: getattr(blossomrec.model, name) for name in before} == before
    assert blossomrec.Model.forward is forward
    names = {s[0] for s in tracer.spans}
    assert {"train.step", "serve.request", "model.forward", "fusion.attention"} <= names
    roots = {s[4] for s in tracer.spans if s[0] == "fusion.attention"}
    assert all(tracer.spans[r][3] == -1 for r in roots)


def test_benchmark_json_matches_the_code():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert {w["name"] for w in SPEC["workloads"]} == set(wl.WORKLOADS)
    units = tracing.layer_metric_units()
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == units
    e2e = {m["name"]: m for m in SPEC["end_to_end"]}
    assert e2e["setup_s"]["unit"] == "s" and e2e["setup_s"]["better"] == "lower"
    assert max(m["bound"] for m in e2e.values()) == e2e["setup_s"]["bound"] <= 0.25
    emitted = wl.end_to_end(wl.Outcome(), [1.0], 1.0)
    assert {k: u for k, (_, u, _) in emitted.items() if k != "fail_frac"} == \
        {k: m["unit"] for k, m in e2e.items()}

"""The benchmark workloads and the work each run does.

Every workload does the same three kinds of timed work on its own traffic:

- train: Adam steps, the per-minibatch work of ``blossomrec.model.train``;
- eval: leave-one-out ``evaluate(split="valid")`` with 100 sampled
  negatives, the ``blossomrec eval`` path;
- serve: a closed loop with one client and one request per user; each
  request runs ``Model.last_hidden`` on a one-sequence batch, scores the
  whole catalogue with ``item_scores`` and takes the top 10.

They run interleaved in rounds, so every metric samples the whole run and
a slow spell of a shared machine moves each a little instead of one a lot.
Timing does not depend on the weights, so evaluating mid-training times
the same work. ``valid_ndcg10`` comes from one more, untimed, evaluation
after the last step.

What differs is the traffic and how much of each kind a run does, which
decides the layer that dominates (see README.md). The amount of work is
fixed by the workload and ``--seconds``, not by a clock, so the model a
run evaluates is the same on every machine and ``valid_ndcg10`` is
deterministic for a seed.
"""

from __future__ import annotations

import math
import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from blossomrec import data, model as model_mod
from blossomrec.config import AttentionConfig
from blossomrec.tensor import zero_grads

import checks
from generate import TrafficShape, generate, write_log

# Acceptance desk width with the published sparsity settings (the
# AttentionConfig defaults: block 32, stride 16, selection block 16,
# top-4, win 8, blk 1).
ATTENTION = AttentionConfig(heads=4, kv_groups=2, d_model=32, d_head=8)
LAYERS = 1
LR = 0.02                # a few steps reach the popularity plateau, so NDCG is steady
DROPOUT = 0.1
MODEL_SEED = 0          # the workload seed varies the inputs, not the initial weights
EVAL_K = 10
NEGATIVES = 100
TOP_K_SERVED = 10
PADDING_CHECK_USERS = 8
ORACLE_LENGTH = 8       # win * blk: both pathways see the whole causal prefix
REFERENCE_SECONDS = 30  # the work below is sized for a run of this length


@dataclass(frozen=True)
class Workload:
    name: str
    traffic: TrafficShape
    max_len: int            # model max_len: sequences are cut to their newest max_len items
    batch: int              # training batch size
    eval_batch: int         # evaluate() batch size
    rounds: int             # rounds per REFERENCE_SECONDS; each times one evaluate() batch
    train_steps: int        # timed training steps per REFERENCE_SECONDS
    requests: int           # served requests per REFERENCE_SECONDS, at most one per user

    def scaled(self, seconds: float) -> "Workload":
        """The same traffic with the work scaled to a run of ``seconds``."""
        factor = seconds / REFERENCE_SECONDS
        requests = min(self.traffic.users, round(self.requests * factor))
        return replace(self, rounds=max(2, round(self.rounds * factor)),
                       train_steps=max(2, round(self.train_steps * factor)),
                       requests=max(PADDING_CHECK_USERS, requests))

    def tiny(self) -> "Workload":
        """A few-second version for smoke tests: the same code paths over
        16 users and a flat 200-item catalogue, so that every user still
        has 100 unseen items to sample as negatives."""
        batch = min(self.batch, 4)
        traffic = replace(self.traffic, users=4 * batch, items=200, zipf=0.0,
                          max_len=min(self.traffic.max_len, 40))
        return replace(self, traffic=traffic, max_len=traffic.max_len - 2, batch=batch,
                       eval_batch=batch, rounds=2, train_steps=2, requests=PADDING_CHECK_USERS)


# Why each workload exists, and the layer it stresses: README.md.
WORKLOADS = {
    w.name: w for w in (
        # Dense L x L attention and padding dominate a training step. The
        # catalogue is the smallest that leaves a 514-item history 100
        # unseen negatives.
        Workload("train-long",
                 TrafficShape(users=128, items=640, min_len=8, max_len=514, tail=0.4, zipf=1.0),
                 max_len=512, batch=8, eval_batch=8, rounds=8, train_steps=8, requests=128),
        # The full-catalogue loss head and its backward dominate.
        Workload("train-vocab",
                 TrafficShape(users=1536, items=6000, min_len=4, max_len=52, tail=1.0, zipf=0.7),
                 max_len=50, batch=64, eval_batch=128, rounds=10, train_steps=10, requests=1536),
        # Forward-only evaluation and batch-of-one serving dominate; the
        # brief fine-tune gives a model whose NDCG is steady over seeds.
        Workload("serve-eval",
                 TrafficShape(users=768, items=4000, min_len=4, max_len=202, tail=0.7, zipf=0.8),
                 max_len=200, batch=16, eval_batch=64, rounds=12, train_steps=5, requests=768),
    )
}


@dataclass
class Prepared:
    """What set-up leaves for the timed phases."""

    dataset: data.SplitDataset
    model: model_mod.Model
    records: int


@dataclass
class Outcome:
    """Raw measurements and correctness tallies of one pass over the phases."""

    step_s: list[float] = field(default_factory=list)
    step_seqs: list[int] = field(default_factory=list)
    eval_s: list[float] = field(default_factory=list)
    eval_users: int = 0     # timed evaluations
    ndcg_users: int = 0     # users behind valid_ndcg10
    valid_ndcg10: float = math.nan
    request_ms: list[float] = field(default_factory=list)
    attempted: int = 0
    failed: int = 0
    failures: list[str] = field(default_factory=list)
    pad_slots: int = 0      # of the timed training batches
    slots: int = 0
    params_reached: list[float] = field(default_factory=list)
    padding_error: float = math.nan
    oracle_error: float = math.nan
    # The last training loss, and so its whole graph. ``model.train`` keeps
    # its ``loss`` alive until the next ``sequence_loss`` returns, so the
    # steps here do too; this loop must follow ``model.train`` if it changes.
    held_loss: object = None

    def fail(self, what: str) -> None:
        self.failed += 1
        self.failures.append(what)

    @property
    def measured_s(self) -> float:
        return sum(self.step_s) + sum(self.eval_s) + sum(self.request_ms) / 1e3


class NoTrace:
    """Stand-in for ``tracing.Tracer`` on untraced runs."""

    enabled = False

    def span(self, name: str):
        return nullcontext()


def setup(w: Workload, seed: int, workdir: Path) -> Prepared:
    """Generate the traffic, write it, read it back, split it, build the model."""
    path = workdir / "interactions.tsv"
    records = write_log(generate(w.traffic, seed), path, seed, strata=w.eval_batch)
    log = data.load_interactions(path)
    dataset = data.leave_one_out_split(log)
    model = model_mod.Model(dataset.num_items, ATTENTION, LAYERS, seed=MODEL_SEED,
                            max_len=w.max_len, dropout=DROPOUT)
    return Prepared(dataset, model, records)


def input_stats(w: Workload, prepared: Prepared) -> dict:
    """What the traffic was: sizes and history-length quantiles."""
    ds = prepared.dataset
    lengths = np.array([len(ds.train[u]) + 2 for u in ds.users])
    q = np.quantile(lengths, [0.5, 0.9, 0.99])
    return {"users": len(ds.users), "items": ds.num_items, "interactions": prepared.records,
            "len_p50": float(q[0]), "len_p90": float(q[1]), "len_p99": float(q[2]),
            "len_max": int(lengths.max()), "len_mean": float(lengths.mean()),
            "model_max_len": w.max_len}


def stratified_batches(dataset: data.SplitDataset, batch: int, count: int,
                       rng: np.random.Generator) -> list[list[int]]:
    """``count`` training batches, each holding one user from every one of
    ``batch`` history-length strata.

    Every batch then sees the whole length mix and pads to about the same
    width, so each step costs about the same and the step count, not the
    luck of the shuffle, decides the work of a run.
    """
    users = sorted((u for u in dataset.users if len(dataset.train[u]) >= 2),
                   key=lambda u: (len(dataset.train[u]), u))
    per = len(users) // batch
    if per < 1:
        raise ValueError(f"{len(users)} trainable users cannot fill a batch of {batch}")
    strata = [users[s * per: (s + 1) * per] for s in range(batch)]
    out: list[list[int]] = []
    while len(out) < count:
        orders = [rng.permutation(per) for _ in range(batch)]
        out.extend([strata[s][orders[s][j]] for s in range(batch)] for j in range(per))
    return out[:count]


def interleaved_phase(w: Workload, prepared: Prepared, seed: int, tracer,
                      outcome: Outcome) -> None:
    """One untimed warm-up step, then ``w.rounds`` rounds, then the final
    untimed evaluation and the padding-invariance check.

    Round r runs its share of the timed training steps, times one
    ``evaluate`` batch (the r-th batch a single call over all users would
    form) and serves its share of the requests.
    """
    model, ds = prepared.model, prepared.dataset
    params = model.parameters()
    opt = model_mod.Adam(params, lr=LR)
    rng = np.random.default_rng([seed, 2])
    batches = stratified_batches(ds, w.batch, w.train_steps + 1, rng)
    _train_step(prepared, batches[0], params, opt, rng, tracer, outcome, timed=False)
    order = [ds.users[i] for i in rng.permutation(len(ds.users))[: w.requests]]
    slices = [ds.users[lo: lo + w.eval_batch] for lo in range(0, len(ds.users), w.eval_batch)]
    steps = np.array_split(np.arange(1, w.train_steps + 1), w.rounds)
    shares = np.array_split(np.array(order), w.rounds)
    for r in range(w.rounds):
        for k in steps[r]:
            _train_step(prepared, batches[k], params, opt, rng, tracer, outcome, timed=True)
        _evaluate(w, prepared, slices[r % len(slices)], seed, tracer, outcome, timed=True)
        for user in shares[r].tolist():
            _serve(prepared, user, tracer, outcome)
    outcome.valid_ndcg10 = _evaluate(w, prepared, ds.users, seed, tracer, outcome, timed=False)
    outcome.held_loss = None  # ``model.train`` returns here
    _check_padding_invariance(prepared, order, outcome)


def _train_step(prepared: Prepared, users: list[int], params: dict, opt, rng, tracer,
                outcome: Outcome, timed: bool) -> None:
    model, ds = prepared.model, prepared.dataset
    outcome.attempted += 1
    start = time.perf_counter()
    try:
        with tracer.span("train.step"):
            batch = data.SeqBatch.from_sequences([ds.train[u] for u in users], model.max_len)
            zero_grads(params)
            loss = model_mod.sequence_loss(model, batch, training=True, rng=rng)
            outcome.held_loss = loss  # frees the previous step's graph
            loss.backward()
            if tracer.enabled:
                outcome.params_reached.append(
                    sum(p.grad is not None for p in params.values()) / len(params))
            model.table.clamp_padding()
            opt.step()
            model.table.clamp_padding()
    except Exception:
        outcome.fail(f"train step raised:\n{traceback.format_exc()}")
        return
    elapsed = time.perf_counter() - start
    if not checks.loss_ok(float(loss.data)):
        outcome.fail(f"train step: non-finite loss {float(loss.data)}")
    if timed:  # the warm-up step pays first-touch allocation, not steady-state work
        outcome.slots += batch.ids.size
        outcome.pad_slots += int(batch.ids.size - batch.lengths.sum())
        outcome.step_s.append(elapsed)
        outcome.step_seqs.append(len(users))


def _evaluate(w: Workload, prepared: Prepared, users: list[int], seed: int, tracer,
              outcome: Outcome, timed: bool) -> float:
    """Leave-one-out evaluation of ``users`` on the validation split;
    returns their NDCG@10. Only the untimed final evaluation counts users
    ``evaluate`` had to skip, so each is counted once."""
    part = replace(prepared.dataset, users=users)
    start = time.perf_counter()
    try:
        with tracer.span("eval.batch" if timed else "eval.final"):
            result = model_mod.evaluate(prepared.model, part, split="valid", k=EVAL_K,
                                        n_negatives=NEGATIVES, seed=seed,
                                        batch_size=w.eval_batch)
    except Exception:
        outcome.attempted += len(users)
        outcome.failed += len(users)
        outcome.failures.append(f"evaluate raised:\n{traceback.format_exc()}")
        return math.nan
    if timed:
        outcome.eval_s.append(time.perf_counter() - start)
        outcome.eval_users += result.num_users
        return result.ndcg_at_k
    outcome.attempted += len(users)
    outcome.ndcg_users = result.num_users
    if result.num_skipped:
        outcome.failed += result.num_skipped
        outcome.failures.append(f"evaluate skipped {result.num_skipped} users")
    if not math.isfinite(result.ndcg_at_k):
        outcome.fail(f"evaluation gave NDCG {result.ndcg_at_k}")
    return result.ndcg_at_k


def _serve(prepared: Prepared, user: int, tracer, outcome: Outcome) -> None:
    """One request: the user's next-item top 10 over the whole catalogue."""
    model, ds = prepared.model, prepared.dataset
    context = ds.context(user, "test")
    outcome.attempted += 1
    start = time.perf_counter()
    try:
        with tracer.span("serve.request"):
            batch = data.SeqBatch.from_sequences([context], model.max_len)
            h = model.last_hidden(batch)[0]
            scores = model_mod.item_scores(h, model.table).data
            top = np.argpartition(-scores, TOP_K_SERVED)[:TOP_K_SERVED]
            top = top[np.argsort(-scores[top], kind="stable")] + 1
    except Exception:
        outcome.fail(f"request for user {user} raised:\n{traceback.format_exc()}")
        return
    outcome.request_ms.append((time.perf_counter() - start) * 1e3)
    if not checks.top_items_ok(top, scores, ds.num_items, TOP_K_SERVED):
        outcome.fail(f"request for user {user}: bad top-{TOP_K_SERVED} {top.tolist()}")


def _check_padding_invariance(prepared: Prepared, served: list[int], outcome: Outcome) -> None:
    """Served users at evenly spaced history lengths get the same last
    hidden state as one left-padded batch (the evaluation path) as they do
    one at a time (the serving path)."""
    model, ds = prepared.model, prepared.dataset
    served = sorted(served, key=lambda u: (len(ds.context(u, "test")), u))
    picks = np.unique(np.linspace(0, len(served) - 1, PADDING_CHECK_USERS).round().astype(int))
    contexts = [ds.context(served[i], "test") for i in picks]
    batched = model.last_hidden(data.SeqBatch.from_sequences(contexts, model.max_len))
    single = np.stack([model.last_hidden(data.SeqBatch.from_sequences([c], model.max_len))[0]
                       for c in contexts])
    errors = checks.padding_invariance_errors(batched, single)
    outcome.padding_error = float(errors.max())
    outcome.attempted += len(contexts)
    for i, err in zip(picks, errors):
        if not err <= checks.TOLERANCE:
            outcome.fail(f"padding invariance: user {served[i]} differs by {err:.3e}")


def oracle_phase(seed: int, outcome: Outcome) -> None:
    outcome.attempted += 1
    err = checks.dense_oracle_error(ORACLE_LENGTH, ATTENTION, seed)
    outcome.oracle_error = err
    if not err <= checks.TOLERANCE:
        outcome.fail(f"dense oracle: fused pathways differ by {err:.3e}")


def run_phases(w: Workload, prepared: Prepared, seed: int, tracer) -> Outcome:
    outcome = Outcome()
    interleaved_phase(w, prepared, seed, tracer, outcome)
    oracle_phase(seed, outcome)
    for message in outcome.failures:
        print(f"FAILED: {message}", file=sys.stderr)
    return outcome


def end_to_end(outcome: Outcome, setup_s: list[float], peak_mem_mb: float) -> dict:
    """The user-facing metrics of a run: name -> (value, unit, samples)."""
    ms = np.array(outcome.request_ms)
    seqs, step_s = sum(outcome.step_seqs), sum(outcome.step_s)
    return {
        "setup_s": (float(np.median(setup_s)), "s", len(setup_s)),
        "train_seq_per_s": (seqs / step_s if step_s else math.nan, "seq/s", len(outcome.step_s)),
        "train_step_s_p50": (float(np.median(outcome.step_s)) if outcome.step_s else math.nan,
                             "s", len(outcome.step_s)),
        "valid_ndcg10": (outcome.valid_ndcg10, "ndcg", outcome.ndcg_users),
        "eval_users_per_s": (outcome.eval_users / sum(outcome.eval_s) if outcome.eval_s else math.nan,
                             "users/s", len(outcome.eval_s)),
        "infer_ms_p50": (float(np.percentile(ms, 50)) if ms.size else math.nan, "ms", ms.size),
        "infer_ms_p90": (float(np.percentile(ms, 90)) if ms.size else math.nan, "ms", ms.size),
        "peak_mem_mb": (peak_mem_mb, "MB", 1),
        "fail_frac": (outcome.failed / max(outcome.attempted, 1), "fraction", outcome.attempted),
    }

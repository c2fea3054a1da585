"""The full sequential recommender: embedding -> encoder stack -> scoring
over the item vocabulary, with next-item cross-entropy training.

A batch is its rows (``data.SeqBatch``): its sequences' item ids back
to back in one stream, whose geometry ``data.SeqContext`` works out.
``forward``, the encoder's one entry point, returns the stream's hidden
rows, so no padding is built or computed.

Scoring ties the output weights to the input embedding table: the score of
item v at step t is the dot product of the step-t hidden state with v's
embedding row. Training is Adam on the softmax cross-entropy of every
observed next item, computed only at real transitions, with early stopping
on validation NDCG@k.
"""

from __future__ import annotations

import json
import typing
from dataclasses import asdict, dataclass, field, fields
from itertools import chain
from pathlib import Path

import numpy as np

from .config import PATHWAYS, AttentionConfig, RunConfig
from .data import SeqBatch, SeqContext, SplitDataset
from .embedding import EmbeddingTable, RoPECache, embed
from .errors import CheckpointError, ConfigError, DataError
from .fusion import BlossomLayerParams, encode
from .metrics import EvalResult, aggregate, draw_negatives, rank_batch
from .tensor import (Tensor, linear_cross_entropy, matmul, no_grad, parameter, reshape, take_rows,
                     zero_grads)

__all__ = ["Model", "TrainState", "Adam", "item_scores", "sequence_loss", "train",
           "evaluate", "evaluate_popularity", "save_checkpoint", "load_checkpoint"]

CHECKPOINT_VERSION = 2
_EVAL_BATCH = 128   # users per evaluation batch, unless evaluate is given another


class Model:
    """BlossomRec model state: embeddings, N encoder layers, output affine."""

    def __init__(self, num_items: int, cfg: AttentionConfig, num_layers: int,
                 seed: int, max_len: int = 200, dropout: float = 0.0, pathway: str = "both"):
        if pathway not in PATHWAYS:
            raise ConfigError(f"pathway must be {'|'.join(PATHWAYS)}, got {pathway!r}")
        if num_layers < 1:
            raise ConfigError(f"a model needs at least one layer, got {num_layers}")
        if num_items < 1:
            raise ConfigError(f"num_items must be at least 1, got {num_items}")
        if max_len < 1:
            raise ConfigError(f"max_len must be at least 1, got {max_len}")
        if not 0.0 <= dropout < 1.0:
            raise ConfigError(f"dropout must lie in [0, 1), got {dropout}")
        if seed < 0:
            raise ConfigError(f"seed must be non-negative, got {seed}")
        rng = np.random.default_rng(seed)
        self.cfg = cfg
        self.num_items = num_items
        self.num_layers = num_layers
        self.max_len = max_len
        self.dropout = dropout
        self.pathway = pathway
        self.seed = seed
        self.table = EmbeddingTable(num_items, cfg.d_model, rng)
        self.layers = [BlossomLayerParams.init(cfg, rng, pathway) for _ in range(num_layers)]
        self.w_n = parameter(np.eye(cfg.d_model))
        self.b_n = parameter(np.zeros(cfg.d_model))
        self.rope = RoPECache(cfg.d_head, max_len + 1)

    def parameters(self) -> dict[str, Tensor]:
        named = {"embedding": self.table.weights, "w_n": self.w_n, "b_n": self.b_n}
        for i, layer in enumerate(self.layers):
            for name, p in layer.parameters().items():
                named[f"layer{i}.{name}"] = p
        return named

    def forward(self, batch: SeqBatch, rng: np.random.Generator | None = None,
                rows: int | None = None) -> Tensor:
        """The encoder's output on the batch's stream of rows,
        (N, d_model), or with ``rows`` set on each segment's last
        ``rows`` rows only, (Nq, d_model), in stream order. Dropout draws
        from ``rng``, and is off without one."""
        return encode(embed(batch.ids, self.table), self.layers, self.w_n, self.b_n,
                      self.cfg, SeqContext.from_lengths(batch.lengths), self.rope,
                      dropout_rate=self.dropout, rng=rng, rows=rows)

    def last_hidden(self, batch: SeqBatch) -> np.ndarray:
        """Evaluation-mode hidden state of each sequence's last row,
        (B, d_model); zeros for an empty sequence.

        Equal to the last row of each segment of ``forward(batch)``, but
        the last layer computes only each segment's last row: its keys
        and values span the stream, and everything else runs on one row
        per sequence.
        """
        out = np.zeros((len(batch.lengths), self.cfg.d_model))
        with no_grad():
            out[batch.lengths > 0] = self.forward(batch, rows=1).data
        return out

    def config_dict(self) -> dict:
        return {
            "num_items": self.num_items,
            "num_layers": self.num_layers,
            "max_len": self.max_len,
            "dropout": self.dropout,
            "pathway": self.pathway,
            "seed": self.seed,
            "attention": asdict(self.cfg),
        }

    @classmethod
    def from_config_dict(cls, meta: dict) -> "Model":
        """Rebuild a model from ``config_dict()``; the attention config must
        name every ``AttentionConfig`` field and nothing else. A value of
        another type than the constructor's or the config's annotation (an
        int passes as a float), or one their checks reject, is a
        checkpoint error, and so is a config or attention config that is
        not a JSON object."""
        if not isinstance(meta, dict):
            raise CheckpointError(f"checkpoint config is not a JSON object: {meta!r}")
        if not isinstance(meta["attention"], dict):
            raise CheckpointError(f"checkpoint attention config is not a JSON object: "
                                  f"{meta['attention']!r}")
        given = set(meta["attention"])
        names = {f.name for f in fields(AttentionConfig)}
        if given != names:
            raise CheckpointError(f"attention config lacks fields {sorted(names - given)} "
                                  f"and has unknown fields {sorted(given - names)}")
        hints = typing.get_type_hints(cls.__init__)
        values = {name: meta[name] for name in hints if name != "cfg"}
        hints.update(typing.get_type_hints(AttentionConfig))
        wrong = [f"{name}={value!r}" for name, value in {**values, **meta["attention"]}.items()
                 if type(value) is not hints[name]
                 and not (hints[name] is float and type(value) is int)]
        if wrong:
            raise CheckpointError(f"checkpoint config has values of the wrong type: {', '.join(wrong)}")
        try:
            return cls(cfg=AttentionConfig(**meta["attention"]), **values)
        except ConfigError as exc:
            raise CheckpointError(f"checkpoint config is invalid: {exc}") from exc


def item_scores(hidden: Tensor | np.ndarray, table: EmbeddingTable) -> Tensor:
    """Dot-product scores of one hidden vector against every real item.

    Returns shape (num_items,); entry i scores item id i + 1 (row 0, which
    names no item, never participates in ranking).
    """
    h = hidden if isinstance(hidden, Tensor) else Tensor(hidden)
    col = reshape(h, (h.shape[-1], 1))
    return reshape(matmul(table.item_vectors(), col), (table.num_items,))


def sequence_loss(model: Model, batch: SeqBatch, training: bool = False,
                  rng: np.random.Generator | None = None) -> Tensor:
    """Mean next-item cross-entropy over every observed transition.

    Stream row r contributes -log softmax(h_r . E)[id of row r + 1]
    whenever row r + 1 continues r's segment: the last row of each
    sequence has no in-batch successor and is skipped. Only those rows
    are scored, so no (V,) logit row is formed for anything else, and
    ``linear_cross_entropy`` forms the scored rows' logits a chunk at a
    time, once per step: when the loss will be differentiated it forms the
    hidden-state and item-table gradients in that same pass, so the graph
    holds no (T, V) logit matrix and backward forms none again.

    Dropout runs only with ``training`` set, drawing from ``rng``, which
    a model with dropout then needs.

    Item id 0 names no item, so a batch holding it is a ``DataError``:
    training it would move the embedding table's reserved zero row.
    """
    if not batch.ids.all():
        raise DataError("batch holds item id 0, which names no item")
    ctx = SeqContext.from_lengths(batch.lengths)
    rows = np.flatnonzero(ctx.positions[1:] > 0)   # row r + 1 is not a segment's first
    if not rows.size:
        raise DataError("batch contains no next-item transitions")
    if training and model.dropout > 0.0 and rng is None:
        raise ValueError("training-mode dropout needs an RNG")
    picked = take_rows(model.forward(batch, rng if training else None), rows)   # (T, d)
    return linear_cross_entropy(picked, model.table.item_vectors(), batch.ids[rows + 1] - 1)


class Adam:
    """Adam with bias correction and global-norm gradient clipping, at
    the constants below."""

    BETA1, BETA2, EPS = 0.9, 0.999, 1e-8
    CLIP_NORM = 5.0

    def __init__(self, params: dict[str, Tensor], lr: float):
        self.params = params
        self.lr = lr
        self.step_count = 0
        self.m = {k: np.zeros_like(p.data) for k, p in params.items()}
        self.v = {k: np.zeros_like(p.data) for k, p in params.items()}

    def step(self) -> None:
        """One update of every parameter, in place: the moments, the
        weights and two scratch arrays per parameter, with the products
        and sums of the textbook update in its order, so the weights are
        the out-of-place update's bit for bit."""
        grads = {k: (p.grad if p.grad is not None else np.zeros_like(p.data))
                 for k, p in self.params.items()}
        total = np.sqrt(sum(float((g * g).sum()) for g in grads.values()))
        scale = self.CLIP_NORM / total if total > self.CLIP_NORM else None
        self.step_count += 1
        b1t = 1.0 - self.BETA1**self.step_count
        b2t = 1.0 - self.BETA2**self.step_count
        for k, p in self.params.items():
            g = grads[k] if scale is None else grads[k] * scale
            m, v = self.m[k], self.v[k]
            buf = g * g
            buf *= 1.0 - self.BETA2
            v *= self.BETA2
            v += buf                                   # beta2 * v + (1 - beta2) * g^2
            np.multiply(g, 1.0 - self.BETA1, out=buf)
            m *= self.BETA1
            m += buf                                   # beta1 * m + (1 - beta1) * g
            np.divide(v, b2t, out=buf)
            np.sqrt(buf, out=buf)
            buf += self.EPS                            # sqrt(v_hat) + eps
            update = m / b1t
            update *= self.lr
            update /= buf                              # lr * m_hat / (sqrt(v_hat) + eps)
            p.data -= update


@dataclass
class TrainState:
    """Trajectory bookkeeping returned by ``train``."""

    epoch: int = 0
    best_metric: float = -np.inf
    best_epoch: int = 0
    seed: int = 0
    history: list[dict] = field(default_factory=list)
    stopped_early: bool = False


def _train_batches(dataset: SplitDataset, order: np.ndarray, batch_size: int,
                   max_len: int) -> list[SeqBatch]:
    # Single-item prefixes hold no transition to learn from.
    users = [u for u in (dataset.users[i] for i in order) if len(dataset.train[u]) >= 2]
    batches = []
    for lo in range(0, len(users), batch_size):
        chunk = users[lo: lo + batch_size]
        seqs = [dataset.train[u] for u in chunk]
        batches.append(SeqBatch.from_sequences(seqs, max_len))
    return batches


def train(model: Model, dataset: SplitDataset, run: RunConfig,
          log_line=None) -> TrainState:
    """Minibatch Adam on next-item loss with early stopping on NDCG@k.

    ``log_line``, when given, receives one dict per epoch (epoch number,
    mean train loss, validation metrics). The model is left holding the
    best-validation parameters. Fully deterministic for a fixed seed.
    A validation pass that ranks no user (each has fewer unseen items
    than ``run.negatives``) is a ``DataError``, since it cannot choose an
    epoch.
    Batches keep each sequence's newest ``model.max_len`` items, as
    evaluation does. ``run``'s model fields (``max_len``, ``layers``,
    ``dropout``, ``pathway`` and the attention fields) size the model the
    CLI builds; ``train`` reads only its optimizer, batching, stopping
    and evaluation settings.
    """
    if not dataset.users:
        raise DataError("cannot train on an empty dataset")
    params = model.parameters()
    opt = Adam(params, lr=run.lr)
    state = TrainState(seed=run.seed)
    rng = np.random.default_rng(run.seed)
    best_snapshot = {k: p.data.copy() for k, p in params.items()}
    patience_left = run.patience
    for epoch in range(1, run.epochs + 1):
        order = rng.permutation(len(dataset.users))
        batches = _train_batches(dataset, order, run.batch_size, model.max_len)
        if not batches:
            raise DataError("no training sequence holds a next-item transition")
        losses = []
        for minibatch in batches:
            zero_grads(params)
            loss = sequence_loss(model, minibatch, training=True, rng=rng)
            if not np.isfinite(loss.data):
                raise DataError(f"non-finite training loss at epoch {epoch}")
            loss.backward()
            opt.step()
            losses.append(float(loss.data))
        result = evaluate(model, dataset, split="valid", k=run.eval_k,
                          n_negatives=run.negatives, seed=run.seed)
        if result.num_users == 0:
            raise DataError(f"validation ranked no user: all {result.num_skipped} have fewer "
                            f"than {run.negatives} unseen items to draw as negatives")
        record = {
            "epoch": epoch,
            "train_loss": float(np.mean(losses)),
            f"valid_ndcg@{run.eval_k}": result.ndcg_at_k,
            f"valid_recall@{run.eval_k}": result.recall_at_k,
            f"valid_mrr@{run.eval_k}": result.mrr_at_k,
        }
        state.history.append(record)
        if log_line is not None:
            log_line(record)
        state.epoch = epoch
        if result.ndcg_at_k > state.best_metric:
            state.best_metric = result.ndcg_at_k
            state.best_epoch = epoch
            best_snapshot = {k: p.data.copy() for k, p in params.items()}
            patience_left = run.patience
        else:
            patience_left -= 1
            if patience_left <= 0:
                state.stopped_early = True
                break
    for k, p in params.items():
        p.data = best_snapshot[k].copy()
    return state


def evaluate(model: Model, dataset: SplitDataset, split: str = "valid", k: int = 10,
             n_negatives: int = 100, seed: int = 0, batch_size: int = _EVAL_BATCH) -> EvalResult:
    """Sampled-negative ranking evaluation over every retained user, each
    batch of ``batch_size`` users with one forward pass and one scoring
    matmul."""
    _check_eval_settings(split, k, n_negatives, seed, batch_size)

    def score(chunk: list[int], rows: np.ndarray, items: np.ndarray) -> np.ndarray:
        contexts = [dataset.context(u, split) for u in chunk]
        hidden = model.last_hidden(SeqBatch.from_sequences(contexts, model.max_len))[rows]
        # matmul runs each user's (n+1, d) @ (d,) product as one matrix-vector
        # call, so the scores are bit-identical to scoring users one by one
        vectors = np.take(model.table.weights.data, items, axis=0)
        return np.matmul(vectors, hidden[:, :, None])[:, :, 0]

    return _evaluate_with(score, dataset, split, k, n_negatives, seed, batch_size)


def evaluate_popularity(dataset: SplitDataset, split: str = "valid", k: int = 10,
                        n_negatives: int = 100, seed: int = 0) -> EvalResult:
    """Baseline: score every item by its training-set interaction count."""
    _check_eval_settings(split, k, n_negatives, seed)
    trained = np.fromiter(chain.from_iterable(dataset.train.values()), dtype=np.int64)
    counts = np.bincount(trained, minlength=dataset.num_items + 1).astype(np.float64)
    return _evaluate_with(lambda chunk, rows, items: counts[items], dataset, split, k,
                          n_negatives, seed, _EVAL_BATCH)


def _check_eval_settings(split: str, k: int, n_negatives: int, seed: int,
                         batch_size: int = 1) -> None:
    """Reject settings that would otherwise skip every user, score nothing
    or score another split: with them checked, only a user with too few
    candidate items is skipped."""
    if split not in ("valid", "test"):
        raise ConfigError(f"split must be 'valid' or 'test', got {split!r}")
    for name, value in (("k", k), ("n_negatives", n_negatives), ("batch_size", batch_size)):
        if value < 1:
            raise ConfigError(f"{name} must be at least 1, got {value}")
    if seed < 0:
        raise ConfigError(f"seed must be non-negative, got {seed}")


def _evaluate_with(score, dataset: SplitDataset, split: str, k: int, n_negatives: int,
                   seed: int, batch_size: int) -> EvalResult:
    """Rank each user's ``split`` target against ``n_negatives`` items
    drawn from those the user never interacted with, ``batch_size`` users
    at a time. ``score(chunk, rows, items)`` returns the scores (R, n+1)
    of items (R, n+1), the target first, for the users ``chunk[rows]``.
    A user with fewer candidates than ``n_negatives`` is skipped."""
    per_batch = []
    skipped = 0
    for lo in range(0, len(dataset.users), batch_size):
        chunk = dataset.users[lo: lo + batch_size]
        # each user's history: the train prefix and both held-out targets
        lengths = np.fromiter((len(dataset.train[u]) + 2 for u in chunk), dtype=np.int64,
                              count=len(chunk))
        history = np.fromiter(
            chain.from_iterable(chain(dataset.train[u], (dataset.valid_target[u],
                                                         dataset.test_target[u]))
                                for u in chunk),
            dtype=np.int64, count=int(lengths.sum()))
        candidates, negatives = draw_negatives(history, lengths, dataset.num_items,
                                               n_negatives, seed, chunk)
        rows = np.flatnonzero(candidates >= n_negatives)
        targets = np.fromiter((dataset.target(chunk[r], split) for r in rows.tolist()),
                              dtype=np.int64, count=len(rows))
        scores = score(chunk, rows, np.concatenate([targets[:, None], negatives], axis=1))
        per_batch.append(rank_batch(scores[:, 0], scores[:, 1:], k))
        skipped += len(chunk) - len(rows)
    return aggregate(np.concatenate(per_batch) if per_batch else [], k, n_negatives, skipped)


def save_checkpoint(model: Model, path: str | Path) -> None:
    """Write parameters + config as a versioned npz archive at ``path``,
    exactly as given (no ".npz" is appended). Only the parameters the
    model holds are stored, so a single-pathway model stores no gate. The
    fixed LTIS selection projection is not stored: loading redraws it
    from the seed."""
    arrays = {f"param:{k}": p.data for k, p in model.parameters().items()}
    meta = {"version": CHECKPOINT_VERSION, "config": model.config_dict()}
    with open(path, "wb") as fh:   # np.savez appends ".npz" to a path, not to a file
        np.savez(fh, __meta__=np.frombuffer(json.dumps(meta).encode(), dtype=np.uint8), **arrays)


def load_checkpoint(path: str | Path) -> Model:
    """Rebuild the model ``save_checkpoint`` wrote at ``path``. The archive
    must hold every parameter the configured model holds, as real numbers
    of its shape; arrays it does not hold, such as the gate a
    single-pathway model once stored, are ignored. Anything else wrong
    with the file is a ``CheckpointError``."""
    path = Path(path)
    if not path.exists():
        raise CheckpointError(f"checkpoint not found: {path}")
    try:
        archive = np.load(path)
    except Exception as exc:
        raise CheckpointError(f"cannot read checkpoint {path}: {exc}") from exc
    if not isinstance(archive, np.lib.npyio.NpzFile):
        raise CheckpointError(f"{path} is not a recognized checkpoint (missing header)")
    with archive:
        if "__meta__" not in archive:
            raise CheckpointError(f"{path} is not a recognized checkpoint (missing header)")
        try:
            meta = json.loads(archive["__meta__"].tobytes().decode())
            version = meta.get("version")
        except (ValueError, AttributeError) as exc:
            raise CheckpointError(f"{path} has an unreadable header: {exc}") from exc
        if version != CHECKPOINT_VERSION:
            raise CheckpointError(f"checkpoint version {version} unsupported")
        try:
            model = Model.from_config_dict(meta["config"])
        except KeyError as exc:
            raise CheckpointError(f"{path} header lacks config field {exc}") from exc
        for name, p in model.parameters().items():
            key = f"param:{name}"
            if key not in archive:
                raise CheckpointError(f"checkpoint missing parameter {name}")
            try:
                stored = archive[key]
            except ValueError as exc:   # an object array, which would need pickle
                raise CheckpointError(f"parameter {name} is unreadable: {exc}") from exc
            if stored.dtype.kind not in "iuf":
                raise CheckpointError(f"parameter {name} has dtype {stored.dtype}, "
                                      f"not real numbers")
            if stored.shape != p.data.shape:
                raise CheckpointError(f"parameter {name} has shape {stored.shape}, expected {p.data.shape}")
            p.data = stored.astype(np.float64).copy()
    return model

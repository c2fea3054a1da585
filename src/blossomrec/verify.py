"""The oracle checks, shared by ``blossomrec verify`` and the acceptance tests.

Each check runs the code the model runs, on packed streams, and compares
it with an oracle that is deliberately independent of it: the published
totals, naive per-head dense attention on each segment alone, naive
per-query block selection, the dense masked form (``index_mask``) of the
gathered attention, the full forward pass that last-row inference
shortcuts, each sequence of a packed batch run alone, central
differences, brute-force mask evaluation.
``run_verification`` prints one PASS/FAIL line per check.
"""

from __future__ import annotations

import numpy as np

from .analysis import count_participating
from .config import AttentionConfig
from .data import SeqBatch, SeqContext
from .fusion import dense_causal_gqa, gated_fuse, grouped_attention
from .gradcheck import grad_check
from .ltis import CompressionMLP, ltis_index
from .model import Model, sequence_loss
from .stis import stis_index
from .tensor import Tensor, gathered_attention, index_mask, no_grad, parameter, zero_grads

__all__ = ["brute_force_power_mask", "counts_match", "dense_equivalence_error",
           "ltis_selection_error", "gathered_equivalence_error", "last_row_error",
           "packed_batch_error", "gradient_error", "mask_law_holds", "run_verification"]

PUBLISHED_TOTALS = {256: 103, 512: 120, 1024: 153, 2048: 218}


def brute_force_power_mask(length: int, cfg: AttentionConfig) -> np.ndarray:
    """Evaluate the three causal mask cases literally for every (i, j <= i) pair."""
    dense = np.zeros((length, length), dtype=bool)
    span = cfg.win * cfg.blk
    for i in range(length):
        for j in range(i + 1):
            window = i - j < span
            bd = i // cfg.blk - j // cfg.blk
            power = bd >= 1 and (bd & (bd - 1)) == 0
            last = j >= length - cfg.blk
            dense[i, j] = window or power or last
    return dense


def counts_match() -> bool:
    """Participating-interaction totals at the published settings."""
    cfg = AttentionConfig()
    return all(count_participating(length, cfg).total == total
               for length, total in PUBLISHED_TOTALS.items())


def dense_equivalence_error(seeds: range, lengths: tuple[int, ...]) -> float:
    """Fused pathway outputs vs naive dense causal attention.

    With top_k and win saturated both pathways see the whole causal prefix,
    so their gated fusion must equal dense attention for any gate. Each
    seed and head width (4 and 8) runs one packed stream holding every
    length through the model's form, ``gathered_attention`` over
    ``ltis_index`` and ``stis_index``, and compares each segment with
    ``dense_causal_gqa`` on that segment alone. Returns the max abs error;
    a NaN anywhere comes back as NaN.
    """
    errors = [0.0]
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for d_head in (4, 8):
            cfg = AttentionConfig(block_size=8, stride=4, sel_block_size=4, top_k=10_000,
                                  win=10_000, blk=1, heads=4, kv_groups=2,
                                  d_model=16, d_head=d_head)
            q, k, v, ctx = _stream_batch(rng, lengths, cfg)
            every_row = ctx.query_rows(None)
            phi = CompressionMLP(cfg.block_size, d_head, rng)
            width = cfg.heads * d_head
            gate = (Tensor(rng.normal(size=(2 * width, width))), Tensor(rng.normal(size=width)))
            stream = [gathered_attention(Tensor(q), Tensor(k), Tensor(v), *index)
                      for index in (ltis_index(q, k, ctx, every_row, cfg, phi),
                                    stis_index(ctx, every_row, cfg))]
            fused = gated_fuse(*stream, *gate)[0].data
            for n, start in zip(lengths, ctx.starts):
                rows = slice(start, start + n)
                oracle = dense_causal_gqa(*(x[rows].swapaxes(0, 1) for x in (q, k, v)), cfg)
                errors.append(np.abs(fused[rows] - oracle).max(initial=0.0))
    return float(np.max(errors))


# Unsaturated geometry for the selection and gather checks: two of up to
# ten selection blocks, and a compression block longer than two selection
# blocks, so short sequences also take the single left-padded block path.
SPARSE_CFG = AttentionConfig(block_size=12, stride=2, sel_block_size=4, top_k=2, win=2, blk=1,
                             heads=4, kv_groups=2, d_model=16, d_head=4)


def _stream_batch(rng: np.random.Generator, lengths: tuple[int, ...], cfg: AttentionConfig):
    """Random q, k, v for one packed stream of segments of ``lengths``,
    rows first (drawn heads first), and its geometry: each segment's
    neighbours hold values like any other, which a query must never see."""
    total = sum(lengths)
    q, k, v = (rng.normal(size=(n, total, cfg.d_head)).swapaxes(0, 1)
               for n in (cfg.heads, cfg.kv_groups, cfg.kv_groups))
    return q, k, v, SeqContext.from_lengths(np.array(lengths))


def _naive_selection(q: np.ndarray, k: np.ndarray, phi: CompressionMLP,
                     cfg: AttentionConfig) -> list[list[set[int]]]:
    """Chosen selection blocks of the last queries of one unpadded
    sequence, per KV group, computed one query at a time: k (groups, n, d)
    holds the sequence's keys and q (heads, m, d) its last m <= n queries."""
    n, d = k.shape[1], cfg.d_head
    if n < cfg.block_size:  # one block: the keys behind block_size - n zero rows
        k = np.concatenate([np.zeros((cfg.kv_groups, cfg.block_size - n, d)), k], axis=1)
        starts, ends = [0], [n - 1]
    else:
        starts = list(range(0, n - cfg.block_size + 1, cfg.stride))
        ends = [start + cfg.block_size - 1 for start in starts]
    a, b = cfg.sel_block_size // cfg.stride, cfg.block_size // cfg.stride
    num_sel = -(-n // cfg.sel_block_size)
    # how many offset pairs put compression block m into selection block j
    pairs = np.array([[sum(1 for x in range(a) for y in range(b) if a * j - x - y == m)
                       for j in range(num_sel)] for m in range(len(starts))])
    first = n - q.shape[1]
    chosen = []
    for g in range(cfg.kv_groups):
        cmp = [np.tanh((k[g, start: start + cfg.block_size] + phi.pos_bias).reshape(-1) @ phi.w1)
               @ phi.w2 for start in starts]
        per_query = []
        for t in range(first, n):
            seen = [m for m, end in enumerate(ends) if end <= t]
            shared = np.zeros(num_sel)
            for head in range(g * cfg.heads_per_group, (g + 1) * cfg.heads_per_group):
                if not seen:
                    break
                logits = np.array([cmp[m] @ q[head, t - first] / np.sqrt(d) for m in seen])
                p = np.exp(logits - logits.max())
                p /= p.sum()
                for m, pm in zip(seen, p):
                    shared += pairs[m] * pm
            started = [j for j in range(num_sel) if j * cfg.sel_block_size <= t]
            per_query.append(set(sorted(started, key=lambda j: (-shared[j], j))[: cfg.top_k]))
        chosen.append(per_query)
    return chosen


def ltis_selection_error(seeds: range, lengths: tuple[int, ...]) -> int:
    """Query rows whose LTIS blocks differ from a naive per-query selection.

    Runs ``ltis_index`` at top_k=2 (``SPARSE_CFG``) on one packed stream
    per seed and, for every query, compares the set of blocks its valid
    slots fall in with ``_naive_selection`` on its segment alone. A query
    that sees a row outside its own segment counts as a mismatch too.
    """
    cfg = SPARSE_CFG
    bad = 0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        q, k, _, ctx = _stream_batch(rng, lengths, cfg)
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        idx, valid = ltis_index(q, k, ctx, ctx.query_rows(None), cfg, phi)
        start = 0
        for n in lengths:
            rows = slice(start, start + n)
            outside = valid[:, rows] & ((idx[:, rows] < start) | (idx[:, rows] >= start + n))
            bad += int(outside.any(axis=-1).sum())
            want = (_naive_selection(q[rows].swapaxes(0, 1), k[rows].swapaxes(0, 1), phi, cfg)
                    if n else [])
            for g in range(cfg.kv_groups):
                for t in range(n):
                    got = set(((idx[g, start + t][valid[g, start + t]] - start)
                               // cfg.sel_block_size).tolist())
                    bad += got != want[g][t]
            start += n
    return bad


def gathered_equivalence_error(seeds: range, lengths: tuple[int, ...]) -> float:
    """Gathered attention vs dense masked attention under the same index.

    For each seed, one packed stream at ``SPARSE_CFG`` (unsaturated:
    selection is top-2 and the window 2 wide) runs both pathways' indices
    through ``gathered_attention`` and through ``grouped_attention`` under
    ``index_mask``, with a random weighting of the outputs as the loss.
    Returns the max abs difference over outputs and q/k/v gradients.
    """
    cfg = SPARSE_CFG
    worst = 0.0
    for seed in seeds:
        rng = np.random.default_rng(seed)
        q, k, v, ctx = _stream_batch(rng, lengths, cfg)
        total, every_row = len(q), ctx.query_rows(None)
        phi = CompressionMLP(cfg.block_size, cfg.d_head, rng)
        # one weight per output entry, drawn head-major, as the merged (total, heads * d) output
        w = rng.normal(size=(cfg.heads, total, cfg.d_head)).transpose(1, 0, 2).reshape(total, -1)
        for idx, valid in (ltis_index(q, k, ctx, every_row, cfg, phi),
                           stis_index(ctx, every_row, cfg)):
            runs = []
            for gather in (True, False):
                qt, kt, vt = parameter(q.copy()), parameter(k.copy()), parameter(v.copy())
                if gather:
                    out = gathered_attention(qt, kt, vt, idx, valid)
                else:   # on the stream as a batch of one, heads first
                    heads_first = (t.transpose(1, 0, 2).reshape(1, -1, total, cfg.d_head)
                                   for t in (qt, kt, vt))
                    out = grouped_attention(*heads_first, cfg,
                                            index_mask(idx, valid, total)).reshape(w.shape)
                out.backward(w)
                runs.append([out.data, qt.grad, kt.grad, vt.grad])
            worst = max([worst] + [float(np.abs(x - y).max()) for x, y in zip(*runs)])
    return worst


# Batches for the last-row and packing checks at ``SPARSE_CFG``, one tuple
# of lengths each: every batch holds a length-1 sequence, and the
# sequences longer than top_k * sel_block_size = 8 are scored over
# several selection blocks.
LAST_ROW_BATCHES = ((1, 9, 20), (1, 13, 27, 40))


def _perturbed_model(rng: np.random.Generator, layers: int, seed: int) -> Model:
    """A ``SPARSE_CFG`` model over 30 items with every weight moved off its
    initial value."""
    model = Model(num_items=30, cfg=SPARSE_CFG, num_layers=layers, seed=seed, max_len=64)
    for p in model.parameters().values():
        p.data += rng.normal(0.0, 0.3, p.data.shape)
    return model


def last_row_error(seeds: range, batches: tuple[tuple[int, ...], ...]) -> float:
    """``Model.last_hidden`` vs each segment's last row of the full
    forward pass.

    For each seed, perturbed models of 1 and 2 layers run each batch of
    random item ids (one tuple of lengths, each at least 1, per batch)
    both ways. Returns the max abs difference; a NaN comes back as NaN.
    """
    errors = [0.0]
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for layers in (1, 2):
            model = _perturbed_model(rng, layers, seed)
            for lengths in batches:
                batch = SeqBatch.from_sequences([rng.integers(1, 31, n).tolist() for n in lengths],
                                                model.max_len)
                with no_grad():
                    full = model.forward(batch).data
                last = np.cumsum(batch.lengths) - 1
                errors.append(np.abs(model.last_hidden(batch) - full[last]).max())
    return float(np.max(errors))


def packed_batch_error(seeds: range, batches: tuple[tuple[int, ...], ...]) -> float:
    """A packed batch vs each of its sequences run alone.

    For each seed, perturbed models of 1 and 2 layers run each batch of
    random item ids (one tuple of lengths per batch) as one batch and
    each sequence as a batch of one, comparing each segment of
    ``forward``'s stream, ``last_hidden`` and every parameter gradient of
    ``sequence_loss``. The batch loss is the mean over all transitions, so
    its gradient is the transition-weighted mean of the sequences' own.
    Returns the max abs difference; a NaN comes back as NaN.
    """
    errors = [0.0]
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for layers in (1, 2):
            model = _perturbed_model(rng, layers, seed)
            params = model.parameters()

            def loss_grads(batch: SeqBatch) -> dict[str, np.ndarray]:
                zero_grads(params)
                sequence_loss(model, batch).backward()
                return {k: 0.0 if p.grad is None else p.grad for k, p in params.items()}

            for lengths in batches:
                seqs = [rng.integers(1, 31, n).tolist() for n in lengths]
                batch = SeqBatch.from_sequences(seqs, model.max_len)
                with no_grad():
                    stream = model.forward(batch).data
                hidden = model.last_hidden(batch)
                got = loss_grads(batch)
                want = dict.fromkeys(params, 0.0)
                transitions = sum(n - 1 for n in lengths)
                for b, (seq, start) in enumerate(zip(seqs, np.cumsum(lengths) - lengths)):
                    alone = SeqBatch.from_sequences([seq], model.max_len)
                    with no_grad():
                        rows = model.forward(alone).data
                    errors += [np.abs(stream[start:start + len(seq)] - rows).max(initial=0.0),
                               np.abs(hidden[b] - model.last_hidden(alone)[0]).max()]
                    if len(seq) > 1:
                        for k, g in loss_grads(alone).items():
                            want[k] = want[k] + g * ((len(seq) - 1) / transitions)
                errors += [np.abs(got[k] - want[k]).max() for k in params]
    return float(np.max(errors))


def gradient_error() -> tuple[float, list[str], list[str]]:
    """Tape gradients of a whole model's loss vs central differences.

    Selection block of 2 with top-1 and a width-1 window make the two
    pathways disagree at loss-bearing positions, so the gate gets signal.
    Returns the max relative error, the names of the parameters checked,
    and the names of those whose tape gradient is missing or all zero: a
    parameter the loss never reaches would pass the comparison vacuously.
    """
    cfg = AttentionConfig(block_size=4, stride=2, sel_block_size=2, top_k=1,
                          win=1, blk=1, heads=2, kv_groups=1, d_model=6, d_head=4)
    model = Model(num_items=9, cfg=cfg, num_layers=1, seed=5, max_len=16)
    batch = SeqBatch.from_sequences([[1, 4, 2, 7, 3, 5, 9, 6, 4, 8],
                                     [2, 2, 8, 1, 7, 5]], max_len=16)
    params = model.parameters()
    sequence_loss(model, batch).backward()
    dead = [name for name, p in params.items() if p.grad is None or not p.grad.any()]
    err = grad_check(lambda: sequence_loss(model, batch), params, h=1e-5)
    return err, list(params), dead


def mask_law_holds(num_cases: int) -> bool:
    """The model's STIS index (``stis_index`` on a stream of one segment,
    read from ``power_table``) as a dense mask, vs brute-force case
    evaluation on random configs (lengths below 120, blk and win up to 5)
    drawn from rng 1234."""
    rng = np.random.default_rng(1234)
    for _ in range(num_cases):
        length = int(rng.integers(1, 120))
        cfg = AttentionConfig(blk=int(rng.integers(1, 6)), win=int(rng.integers(1, 6)))
        rng.integers(0, 2)  # unused draw; it keeps the 50 drawn configs fixed
        ctx = SeqContext.from_lengths([length])
        fast = index_mask(*stis_index(ctx, ctx.query_rows(None), cfg), length)[0, 0]
        if not np.array_equal(fast, brute_force_power_mask(length, cfg)):
            return False
    return True


def run_verification(quick: bool = False) -> bool:
    checks: list[tuple[str, bool, str]] = []

    checks.append(("participating-interaction totals (103/120/153/218)", counts_match(), ""))

    if quick:
        err = dense_equivalence_error(range(3), (16, 32))
    else:
        err = dense_equivalence_error(range(20), (16, 32, 64))
    checks.append(("fused output == dense causal attention, packed gathered path "
                   "(saturated selection)", err < 1e-8, f"max abs err {err:.3e}"))

    seeds, lengths = (range(3), (0, 10, 24, 32)) if quick else (range(10), (0, 6, 10, 19, 40))
    bad = ltis_selection_error(seeds, lengths)
    checks.append(("LTIS blocks == naive per-query selection (top_k=2, packed batch)",
                   bad == 0, f"{bad} mismatched rows"))

    seeds, lengths = (range(3), (3, 17, 32)) if quick else (range(10), (3, 17, 40, 64))
    err = gathered_equivalence_error(seeds, lengths)
    checks.append(("gathered attention == dense masked attention (values and gradients, unsaturated)",
                   err < 1e-8, f"max abs err {err:.3e}"))

    err = last_row_error(range(2) if quick else range(10), LAST_ROW_BATCHES)
    checks.append(("last-row inference == full forward's last row (1 and 2 layers, ragged batch)",
                   err < 1e-10, f"max abs err {err:.3e}"))

    err = packed_batch_error(range(2) if quick else range(10), LAST_ROW_BATCHES)
    checks.append(("packed batch == each sequence alone (values, last_hidden, parameter "
                   "gradients; 1 and 2 layers)", err < 1e-10, f"max abs err {err:.3e}"))

    err, _, dead = gradient_error()
    checks.append(("tape gradients vs central differences, every parameter reached",
                   err < 1e-6 and not dead, f"max rel err {err:.3e}, unreached {dead or 'none'}"))

    ok = mask_law_holds(10 if quick else 50)
    checks.append(("model's power mask (power_table) matches brute-force case evaluation", ok, ""))

    all_ok = True
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"[{status}] {name}{suffix}")
        all_ok &= ok
    return all_ok

"""The oracle checks, shared by ``blossomrec verify`` and the acceptance tests.

Each check runs the code the model runs and compares it with an oracle
that is deliberately independent of it: the published totals, naive
per-head dense attention, central differences, brute-force mask
evaluation. ``run_verification`` prints one PASS/FAIL line per check.
"""

from __future__ import annotations

import numpy as np

from .analysis import count_participating
from .config import AttentionConfig
from .data import SeqBatch
from .fusion import dense_causal_gqa, gated_fuse, grouped_attention
from .gradcheck import grad_check
from .ltis import CompressionMLP, build_ltis_masks
from .model import Model, sequence_loss
from .stis import batch_stis_masks, build_power_mask
from .tensor import Tensor

__all__ = ["brute_force_power_mask", "counts_match", "dense_equivalence_error",
           "gradient_error", "mask_law_holds", "run_verification"]

PUBLISHED_TOTALS = {256: 103, 512: 120, 1024: 153, 2048: 218}


def brute_force_power_mask(length: int, cfg: AttentionConfig, causal: bool) -> np.ndarray:
    """Evaluate the three mask cases literally for every (i, j) pair."""
    dense = np.zeros((length, length), dtype=bool)
    span = cfg.win * cfg.blk
    for i in range(length):
        for j in range(length):
            if causal and j > i:
                continue
            window = abs(i - j) < span
            bd = abs(i // cfg.blk - j // cfg.blk)
            power = bd >= 1 and (bd & (bd - 1)) == 0
            last = j >= length - cfg.blk
            dense[i, j] = window or power or last
    return dense


def counts_match() -> bool:
    """Participating-interaction totals at the published settings."""
    cfg = AttentionConfig()
    return all(count_participating(length, cfg).total == total
               for length, total in PUBLISHED_TOTALS.items())


def dense_equivalence_error(seeds: range, lengths: tuple[int, ...]) -> tuple[float, float]:
    """Fused model-path output vs naive dense causal attention.

    With top_k and win saturated both pathways see the whole causal prefix,
    so the gated fusion of ``build_ltis_masks`` + ``batch_stis_masks`` +
    ``grouped_attention`` must equal dense attention for any gate. Each seed
    and head width (4 and 8) runs one batch holding every length, left-padded to the
    longest, with random values in the padding slots. Returns the max abs
    error over the real rows and the max abs value over the padding query
    rows, which must be exactly zero. A NaN anywhere comes back as NaN.
    """
    lengths_arr = np.array(lengths)
    frame = int(lengths_arr.max())
    errors, padding = [0.0], [0.0]
    for seed in seeds:
        rng = np.random.default_rng(seed)
        for d_head in (4, 8):
            cfg = AttentionConfig(block_size=8, stride=4, sel_block_size=4, top_k=10_000,
                                  win=10_000, blk=1, heads=4, kv_groups=2,
                                  d_model=16, d_head=d_head)
            q = rng.normal(size=(len(lengths), cfg.heads, frame, d_head))
            k = rng.normal(size=(len(lengths), cfg.kv_groups, frame, d_head))
            v = rng.normal(size=(len(lengths), cfg.kv_groups, frame, d_head))
            phi = CompressionMLP(cfg.block_size, d_head, rng)
            ltis_mask = build_ltis_masks(q, k, lengths_arr, cfg, phi)
            stis_mask = batch_stis_masks(lengths_arr, frame, cfg)
            o_l = grouped_attention(Tensor(q), Tensor(k), Tensor(v), cfg, ltis_mask)
            o_s = grouped_attention(Tensor(q), Tensor(k), Tensor(v), cfg, stis_mask)
            width = cfg.heads * d_head
            fused, _ = gated_fuse(o_l, o_s, Tensor(rng.normal(size=(2 * width, width))),
                                  Tensor(rng.normal(size=width)))
            for b, n in enumerate(lengths):
                pad = frame - n
                oracle = dense_causal_gqa(q[b, :, pad:], k[b, :, pad:], v[b, :, pad:], cfg)
                errors.append(np.abs(fused.data[b, pad:] - oracle).max())
                padding.append(np.abs(fused.data[b, :pad]).max(initial=0.0))
    return float(np.max(errors)), float(np.max(padding))


def gradient_error() -> tuple[float, list[str]]:
    """Tape gradients of a whole model's loss vs central differences.

    Selection block of 2 with top-1 and a width-1 window make the two
    pathways disagree at loss-bearing positions, so the gate gets signal.
    Returns the max relative error and the names of the parameters checked.
    """
    cfg = AttentionConfig(block_size=4, stride=2, sel_block_size=2, top_k=1,
                          win=1, blk=1, heads=2, kv_groups=1, d_model=6, d_head=4)
    model = Model(num_items=9, cfg=cfg, num_layers=1, seed=5, max_len=16)
    batch = SeqBatch.from_sequences([[1, 4, 2, 7, 3, 5, 9, 6, 4, 8],
                                     [2, 2, 8, 1, 7, 5]], max_len=16)
    params = model.parameters()
    return grad_check(lambda: sequence_loss(model, batch), params, h=1e-5), list(params)


def mask_law_holds(num_cases: int) -> bool:
    """The power mask vs brute-force case evaluation on random configs
    (lengths below 120, blk and win up to 5) drawn from rng 1234."""
    rng = np.random.default_rng(1234)
    for _ in range(num_cases):
        length = int(rng.integers(1, 120))
        cfg = AttentionConfig(blk=int(rng.integers(1, 6)), win=int(rng.integers(1, 6)))
        causal = bool(rng.integers(0, 2))
        fast = build_power_mask(length, cfg, causal).to_dense()
        if not np.array_equal(fast, brute_force_power_mask(length, cfg, causal)):
            return False
    return True


def run_verification(quick: bool = False) -> bool:
    checks: list[tuple[str, bool, str]] = []

    checks.append(("participating-interaction totals (103/120/153/218)", counts_match(), ""))

    if quick:
        err, pad = dense_equivalence_error(range(3), (16, 32))
    else:
        err, pad = dense_equivalence_error(range(20), (16, 32, 64))
    checks.append(("fused output == dense causal attention (saturated selection, padded batch)",
                   err < 1e-8 and pad == 0.0, f"max abs err {err:.3e}, padding rows {pad:.1e}"))

    err, _ = gradient_error()
    checks.append(("tape gradients vs central differences", err < 1e-4, f"max rel err {err:.3e}"))

    ok = mask_law_holds(10 if quick else 50)
    checks.append(("power mask matches brute-force case evaluation", ok, ""))

    all_ok = True
    for name, ok, detail in checks:
        status = "PASS" if ok else "FAIL"
        suffix = f" ({detail})" if detail else ""
        print(f"[{status}] {name}{suffix}")
        all_ok &= ok
    return all_ok

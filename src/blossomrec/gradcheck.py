"""Central-difference verification of tape gradients."""

from __future__ import annotations

from typing import Callable, Iterable, Mapping

import numpy as np

from .tensor import Tensor, no_grad, zero_grads

__all__ = ["grad_check"]


def _named(params) -> list[tuple[str, Tensor]]:
    if isinstance(params, Mapping):
        return list(params.items())
    return [(f"param{i}", p) for i, p in enumerate(params)]


def grad_check(
    f: Callable[[], Tensor],
    params: Mapping[str, Tensor] | Iterable[Tensor],
    h: float = 1e-5,
) -> float:
    """Max relative error between tape gradients and central differences.

    ``f`` must rebuild a scalar loss from the current parameter values on
    every call. For each parameter entry the error is
    |analytic - numeric| / max(1, |numeric|); the max over all entries is
    returned. Raises ValueError if any evaluation is non-finite. The
    perturbed evaluations need only values, so they run under ``no_grad``:
    they build no tape, and forward values do not depend on grad mode.
    """
    named = _named(params)

    def evaluate() -> float:
        with no_grad():
            out = f()
        val = float(out.data)
        if not np.isfinite(val):
            raise ValueError("grad_check: objective evaluated to a non-finite value")
        return val

    zero_grads(dict(named))
    out = f()
    if out.size != 1:
        raise ValueError(f"grad_check needs a scalar objective, got shape {out.shape}")
    if not np.isfinite(float(out.data)):
        raise ValueError("grad_check: objective evaluated to a non-finite value")
    out.backward()
    analytic = {name: (p.grad.copy() if p.grad is not None else np.zeros_like(p.data)) for name, p in named}

    worst = 0.0
    for name, p in named:
        flat = p.data.reshape(-1)
        a_flat = analytic[name].reshape(-1)
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + h
            f_plus = evaluate()
            flat[i] = orig - h
            f_minus = evaluate()
            flat[i] = orig
            numeric = (f_plus - f_minus) / (2.0 * h)
            err = abs(a_flat[i] - numeric) / max(1.0, abs(numeric))
            if err > worst:
                worst = err
    zero_grads(dict(named))
    return worst

"""Dense float64 tensors with a reverse-mode gradient tape.

Everything downstream (both attention pathways, the gate, the recommender)
runs on this substrate. Forward arithmetic is plain numpy on float64
arrays; any op that touches a differentiable input records a backward
closure, and ``GradTape`` linearizes the recorded ops so replaying them in
reverse accumulates gradients into every reachable parameter. Replay
drops each interior node's gradient as soon as that node's backward has
run: no later backward reads it, so it is not held to the end of the
pass, and a second backward through part of the same graph starts from
nothing. Parameters, which have no backward, keep theirs.

The ops: the primitives ``mul``, ``matmul``, ``reshape``, ``transpose``,
``getitem``, ``take_rows`` and the full sum ``tsum``; the row softmax
``masked_softmax``; and the fused ops below, ``gathered_attention``,
``linear_cross_entropy``, ``affine``, ``ffn``, ``residual_norm``,
``sigmoid_gate`` and ``rope``. Each is one that the model, its training
or ``verify`` runs.

Design points:
  * float64 only, so finite-difference checks are decisive.
  * one in-place kernel, ``_exp_shifted``, is the row softmax of every op
    that normalizes rows and of LTIS block scoring: a row with nothing
    visible yields zeros, and a row with a visible NaN yields NaN.
  * sparse attention has two equivalent forms: ``gathered_attention``
    over a per-query index of key positions, and ``masked_softmax`` under
    the dense mask ``index_mask`` builds from that same index.
  * forward ops are deterministic: identical inputs give bit-identical
    outputs.
  * a tensor owns the first gradient it receives (no zeroed buffer is
    allocated); later contributions are added out of place, so an array
    handed to two parents (``residual_norm`` without dropout gives x and
    y the same one) is never written through, and no backward closure
    writes into an array it received.
  * ``mul``, ``matmul`` and the fused ops below form an operand's
    gradient product only when that operand requires a gradient, so
    constant tables and masks cost no backward work.
  * the encoder's composites are one op each, with a hand-written
    backward that keeps only what it reads: ``affine`` (``x @ w + b``;
    keeps only its inputs), ``ffn`` (``tanh(x @ w1 + b1) @ w2 + b2``;
    keeps the tanh output), ``residual_norm`` (the residual sum, inverted
    dropout and layer norm; keeps the normalized sum, 1/sigma and a bool
    keep-mask), ``sigmoid_gate`` (concat, affine, sigmoid and the gated
    mix; keeps the gate alone) and ``rope`` (the q or k projection
    ``x @ w``, its split into heads y and ``y * cos + (y @ R) * sin``;
    keeps only its inputs, not the projection). Each forms its output
    with the numpy expressions, in the order, of the chain of ops it
    stands for, so the output is bit-identical to that chain's, and the tape
    holds one node and none of the chain's intermediates or their
    gradients.
  * the two large ops work through their rows in chunks of about
    ``CHUNK_BYTES`` (2 MB) of the block they form per row, and keep for
    backward only what is small next to what they compute.
    ``gathered_attention`` gathers from rows-first K and V viewed as one
    table of rows, forms the gathered K or V of a chunk of query rows at
    a time, writes its output with the heads already merged, and keeps
    its softmax weights and key index (none under ``no_grad``; the index
    as it is handed in, which both index builders make int32); its
    backward gathers each chunk's V and then K again and scatters the K/V
    gradients with one ``np.bincount`` per contiguous feature column.
    ``linear_cross_entropy`` forms a chunk of logits at a time and keeps
    none. Its output is a scalar, so its gradients are fixed up to the
    upstream seed: the forward forms them from each chunk of logits while
    it has them, and the backward only scales them.
  * the one scatter-add, ``_scatter_add``, is a ``np.bincount`` per
    feature column; it adds in index order, as ``np.add.at`` does.
"""

from __future__ import annotations

import threading
from typing import Callable, Iterable, Sequence

import numpy as np

Array = np.ndarray

__all__ = [
    "Tensor",
    "GradTape",
    "no_grad",
    "parameter",
    "matmul",
    "masked_softmax",
    "gathered_attention",
    "index_mask",
    "linear_cross_entropy",
    "affine",
    "ffn",
    "residual_norm",
    "sigmoid_gate",
    "rope",
    "take_rows",
    "zero_grads",
]

_STATE = threading.local()

# Bytes of the block either chunked op forms per chunk of rows: the logits
# of ``linear_cross_entropy`` and the gathered K or V of
# ``gathered_attention``. One bound serves both.
#
# Loss head: with the gradients formed in the forward (three matmuls per
# chunk), over 21 Adam steps per size on the bench's workloads (one BLAS
# thread, sizes interleaved), the median step took 110 / 82 / 85 ms at
# 512 KB / 2 MB / 8 MB on train-vocab (about 5800 items), 63 / 55 / 57 ms
# on serve-eval and 88 / 91 / 90 ms on train-long (640 items; level within
# noise). 8 MB chunks took about 1700 (train-vocab) and 900 (serve-eval)
# minor page faults per step, where 2 MB took a median of 0 and a mean
# under 70.
#
# Attention: one forward + backward call on the inputs a bench training
# step gives it (median of 30, sizes interleaved, one BLAS thread) took
# 23.9 / 23.8 / 25.4 / 30.7 / 33.0 ms at 512 KB / 1 MB / 2 MB / 4 MB /
# 8 MB, and 39.4 ms in one chunk, on the train-long LTIS index (K=64,
# 1326 rows); 12.0 / 11.8 / 12.8 / 13.9 / 14.3 and 14.2 ms on train-vocab's
# (K=50, 752 rows). The STIS index (K=14) and serve-eval's LTIS index
# (451 rows) sit at 7-10 ms for every size, level within noise. Below
# 2 MB the attention gains at most 8%, while the loss head's step took 34%
# longer at 512 KB.
CHUNK_BYTES = 2 << 20


_LOWEST = np.finfo(np.float64).min
_LAYER_NORM_EPS = 1e-5   # added to the variance ``residual_norm`` divides by


def _grad_enabled() -> bool:
    return getattr(_STATE, "grad_enabled", True)


class no_grad:
    """Context manager that stops ops from recording backward closures.

    Purely an allocation saver for evaluation paths; thread-local, so
    models evaluating on other threads are unaffected.
    """

    def __enter__(self):
        self._prev = _grad_enabled()
        _STATE.grad_enabled = False
        return self

    def __exit__(self, *exc):
        _STATE.grad_enabled = self._prev
        return False


class Tensor:
    """A float64 array plus the bookkeeping needed for reverse-mode autodiff."""

    __slots__ = ("data", "grad", "requires_grad", "_parents", "_backward")

    def __init__(self, data, requires_grad: bool = False):
        self.data: Array = np.asarray(data, dtype=np.float64)
        self.grad: Array | None = None
        self.requires_grad = bool(requires_grad)
        self._parents: tuple[Tensor, ...] = ()
        self._backward: Callable[[Array], None] | None = None

    # -- introspection -------------------------------------------------

    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- graph plumbing --------------------------------------------------

    def backward(self, grad: Array | None = None) -> None:
        GradTape(self).replay(grad)

    # -- operators -------------------------------------------------------

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __matmul__(self, other):
        return matmul(self, other)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def sum(self):
        return tsum(self)

    def reshape(self, *shape):
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return reshape(self, shape)

    def transpose(self, *axes):
        if len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        return transpose(self, axes)


class GradTape:
    """Linearized record of the primitive ops reachable from a root tensor.

    Walking the define-by-run graph from the root yields the ops in
    execution order; replaying the record in reverse accumulates gradients
    into every tensor with ``requires_grad`` set.
    """

    def __init__(self, root: Tensor):
        self.root = root
        self.ops: list[Tensor] = _linearize(root)

    def replay(self, grad: Array | None = None) -> None:
        root = self.root
        if grad is None:
            if root.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient needs a scalar root, "
                    f"got shape {root.shape}"
                )
            grad = np.ones_like(root.data)
        # A copy: the root owns its seed, which may reach a parameter's .grad.
        _accumulate(root, np.array(grad, dtype=np.float64))
        for node in reversed(self.ops):
            if node.grad is None:
                continue
            node._backward(node.grad)
            node.grad = None   # spent: no later backward reads an interior gradient


def _linearize(root: Tensor) -> list[Tensor]:
    # Iterative post-order DFS: inputs appear before the ops that consume them.
    order: list[Tensor] = []
    visited: set[int] = {id(root)}
    stack: list[tuple[Tensor, Iterable[Tensor]]] = [(root, iter(root._parents))]
    while stack:
        node, parents = stack[-1]
        pushed = False
        for p in parents:
            if p._backward is not None and id(p) not in visited:
                visited.add(id(p))
                stack.append((p, iter(p._parents)))
                pushed = True
                break
        if not pushed:
            stack.pop()
            if node._backward is not None:
                order.append(node)
    return order


def parameter(data, rng: np.random.Generator | None = None) -> Tensor:
    """Learnable tensor; with ``rng`` given, ``data`` is a shape to initialize."""
    if rng is not None:
        shape = tuple(data)
        # Glorot uniform for >=2-D shapes, small normal otherwise.
        if len(shape) >= 2:
            limit = np.sqrt(6.0 / (shape[-2] + shape[-1]))
            return Tensor(rng.uniform(-limit, limit, shape), requires_grad=True)
        return Tensor(rng.normal(0.0, 0.02, shape), requires_grad=True)
    return Tensor(data, requires_grad=True)


def zero_grads(params: Iterable[Tensor] | dict[str, Tensor]) -> None:
    values = params.values() if isinstance(params, dict) else params
    for p in values:
        p.grad = None


# ---------------------------------------------------------------------------
# op machinery


def _as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _make(data: Array, parents: Sequence[Tensor], backward: Callable[[Array], None]) -> Tensor:
    out = Tensor(data)
    if _grad_enabled() and any(p.requires_grad for p in parents):
        out.requires_grad = True
        out._parents = tuple(parents)
        out._backward = backward
    return out


def _accumulate(t: Tensor, g: Array) -> None:
    if not t.requires_grad:
        return
    if t.grad is None:
        t.grad = g
    else:
        t.grad = t.grad + g


def _unbroadcast(g: Array, shape: tuple[int, ...]) -> Array:
    """Sum ``g`` back down to ``shape`` (inverse of numpy broadcasting)."""
    extra = g.ndim - len(shape)
    if extra > 0:
        g = g.sum(axis=tuple(range(extra)))
    squeeze = tuple(i for i, n in enumerate(shape) if n == 1 and g.shape[i] != 1)
    if squeeze:
        g = g.sum(axis=squeeze, keepdims=True)
    return g


# ---------------------------------------------------------------------------
# elementwise ops


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, (a, b), backward)


def _sigmoid(x: Array) -> Array:
    """The logistic function, branching on sign so that exp cannot overflow."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


# ---------------------------------------------------------------------------
# shape / indexing ops


def reshape(a, shape: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    old_shape = a.shape

    def backward(g: Array) -> None:
        _accumulate(a, g.reshape(old_shape))

    return _make(a.data.reshape(shape), (a,), backward)


def transpose(a, axes: tuple[int, ...]) -> Tensor:
    a = _as_tensor(a)
    inverse = tuple(np.argsort(axes))

    def backward(g: Array) -> None:
        _accumulate(a, g.transpose(inverse))

    return _make(a.data.transpose(axes), (a,), backward)


def getitem(a, idx) -> Tensor:
    """Basic (slice/int/ellipsis) indexing; advanced indexing has its own ops."""
    a = _as_tensor(a)

    def backward(g: Array) -> None:
        buf = np.zeros_like(a.data)
        buf[idx] = g
        _accumulate(a, buf)

    return _make(a.data[idx], (a,), backward)


def _scatter_add(acc: Array, rows: Array, cols: Array) -> None:
    """``acc[:, rows[j]] += cols[:, j]`` for every j, in the order of j:
    ``acc`` is (d, n) and ``cols`` (d, m), and each of the d
    ``np.bincount`` calls reads one contiguous row of ``cols``."""
    for c in range(acc.shape[0]):
        acc[c] += np.bincount(rows, weights=cols[c], minlength=acc.shape[1])


def take_rows(table, ids: Array) -> Tensor:
    """Gather rows of a 2-D table by integer id; scatter-add on backward."""
    table = _as_tensor(table)
    ids = np.asarray(ids, dtype=np.int64)

    def backward(g: Array) -> None:
        if not table.requires_grad:
            return
        d = table.shape[1]
        acc = np.zeros((d, table.shape[0]))
        _scatter_add(acc, ids.reshape(-1), np.ascontiguousarray(g.reshape(-1, d).T))
        _accumulate(table, np.ascontiguousarray(acc.T))

    return _make(table.data[ids], (table,), backward)


# ---------------------------------------------------------------------------
# reductions


def tsum(a) -> Tensor:
    """The sum of every entry, a 0-d tensor."""
    a = _as_tensor(a)

    def backward(g: Array) -> None:
        _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return _make(a.data.sum(), (a,), backward)


# ---------------------------------------------------------------------------
# linear algebra


def matmul(a, b) -> Tensor:
    """Matrix product with numpy-style leading-dimension broadcasting."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.ndim < 2 or b.ndim < 2:
        raise ValueError("matmul requires at least 2-D operands")
    if a.shape[-1] != b.shape[-2]:
        raise ValueError(f"matmul inner dimensions disagree: {a.shape} x {b.shape}")

    def backward(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g @ np.swapaxes(b.data, -1, -2), a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(np.swapaxes(a.data, -1, -2) @ g, b.shape))

    return _make(a.data @ b.data, (a, b), backward)


# ---------------------------------------------------------------------------
# composite / specialty ops


def _exp_shifted(x: Array, hidden: Array | None = None) -> tuple[Array, Array]:
    """The row softmax every op shares, in place on ``x``: -inf at the
    ``hidden`` entries (bool, broadcasting to ``x``), minus the last-axis
    row max, exponentiated. Returns the row max and sum, with keepdims;
    the softmax is ``x / sum`` where the sum is above 0. The max has a
    finite floor, so a row with nothing visible (or K = 0) is zeros with
    sum 0; a row with a visible NaN is NaN throughout."""
    if hidden is not None:
        np.copyto(x, -np.inf, where=hidden)
    mx = x.max(axis=-1, keepdims=True, initial=_LOWEST)
    x -= mx
    np.exp(x, out=x)
    return mx, x.sum(axis=-1, keepdims=True)


def masked_softmax(logits, mask: Array) -> Tensor:
    """Softmax along the last axis under a boolean mask that broadcasts to
    ``logits``. Masked-out entries get probability zero and no gradient; a
    row with nothing visible is zeros, and one with a visible NaN is NaN."""
    logits = _as_tensor(logits)
    try:
        hidden = ~np.broadcast_to(np.asarray(mask, dtype=bool), logits.shape)
    except ValueError:
        raise ValueError(
            f"mask shape {np.asarray(mask).shape} does not broadcast to logits {logits.shape}"
        ) from None
    p = logits.data.copy()
    _, s = _exp_shifted(p, hidden)
    np.divide(p, s, out=p, where=s > 0)

    def backward(g: Array) -> None:
        inner = (g * p).sum(axis=-1, keepdims=True)
        _accumulate(logits, p * (g - inner))

    return _make(p, (logits,), backward)


def gathered_attention(q, k, v, idx: Array, valid: Array) -> Tensor:
    """Grouped attention of each query over its own gathered key slots.

    q: (L, heads, d); k, v: (Lk, groups, d), with the heads of a group
    consecutive and sharing its K/V. ``idx`` (int, key positions in
    [0, Lk)) and ``valid`` (bool) are (groups or 1, L, K): slot s of
    query i holds key ``idx[..., i, s]`` when ``valid[..., i, s]``; a
    leading group axis of 1 gives every group the same positions. K/V are
    gathered once per group and shared by its heads, the softmax
    (``_exp_shifted``) runs over the valid slots only, a query with no
    valid slot comes back as exact zeros and one with a NaN logit as NaN.
    Returns the heads merged, (L, heads * d) with head j's output in
    columns j*d to (j+1)*d, the layout ``fusion.grouped_attention``
    returns; it equals scaled dot-product attention under
    ``index_mask(idx, valid, Lk)`` at O(L * K * d) cost. Shapes that
    disagree (k, v; q's and k's widths; idx, valid, (groups or 1, L, K)),
    keys outside [0, Lk) and heads not split into groups are ValueErrors.

    The query rows are worked through in chunks whose gathered
    (G, rows, K, d) block is about ``CHUNK_BYTES`` (at least one row),
    and one such block is alive at a time. The forward works out a
    chunk's key rows from ``idx``, gathers its K, fills its rows of the
    softmax weights, then gathers its V and writes its rows of the output
    through a (G, rows, heads per group, d) view of them. Only the
    softmax weights (G, L, heads per group, K) and ``idx`` stay on the
    tape, and only when a gradient is to come; without one,
    the weights live in one chunk-sized buffer. The backward, chunk by
    chunk, works out the key rows again, gathers V for the weights'
    gradient, then K for the query rows' gradient, and forms the chunk's
    K/V gradient terms feature-major, (d, G, rows, K), so that each of
    the d ``np.bincount`` calls that scatters them onto their key rows
    reads one contiguous column.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    length, h, d = q.shape
    lk, g, dk = k.shape
    if k.shape != v.shape:
        raise ValueError(f"k and v disagree: {k.shape} vs {v.shape}")
    if dk != d:
        raise ValueError(f"query heads of width {d}, K/V heads of width {dk}")
    if h % g:
        raise ValueError(f"{h} query heads do not split into {g} K/V groups")
    idx = np.asarray(idx)
    valid = np.asarray(valid, dtype=bool)
    if idx.shape != valid.shape or idx.ndim != 3 or idx.shape[:2] not in ((1, length), (g, length)):
        raise ValueError(f"index {idx.shape}, validity {valid.shape}: not ({g} or 1, {length}, K)")
    if idx.size and (idx.min() < 0 or idx.max() >= lk):
        bad = idx[(idx < 0) | (idx >= lk)][0]
        raise ValueError(f"key index {int(bad)} outside [0, {lk})")
    hpg, slots = h // g, idx.shape[-1]
    step = _chunk_rows(g * slots * d)
    chunks = [(lo, min(lo + step, length)) for lo in range(0, length, step)]
    group = np.arange(g).reshape(g, 1, 1)

    def key_rows(lo: int, hi: int) -> Array:
        """Query rows lo:hi's key rows of k.reshape(-1, d) (a view for row-major K), where
        key i of group j is row i * g + j, flat in (G, rows, K) order."""
        return (idx[:, lo:hi] * g + group).reshape(-1)

    def gather(table: Array, r: Array, n: int) -> Array:
        return np.take(table, r, axis=0).reshape(g, n, slots, d)

    def merged(x: Array, lo: int, hi: int) -> Array:
        """Rows lo:hi of an (L, heads, d) or (L, heads * d) array as (g, rows, hpg, d)."""
        return x.reshape(length, g, hpg, d)[lo:hi].transpose(1, 0, 2, 3)

    scale = 1.0 / np.sqrt(d)
    qd, kd, vd = q.data, k.data, v.data   # the arrays backward gathers from again
    # With a gradient to come, the softmax weights of every row stay for
    # backward; without one, each chunk's go into one reused buffer.
    learn = _grad_enabled() and (q.requires_grad or k.requires_grad or v.requires_grad)
    p = np.empty((g, length, hpg, slots)) if learn else None
    buf = None if learn else np.empty(g * min(step, length) * hpg * slots)
    out = np.empty((length, h * d))
    kf, vf = kd.reshape(-1, d), vd.reshape(-1, d)
    for lo, hi in chunks:
        r = key_rows(lo, hi)
        pc = p[:, lo:hi] if learn else buf[: r.size * hpg].reshape(g, hi - lo, hpg, slots)
        np.matmul(merged(qd, lo, hi), gather(kf, r, hi - lo).swapaxes(-1, -2), out=pc)
        pc *= scale
        _, s = _exp_shifted(pc, ~valid[:, lo:hi, None, :])
        np.divide(pc, s, out=pc, where=s > 0)
        np.matmul(pc, gather(vf, r, hi - lo), out=merged(out, lo, hi))

    def backward(grad: Array) -> None:
        kf, vf = kd.reshape(-1, d), vd.reshape(-1, d)
        dq = np.empty((length, h, d)) if q.requires_grad else None
        dk, dv = (np.zeros((d, lk * g)) if t.requires_grad else None for t in (k, v))
        terms = np.empty(d * g * min(step, length) * slots)
        for lo, hi in chunks:
            r = key_rows(lo, hi)
            pc, goc = p[:, lo:hi], merged(grad, lo, hi)
            ds = goc @ gather(vf, r, hi - lo).swapaxes(-1, -2)
            ds -= (ds * pc).sum(axis=-1, keepdims=True)
            ds *= pc
            ds *= scale
            if dq is not None:
                np.matmul(ds, gather(kf, r, hi - lo), out=merged(dq, lo, hi))
            cols = terms[: d * r.size].reshape(d, g, hi - lo, slots)
            for acc, left, right in ((dv, goc, pc), (dk, merged(qd, lo, hi), ds)):
                if acc is not None:
                    np.matmul(left.swapaxes(-1, -2), right, out=cols.transpose(1, 2, 0, 3))
                    _scatter_add(acc, r, cols.reshape(d, -1))
        if dq is not None:
            _accumulate(q, dq)
        for t, acc in ((k, dk), (v, dv)):
            if acc is not None:
                _accumulate(t, np.ascontiguousarray(acc.T).reshape(lk, g, d))

    return _make(out, (q, k, v), backward)


def index_mask(idx: Array, valid: Array, length: int) -> Array:
    """The dense visibility an attention index (G, L, K) stands for: bool
    (G, 1, L, length) with entry [g, 0, i, j] set when some valid slot
    of query i holds key j. It broadcasts over the heads of a group as a
    ``masked_softmax`` mask."""
    groups, rows, _ = idx.shape
    out = np.zeros((groups, rows, length), dtype=bool)
    gg, ii, ss = np.nonzero(valid)
    out[gg, ii, idx[gg, ii, ss]] = True
    return out[:, None]


def _chunk_rows(width: int) -> int:
    """Rows per chunk when one row's block holds ``width`` float64 values:
    about ``CHUNK_BYTES``, and at least one row (all of them when a row
    holds none)."""
    return max(1, CHUNK_BYTES // max(1, 8 * width))


def linear_cross_entropy(h, w, targets: Array) -> Tensor:
    """Mean over rows of -log softmax(h @ w.T)[n, targets[n]].

    ``h`` is (N, d), ``w`` is (V, d) and ``targets`` holds N column
    indices in [0, V); any other target is a ValueError. The (N, V) logit
    matrix is never formed whole: the forward works through the rows in
    chunks of ``_chunk_rows(V)``, and each chunk's logits are formed once.
    When a gradient is wanted (grad enabled, and ``h`` or ``w`` requires
    one), the forward also turns the chunk in place into
    ``(softmax - onehot) / N``, writes that chunk's rows of the ``h``
    gradient and adds its share into the ``w`` gradient: the loss is a
    scalar, so its gradients are these scaled by the upstream seed, and the
    backward does no (N, V) work. It hands the two gradients on and drops
    them, so a second backward through the same loss is a RuntimeError.
    """
    h, w = _as_tensor(h), _as_tensor(w)
    n, vocab = h.shape[0], w.shape[0]
    targets = np.asarray(targets, dtype=np.int64)
    if h.ndim != 2 or w.ndim != 2 or h.shape[1] != w.shape[1]:
        raise ValueError(f"linear_cross_entropy needs (N, d) and (V, d) operands, got "
                         f"{h.shape} and {w.shape}")
    if n == 0 or targets.shape != (n,):
        raise ValueError(f"need one target for each of N >= 1 rows, got shape "
                         f"{targets.shape} for N = {n}")
    if targets.min() < 0 or targets.max() >= vocab:
        bad = targets[(targets < 0) | (targets >= vocab)][0]
        raise ValueError(f"target {int(bad)} outside [0, {vocab})")
    learn = _grad_enabled()
    dh = np.empty_like(h.data) if learn and h.requires_grad else None
    dw = np.zeros_like(w.data) if learn and w.requires_grad else None
    step = _chunk_rows(vocab)
    lse = np.empty(n)
    picked = np.empty(n)
    for lo in range(0, n, step):
        sl = slice(lo, lo + step)
        hs = h.data[sl]
        x = hs @ w.data.T
        hit = (np.arange(x.shape[0]), targets[sl])
        picked[sl] = x[hit]
        mx, s = _exp_shifted(x)
        lse[sl] = (np.log(s) + mx)[:, 0]
        if dh is not None or dw is not None:
            x *= (1.0 / n) / s
            x[hit] -= 1.0 / n
            if dh is not None:
                dh[sl] = x @ w.data
            if dw is not None:
                dw += x.T @ hs
        del x   # else the next chunk's logits are formed while this one is alive
    loss = (lse - picked).sum() * (1.0 / n)

    def backward(g: Array) -> None:
        nonlocal dh, dw
        if dh is None and dw is None:   # the tape holds this closure only with one of them set
            raise RuntimeError("linear_cross_entropy: backward through the same loss a second "
                               "time; its gradients were formed once, in the forward")
        for t, grad in ((h, dh), (w, dw)):
            if grad is not None:
                if g != 1.0:
                    grad *= g
                _accumulate(t, grad)
        dh = dw = None

    return _make(np.asarray(loss), (h, w), backward)


def affine(x, w, b) -> Tensor:
    """``x @ w + b``: ``x`` is (..., d_in), ``w`` (d_in, d_out) and ``b``
    (d_out,). One op, which keeps only its inputs for backward."""
    x, w, b = _as_tensor(x), _as_tensor(w), _as_tensor(b)
    if x.ndim < 2 or w.ndim != 2 or x.shape[-1] != w.shape[0] or b.shape != w.shape[1:]:
        raise ValueError(f"affine needs (..., d_in), (d_in, d_out) and (d_out,) operands, "
                         f"got {x.shape}, {w.shape} and {b.shape}")
    out = x.data @ w.data
    out += b.data

    def backward(g: Array) -> None:
        _accumulate(x, _affine_grads(x.data, w, b, g, x.requires_grad))

    return _make(out, (x, w, b), backward)


def _affine_grads(x: Array, w: Tensor, b: Tensor | None, g: Array,
                  need_dx: bool) -> Array | None:
    """Backward of ``x @ w + b`` (``x @ w`` when ``b`` is None) for the
    output gradient ``g``: adds the gradients of ``w`` and ``b`` to them,
    and returns x's, ``g @ w.T``, if ``need_dx`` (else None)."""
    if w.requires_grad:
        _accumulate(w, _unbroadcast(np.swapaxes(x, -1, -2) @ g, w.shape))
    if b is not None and b.requires_grad:
        _accumulate(b, _unbroadcast(g, b.shape))
    return g @ w.data.T if need_dx else None


def ffn(x, w1, b1, w2, b2) -> Tensor:
    """The feed-forward block ``tanh(x @ w1 + b1) @ w2 + b2``: ``x`` is
    (..., d), ``w1`` (d, m), ``b1`` (m,), ``w2`` (m, d_out) and ``b2``
    (d_out,). One op, which keeps only the tanh output y for backward
    (tanh' = 1 - y * y): neither the (..., m) pre-activation nor the
    gradients of the chain's interior nodes."""
    x, w1, b1, w2, b2 = (_as_tensor(t) for t in (x, w1, b1, w2, b2))
    if (x.ndim < 2 or w1.ndim != 2 or w2.ndim != 2 or x.shape[-1] != w1.shape[0]
            or b1.shape != w1.shape[1:] or w2.shape[0] != w1.shape[1] or b2.shape != w2.shape[1:]):
        raise ValueError(f"ffn needs (..., d), (d, m), (m,), (m, d_out) and (d_out,) operands, "
                         f"got {x.shape}, {w1.shape}, {b1.shape}, {w2.shape} and {b2.shape}")
    y = x.data @ w1.data
    y += b1.data
    np.tanh(y, out=y)
    out = y @ w2.data
    out += b2.data

    def backward(g: Array) -> None:
        dpre = _affine_grads(y, w2, b2, g, x.requires_grad or w1.requires_grad or b1.requires_grad)
        if dpre is None:
            return
        slope = y * y          # 1 - y * y in one (..., m) buffer, not two
        np.subtract(1.0, slope, out=slope)
        dpre *= slope
        del slope
        _accumulate(x, _affine_grads(x.data, w1, b1, dpre, x.requires_grad))

    return _make(out, (x, w1, b1, w2, b2), backward)


def residual_norm(x, y, gamma, beta, keep: Array | None = None, rate: float = 0.0) -> Tensor:
    """Layer norm of the residual sum ``x + y`` over the last axis, with
    inverted dropout on ``y``: ``x + y * (keep / (1 - rate))`` is
    normalized to zero mean and unit variance, then scaled by ``gamma``
    and shifted by ``beta``. ``keep`` is the bool keep-mask, of y's
    shape; without one there is no dropout.

    One op. It keeps the normalized sum, the per-row 1/sigma and the bool
    mask for backward: no float mask, no dropped ``y`` and no sum. It forms
    its output with the numpy expressions, in the order, of the chain of
    elementwise ops it stands for, so the output is bit-identical to it."""
    x, y, gamma, beta = _as_tensor(x), _as_tensor(y), _as_tensor(gamma), _as_tensor(beta)
    if x.shape != y.shape:
        raise ValueError(f"residual_norm operands disagree: {x.shape} vs {y.shape}")
    if gamma.shape != x.shape[-1:] or beta.shape != x.shape[-1:]:
        raise ValueError(f"residual_norm affine params must match last axis {x.shape[-1:]}")
    if keep is not None:
        keep = np.asarray(keep, dtype=bool)
        if keep.shape != y.shape or not 0.0 <= rate < 1.0:
            raise ValueError(f"keep-mask of shape {keep.shape} and rate {rate} do not fit "
                             f"operands of shape {y.shape}")
    n = x.shape[-1]
    xhat = x.data + (y.data if keep is None else y.data * (keep / (1.0 - rate)))
    xhat -= xhat.sum(axis=-1, keepdims=True) * (1.0 / n)
    inv = ((xhat * xhat).sum(axis=-1, keepdims=True) * (1.0 / n) + _LAYER_NORM_EPS) ** -0.5
    xhat *= inv
    out = xhat * gamma.data
    out += beta.data

    def backward(g: Array) -> None:
        if gamma.requires_grad:
            _accumulate(gamma, _unbroadcast(g * xhat, gamma.shape))
        if beta.requires_grad:
            _accumulate(beta, _unbroadcast(g, beta.shape))
        if not (x.requires_grad or y.requires_grad):
            return
        dxhat = g * gamma.data
        ds = dxhat - dxhat.sum(axis=-1, keepdims=True) * (1.0 / n)
        ds -= xhat * ((dxhat * xhat).sum(axis=-1, keepdims=True) * (1.0 / n))
        ds *= inv
        _accumulate(x, ds)
        if y.requires_grad:
            _accumulate(y, ds if keep is None else ds * (keep / (1.0 - rate)))

    return _make(out, (x, y, gamma, beta), backward)


def sigmoid_gate(a, b, w, bias) -> tuple[Tensor, Array]:
    """The sigmoid-gated mix ``alpha * a + (1 - alpha) * b`` with
    ``alpha = sigmoid([a; b] @ w + bias)``: ``a`` and ``b`` are (..., d),
    ``w`` (2d, d) and ``bias`` (d,). Returns the mix and alpha, a plain
    array with no node of its own.

    One op: the concat, the affine, the sigmoid and the mix, which keeps
    alpha alone for backward. It reads ``a`` and ``b`` from their tensors,
    and forms the concat again only for ``w``'s gradient."""
    a, b, w, bias = _as_tensor(a), _as_tensor(b), _as_tensor(w), _as_tensor(bias)
    z = np.concatenate([a.data, b.data], axis=-1) @ w.data
    z += bias.data
    alpha = _sigmoid(z)
    del z

    def backward(g: Array) -> None:
        dz = g * a.data
        dz -= g * b.data
        dz *= alpha
        dz *= 1.0 - alpha
        if w.requires_grad:
            cat = np.concatenate([a.data, b.data], axis=-1)
            _accumulate(w, _unbroadcast(np.swapaxes(cat, -1, -2) @ dz, w.shape))
            del cat
        _accumulate(bias, _unbroadcast(dz, bias.shape))
        if a.requires_grad or b.requires_grad:
            dcat = dz @ w.data.T
            d = a.shape[-1]
            if a.requires_grad:
                _accumulate(a, g * alpha + dcat[..., :d])
            if b.requires_grad:
                _accumulate(b, g * (1.0 - alpha) + dcat[..., d:])

    return _make(alpha * a.data + (1.0 - alpha) * b.data, (a, b, w, bias), backward), alpha


def rope(x, w, heads: int, cos: Array, sin: Array, rotate: Array) -> Tensor:
    """The head projection and rotary encoding as one op: ``x @ w`` split
    into ``heads`` heads, then ``y * cos + (y @ rotate) * sin`` on each
    head's vectors ``y``. ``x`` is (..., L, d_in) and ``w`` (d_in, heads *
    d); the output is (..., L, heads, d). The angle tables ``cos`` and
    ``sin`` broadcast to it and, with the (d, d) ``rotate``, are constants
    that get no gradient. It keeps only its inputs for backward, not the
    projection, and forms its output with the expressions, in the order,
    of the projection, the head split and the rotation."""
    x, w = _as_tensor(x), _as_tensor(w)
    y = x.data @ w.data
    shape = y.shape
    y = y.reshape(shape[:-1] + (heads, shape[-1] // heads))
    out = y * cos
    out += (y @ rotate) * sin

    def backward(g: Array) -> None:
        dy = (g * cos + (g * sin) @ rotate.T).reshape(shape)
        _accumulate(x, _affine_grads(x.data, w, None, dy, x.requires_grad))

    return _make(out, (x, w), backward)

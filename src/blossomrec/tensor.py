"""Dense float64 tensors with a reverse-mode gradient tape.

Everything downstream (both attention pathways, the gate, the recommender)
runs on this substrate. Forward arithmetic is plain numpy on float64
arrays; any op that touches a differentiable input records a backward
closure, and ``GradTape`` linearizes the recorded ops so replaying them in
reverse accumulates gradients into every reachable parameter.

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
    handed to two parents (``add`` gives both the same ``g``) is never
    written through, and no backward closure writes into an array it
    received.
  * ``mul`` and ``matmul`` form an operand's gradient product only when
    that operand requires a gradient, so constant tables and masks cost
    no backward work.
  * the two large ops work through their rows in chunks of about
    ``CHUNK_BYTES`` (2 MB) of the block they form per row, and keep for
    backward only what is small next to what they compute.
    ``gathered_attention`` forms the gathered K or V of a chunk of query
    rows at a time and keeps its softmax weights and key-row index; its
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
    "concat",
    "masked_softmax",
    "gathered_attention",
    "index_mask",
    "linear_cross_entropy",
    "layer_norm",
    "sigmoid",
    "tanh",
    "power",
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
_LAYER_NORM_EPS = 1e-5   # added to the variance ``layer_norm`` divides by


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

    def item(self) -> float:
        return float(self.data)

    def __repr__(self) -> str:
        flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{flag})"

    # -- graph plumbing --------------------------------------------------

    def backward(self, grad: Array | None = None) -> None:
        GradTape(self).replay(grad)

    # -- operators -------------------------------------------------------

    def __add__(self, other):
        return add(self, other)

    def __radd__(self, other):
        return add(other, self)

    def __sub__(self, other):
        return sub(self, other)

    def __rsub__(self, other):
        return sub(other, self)

    def __mul__(self, other):
        return mul(self, other)

    def __rmul__(self, other):
        return mul(other, self)

    def __neg__(self):
        return mul(self, -1.0)

    def __matmul__(self, other):
        return matmul(self, other)

    def __pow__(self, p):
        return power(self, p)

    def __getitem__(self, idx):
        return getitem(self, idx)

    def sum(self, axis=None, keepdims: bool = False):
        return tsum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        return tmean(self, axis=axis, keepdims=keepdims)

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
            if node.grad is None or node._backward is None:
                continue
            node._backward(node.grad)


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


def add(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g: Array) -> None:
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(g, b.shape))

    return _make(a.data + b.data, (a, b), backward)


def sub(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g: Array) -> None:
        _accumulate(a, _unbroadcast(g, a.shape))
        _accumulate(b, _unbroadcast(-g, b.shape))

    return _make(a.data - b.data, (a, b), backward)


def mul(a, b) -> Tensor:
    a, b = _as_tensor(a), _as_tensor(b)

    def backward(g: Array) -> None:
        if a.requires_grad:
            _accumulate(a, _unbroadcast(g * b.data, a.shape))
        if b.requires_grad:
            _accumulate(b, _unbroadcast(g * a.data, b.shape))

    return _make(a.data * b.data, (a, b), backward)


def power(a, p: float) -> Tensor:
    a = _as_tensor(a)
    p = float(p)
    out_data = a.data**p

    def backward(g: Array) -> None:
        _accumulate(a, g * p * a.data ** (p - 1.0))

    return _make(out_data, (a,), backward)


def tanh(a) -> Tensor:
    a = _as_tensor(a)
    out_data = np.tanh(a.data)

    def backward(g: Array) -> None:
        _accumulate(a, g * (1.0 - out_data * out_data))

    return _make(out_data, (a,), backward)


def sigmoid(a) -> Tensor:
    a = _as_tensor(a)
    x = a.data
    # Branch on sign to avoid overflow in exp.
    e = np.exp(-np.abs(x))
    out_data = np.where(x >= 0, 1.0 / (1.0 + e), e / (1.0 + e))

    def backward(g: Array) -> None:
        _accumulate(a, g * out_data * (1.0 - out_data))

    return _make(out_data, (a,), backward)


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


def concat(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    tensors = [_as_tensor(t) for t in tensors]
    sizes = [t.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(g: Array) -> None:
        for t, lo, hi in zip(tensors, offsets[:-1], offsets[1:]):
            sl = [slice(None)] * g.ndim
            sl[axis] = slice(lo, hi)
            _accumulate(t, g[tuple(sl)])

    return _make(np.concatenate([t.data for t in tensors], axis=axis), tensors, backward)


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


def tsum(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)

    def backward(g: Array) -> None:
        if axis is None:
            _accumulate(a, np.broadcast_to(g, a.shape).copy())
            return
        if not keepdims:
            g = np.expand_dims(g, axis)
        _accumulate(a, np.broadcast_to(g, a.shape).copy())

    return _make(a.data.sum(axis=axis, keepdims=keepdims), (a,), backward)


def tmean(a, axis=None, keepdims: bool = False) -> Tensor:
    a = _as_tensor(a)
    if axis is None:
        n = a.size
    elif isinstance(axis, tuple):
        n = int(np.prod([a.shape[i] for i in axis]))
    else:
        n = a.shape[axis]
    return mul(tsum(a, axis=axis, keepdims=keepdims), 1.0 / n)


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

    q: (B, heads, L, d); k, v: (B, groups, Lk, d), with the heads of a
    group consecutive and sharing its K/V. ``idx`` (int, key positions in
    [0, Lk)) and ``valid`` (bool) are (B, groups or 1, L, K): slot s of
    query i holds key ``idx[..., i, s]`` when ``valid[..., i, s]``; a
    leading group axis of 1 gives every group the same positions. K/V are
    gathered once per group and shared by its heads, the softmax
    (``_exp_shifted``) runs over the valid slots only, a query with no
    valid slot comes back as exact zeros and one with a NaN logit as NaN.
    Returns (B, heads, L, d), equal to scaled dot-product attention under
    ``index_mask(idx, valid, Lk)`` at O(L * K * d) cost.
    An index outside [0, Lk), in a valid slot or not, and a head count
    that is not a multiple of the group count are ValueErrors.

    The query rows are worked through in chunks whose gathered
    (B, G, rows, K, d) block is about ``CHUNK_BYTES`` (at least one row),
    and one such block is alive at a time. The forward gathers a chunk's
    K, fills its rows of the softmax weights, then gathers its V and
    fills its rows of the output. Only the softmax weights
    (B, G, L, heads per group, K) and the key-row index stay on the tape;
    the backward, chunk by chunk, gathers V again for the weights'
    gradient, then K for the query rows' gradient, and forms the chunk's
    K/V gradient terms feature-major, (d, B, G, rows, K), so that each of
    the d ``np.bincount`` calls that scatters them onto their key rows
    reads one contiguous column.
    """
    q, k, v = _as_tensor(q), _as_tensor(k), _as_tensor(v)
    b, h, length, d = q.shape
    g, lk = k.shape[1], k.shape[2]
    if h % g:
        raise ValueError(f"{h} query heads do not split into {g} K/V groups")
    idx = np.asarray(idx)
    if idx.size and (idx.min() < 0 or idx.max() >= lk):
        bad = idx[(idx < 0) | (idx >= lk)][0]
        raise ValueError(f"key index {int(bad)} outside [0, {lk})")
    hpg, slots = h // g, idx.shape[-1]
    hidden = ~np.asarray(valid, dtype=bool)[:, :, :, None, :]   # (b, g or 1, L, 1, K)
    rows = idx + (np.arange(b * g) * lk).reshape(b, g, 1, 1)   # (b, g, L, K)
    step = _chunk_rows(b * g * slots * d)
    # (lo, hi, the chunk's key rows of k.reshape(-1, d), flat in (B, G, rows, K) order)
    chunks = [(lo, min(lo + step, length), rows[:, :, lo: lo + step].reshape(-1))
              for lo in range(0, length, step)]
    del rows   # with more than one chunk, they hold copies

    def gather(table: Array, r: Array, n: int) -> Array:
        return np.take(table, r, axis=0).reshape(b, g, n, slots, d)

    def by_head(x: Array) -> Array:
        return x.reshape(b, g, hpg, length, d).transpose(0, 1, 3, 2, 4)   # (b, g, L, hpg, d)

    scale = 1.0 / np.sqrt(d)
    qd, kd, vd = q.data, k.data, v.data   # the arrays backward gathers from again
    qh = by_head(qd)
    p = np.empty((b, g, length, hpg, slots))
    out = np.empty((b, g, hpg, length, d))
    kf, vf = kd.reshape(-1, d), vd.reshape(-1, d)
    for lo, hi, r in chunks:
        pc = p[:, :, lo:hi]
        np.matmul(qh[:, :, lo:hi], gather(kf, r, hi - lo).swapaxes(-1, -2), out=pc)
        pc *= scale
        _, s = _exp_shifted(pc, hidden[:, :, lo:hi])
        np.divide(pc, s, out=pc, where=s > 0)
        np.matmul(pc, gather(vf, r, hi - lo), out=out[:, :, :, lo:hi].transpose(0, 1, 3, 2, 4))

    def backward(grad: Array) -> None:
        go = by_head(grad)
        kf, vf = kd.reshape(-1, d), vd.reshape(-1, d)
        dq = np.empty((b, g, hpg, length, d)) if q.requires_grad else None
        dk, dv = (np.zeros((d, b * g * lk)) if t.requires_grad else None for t in (k, v))
        terms = np.empty(d * b * g * min(step, length) * slots)
        for lo, hi, r in chunks:
            pc, goc = p[:, :, lo:hi], go[:, :, lo:hi]
            ds = goc @ gather(vf, r, hi - lo).swapaxes(-1, -2)
            ds -= (ds * pc).sum(axis=-1, keepdims=True)
            ds *= pc
            ds *= scale
            if dq is not None:
                np.matmul(ds, gather(kf, r, hi - lo), out=dq[:, :, :, lo:hi].transpose(0, 1, 3, 2, 4))
            cols = terms[: d * r.size].reshape(d, b, g, hi - lo, slots)
            for acc, left, right in ((dv, goc, pc), (dk, qh[:, :, lo:hi], ds)):
                if acc is not None:
                    np.matmul(left.swapaxes(-1, -2), right, out=cols.transpose(1, 2, 3, 0, 4))
                    _scatter_add(acc, r, cols.reshape(d, -1))
        if dq is not None:
            _accumulate(q, dq.reshape(b, h, length, d))
        for t, acc in ((k, dk), (v, dv)):
            if acc is not None:
                _accumulate(t, np.ascontiguousarray(acc.T).reshape(b, g, lk, d))

    return _make(out.reshape(b, h, length, d), (q, k, v), backward)


def index_mask(idx: Array, valid: Array, length: int) -> Array:
    """The dense visibility an attention index stands for: bool
    (B, G, 1, L, length) with entry [b, g, 0, i, j] set when some valid
    slot of query i holds key j. It broadcasts over the heads of a group
    as a ``masked_softmax`` mask."""
    b, groups, rows, _ = idx.shape
    out = np.zeros((b, groups, rows, length), dtype=bool)
    bb, gg, ii, ss = np.nonzero(valid)
    out[bb, gg, ii, idx[bb, gg, ii, ss]] = True
    return out[:, :, None]


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


def layer_norm(x, gamma, beta) -> Tensor:
    """Normalize the last axis to zero mean / unit variance, then scale-shift."""
    x, gamma, beta = _as_tensor(x), _as_tensor(gamma), _as_tensor(beta)
    if gamma.shape != x.shape[-1:] or beta.shape != x.shape[-1:]:
        raise ValueError(f"layer_norm affine params must match last axis {x.shape[-1:]}")
    mu = tmean(x, axis=-1, keepdims=True)
    centered = sub(x, mu)
    var = tmean(mul(centered, centered), axis=-1, keepdims=True)
    inv = power(add(var, _LAYER_NORM_EPS), -0.5)
    return add(mul(mul(centered, inv), gamma), beta)


def affine(x, w, b) -> Tensor:
    return add(matmul(x, w), b)

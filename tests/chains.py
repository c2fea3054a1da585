"""Tape-free references for the fused tape ops: each fused op in
``tensor.py`` written in plain numpy as the chain of elementwise
expressions it stands for, in the same order, so that on real inputs a
fused op's output equals its chain's bit for bit.

Every chain is also analytic in its array inputs, so the same function
evaluated at complex points gives its derivatives by the complex step
(``complex_step_grads``): f(x + i*h*e) = f(x) + i*h*f'(x)e + O(h^2), and
the imaginary part involves no subtraction, so a step of 1e-30 gives the
derivative exact to rounding. The fused ops' gradients are checked
against these to 1e-12."""

import numpy as np

from blossomrec import tensor as tensor_mod

STEP = 1e-30


def sigmoid(z):
    """``tensor._sigmoid``'s formula, branching on the sign of the real
    part: bit for bit ``_sigmoid`` on real ``z``, and analytic on complex
    ``z`` (exp(-|z|) is not)."""
    e = np.exp(np.where(z.real >= 0, -z, z))
    return np.where(z.real >= 0, 1.0 / (1.0 + e), e / (1.0 + e))


def chain_affine(x, w, b):
    """``affine``: the matmul, then the bias."""
    return x @ w + b


def chain_ffn(x, w1, b1, w2, b2):
    """``ffn``: affine, tanh, affine."""
    return np.tanh(x @ w1 + b1) @ w2 + b2


def chain_residual_norm(x, y, gamma, beta, keep=None, rate=0.0):
    """``residual_norm``: inverted dropout as a product with a float mask,
    the residual sum, and layer norm with the mean as sum times 1/n."""
    s = x + (y if keep is None else y * (keep / (1.0 - rate)))
    n = s.shape[-1]
    centered = s - s.sum(axis=-1, keepdims=True) * (1.0 / n)
    var = (centered * centered).sum(axis=-1, keepdims=True) * (1.0 / n)
    return centered * (var + tensor_mod._LAYER_NORM_EPS) ** -0.5 * gamma + beta


def chain_gate(a, b, w, bias):
    """``sigmoid_gate``: concat, matmul, bias, sigmoid and the mix;
    returns the mix and alpha."""
    alpha = sigmoid(np.concatenate([a, b], axis=-1) @ w + bias)
    return alpha * a + (1.0 - alpha) * b, alpha


def chain_rope(x, w, heads, cos, sin, rotate):
    """``rope``: the projection, the split of its columns into ``heads``
    heads (rows first), then the rotation's two products, its matmul and
    its sum."""
    y = x @ w
    y = y.reshape(y.shape[:-1] + (heads, y.shape[-1] // heads))
    return y * cos + (y @ rotate) * sin


def chain_gathered_attention(q, k, v, idx, valid):
    """``gathered_attention``'s forward in one chunk: each query's K and V
    rows gathered by ``idx``, the scaled logits, the softmax over the
    valid slots (a row with none is zeros), and the heads merged; q is
    (n, heads, d) and k, v (Lk, groups, d), rows first. The
    softmax subtracts the row max of the logits' real part, so the chain
    stays analytic."""
    n, h, d = q.shape
    g = k.shape[1]
    at = idx, np.arange(g)[:, None, None]
    x = q.reshape(n, g, h // g, d).transpose(1, 0, 2, 3) @ k[at].swapaxes(-1, -2)
    x *= 1.0 / np.sqrt(d)
    x = np.where(valid[:, :, None], x, -np.inf)
    e = np.exp(x - x.real.max(axis=-1, keepdims=True, initial=tensor_mod._LOWEST))
    s = e.sum(axis=-1, keepdims=True)
    out = (e / np.where(s.real > 0, s, 1.0)) @ v[at]
    return out.transpose(1, 0, 2, 3).reshape(n, h * d)


def complex_step_derivative(f, xs, k, v, seed):
    """The derivative of ``(f(*xs) * seed).sum()`` along direction ``v``
    of input ``k``, by one complex step."""
    zs = list(xs)
    zs[k] = xs[k] + STEP * 1j * v
    return (f(*zs).imag / STEP * seed).sum()


def complex_step_grads(f, xs, seed):
    """The gradient of ``(f(*xs) * seed).sum()`` for each array in
    ``xs``: one complex step along each input entry."""
    return [np.array([complex_step_derivative(f, xs, k, e.reshape(x.shape), seed)
                      for e in np.eye(x.size)]).reshape(x.shape)
            for k, x in enumerate(xs)]

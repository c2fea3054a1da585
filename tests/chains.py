"""Reference chains for the fused tape ops: each fused op in ``tensor.py``
written as the chain of smaller ops it stands for. The fused ops are
checked against these, forward bit for bit and backward to 1e-12."""

import numpy as np

from blossomrec import tensor as tensor_mod
from blossomrec.tensor import Tensor, affine, concat, matmul, power, sigmoid


def chain_affine(x, w, b):
    """``affine`` as the matmul and add it stands for."""
    return matmul(x, w) + b


def chain_tanh(a):
    """The elementwise tanh tape op the FFN's chain was made of."""
    y = np.tanh(a.data)

    def backward(g):
        tensor_mod._accumulate(a, g * (1.0 - y * y))

    return tensor_mod._make(y, (a,), backward)


def chain_ffn(x, w1, b1, w2, b2):
    """``ffn`` as the affine, tanh and affine it stands for."""
    return affine(chain_tanh(affine(x, w1, b1)), w2, b2)


def chain_layer_norm(x, gamma, beta):
    """Layer norm as the chain of elementwise ops it stands for."""
    centered = x - x.mean(axis=-1, keepdims=True)
    var = (centered * centered).mean(axis=-1, keepdims=True)
    return centered * power(var + tensor_mod._LAYER_NORM_EPS, -0.5) * gamma + beta


def chain_residual_norm(x, y, gamma, beta, keep=None, rate=0.0):
    """``residual_norm`` as inverted dropout (a product with a float
    mask), the residual add and the layer norm chain."""
    dropped = y if keep is None else y * Tensor(keep / (1.0 - rate))
    return chain_layer_norm(x + dropped, gamma, beta)


def chain_gate(a, b, w, bias):
    """``sigmoid_gate`` as concat, matmul, add, sigmoid and the mix."""
    alpha = sigmoid(matmul(concat([a, b], axis=a.ndim - 1), w) + bias)
    return alpha * a + (1.0 - alpha) * b, alpha


def chain_rope(x, cos, sin, rotate):
    """``rope`` as its two products, its matmul and its sum."""
    return x * cos + matmul(x, Tensor(rotate)) * sin

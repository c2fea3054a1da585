"""The gradient checker itself, on objectives with known derivatives."""

import numpy as np
import pytest

from blossomrec.gradcheck import grad_check
from blossomrec.tensor import Tensor, linear_cross_entropy, parameter


def test_quadratic():
    w = parameter(np.array([3.0]))
    err = grad_check(lambda: (w * w).reshape(()), {"w": w})
    assert err < 1e-8
    # analytic derivative of w^2 at 3 is 6
    (w * w).reshape(()).backward()
    assert abs(w.grad[0] - 6.0) < 1e-12


def test_three_item_vocabulary_loss():
    scores = parameter(np.array([[0.3, -1.2, 0.8]]))
    err = grad_check(lambda: linear_cross_entropy(scores, Tensor(np.eye(3)), [1]),
                     {"scores": scores}, h=1e-5)
    assert err < 1e-6


def test_rejects_nonscalar():
    w = parameter(np.ones(3))
    with pytest.raises(ValueError, match="scalar"):
        grad_check(lambda: w * 2.0, {"w": w})


def test_rejects_nonfinite():
    w = parameter(np.array([1e200]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        grad_check(lambda: (w * w).sum(), {"w": w})


def test_reports_wrong_gradient():
    """A deliberately broken backward must be caught, not smoothed over."""
    w = parameter(np.array([1.5]))

    def f():
        out = Tensor((w.data * w.data).copy())
        out.requires_grad = True
        out._parents = (w,)

        def bad_backward(g):
            if w.grad is None:
                w.grad = np.zeros_like(w.data)
            w.grad += g * 7.0  # wrong: true derivative is 2w

        out._backward = bad_backward
        return out.reshape(())

    assert grad_check(f, {"w": w}) > 0.5

"""The gradient checker itself, on objectives with known derivatives."""

import numpy as np
import pytest

from blossomrec.gradcheck import grad_check
from blossomrec.tensor import Tensor, linear_cross_entropy, matmul, mul, parameter, reshape

from chains import weighted_sum


def test_quadratic():
    w = parameter(np.array([3.0]))
    err = grad_check(lambda: reshape(mul(w, w), ()), {"w": w})
    assert err < 1e-8
    # analytic derivative of w^2 at 3 is 6
    reshape(mul(w, w), ()).backward()
    assert abs(w.grad[0] - 6.0) < 1e-12


def test_three_item_vocabulary_loss():
    scores = parameter(np.array([[0.3, -1.2, 0.8]]))
    err = grad_check(lambda: linear_cross_entropy(scores, Tensor(np.eye(3)), [1]),
                     {"scores": scores}, h=1e-5)
    assert err < 1e-6


def test_rejects_nonscalar():
    w = parameter(np.ones(3))
    with pytest.raises(ValueError, match="scalar"):
        grad_check(lambda: mul(w, 2.0), {"w": w})


@pytest.mark.parametrize("shape", [(1, 1), (1,), (1, 1, 1)], ids=["1x1", "1", "1x1x1"])
def test_size_one_objective_of_any_shape(shape):
    """A size-1 objective need not be 0-d: (1, 2) @ (2, 1) checks like
    its scalar, whose gradient is the ones vector."""
    w = parameter(np.array([[0.5, -2.0]]))
    err = grad_check(lambda: reshape(matmul(w, np.ones((2, 1))), shape), {"w": w})
    assert err < 1e-8


def test_rejects_nonfinite():
    w = parameter(np.array([1e200]))
    with np.errstate(over="ignore"), pytest.raises(ValueError, match="non-finite"):
        grad_check(lambda: weighted_sum(mul(w, w)), {"w": w})


def test_nonfinite_step_leaves_parameters_as_they_were():
    """The objective is NaN below w[0] = 1, so the step to w[0] - h
    raises; the entry it moved must be put back."""
    w = parameter(np.array([1.0, 2.0]))

    def f():
        return weighted_sum(mul(w, np.where(w.data[0] < 1.0, np.nan, 1.0)))

    with pytest.raises(ValueError, match="non-finite"):
        grad_check(f, {"w": w})
    assert w.data.tolist() == [1.0, 2.0]


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
        return reshape(out, ())

    assert grad_check(f, {"w": w}) > 0.5

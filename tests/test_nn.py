import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra.numpy import arrays

from dpsynth import nn
from dpsynth.errors import NumericError, ShapeError, UsageError


def test_leaky_relu_grad_at_zero_is_one():
    assert nn.leaky_relu_grad(np.array([0.0]))[0] == 1.0


@given(
    arrays(np.float64, st.integers(1, 20), elements=st.floats(-1e6, 1e6)),
)
def test_leaky_relu_slope_one_is_identity(v):
    np.testing.assert_array_equal(nn.leaky_relu(v, slope=1.0), v)


def test_init_dense_bounds_and_zero_bias():
    rng = np.random.default_rng(0)
    layer = nn.init_dense(7, 4, rng, activation=nn.LEAKY_RELU)
    bound = 1.0 / np.sqrt(4)
    assert np.all(np.abs(layer.weight) <= bound)
    assert np.all(layer.bias == 0.0)
    assert layer.weight.shape == (7, 4)


def test_grad_check_accepts_correct_gradient():
    def f(p):
        return float(p[0] ** 2), np.array([2.0 * p[0]])

    assert nn.grad_check(f, np.array([3.0])) < 1e-9


def test_grad_check_flags_corrupted_gradient():
    def f(p):
        return float(p[0] ** 2), np.array([4.0 * p[0]])  # doubled on purpose

    assert nn.grad_check(f, np.array([3.0])) >= 0.4


def test_shape_errors():
    with pytest.raises(ShapeError):
        nn.DenseLayer(np.eye(2), np.zeros(3))
    with pytest.raises(ShapeError):
        nn.DenseLayer(np.zeros(2), np.zeros(2))
    with pytest.raises(UsageError):
        nn.DenseLayer(np.eye(2), np.zeros(2), activation="tanh")


def test_grad_check_eps_validation():
    def f(p):
        return float(p[0]), np.array([1.0])

    with pytest.raises(UsageError):
        nn.grad_check(f, np.array([0.0]), eps=1e-2)
    with pytest.raises(UsageError):
        nn.grad_check(f, np.array([0.0]), eps=0.0)


def test_grad_check_rejects_non_finite_objective():
    def f(p):
        return float("nan"), np.array([0.0])

    with pytest.raises(NumericError):
        nn.grad_check(f, np.array([0.0]))

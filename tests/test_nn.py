import numpy as np
import pytest

from dpsynth import nn
from dpsynth.errors import NumericError, ShapeError, UsageError
from oracles import grad_check


def test_leaky_relu_grad_at_zero_is_one():
    assert nn.leaky_relu_grad(np.array([0.0]))[0] == 1.0


def test_leaky_relu_hand_values_at_special_points():
    inf, nan = np.inf, np.nan
    v = np.array([-0.0, 0.0, inf, -inf, nan, 3.0, -2.0, 5e-324, -5e-324])
    got = nn.leaky_relu(v)
    expected = np.array([-0.0, 0.0, inf, -inf, nan, 3.0, -0.4, 5e-324, -0.0])
    np.testing.assert_array_equal(got, expected)
    signed = ~np.isnan(expected)  # a NaN's sign bit is the platform's choice
    np.testing.assert_array_equal(np.signbit(got[signed]), np.signbit(expected[signed]))


def test_init_dense_bounds_and_zero_bias():
    rng = np.random.default_rng(0)
    layer = nn.init_dense(7, 4, rng, activation=nn.LEAKY_RELU)
    bound = 1.0 / np.sqrt(4)
    assert np.all(np.abs(layer.weight) <= bound)
    assert np.all(layer.bias == 0.0)
    assert layer.weight.shape == (7, 4)


def _stack(rng):
    """Three layers, both activations, a two-wide output; parameters in one buffer."""
    layers = [
        nn.init_dense(4, 3, rng, activation=nn.LEAKY_RELU),
        nn.init_dense(5, 4, rng, activation=nn.LEAKY_RELU),
        nn.init_dense(2, 5, rng),
    ]
    for layer in layers:
        layer.bias[:] = rng.normal(size=layer.bias.shape)
    return layers, nn.gather([(layer, ("weight", "bias")) for layer in layers])


def test_backward_per_example_rows_sum_to_the_summed_gradient():
    rng = np.random.default_rng(0)
    layers, params = _stack(rng)
    X = rng.normal(size=(6, 3))
    out, caches = nn.forward(layers, X)
    assert out.shape == (6, 2)
    delta = rng.normal(size=out.shape)
    d_in, summed = nn.backward(layers, caches, delta)
    d_in_rows, rows = nn.backward(layers, caches, delta, per_example=True)
    assert summed.shape == params.shape and rows.shape == (6, params.size)
    np.testing.assert_allclose(rows.sum(axis=0), summed, rtol=0, atol=1e-12)
    np.testing.assert_array_equal(d_in_rows, d_in)


def test_backward_fills_every_entry_of_out_and_returns_it():
    rng = np.random.default_rng(2)
    layers, params = _stack(rng)
    X = rng.normal(size=(6, 3))
    out, caches = nn.forward(layers, X)
    delta = rng.normal(size=out.shape)
    for per_example, shape in ((False, params.shape), (True, (6, params.size))):
        d_in, fresh = nn.backward(layers, caches, delta, per_example)
        buf = np.full(shape, np.nan)
        d_in_buf, got = nn.backward(layers, caches, delta, per_example, out=buf)
        assert got is buf
        np.testing.assert_array_equal(buf.view(np.uint64), fresh.view(np.uint64))
        np.testing.assert_array_equal(d_in_buf, d_in)
    with pytest.raises(ShapeError):
        nn.backward(layers, caches, delta, out=np.empty(params.size + 1))
    with pytest.raises(ShapeError):
        nn.backward(layers, caches, delta, per_example=True, out=np.empty(params.shape))


def test_backward_matches_finite_differences():
    rng = np.random.default_rng(1)
    layers, params = _stack(rng)
    X = rng.normal(size=(6, 3))
    c = rng.normal(size=(6, 2))

    def through_params(p):
        params[:] = p
        out, caches = nn.forward(layers, X)
        return float((c * out).sum()), nn.backward(layers, caches, c)[1]

    def through_input(x):
        out, caches = nn.forward(layers, x.reshape(X.shape))
        return float((c * out).sum()), nn.backward(layers, caches, c)[0].ravel()

    assert grad_check(through_params, params.copy()) < 1e-6
    assert grad_check(through_input, X.ravel()) < 1e-6


def test_grad_check_accepts_correct_gradient():
    def f(p):
        return float(p[0] ** 2), np.array([2.0 * p[0]])

    assert grad_check(f, np.array([3.0])) < 1e-9


def test_grad_check_flags_corrupted_gradient():
    def f(p):
        return float(p[0] ** 2), np.array([4.0 * p[0]])  # doubled on purpose

    assert grad_check(f, np.array([3.0])) >= 0.4


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
        grad_check(f, np.array([0.0]), eps=1e-2)
    with pytest.raises(UsageError):
        grad_check(f, np.array([0.0]), eps=0.0)


def test_grad_check_rejects_non_finite_objective():
    def f(p):
        return float("nan"), np.array([0.0])

    with pytest.raises(NumericError):
        grad_check(f, np.array([0.0]))

"""Minimal dense-network core: float64 layers, activations and their
derivatives, and a finite-difference gradient check.

The forward and backward passes over whole batches live in ``models``.
Weights are (out, in) matrices, biases are (out,) vectors.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import NumericError, ShapeError, UsageError

IDENTITY = "identity"
LEAKY_RELU = "leaky_relu"
DEFAULT_SLOPE = 0.2


def leaky_relu(v: np.ndarray, slope: float = DEFAULT_SLOPE) -> np.ndarray:
    """Elementwise max(v, slope*v) for slope <= 1; slope=1 is the identity."""
    v = np.asarray(v, dtype=np.float64)
    return np.where(v >= 0.0, v, slope * v)


def leaky_relu_grad(pre: np.ndarray, slope: float = DEFAULT_SLOPE) -> np.ndarray:
    """Derivative of leaky_relu at the pre-activation; exactly 1 at pre == 0."""
    pre = np.asarray(pre, dtype=np.float64)
    return np.where(pre >= 0.0, 1.0, slope)


@dataclass
class DenseLayer:
    """One affine map plus activation: y = act(weight @ x + bias)."""

    weight: np.ndarray
    bias: np.ndarray
    activation: str = IDENTITY
    slope: float = DEFAULT_SLOPE

    def __post_init__(self):
        self.weight = np.asarray(self.weight, dtype=np.float64)
        self.bias = np.asarray(self.bias, dtype=np.float64)
        if self.weight.ndim != 2:
            raise ShapeError(f"weight must be 2-D, got ndim={self.weight.ndim}")
        if self.bias.shape != (self.weight.shape[0],):
            raise ShapeError(
                f"bias shape {self.bias.shape} does not match weight rows {self.weight.shape[0]}"
            )
        if self.activation not in (IDENTITY, LEAKY_RELU):
            raise UsageError(f"unknown activation {self.activation!r}")

    @property
    def out_dim(self) -> int:
        return self.weight.shape[0]

    @property
    def in_dim(self) -> int:
        return self.weight.shape[1]


def init_dense(
    n_out: int,
    n_in: int,
    rng: np.random.Generator,
    activation: str = IDENTITY,
    slope: float = DEFAULT_SLOPE,
) -> DenseLayer:
    """Fresh layer: weights uniform on [-1/sqrt(n_in), +1/sqrt(n_in)], zero bias."""
    if n_out < 1 or n_in < 1:
        raise ShapeError(f"layer dims must be positive, got ({n_out}, {n_in})")
    bound = 1.0 / np.sqrt(n_in)
    weight = rng.uniform(-bound, bound, size=(n_out, n_in))
    return DenseLayer(weight, np.zeros(n_out), activation, slope)


def act_grad(layer: DenseLayer, pre: np.ndarray) -> np.ndarray:
    """Activation derivative evaluated at the cached pre-activation."""
    if layer.activation == LEAKY_RELU:
        return leaky_relu_grad(pre, layer.slope)
    return np.ones_like(pre)


def grad_check(f, params: np.ndarray, eps: float = 1e-6) -> float:
    """Compare an analytic gradient against central finite differences.

    ``f(params)`` must return ``(value, grad)`` where grad has the shape of
    params. Returns the worst relative error
    ``|analytic - numeric| / max(1, |numeric|)`` over all coordinates.
    """
    if not (0.0 < eps <= 1e-3):
        raise UsageError(f"eps must lie in (0, 1e-3], got {eps}")
    params = np.asarray(params, dtype=np.float64)
    value, grad = f(params)
    if not np.isfinite(value):
        raise NumericError(f"objective is non-finite at the base point: {value}")
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != params.shape:
        raise ShapeError(f"grad shape {grad.shape} does not match params {params.shape}")
    worst = 0.0
    for i in range(params.size):
        bumped = params.copy()
        bumped[i] = params[i] + eps
        up, _ = f(bumped)
        bumped[i] = params[i] - eps
        down, _ = f(bumped)
        if not (np.isfinite(up) and np.isfinite(down)):
            raise NumericError(f"objective non-finite near coordinate {i}")
        numeric = (up - down) / (2.0 * eps)
        rel = abs(grad[i] - numeric) / max(1.0, abs(numeric))
        worst = max(worst, rel)
    return worst

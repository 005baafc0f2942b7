"""Minimal dense-network core: float64 layers, activations and their
derivatives, batched forward and backward passes through a stack of layers,
and the flat parameter store.

Every network in the package (each sub-generator's hidden and output layers
and the critic) runs through ``forward`` and ``backward``. Weights are
(out, in) matrices, biases are (out,) vectors; row i of every batch array is
one example.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import ShapeError, UsageError

IDENTITY = "identity"
LEAKY_RELU = "leaky_relu"
SLOPE = 0.2  # the leaky ReLU's slope below zero


def leaky_relu(v: np.ndarray) -> np.ndarray:
    """Elementwise v where v >= 0, else SLOPE*v, in one max(v, SLOPE*v) pass."""
    v = np.asarray(v, dtype=np.float64)
    return np.maximum(v, SLOPE * v)


def leaky_relu_grad(pre: np.ndarray) -> np.ndarray:
    """Derivative of leaky_relu at the pre-activation; exactly 1 at pre == 0."""
    pre = np.asarray(pre, dtype=np.float64)
    return np.where(pre >= 0.0, 1.0, SLOPE)


@dataclass
class DenseLayer:
    """One affine map plus activation: y = act(weight @ x + bias)."""

    weight: np.ndarray
    bias: np.ndarray
    activation: str = IDENTITY

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


def init_dense(n_out: int, n_in: int, rng: np.random.Generator, activation: str = IDENTITY) -> DenseLayer:
    """Fresh layer: weights uniform on [-1/sqrt(n_in), +1/sqrt(n_in)], zero bias."""
    if n_out < 1 or n_in < 1:
        raise ShapeError(f"layer dims must be positive, got ({n_out}, {n_in})")
    bound = 1.0 / np.sqrt(n_in)
    weight = rng.uniform(-bound, bound, size=(n_out, n_in))
    return DenseLayer(weight, np.zeros(n_out), activation)


def gather(groups) -> np.ndarray:
    """Copy the named arrays of each ``(owner, names)`` group into one new
    flat buffer, in order, and rebind each name to its view of the buffer."""
    slots = [(owner, name) for owner, names in groups for name in names]
    flat = np.empty(sum(getattr(owner, name).size for owner, name in slots))
    pos = 0
    for owner, name in slots:
        arr = getattr(owner, name)
        flat[pos : pos + arr.size] = arr.ravel()
        setattr(owner, name, flat[pos : pos + arr.size].reshape(arr.shape))
        pos += arr.size
    return flat


def forward(layers, X: np.ndarray):
    """Run a (B, in) batch through the stack; returns the (B, out) output and
    one ``(input, pre-activation)`` cache per layer for ``backward``."""
    caches = []
    for layer in layers:
        pre = X @ layer.weight.T + layer.bias
        caches.append((X, pre))
        X = leaky_relu(pre) if layer.activation == LEAKY_RELU else pre
    return X, caches


def backward(layers, caches, delta: np.ndarray, per_example: bool = False, out=None):
    """Backpropagate ``delta``, the (B, out) gradient at the stack's output.

    Returns the (B, in) gradient at the input and the parameter gradients in
    the stack's flat layout (per layer: weight row-major, then bias), summed
    over the batch as a (P,) vector, or one row per example as (B, P) with
    ``per_example``. Each layer's pieces are written straight into their
    slices of ``out`` when it is given (a float64 array of that shape, every
    entry overwritten, returned itself), else of a new array.
    """
    B = len(delta)
    P = sum(layer.weight.size + layer.bias.size for layer in layers)
    shape = (B, P) if per_example else (P,)
    if out is None:
        out = np.empty(shape)
    elif out.shape != shape or out.dtype != np.float64:
        raise ShapeError(f"out is {out.dtype} {out.shape}, expected float64 {shape}")
    end = P
    for layer, (xin, pre) in zip(reversed(layers), reversed(caches)):
        if layer.activation == LEAKY_RELU:
            delta = delta * leaky_relu_grad(pre)
        n_out, n_in = layer.weight.shape
        b0 = end - n_out
        w0 = b0 - n_out * n_in
        # splitting the last axis of a slice is always a view, so the products land in out
        if per_example:
            out[:, b0:end] = delta
            np.einsum("bo,bi->boi", delta, xin, out=out[:, w0:b0].reshape(B, n_out, n_in))
        else:
            delta.sum(axis=0, out=out[b0:end])
            np.matmul(delta.T, xin, out=out[w0:b0].reshape(n_out, n_in))
        end = w0
        delta = delta @ layer.weight
    return delta, out

"""Activation functions and stateless helpers built on :class:`repro.nn.Tensor`."""

from __future__ import annotations

import numpy as np

from repro.nn.tensor import Tensor, sigmoid_array

__all__ = [
    "relu",
    "leaky_relu",
    "elu",
    "sigmoid",
    "tanh",
    "softmax",
    "log_softmax",
    "dropout",
    "relu_array",
    "leaky_relu_array",
    "elu_array",
    "sigmoid_array",
    "softmax_array",
]


# Plain-array kernels: each activation's forward formula, used by the Tensor
# ops below and by the no-grad inference path (repro.core.inference), whose
# scores must match the Tensor forward bit for bit.  ``sigmoid_array`` lives
# beside ``Tensor.sigmoid`` in repro.nn.tensor.
def relu_array(x: np.ndarray) -> np.ndarray:
    return np.maximum(x, 0.0)


def leaky_relu_array(x: np.ndarray, negative_slope: float = 0.01) -> np.ndarray:
    return np.where(x > 0.0, x, negative_slope * x)


def elu_array(x: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    return np.where(x > 0.0, x, alpha * (np.exp(np.minimum(x, 0.0)) - 1.0))


def softmax_array(x: np.ndarray, axis: int = -1) -> np.ndarray:
    """The float steps of :func:`softmax`'s Tensor forward, on an array."""
    exp = np.exp(x - x.max(axis=axis, keepdims=True))
    return exp / exp.sum(axis=axis, keepdims=True)


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    data = relu_array(x.data)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * (x.data > 0.0), owned=True)

    return Tensor._make(data, (x,), backward)


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """LeakyReLU, used by the paper for feature alignment and attention scores."""
    data = leaky_relu_array(x.data, negative_slope)

    def backward(grad: np.ndarray) -> None:
        x._accumulate(grad * np.where(x.data > 0.0, 1.0, negative_slope),
                      owned=True)

    return Tensor._make(data, (x,), backward)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit, used after attention aggregation (Eq. 9 and 13)."""
    data = elu_array(x.data, alpha)

    def backward(grad: np.ndarray) -> None:
        # Where x <= 0, data is the exponential part.
        x._accumulate(grad * np.where(x.data > 0.0, 1.0, data + alpha),
                      owned=True)

    return Tensor._make(data, (x,), backward)


def sigmoid(x: Tensor) -> Tensor:
    return x.sigmoid()


def tanh(x: Tensor) -> Tensor:
    return x.tanh()


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable softmax along ``axis`` (forward as :func:`softmax_array`)."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    exp = shifted.exp()
    return exp / exp.sum(axis=axis, keepdims=True)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    """Numerically stable log-softmax along ``axis``."""
    shifted = x - Tensor(x.data.max(axis=axis, keepdims=True))
    return shifted - shifted.exp().sum(axis=axis, keepdims=True).log()


def dropout(x: Tensor, p: float = 0.5, training: bool = True,
            rng: np.random.Generator | None = None) -> Tensor:
    """Inverted dropout: scales kept activations by ``1 / (1 - p)`` during training."""
    if not training or p <= 0.0:
        return x
    if p >= 1.0:
        raise ValueError("dropout probability must be < 1")
    rng = rng or np.random.default_rng()
    mask = (rng.random(x.data.shape) >= p).astype(np.float64) / (1.0 - p)
    return x * Tensor(mask)

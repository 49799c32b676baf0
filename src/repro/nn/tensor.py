"""Reverse-mode automatic differentiation over numpy arrays.

A :class:`Tensor` wraps an ``np.ndarray`` and records the operations applied to
it so that :meth:`Tensor.backward` can propagate gradients back to every tensor
created with ``requires_grad=True``.  The operation set is intentionally small
but complete enough to express the graph encoders used in this repository
(matrix products, broadcasting arithmetic, reductions, concatenation, slicing
and the usual activations built on top of them in :mod:`repro.nn.functional`).
"""

from __future__ import annotations

import contextlib
from contextvars import ContextVar
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "concat", "stack", "no_grad", "sigmoid_array"]

#: Whether operations record the autograd graph.  A context variable, so a
#: ``no_grad()`` block in one thread (or asyncio task) never switches
#: gradient tracking off in another.
_GRAD_ENABLED: ContextVar[bool] = ContextVar("repro_nn_grad_enabled", default=True)


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tracking inside its block.

    The switch is local to the current thread's context; other threads keep
    recording gradients.
    """
    token = _GRAD_ENABLED.set(False)
    try:
        yield
    finally:
        _GRAD_ENABLED.reset(token)


def sigmoid_array(x: np.ndarray) -> np.ndarray:
    """The logistic function on a plain array (the forward of :meth:`Tensor.sigmoid`)."""
    return 1.0 / (1.0 + np.exp(-x))


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` down to ``shape`` to undo numpy broadcasting."""
    if grad.shape == shape:
        return grad
    # Sum over leading dimensions that were added by broadcasting.
    while grad.ndim > len(shape):
        grad = grad.sum(axis=0)
    # Sum over dimensions that were broadcast from size 1.
    for axis, size in enumerate(shape):
        if size == 1 and grad.shape[axis] != 1:
            grad = grad.sum(axis=axis, keepdims=True)
    return grad.reshape(shape)


def _as_tensor(value) -> "Tensor":
    if isinstance(value, Tensor):
        return value
    return Tensor(value)


class Tensor:
    """A numpy array plus the bookkeeping needed for reverse-mode autodiff."""

    __array_priority__ = 100  # ensure numpy defers to Tensor's operators

    def __init__(self, data, requires_grad: bool = False, _parents: Sequence["Tensor"] = (),
                 _backward: Callable[[np.ndarray], None] | None = None):
        self.data = np.asarray(data, dtype=np.float64)
        enabled = _GRAD_ENABLED.get()
        self.requires_grad = bool(requires_grad) and enabled
        self.grad: np.ndarray | None = None
        self._parents = tuple(_parents) if enabled else ()
        self._backward = _backward if enabled else None

    # ------------------------------------------------------------------ utils
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        return f"Tensor(shape={self.shape}, requires_grad={self.requires_grad})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut off from the autograd graph."""
        return Tensor(self.data)

    def zero_grad(self) -> None:
        self.grad = None

    # --------------------------------------------------------------- graph ops
    @staticmethod
    def _make(data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        requires = _GRAD_ENABLED.get() and any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires)
        if requires:
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def _accumulate(self, grad: np.ndarray, owned: bool = False) -> None:
        """Add ``grad`` into ``self.grad``.

        ``owned=True`` promises the caller freshly allocated ``grad`` for this
        call and keeps no other reference to it — the buffer is adopted
        directly instead of defensively copied.  Backwards that forward a
        shared buffer (``__add__``) or a view of one (``reshape``, ``concat``,
        broadcasting ``sum``) must leave it False.
        """
        if not self.requires_grad:
            return
        grad = _unbroadcast(np.asarray(grad, dtype=np.float64), self.data.shape)
        if self.grad is None:
            # Copy unless adopted: the incoming buffer may be shared with
            # sibling parents.
            self.grad = grad if owned and grad.flags.writeable else grad.copy()
        else:
            # In-place: self.grad is always private (copied or adopted above).
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if grad is None:
            if self.data.size != 1:
                raise ValueError("backward() without a gradient requires a scalar tensor")
            grad = np.ones_like(self.data)
        # Topological order of the graph reachable from self.
        order: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if id(parent) not in visited:
                    stack.append((parent, False))
        self._accumulate(grad)
        for node in reversed(order):
            if node._backward is not None and node.grad is not None:
                node._backward(node.grad)

    # ------------------------------------------------------------- arithmetic
    def __add__(self, other) -> "Tensor":
        other = _as_tensor(other)
        data = self.data + other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad)
            other._accumulate(grad)

        return Tensor._make(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def backward(grad: np.ndarray) -> None:
            self._accumulate(-grad, owned=True)

        return Tensor._make(-self.data, (self,), backward)

    def __sub__(self, other) -> "Tensor":
        return self + (-_as_tensor(other))

    def __rsub__(self, other) -> "Tensor":
        return _as_tensor(other) + (-self)

    def __mul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        data = self.data * other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * other.data, owned=True)
            other._accumulate(grad * self.data, owned=True)

        return Tensor._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = _as_tensor(other)
        data = self.data / other.data

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / other.data, owned=True)
            other._accumulate(-grad * self.data / (other.data ** 2), owned=True)

        return Tensor._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return _as_tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data ** exponent

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * exponent * self.data ** (exponent - 1),
                             owned=True)

        return Tensor._make(data, (self,), backward)

    def __matmul__(self, other) -> "Tensor":
        other = _as_tensor(other)
        data = self.data @ other.data

        def backward(grad: np.ndarray) -> None:
            if self.requires_grad:
                if other.data.ndim == 1:
                    self._accumulate(np.outer(grad, other.data) if grad.ndim == 1
                                     else grad[..., None] * other.data,
                                     owned=True)
                else:
                    self._accumulate(grad @ other.data.swapaxes(-1, -2),
                                     owned=True)
            if other.requires_grad:
                if self.data.ndim == 1:
                    other._accumulate(np.outer(self.data, grad) if grad.ndim == 1
                                      else self.data[..., None] @ grad[None, ...],
                                      owned=True)
                else:
                    other._accumulate(self.data.swapaxes(-1, -2) @ grad,
                                      owned=True)

        return Tensor._make(data, (self, other), backward)

    # -------------------------------------------------------------- reductions
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = grad
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis)
            self._accumulate(np.broadcast_to(expanded, self.data.shape))

        return Tensor._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.data.size
        elif isinstance(axis, tuple):
            count = int(np.prod([self.data.shape[a] for a in axis]))
        else:
            count = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(grad: np.ndarray) -> None:
            expanded = grad
            max_expanded = data
            if axis is not None and not keepdims:
                expanded = np.expand_dims(grad, axis)
                max_expanded = np.expand_dims(data, axis)
            mask = (self.data == max_expanded).astype(np.float64)
            # Split the gradient evenly between ties for a well-defined subgradient.
            counts = mask.sum(axis=axis, keepdims=True) if axis is not None else mask.sum()
            self._accumulate(mask * expanded / counts, owned=True)

        return Tensor._make(data, (self,), backward)

    # ------------------------------------------------------------ elementwise
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data, owned=True)

        return Tensor._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad / self.data, owned=True)

        return Tensor._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * np.sign(self.data), owned=True)

        return Tensor._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * (1.0 - data ** 2), owned=True)

        return Tensor._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = sigmoid_array(self.data)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad * data * (1.0 - data), owned=True)

        return Tensor._make(data, (self,), backward)

    def clip(self, low: float, high: float) -> "Tensor":
        data = np.clip(self.data, low, high)

        def backward(grad: np.ndarray) -> None:
            mask = ((self.data >= low) & (self.data <= high)).astype(np.float64)
            self._accumulate(grad * mask, owned=True)

        return Tensor._make(data, (self,), backward)

    # --------------------------------------------------------------- reshaping
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def backward(grad: np.ndarray) -> None:
            self._accumulate(grad.reshape(self.data.shape))

        return Tensor._make(data, (self,), backward)

    def transpose(self, *axes) -> "Tensor":
        axes = axes or None
        data = self.data.transpose(axes) if axes else self.data.T

        def backward(grad: np.ndarray) -> None:
            if axes:
                self._accumulate(grad.transpose(np.argsort(axes)))
            else:
                self._accumulate(grad.T)

        return Tensor._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def backward(grad: np.ndarray) -> None:
            full = np.zeros_like(self.data)
            np.add.at(full, index, grad)
            self._accumulate(full, owned=True)

        return Tensor._make(data, (self,), backward)


def concat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = [_as_tensor(t) for t in tensors]
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]

    def backward(grad: np.ndarray) -> None:
        start = 0
        for tensor, size in zip(tensors, sizes):
            slicer = [slice(None)] * grad.ndim
            slicer[axis] = slice(start, start + size)
            tensor._accumulate(grad[tuple(slicer)])
            start += size

    return Tensor._make(data, tensors, backward)


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = [_as_tensor(t) for t in tensors]
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(grad: np.ndarray) -> None:
        pieces = np.split(grad, len(tensors), axis=axis)
        for tensor, piece in zip(tensors, pieces):
            tensor._accumulate(np.squeeze(piece, axis=axis))

    return Tensor._make(data, tensors, backward)

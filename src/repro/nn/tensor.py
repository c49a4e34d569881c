"""Reverse-mode automatic differentiation over NumPy arrays.

This module provides the :class:`Tensor` class used by every model in the
repository.  It is deliberately small: a tensor wraps an ``ndarray``, records
the operation that produced it, and ``backward()`` walks the tape in reverse
topological order accumulating gradients.  All heavy numeric work happens
inside vectorised NumPy kernels; the autograd layer only does bookkeeping.

Design notes
------------
* Gradients are plain ``ndarray`` objects stored on ``Tensor.grad``.
* Broadcasting is supported for elementwise ops; :func:`_unbroadcast` folds a
  gradient back onto the original operand shape.
* ``no_grad()`` is a context manager that disables tape construction, used for
  inference and for optimiser updates.
"""

from __future__ import annotations

import contextlib
import threading
from typing import Callable, Iterable, Sequence

import numpy as np

__all__ = ["Tensor", "no_grad", "is_grad_enabled", "as_tensor"]

# Grad mode is *per thread*: the serving layer trains/evaluates concurrent
# jobs on sibling threads, and one job's ``no_grad()`` evaluation must not
# stop another job's forward pass from recording its tape.
_GRAD_STATE = threading.local()


@contextlib.contextmanager
def no_grad():
    """Context manager that disables gradient tape construction."""
    prev = getattr(_GRAD_STATE, "enabled", True)
    _GRAD_STATE.enabled = False
    try:
        yield
    finally:
        _GRAD_STATE.enabled = prev


def is_grad_enabled() -> bool:
    """Return whether operations currently record a backward graph."""
    return getattr(_GRAD_STATE, "enabled", True)


def _unbroadcast(grad: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """Sum ``grad`` over broadcast dimensions so it matches ``shape``."""
    if grad.shape == shape:
        return grad
    # Sum leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum axes that were size-1 in the original operand.
    axes = tuple(i for i, (g, s) in enumerate(zip(grad.shape, shape)) if s == 1 and g != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A NumPy-backed tensor with reverse-mode autodiff.

    Parameters
    ----------
    data:
        Array-like payload.  Stored as ``float64`` by default for numeric
        robustness at the tiny model scales used in this repository.
    requires_grad:
        Whether gradients should flow into this tensor.
    """

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_parents", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if isinstance(data, Tensor):
            data = data.data
        self.data = np.asarray(data, dtype=np.float64)
        self.requires_grad = bool(requires_grad) and is_grad_enabled()
        self.grad: np.ndarray | None = None
        self._backward: Callable[[np.ndarray], None] | None = None
        self._parents: tuple[Tensor, ...] = ()
        self.name = name

    # -- construction helpers -------------------------------------------------
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    # -- basic protocol --------------------------------------------------------
    @property
    def shape(self) -> tuple[int, ...]:
        return self.data.shape

    @property
    def ndim(self) -> int:
        return self.data.ndim

    @property
    def size(self) -> int:
        return self.data.size

    @property
    def dtype(self):
        return self.data.dtype

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data)

    def detach(self) -> "Tensor":
        """Return a tensor sharing data but cut from the graph."""
        return Tensor(self.data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        grad = ", grad" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad})"

    def __len__(self) -> int:
        return len(self.data)

    # -- graph machinery --------------------------------------------------------
    def _make(self, data: np.ndarray, parents: Sequence["Tensor"],
              backward: Callable[[np.ndarray], None]) -> "Tensor":
        out = Tensor(data)
        if is_grad_enabled() and any(p.requires_grad for p in parents):
            out.requires_grad = True
            out._parents = tuple(parents)
            out._backward = backward
        return out

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor through the recorded graph."""
        if not self.requires_grad:
            raise RuntimeError("backward() on a tensor that does not require grad")
        if grad is None:
            if self.size != 1:
                raise RuntimeError("grad must be provided for non-scalar outputs")
            grad = np.ones_like(self.data)
        grad = np.asarray(grad, dtype=np.float64)

        # Topological order via iterative DFS (avoids recursion limits on
        # deep transformer graphs).
        topo: list[Tensor] = []
        visited: set[int] = set()
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and id(p) not in visited:
                    stack.append((p, False))

        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in reversed(topo):
            g = grads.pop(id(node), None)
            if g is None:
                continue
            if node._backward is None:
                # Leaf: accumulate into .grad
                if node.grad is None:
                    node.grad = g.copy()
                else:
                    node.grad += g
                continue
            node._backward_into(g, grads)

    def _backward_into(self, g: np.ndarray, grads: dict[int, np.ndarray]) -> None:
        """Run the node's backward fn, routing parent grads into ``grads``."""
        contribs = self._backward(g)  # type: ignore[misc]
        if contribs is None:
            return
        for parent, pg in zip(self._parents, contribs):
            if pg is None or not parent.requires_grad:
                continue
            pid = id(parent)
            if parent._backward is None:
                # Leaf tensors accumulate directly so repeated use works.
                if parent.grad is None:
                    parent.grad = np.array(pg, dtype=np.float64, copy=True)
                else:
                    parent.grad += pg
            elif pid in grads:
                grads[pid] = grads[pid] + pg
            else:
                grads[pid] = np.asarray(pg, dtype=np.float64)

    def zero_grad(self) -> None:
        self.grad = None

    # -- elementwise arithmetic ---------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data + other.data

        def backward(g):
            return (_unbroadcast(g, self.shape), _unbroadcast(g, other.shape))

        return self._make(data, (self, other), backward)

    __radd__ = __add__

    def __sub__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data - other.data

        def backward(g):
            return (_unbroadcast(g, self.shape), _unbroadcast(-g, other.shape))

        return self._make(data, (self, other), backward)

    def __rsub__(self, other) -> "Tensor":
        return as_tensor(other).__sub__(self)

    def __mul__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data * other.data

        def backward(g):
            return (_unbroadcast(g * other.data, self.shape),
                    _unbroadcast(g * self.data, other.shape))

        return self._make(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = as_tensor(other)
        data = self.data / other.data

        def backward(g):
            return (_unbroadcast(g / other.data, self.shape),
                    _unbroadcast(-g * self.data / (other.data ** 2), other.shape))

        return self._make(data, (self, other), backward)

    def __rtruediv__(self, other) -> "Tensor":
        return as_tensor(other).__truediv__(self)

    def __neg__(self) -> "Tensor":
        def backward(g):
            return (-g,)

        return self._make(-self.data, (self,), backward)

    def __pow__(self, p: float) -> "Tensor":
        data = self.data ** p

        def backward(g):
            return (g * p * self.data ** (p - 1),)

        return self._make(data, (self,), backward)

    # -- comparisons (no grad) -----------------------------------------------------
    def __gt__(self, other):
        return self.data > (other.data if isinstance(other, Tensor) else other)

    def __lt__(self, other):
        return self.data < (other.data if isinstance(other, Tensor) else other)

    # -- linear algebra --------------------------------------------------------------
    def matmul(self, other: "Tensor") -> "Tensor":
        other = as_tensor(other)
        data = self.data @ other.data

        def backward(g):
            a, b = self.data, other.data
            if a.ndim == 2 and b.ndim == 2:
                return (g @ b.T, a.T @ g)
            # Batched matmul: broadcast-aware
            ga = g @ np.swapaxes(b, -1, -2)
            gb = np.swapaxes(a, -1, -2) @ g
            return (_unbroadcast(ga, a.shape), _unbroadcast(gb, b.shape))

        return self._make(data, (self, other), backward)

    __matmul__ = matmul

    # -- shape ops ----------------------------------------------------------------------
    def reshape(self, *shape: int) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        old = self.shape
        data = self.data.reshape(shape)

        def backward(g):
            return (g.reshape(old),)

        return self._make(data, (self,), backward)

    def transpose(self, *axes: int) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        inv = np.argsort(axes)
        data = self.data.transpose(axes)

        def backward(g):
            return (g.transpose(inv),)

        return self._make(data, (self,), backward)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, idx) -> "Tensor":
        data = self.data[idx]
        # Basic indices select each element at most once, so a slice-add is
        # the same ``0 + g`` as ``np.add.at``; only array indices can repeat.
        basic = all(isinstance(i, (int, np.integer, slice, type(None)))
                    or i is Ellipsis
                    for i in (idx if isinstance(idx, tuple) else (idx,)))

        def backward(g):
            out = np.zeros_like(self.data)
            if basic:
                out[idx] += g
            else:
                np.add.at(out, idx, g)
            return (out,)

        return self._make(data, (self,), backward)

    def pad(self, pad_width: Sequence[tuple[int, int]], value: float = 0.0) -> "Tensor":
        pw = tuple(tuple(p) for p in pad_width)
        data = np.pad(self.data, pw, constant_values=value)

        def backward(g):
            slices = tuple(slice(a, g.shape[i] - b) for i, (a, b) in enumerate(pw))
            return (g[slices],)

        return self._make(data, (self,), backward)

    # -- reductions ------------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.shape

        def backward(g):
            if axis is None:
                return (np.broadcast_to(g, shape).copy(),)
            g2 = g if keepdims else np.expand_dims(g, axis)
            return (np.broadcast_to(g2, shape).copy(),)

        return self._make(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            n = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            n = int(np.prod([self.shape[a] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    def var(self, axis=None, keepdims: bool = False) -> "Tensor":
        mu = self.mean(axis=axis, keepdims=True)
        d = self - mu
        return (d * d).mean(axis=axis, keepdims=keepdims)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)

        def backward(g):
            if axis is None:
                mask = (self.data == self.data.max()).astype(np.float64)
                mask /= mask.sum()
                return (mask * g,)
            expanded = data if keepdims else np.expand_dims(data, axis)
            mask = (self.data == expanded).astype(np.float64)
            mask /= mask.sum(axis=axis, keepdims=True)
            g2 = g if keepdims else np.expand_dims(g, axis)
            return (mask * g2,)

        return self._make(data, (self,), backward)

    # -- elementwise functions --------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def backward(g):
            return (g * data,)

        return self._make(data, (self,), backward)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def backward(g):
            return (g / self.data,)

        return self._make(data, (self,), backward)

    def sqrt(self) -> "Tensor":
        data = np.sqrt(self.data)

        def backward(g):
            return (g * 0.5 / np.maximum(data, 1e-12),)

        return self._make(data, (self,), backward)

    def relu(self) -> "Tensor":
        data = np.maximum(self.data, 0.0)

        def backward(g):
            return (g * (self.data > 0),)

        return self._make(data, (self,), backward)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def backward(g):
            return (g * data * (1.0 - data),)

        return self._make(data, (self,), backward)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def backward(g):
            return (g * (1.0 - data * data),)

        return self._make(data, (self,), backward)

    def gelu(self) -> "Tensor":
        """Gaussian error linear unit (tanh approximation)."""
        x = self.data
        c = np.sqrt(2.0 / np.pi)
        inner = c * (x + 0.044715 * x ** 3)
        t = np.tanh(inner)
        data = 0.5 * x * (1.0 + t)

        def backward(g):
            dinner = c * (1.0 + 3 * 0.044715 * x ** 2)
            dt = (1.0 - t * t) * dinner
            return (g * (0.5 * (1.0 + t) + 0.5 * x * dt),)

        return self._make(data, (self,), backward)

    def clip(self, lo: float, hi: float) -> "Tensor":
        data = np.clip(self.data, lo, hi)

        def backward(g):
            return (g * ((self.data >= lo) & (self.data <= hi)),)

        return self._make(data, (self,), backward)


def as_tensor(x) -> Tensor:
    """Coerce ``x`` (scalar, array or Tensor) into a :class:`Tensor`."""
    return x if isinstance(x, Tensor) else Tensor(x)


def cat(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis`` with gradient support."""
    tensors = list(tensors)
    data = np.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.shape[axis] for t in tensors]
    splits = np.cumsum(sizes)[:-1]

    def backward(g):
        return tuple(np.split(g, splits, axis=axis))

    out = Tensor(data)
    if is_grad_enabled() and any(t.requires_grad for t in tensors):
        out.requires_grad = True
        out._parents = tuple(tensors)
        out._backward = backward
    return out


def stack(tensors: Iterable[Tensor], axis: int = 0) -> Tensor:
    """Stack tensors along a new ``axis`` with gradient support."""
    tensors = list(tensors)
    data = np.stack([t.data for t in tensors], axis=axis)

    def backward(g):
        return tuple(np.take(g, i, axis=axis) for i in range(len(tensors)))

    out = Tensor(data)
    if is_grad_enabled() and any(t.requires_grad for t in tensors):
        out.requires_grad = True
        out._parents = tuple(tensors)
        out._backward = backward
    return out

"""Reverse-mode automatic differentiation over numpy arrays: the oracle
every hand-written gradient in ``src/`` is checked against.

Moved here from ``repro.nn.tensor``.  :class:`Tensor` wraps a
``numpy.ndarray`` with a dynamic computation graph and reverse-mode
gradients: broadcasting arithmetic, matrix multiplication, reductions,
softmax-style compositions, gather/scatter indexing, concatenation and
masking.  :func:`leaf` lets a graph read a shipped
:class:`~repro.nn.modules.Parameter`: every gradient contribution the
graph sends to the leaf is passed straight to ``Parameter._accumulate``,
so an oracle backward fills the same ``.grad`` buffers the hand-written
kernels do, summed in the same order.

Design notes
------------
* Graphs are built eagerly; ``Tensor.backward()`` topologically sorts the
  graph and accumulates ``.grad`` arrays on every tensor with
  ``requires_grad=True``.
* Broadcasting follows numpy semantics; gradients are "unbroadcast" (summed
  over broadcast axes) before accumulation.
* ``float32`` is the default dtype, mirroring common deep-learning practice.
"""

from __future__ import annotations

from typing import Callable, Iterable, Sequence

import numpy as np

from repro.nn.modules import Parameter

DEFAULT_DTYPE = np.float32


def _as_array(value, dtype=DEFAULT_DTYPE) -> np.ndarray:
    if isinstance(value, np.ndarray):
        if value.dtype != dtype:
            return value.astype(dtype)
        return value
    return np.asarray(value, dtype=dtype)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum ``grad`` over the axes that numpy broadcasting expanded.

    If ``shape`` was broadcast up to ``grad.shape``, the adjoint of the
    broadcast is a sum over the expanded axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over leading axes added by broadcasting.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    # Sum over axes that were size-1 in the original shape.
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed tensor that records operations for backpropagation."""

    __slots__ = ("data", "grad", "requires_grad", "_backward", "_prev", "name",
                 "_grad_buf")

    def __init__(self, data, requires_grad: bool = False, _prev: Sequence["Tensor"] = (),
                 name: str = ""):
        self.data = _as_array(data)
        self.grad: np.ndarray | None = None
        self.requires_grad = bool(requires_grad)
        self._backward: Callable[[], None] | None = None
        self._prev: tuple[Tensor, ...] = tuple(_prev)
        self.name = name
        # Pooled gradient storage, as on ``Parameter``: ``zero_grad``
        # drops ``grad`` but keeps this buffer.
        self._grad_buf: np.ndarray | None = None

    # ------------------------------------------------------------------
    # Basic properties
    # ------------------------------------------------------------------
    @property
    def shape(self) -> tuple:
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

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        grad_flag = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad_flag})"

    def numpy(self) -> np.ndarray:
        """Return the underlying array (no copy)."""
        return self.data

    def item(self) -> float:
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut off from the graph."""
        return Tensor(self.data, requires_grad=False)

    def zero_grad(self) -> None:
        self.grad = None

    # ------------------------------------------------------------------
    # Graph machinery
    # ------------------------------------------------------------------
    def _accumulate(self, grad: np.ndarray) -> None:
        if self.grad is None:
            buf = self._grad_buf
            if buf is None or buf.shape != self.data.shape \
                    or buf.dtype != self.data.dtype:
                buf = self._grad_buf = np.empty_like(self.data)
            np.copyto(buf, grad)
            self.grad = buf
        else:
            self.grad += grad

    def backward(self, grad: np.ndarray | None = None) -> None:
        """Backpropagate from this tensor.

        ``grad`` defaults to ones (i.e. ``d self / d self = 1``); for scalar
        losses this is the usual entry point.
        """
        if grad is None:
            grad = np.ones_like(self.data)
        else:
            grad = _as_array(grad, dtype=self.data.dtype)

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
            for parent in node._prev:
                if id(parent) not in visited:
                    stack.append((parent, False))

        self._accumulate(grad)
        for node in reversed(topo):
            if node._backward is not None and node.grad is not None:
                node._backward()

    @staticmethod
    def _make(data: np.ndarray, parents: Iterable["Tensor"],
              backward: Callable[["Tensor"], Callable[[], None]] | None) -> "Tensor":
        parents = tuple(parents)
        requires = any(p.requires_grad for p in parents)
        out = Tensor(data, requires_grad=requires, _prev=parents if requires else ())
        if requires and backward is not None:
            out._backward = backward(out)
        return out

    # ------------------------------------------------------------------
    # Arithmetic
    # ------------------------------------------------------------------
    def __add__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad, other.shape))
            return backward

        return Tensor._make(data, (self, other), make)

    __radd__ = __add__

    def __neg__(self) -> "Tensor":
        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    self._accumulate(-out.grad)
            return backward

        return Tensor._make(-self.data, (self,), make)

    def __sub__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data - other.data

        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(-out.grad, other.shape))
            return backward

        return Tensor._make(data, (self, other), make)

    def __rsub__(self, other) -> "Tensor":
        return Tensor(other) - self

    def __mul__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data

        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad * other.data, self.shape))
                if other.requires_grad:
                    other._accumulate(_unbroadcast(out.grad * self.data, other.shape))
            return backward

        return Tensor._make(data, (self, other), make)

    __rmul__ = __mul__

    def __truediv__(self, other) -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other.data

        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    self._accumulate(_unbroadcast(out.grad / other.data, self.shape))
                if other.requires_grad:
                    grad = -out.grad * self.data / (other.data * other.data)
                    other._accumulate(_unbroadcast(grad, other.shape))
            return backward

        return Tensor._make(data, (self, other), make)

    def __rtruediv__(self, other) -> "Tensor":
        return Tensor(other) / self

    def __pow__(self, exponent: float) -> "Tensor":
        data = self.data ** exponent

        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    self._accumulate(out.grad * exponent * self.data ** (exponent - 1))
            return backward

        return Tensor._make(data, (self,), make)

    def __matmul__(self, other: "Tensor") -> "Tensor":
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data @ other.data

        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    grad = out.grad @ np.swapaxes(other.data, -1, -2)
                    self._accumulate(_unbroadcast(grad, self.shape))
                if other.requires_grad:
                    grad = np.swapaxes(self.data, -1, -2) @ out.grad
                    other._accumulate(_unbroadcast(grad, other.shape))
            return backward

        return Tensor._make(data, (self, other), make)

    # ------------------------------------------------------------------
    # Elementwise functions
    # ------------------------------------------------------------------
    def exp(self) -> "Tensor":
        data = np.exp(self.data)

        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    self._accumulate(out.grad * out.data)
            return backward

        return Tensor._make(data, (self,), make)

    def log(self) -> "Tensor":
        data = np.log(self.data)

        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    self._accumulate(out.grad / self.data)
            return backward

        return Tensor._make(data, (self,), make)

    def sqrt(self) -> "Tensor":
        return self ** 0.5

    def abs(self) -> "Tensor":
        data = np.abs(self.data)

        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    self._accumulate(out.grad * np.sign(self.data))
            return backward

        return Tensor._make(data, (self,), make)

    def relu(self) -> "Tensor":
        mask = self.data > 0
        data = self.data * mask

        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    self._accumulate(out.grad * mask)
            return backward

        return Tensor._make(data, (self,), make)

    def sigmoid(self) -> "Tensor":
        data = 1.0 / (1.0 + np.exp(-self.data))

        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    self._accumulate(out.grad * out.data * (1.0 - out.data))
            return backward

        return Tensor._make(data, (self,), make)

    def tanh(self) -> "Tensor":
        data = np.tanh(self.data)

        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    self._accumulate(out.grad * (1.0 - out.data * out.data))
            return backward

        return Tensor._make(data, (self,), make)

    def clamp(self, low: float | None = None, high: float | None = None) -> "Tensor":
        data = np.clip(self.data, low, high)
        inside = np.ones_like(self.data, dtype=bool)
        if low is not None:
            inside &= self.data >= low
        if high is not None:
            inside &= self.data <= high

        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    self._accumulate(out.grad * inside)
            return backward

        return Tensor._make(data, (self,), make)

    def maximum(self, other) -> "Tensor":
        """Elementwise maximum; subgradient splits ties equally."""
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = np.maximum(self.data, other.data)
        self_wins = self.data > other.data
        tie = self.data == other.data

        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    grad = out.grad * (self_wins + 0.5 * tie)
                    self._accumulate(_unbroadcast(grad, self.shape))
                if other.requires_grad:
                    grad = out.grad * (~self_wins & ~tie) + out.grad * 0.5 * tie
                    other._accumulate(_unbroadcast(grad, other.shape))
            return backward

        return Tensor._make(data, (self, other), make)

    # ------------------------------------------------------------------
    # Reductions
    # ------------------------------------------------------------------
    def sum(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.sum(axis=axis, keepdims=keepdims)

        def make(out: Tensor):
            def backward():
                if not self.requires_grad:
                    return
                grad = out.grad
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(a % self.ndim for a in axes)
                    shape = [1 if i in axes else s for i, s in enumerate(self.shape)]
                    grad = grad.reshape(shape)
                # ``_accumulate`` copies (or adds) the broadcast view, so
                # no materialised copy is needed here.
                self._accumulate(np.broadcast_to(grad, self.shape))
            return backward

        return Tensor._make(data, (self,), make)

    def mean(self, axis=None, keepdims: bool = False) -> "Tensor":
        if axis is None:
            count = self.size
        else:
            axes = axis if isinstance(axis, tuple) else (axis,)
            count = int(np.prod([self.shape[a % self.ndim] for a in axes]))
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / count)

    def max(self, axis=None, keepdims: bool = False) -> "Tensor":
        data = self.data.max(axis=axis, keepdims=keepdims)
        expanded = self.data.max(axis=axis, keepdims=True)
        mask = self.data == expanded
        counts = mask.sum(axis=axis, keepdims=True)

        def make(out: Tensor):
            def backward():
                if not self.requires_grad:
                    return
                grad = out.grad
                if axis is not None and not keepdims:
                    axes = axis if isinstance(axis, tuple) else (axis,)
                    axes = tuple(a % self.ndim for a in axes)
                    shape = [1 if i in axes else s for i, s in enumerate(self.shape)]
                    grad = grad.reshape(shape)
                self._accumulate(mask * grad / counts)
            return backward

        return Tensor._make(data, (self,), make)

    # ------------------------------------------------------------------
    # Shape ops
    # ------------------------------------------------------------------
    def reshape(self, *shape) -> "Tensor":
        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        data = self.data.reshape(shape)

        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    self._accumulate(out.grad.reshape(self.shape))
            return backward

        return Tensor._make(data, (self,), make)

    def transpose(self, *axes) -> "Tensor":
        if not axes:
            axes = tuple(reversed(range(self.ndim)))
        elif len(axes) == 1 and isinstance(axes[0], (tuple, list)):
            axes = tuple(axes[0])
        data = self.data.transpose(axes)
        inverse = np.argsort(axes)

        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    self._accumulate(out.grad.transpose(inverse))
            return backward

        return Tensor._make(data, (self,), make)

    @property
    def T(self) -> "Tensor":
        return self.transpose()

    def __getitem__(self, index) -> "Tensor":
        data = self.data[index]

        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    grad = np.zeros_like(self.data)
                    np.add.at(grad, index, out.grad)
                    self._accumulate(grad)
            return backward

        return Tensor._make(data, (self,), make)

    def gather_rows(self, row_index: np.ndarray) -> "Tensor":
        """Select rows ``self[row_index]`` (first axis), differentiable."""
        return self[np.asarray(row_index)]

    def take_along_last(self, index: np.ndarray) -> "Tensor":
        """``np.take_along_axis`` on the last axis, differentiable.

        ``index`` has the same shape as ``self`` except the last axis may be
        any length.
        """
        index = np.asarray(index)
        data = np.take_along_axis(self.data, index, axis=-1)

        def make(out: Tensor):
            def backward():
                if self.requires_grad:
                    # add.at on a flattened view accumulates correctly even
                    # when ``index`` repeats a position.
                    grad = np.zeros_like(self.data)
                    flat_rows = np.arange(int(np.prod(self.shape[:-1])))
                    cols = index.reshape(len(flat_rows), -1)
                    vals = out.grad.reshape(len(flat_rows), -1)
                    np.add.at(grad.reshape(len(flat_rows), -1),
                              (flat_rows[:, None], cols), vals)
                    self._accumulate(grad)
            return backward

        return Tensor._make(data, (self,), make)


class _Leaf(Tensor):
    """A graph leaf over a :class:`Parameter` (see :func:`leaf`)."""

    __slots__ = ("param",)

    def _accumulate(self, grad: np.ndarray) -> None:
        self.param._accumulate(grad)


def leaf(param: Parameter) -> Tensor:
    """A graph leaf sharing ``param.data`` whose gradient contributions
    go straight to ``param._accumulate``, each as the graph sends it."""
    out = _Leaf(param.data, requires_grad=True)
    out.param = param
    return out


# ----------------------------------------------------------------------
# Free functions
# ----------------------------------------------------------------------
def tensor(data, requires_grad: bool = False) -> Tensor:
    """Convenience constructor mirroring ``torch.tensor``."""
    return Tensor(data, requires_grad=requires_grad)


def zeros(shape, requires_grad: bool = False) -> Tensor:
    """All-zero tensor."""
    return Tensor(np.zeros(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def ones(shape, requires_grad: bool = False) -> Tensor:
    """All-one tensor."""
    return Tensor(np.ones(shape, dtype=DEFAULT_DTYPE), requires_grad=requires_grad)


def concatenate(tensors: Sequence[Tensor], axis: int = -1) -> Tensor:
    """Differentiable concatenation along ``axis``."""
    arrays = [t.data for t in tensors]
    data = np.concatenate(arrays, axis=axis)
    sizes = [a.shape[axis] for a in arrays]
    offsets = np.cumsum([0] + sizes)

    def make(out: Tensor):
        def backward():
            for t, start, stop in zip(tensors, offsets[:-1], offsets[1:]):
                if t.requires_grad:
                    slicer = [slice(None)] * out.grad.ndim
                    slicer[axis] = slice(start, stop)
                    t._accumulate(out.grad[tuple(slicer)])
        return backward

    return Tensor._make(data, tensors, make)


def stack(tensors: Sequence[Tensor], axis: int = 0) -> Tensor:
    """Differentiable stack along a new axis."""
    data = np.stack([t.data for t in tensors], axis=axis)

    def make(out: Tensor):
        def backward():
            grads = np.split(out.grad, len(tensors), axis=axis)
            for t, g in zip(tensors, grads):
                if t.requires_grad:
                    t._accumulate(np.squeeze(g, axis=axis))
        return backward

    return Tensor._make(data, tensors, make)


def where(condition: np.ndarray, a: Tensor, b: Tensor) -> Tensor:
    """Differentiable select: gradient routes to the chosen branch."""
    a = a if isinstance(a, Tensor) else Tensor(a)
    b = b if isinstance(b, Tensor) else Tensor(b)
    condition = np.asarray(condition, dtype=bool)
    data = np.where(condition, a.data, b.data)

    def make(out: Tensor):
        def backward():
            if a.requires_grad:
                a._accumulate(_unbroadcast(out.grad * condition, a.shape))
            if b.requires_grad:
                b._accumulate(_unbroadcast(out.grad * ~condition, b.shape))
        return backward

    return Tensor._make(data, (a, b), make)


def add_constant(t: Tensor, constant: np.ndarray) -> Tensor:
    """Add a non-differentiable constant array (e.g. -inf masks, Gumbel noise)."""
    data = t.data + constant

    def make(out: Tensor):
        def backward():
            if t.requires_grad:
                t._accumulate(_unbroadcast(out.grad, t.shape))
        return backward

    return Tensor._make(data, (t,), make)

"""Reverse-mode automatic differentiation over float64 numpy arrays.

A ``Tensor`` wraps a row-major float64 ndarray and records the operations
that produced it. Calling :meth:`Tensor.backward` on a scalar walks the tape
in reverse topological order and accumulates exact gradients into the
``grad`` attribute of every tensor created with ``requires_grad=True``.

Only the operations the model actually needs are implemented. Each op
stores a closure `backward(g)` that maps the output gradient `g` to a tuple
with one entry per parent: that parent's gradient, or None where the parent
takes none (constants get none).
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .errors import NonFiniteLoss, ShapeMismatch

_GELU_C = math.sqrt(2.0 / math.pi)
_GELU_A = 0.044715


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad.reshape(shape)


_F64 = np.dtype(np.float64)


def scatter_add(idx: np.ndarray, g: np.ndarray, shape: tuple) -> np.ndarray:
    """The `shape` array whose row r is the sum of g's rows i with idx[i] == r:
    np.add.at(np.zeros(shape), idx, g) bit for bit. g holds one (shape[1:])
    block per entry of idx. One flat np.bincount over idx * d + arange(d)
    adds each entry's contributions from 0.0 in index order, as add.at
    does, and several times faster. idx must lie in [0, shape[0])."""
    d = math.prod(shape[1:])
    flat = (np.asarray(idx, dtype=np.intp).reshape(-1, 1) * d + np.arange(d)).ravel()
    return np.bincount(flat, weights=g.ravel(), minlength=math.prod(shape)).reshape(shape)


class RowSparse:
    """A gradient that is zero outside some rows: `rows` are sorted unique
    row indices and `values` the (len(rows), ...) block of their entries.

    Adding a dense array densifies; adding another RowSparse merges by row
    union, so a row on only one side keeps its value as is where the dense
    sum would add +0.0 to it (which only differs for a -0.0 entry). `+=`
    gives the same bytes without copying the left side's block when every
    row of the right side is already one of its rows.
    """

    __slots__ = ("rows", "values", "shape")
    __array_ufunc__ = None  # ndarray + RowSparse goes to __radd__

    def __init__(self, rows: np.ndarray, values: np.ndarray, shape: tuple):
        self.rows, self.values, self.shape = rows, values, shape

    @classmethod
    def scatter(cls, idx: np.ndarray, g: np.ndarray, shape: tuple) -> "RowSparse":
        """The sum of g's rows into rows idx: each row adds its
        contributions in the same order as np.add.at on a dense table."""
        rows, inverse = np.unique(idx.ravel(), return_inverse=True)
        return cls(rows, scatter_add(inverse, g, (len(rows),) + shape[1:]), shape)

    def dense(self) -> np.ndarray:
        out = np.zeros(self.shape)
        out[self.rows] = self.values
        return out

    def __add__(self, other):
        if not isinstance(other, RowSparse):
            return self.dense() + other
        out = RowSparse(self.rows, self.values.copy(), self.shape)
        out += other
        return out

    __radd__ = __add__

    def __iadd__(self, other):
        """self + other, into self: other's rows that self lacks are first
        added as zero rows (a new block), then other's values are added to
        their rows in place."""
        if not isinstance(other, RowSparse):
            return self + other
        pos = np.searchsorted(self.rows, other.rows)
        fresh = np.searchsorted(self.rows, other.rows, side="right") == pos
        if fresh.any():
            rows = np.concatenate((self.rows, other.rows[fresh]))
            rows.sort()
            values = np.zeros((len(rows),) + self.shape[1:])
            values[np.searchsorted(rows, self.rows)] = self.values
            self.rows, self.values = rows, values
            pos = np.searchsorted(rows, other.rows)
        self.values[pos] += other.values
        return self


class Tensor:
    """A node in the computation tape.

    Attributes:
        data: the float64 ndarray value (row-major).
        raw_grad: the gradient accumulated by backward() as it is stored:
            None, an ndarray shaped like data, or a RowSparse (the gradient
            into a leaf that only take_rows reads; a later backward() adds
            into it in place). Only tensors with requires_grad=True get one.
        grad: raw_grad as a dense ndarray (a fresh array on each read of a
            RowSparse) or None.
    """

    __slots__ = ("data", "raw_grad", "requires_grad", "_parents", "_backward", "name")

    def __init__(self, data, requires_grad: bool = False, name: str | None = None):
        if type(data) is not np.ndarray or data.dtype is not _F64:
            data = np.asarray(data, dtype=np.float64)
        self.data = data
        self.raw_grad = None
        self.requires_grad = requires_grad
        self._parents: tuple = ()
        self._backward = None
        self.name = name

    # -- bookkeeping ---------------------------------------------------

    @property
    def shape(self) -> tuple:
        return self.data.shape

    def __repr__(self):
        tag = f" name={self.name}" if self.name else ""
        return f"Tensor(shape={self.data.shape}{tag}, requires_grad={self.requires_grad})"

    def item(self) -> float:
        return float(self.data)

    __float__ = item

    @property
    def grad(self) -> np.ndarray | None:
        g = self.raw_grad
        return g.dense() if isinstance(g, RowSparse) else g

    @grad.setter
    def grad(self, value):
        self.raw_grad = value

    def zero_grad(self):
        self.raw_grad = None

    @staticmethod
    def _result(data, parents: tuple, backward) -> "Tensor":
        """The output of an op. It joins the tape when a parent requires a
        gradient (every tensor on the tape does). `backward(g)` returns one
        gradient per parent, in the order of `parents`, with None for a
        parent that takes no gradient."""
        out = Tensor(data)
        for p in parents:
            if p.requires_grad:
                out.requires_grad = True
                out._parents = parents
                out._backward = backward
                break
        return out

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data + other.data

        def backward(g):
            return (_unbroadcast(g, self.data.shape) if self.requires_grad else None,
                    _unbroadcast(g, other.data.shape) if other.requires_grad else None)

        return Tensor._result(data, (self, other), backward)

    __radd__ = __add__

    def __neg__(self):
        return Tensor._result(-self.data, (self,), lambda g: (-g,))

    def __sub__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        return self + (-other)

    def __rsub__(self, other):
        return Tensor(other) + (-self)

    def __mul__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data * other.data
        a, b = self.data, other.data

        def backward(g):
            return (_unbroadcast(g * b, a.shape) if self.requires_grad else None,
                    _unbroadcast(g * a, b.shape) if other.requires_grad else None)

        return Tensor._result(data, (self, other), backward)

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = other if isinstance(other, Tensor) else Tensor(other)
        data = self.data / other.data
        a, b = self.data, other.data

        def backward(g):
            return (_unbroadcast(g / b, a.shape) if self.requires_grad else None,
                    _unbroadcast(-g * a / (b * b), b.shape) if other.requires_grad else None)

        return Tensor._result(data, (self, other), backward)

    def __matmul__(self, other):
        if not isinstance(other, Tensor):
            other = Tensor(other)
        if self.data.ndim != 2 or other.data.ndim != 2:
            raise ShapeMismatch(f"matmul needs 2-D operands, got {self.data.shape} @ {other.data.shape}")
        if self.data.shape[1] != other.data.shape[0]:
            raise ShapeMismatch(f"matmul inner dims differ: {self.data.shape} @ {other.data.shape}")
        data = self.data @ other.data
        a, b = self.data, other.data

        def backward(g):
            return (g @ b.T if self.requires_grad else None,
                    a.T @ g if other.requires_grad else None)

        return Tensor._result(data, (self, other), backward)

    # -- shape ops -----------------------------------------------------

    def reshape(self, *shape):
        old = self.data.shape
        return Tensor._result(self.data.reshape(*shape), (self,), lambda g: (g.reshape(old),))

    def take_rows(self, indices) -> "Tensor":
        """Gather rows by integer index; backward scatter-adds. Into a leaf
        (a parameter table) it sends a RowSparse, so a step touches only the
        rows that were read."""
        idx = np.asarray(indices, dtype=np.intp)
        data = self.data[idx]
        shape = self.data.shape

        if self.requires_grad and self._backward is None:
            def backward(g):
                return (RowSparse.scatter(idx, g, shape),)
        else:
            def backward(g):
                return (scatter_add(idx, g, shape),)

        return Tensor._result(data, (self,), backward)

    def slice_rows(self, start: int, stop: int) -> "Tensor":
        data = self.data[start:stop]
        shape = self.data.shape

        def backward(g):
            acc = np.zeros(shape)
            acc[start:stop] = g
            return (acc,)

        return Tensor._result(data, (self,), backward)

    # -- reductions ----------------------------------------------------

    def sum(self, axis=None, keepdims: bool = False):
        data = self.data.sum(axis=axis, keepdims=keepdims)
        shape = self.data.shape

        def backward(g):
            if axis is not None and not keepdims:
                g = np.expand_dims(g, axis)
            return (np.broadcast_to(g, shape).copy(),)

        return Tensor._result(data, (self,), backward)

    def mean(self, axis=None, keepdims: bool = False):
        if axis is None:
            n = self.data.size
        else:
            n = self.data.shape[axis]
        return self.sum(axis=axis, keepdims=keepdims) * (1.0 / n)

    # -- nonlinearities ------------------------------------------------

    def relu(self):
        data = np.maximum(self.data, 0.0)
        mask = self.data > 0.0
        return Tensor._result(data, (self,), lambda g: (g * mask,))

    def tanh(self):
        data = np.tanh(self.data)
        return Tensor._result(data, (self,), lambda g: (g * (1.0 - data * data),))

    def gelu(self):
        # tanh approximation: 0.5 x (1 + tanh(c (x + a x^3))), computed in
        # place on two buffers. The cube is x * x * x: numpy sends x**3 to
        # libm pow, ~50x slower.
        x = self.data
        t = x * x
        t *= x
        t *= _GELU_A
        t += x
        t *= _GELU_C
        t = np.tanh(t)
        data = t + 1.0
        data *= x
        data *= 0.5

        def backward(g):
            # g * (0.5 (1 + t) + 0.5 x (1 - t^2) * c (1 + 3a x x)) on two
            # buffers, each element through the same operations in the same
            # order as that expression.
            q = 0.5 * x
            r = t * t
            np.subtract(1.0, r, out=r)
            q *= r
            np.multiply(x, 3.0 * _GELU_A, out=r)
            r *= x
            r += 1.0
            r *= _GELU_C
            q *= r
            np.add(t, 1.0, out=r)
            r *= 0.5
            r += q
            r *= g
            return (r,)

        return Tensor._result(data, (self,), backward)

    def exp(self):
        data = np.exp(self.data)
        return Tensor._result(data, (self,), lambda g: (g * data,))

    def log_softmax(self, axis: int = -1):
        x = self.data
        m = x.max(axis=axis, keepdims=True)
        shifted = x - m
        lse = np.log(np.exp(shifted).sum(axis=axis, keepdims=True))
        data = shifted - lse
        sm = np.exp(data)

        return Tensor._result(data, (self,),
                              lambda g: (g - sm * g.sum(axis=axis, keepdims=True),))

    def softmax(self, axis: int = -1):
        return self.log_softmax(axis=axis).exp()

    # -- backward ------------------------------------------------------

    def backward(self):
        """Accumulate dself/dparam into .grad of every requires_grad tensor.

        self must be a finite scalar. Repeated calls add up, which is how
        gradients accumulate across the instances of a batch.
        """
        if self.data.size != 1:
            raise ShapeMismatch(f"backward() needs a scalar, got shape {self.data.shape}")
        if not np.isfinite(self.data):
            raise NonFiniteLoss(f"loss is {float(self.data)}")

        # tensors hash by identity; constants get no gradient, so the walk
        # skips them
        topo: list[Tensor] = []
        visited: set[Tensor] = set()
        stack = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                topo.append(node)
                continue
            if node in visited:
                continue
            visited.add(node)
            stack.append((node, True))
            for p in node._parents:
                if p.requires_grad and p not in visited:
                    stack.append((p, False))

        flow: dict[Tensor, np.ndarray] = {self: np.ones_like(self.data)}
        for node in reversed(topo):
            g = flow.pop(node, None)
            if g is None:
                continue
            if node._backward is None:
                if isinstance(node.raw_grad, RowSparse):
                    node.raw_grad += g  # its own block: in place where the rows allow
                elif node.requires_grad:
                    node.raw_grad = g if node.raw_grad is None else node.raw_grad + g
                continue
            # zip would drop a missing gradient silently; zip(strict=True)
            # checks the same at ~0.4 us more per node (a keyword argument
            # leaves zip's fast call path)
            grads = node._backward(g)
            if len(grads) != len(node._parents):
                raise ValueError("a backward returned the wrong number of gradients")
            for p, pg in zip(node._parents, grads):
                if pg is None:
                    continue
                if p in flow:
                    flow[p] = flow[p] + pg
                else:
                    flow[p] = pg


# -- free-function helpers ----------------------------------------------


def concat(tensors: list[Tensor], axis: int = 0) -> Tensor:
    data = np.concatenate([t.data for t in tensors], axis=axis)
    tensors = tuple(tensors)
    # each part's gradient is a slice of g at these bounds (np.split makes
    # the same views at ~2.5x the cost per call)
    bounds = [0, *accumulate(t.data.shape[axis] for t in tensors)]
    lead = (slice(None),) * (axis % data.ndim)

    def backward(g):
        return tuple(g[lead + (slice(lo, hi),)] if t.requires_grad else None
                     for t, lo, hi in zip(tensors, bounds, bounds[1:]))

    return Tensor._result(data, tensors, backward)


def dropout(x: Tensor, rate: float, rng: np.random.Generator | None) -> Tensor:
    """Inverted dropout drawing from `rng`, the only switch: the identity,
    drawing nothing, when rng is None (inference) or rate is 0; otherwise
    one uniform per entry of x, in one draw of x's shape."""
    if rng is None or rate <= 0.0:
        return x
    return x * Tensor((rng.random(x.data.shape) >= rate) / (1.0 - rate))


def add_masked(x: Tensor, mask: np.ndarray, value: float = -1e9) -> Tensor:
    """Add `value` at positions where mask is False (for -inf style logit masks)."""
    return x + Tensor(np.where(mask, 0.0, value))


def finite_difference(loss_fn, param: Tensor, eps: float = 1e-5, entries=None) -> np.ndarray:
    """Central finite differences of a scalar loss wrt selected param entries.

    `entries` is an iterable of flat indices (all entries when None). Returns
    an array shaped like param.data with untested entries zero. This is the
    independent oracle used by the gradient-check tests.
    """
    base = param.data
    flat = base.reshape(-1)
    if entries is None:
        entries = range(flat.size)
    out = np.zeros_like(base).reshape(-1)
    for i in entries:
        orig = flat[i]
        flat[i] = orig + eps
        hi = float(loss_fn())
        flat[i] = orig - eps
        lo = float(loss_fn())
        flat[i] = orig
        out[i] = (hi - lo) / (2.0 * eps)
    return out.reshape(base.shape)

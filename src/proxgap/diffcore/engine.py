"""Reverse-mode automatic differentiation over numpy arrays.

A ``Tensor`` wraps an ``ndarray`` and records the operation that produced it,
so a scalar result can be differentiated w.r.t. any leaf by one backward
sweep in topological order.  Every operation checks its output for nan/inf
and raises :class:`NonFiniteError` naming the offending op, so divergence is
caught at the node that produced it rather than at the end of a run.
"""

from __future__ import annotations

import numpy as np


class NonFiniteError(FloatingPointError):
    """An operation produced nan or inf values."""

    def __init__(self, op: str):
        super().__init__(f"non-finite values produced by op '{op}'")
        self.op = op


def _asarray(x) -> np.ndarray:
    return np.asarray(x, dtype=np.float64)


def _unbroadcast(grad: np.ndarray, shape: tuple) -> np.ndarray:
    """Sum `grad` down to `shape`, undoing numpy broadcasting."""
    if grad.shape == shape:
        return grad
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = grad.sum(axis=tuple(range(extra)))
    axes = tuple(i for i, s in enumerate(shape) if s == 1 and grad.shape[i] != 1)
    if axes:
        grad = grad.sum(axis=axes, keepdims=True)
    return grad


class Tensor:
    """Node of the reverse-mode computation graph.

    ``grad_fn(out_grad)`` returns one gradient array per parent (before
    un-broadcasting).  Leaves have no parents; after ``backward()`` their
    accumulated gradient is available in ``.grad``.
    """

    __slots__ = ("data", "grad", "op", "_parents", "_grad_fn")

    def __init__(self, data, parents=(), grad_fn=None, op="leaf"):
        arr = _asarray(data)
        if not np.isfinite(arr).all():
            raise NonFiniteError(op)
        self.data = arr
        self.grad = None
        self.op = op
        self._parents = parents
        self._grad_fn = grad_fn

    # -- introspection -------------------------------------------------
    @property
    def shape(self):
        return self.data.shape

    def item(self) -> float:
        return float(self.data)

    def __repr__(self):
        return f"Tensor(op={self.op!r}, shape={self.data.shape})"

    # -- backward sweep ------------------------------------------------
    def backward(self):
        if self.data.size != 1:
            raise ValueError("backward() requires a scalar output")
        topo = []
        visited = set()
        stack = [(self, False)]
        while stack:
            node, done = stack.pop()
            if done:
                topo.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for p in node._parents:
                if id(p) not in visited:
                    stack.append((p, False))
        self.grad = np.ones_like(self.data)
        for node in reversed(topo):
            if node._grad_fn is None or node.grad is None:
                continue
            for parent, g in zip(node._parents, node._grad_fn(node.grad)):
                if g is None:
                    continue
                g = _unbroadcast(_asarray(g), parent.data.shape)
                parent.grad = g if parent.grad is None else parent.grad + g

    # -- arithmetic ----------------------------------------------------
    def __add__(self, other):
        other = as_tensor(other)
        return Tensor(self.data + other.data, (self, other),
                      lambda g: (g, g), "add")

    __radd__ = __add__

    def __neg__(self):
        return Tensor(-self.data, (self,), lambda g: (-g,), "neg")

    def __sub__(self, other):
        other = as_tensor(other)
        return Tensor(self.data - other.data, (self, other),
                      lambda g: (g, -g), "sub")

    def __rsub__(self, other):
        return as_tensor(other) - self

    def __mul__(self, other):
        other = as_tensor(other)
        return Tensor(self.data * other.data, (self, other),
                      lambda g: (g * other.data, g * self.data), "mul")

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = as_tensor(other)
        return Tensor(self.data / other.data, (self, other),
                      lambda g: (g / other.data,
                                 -g * self.data / (other.data * other.data)),
                      "div")

    def __rtruediv__(self, other):
        return as_tensor(other) / self

    def __pow__(self, n):
        if isinstance(n, Tensor):
            raise TypeError("only constant exponents are supported")
        n = float(n)
        return Tensor(self.data ** n, (self,),
                      lambda g: (g * n * self.data ** (n - 1),), "pow")

    def __matmul__(self, other):
        other = as_tensor(other)
        return Tensor(self.data @ other.data, (self, other),
                      lambda g: (g @ other.data.T, self.data.T @ g), "matmul")

    # -- elementwise nonlinearities -------------------------------------
    def tanh(self):
        out = np.tanh(self.data)
        return Tensor(out, (self,), lambda g: (g * (1.0 - out * out),), "tanh")

    def sigmoid(self):
        out = _sigmoid(self.data)
        return Tensor(out, (self,), lambda g: (g * out * (1.0 - out),), "sigmoid")

    def exp(self):
        with np.errstate(over="ignore"):
            out = np.exp(self.data)
        return Tensor(out, (self,), lambda g: (g * out,), "exp")

    def log(self):
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.log(self.data)
        return Tensor(out, (self,), lambda g: (g / self.data,), "log")

    def softplus(self):
        out = np.logaddexp(0.0, self.data)
        return Tensor(out, (self,),
                      lambda g: (g * _sigmoid(self.data),), "softplus")

    def relu(self):
        mask = self.data > 0
        return Tensor(np.where(mask, self.data, 0.0), (self,),
                      lambda g: (g * mask,), "relu")

    def leaky_relu(self, slope: float):
        factor = np.where(self.data > 0, 1.0, slope)
        return Tensor(self.data * factor, (self,),
                      lambda g: (g * factor,), "leaky_relu")

    def clamp(self, lo: float, hi: float):
        mask = (self.data >= lo) & (self.data <= hi)
        return Tensor(np.clip(self.data, lo, hi), (self,),
                      lambda g: (g * mask,), "clamp")

    # -- reductions and shaping -----------------------------------------
    def sum(self):
        return Tensor(self.data.sum(), (self,),
                      lambda g: (np.full_like(self.data, float(g)),), "sum")

    def mean(self):
        n = self.data.size
        return Tensor(self.data.mean(), (self,),
                      lambda g: (np.full_like(self.data, float(g) / n),), "mean")

    def segment(self, offset: int, length: int):
        """Contiguous slice of a 1-D tensor; gradient scatters back."""
        if self.data.ndim != 1:
            raise ValueError("segment() expects a 1-D tensor")

        def grad_fn(g):
            z = np.zeros_like(self.data)
            z[offset:offset + length] = g
            return (z,)

        return Tensor(self.data[offset:offset + length], (self,), grad_fn, "segment")

    def reshape(self, *shape):
        return Tensor(self.data.reshape(*shape), (self,),
                      lambda g: (g.reshape(self.data.shape),), "reshape")


def as_tensor(x) -> Tensor:
    return x if isinstance(x, Tensor) else Tensor(x)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # numerically stable logistic on plain arrays: exp(-|x|) never overflows,
    # and each branch computes what the masked two-sided formula would;
    # min(x, -x) is -|x| that keeps the sign bit of a nan, as that formula does
    ex = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


# Dispatching helpers so the same formula can be written once and used on
# Tensors (graph-building) and on plain arrays (oracles, plotting).
def exp(x):
    return x.exp() if isinstance(x, Tensor) else np.exp(x)


def log(x):
    return x.log() if isinstance(x, Tensor) else np.log(x)


def softplus(x):
    return x.softplus() if isinstance(x, Tensor) else np.logaddexp(0.0, x)


def _param_values(params) -> np.ndarray:
    vals = getattr(params, "values", params)
    return np.asarray(vals, dtype=np.float64)


def grad_params(loss, params) -> np.ndarray:
    """Exact reverse-mode gradient of ``loss`` w.r.t. a flat parameter vector.

    ``loss`` must accept a 1-D :class:`Tensor` and return a scalar Tensor;
    ``params`` is a ParamVector or array holding the evaluation point.
    """
    theta = Tensor(_param_values(params), op="params")
    out = loss(theta)
    if not isinstance(out, Tensor) or out.data.size != 1:
        raise ValueError("loss must return a scalar Tensor")
    out.backward()
    if theta.grad is None:
        return np.zeros_like(theta.data)
    return theta.grad.copy()


def finite_diff_grad(loss, params, h: float) -> np.ndarray:
    """Central-difference gradient; the independent oracle for grad_params."""
    if h <= 0:
        raise ValueError("h must be positive")
    base = _param_values(params).copy()
    grad = np.empty_like(base)
    for i in range(base.size):
        orig = base[i]
        base[i] = orig + h
        up = loss(Tensor(base, op="fd+")).item()
        base[i] = orig - h
        down = loss(Tensor(base, op="fd-")).item()
        base[i] = orig
        grad[i] = (up - down) / (2.0 * h)
    return grad

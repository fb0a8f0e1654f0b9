"""Tiny fully-connected networks over flat parameter vectors."""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .engine import NonFiniteError, Tensor, _param_values, _sigmoid, as_tensor
from .rng import Rng

_ACTIVATIONS = ("tanh", "relu", "leaky_relu")
_HEADS = ("linear", "sigmoid")


@dataclass(frozen=True)
class NetworkSpec:
    """Architecture of a feed-forward net; parameter count is a pure function of it."""

    input_dim: int
    hidden_widths: tuple = ()
    output_dim: int = 1
    activation: str = "tanh"
    output_head: str = "linear"
    leaky_slope: float = 0.2

    def __post_init__(self):
        object.__setattr__(self, "hidden_widths", tuple(int(w) for w in self.hidden_widths))
        if self.input_dim < 1 or self.output_dim < 1:
            raise ValueError("input_dim and output_dim must be positive")
        if any(w < 1 for w in self.hidden_widths):
            raise ValueError("hidden widths must be positive")
        if self.activation not in _ACTIVATIONS:
            raise ValueError(f"unknown activation {self.activation!r}")
        if self.output_head not in _HEADS:
            raise ValueError(f"unknown output head {self.output_head!r}")
        # the derived shapes, once per spec; plain attributes rather than
        # dataclass fields, so equality, hashing and repr ignore them
        dims = (self.input_dim, *self.hidden_widths, self.output_dim)
        shapes = tuple((dims[i], dims[i + 1]) for i in range(len(dims) - 1))
        layout, offset = {}, 0
        for i, (fi, fo) in enumerate(shapes):
            layout[f"W{i}"] = (offset, fi * fo)
            offset += fi * fo
            layout[f"b{i}"] = (offset, fo)
            offset += fo
        object.__setattr__(self, "_shapes", shapes)
        object.__setattr__(self, "_layout", layout)
        object.__setattr__(self, "_param_count", offset)

    def layer_shapes(self) -> tuple:
        """(fan_in, fan_out) per layer, input to output."""
        return self._shapes

    @property
    def param_count(self) -> int:
        return self._param_count

    def layout(self) -> dict:
        """Segment name -> (offset, length) for the flat parameter vector."""
        return dict(self._layout)


@dataclass(frozen=True)
class ParamVector:
    """Immutable flat parameter store with a named segment layout."""

    values: np.ndarray
    layout: dict = field(compare=False)

    def __post_init__(self):
        vals = _finite_copy(self.values)
        total = sum(length for _, length in self.layout.values())
        if total != vals.size:
            raise ValueError(f"layout covers {total} values, got {vals.size}")
        if any(off + length > vals.size for off, length in self.layout.values()):
            raise ValueError("layout segment exceeds parameter vector")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return self.values.size

    def with_values(self, values) -> "ParamVector":
        """A vector of this layout holding ``values``.  The layout was checked
        when ``self`` was built, so only the values are, with the constructor's
        messages."""
        vals = _finite_copy(values)
        if vals.size != self.values.size:
            raise ValueError(f"layout covers {self.values.size} values, got {vals.size}")
        vals.flags.writeable = False
        new = object.__new__(ParamVector)
        new.__dict__.update(values=vals, layout=self.layout)
        return new

    def segment(self, name: str) -> np.ndarray:
        off, length = self.layout[name]
        return self.values[off:off + length]


def _finite_copy(values) -> np.ndarray:
    vals = np.array(values, dtype=np.float64).ravel()
    if not np.isfinite(vals).all():
        raise ValueError("parameters must be finite")
    return vals


def init_network(spec: NetworkSpec, rng: Rng) -> ParamVector:
    """Uniform Glorot-style init: W ~ U(-a, a) with a = sqrt(6/(fan_in+fan_out)); zero biases."""
    vals = np.zeros(spec.param_count)
    layout = spec.layout()
    for i, (fi, fo) in enumerate(spec.layer_shapes()):
        a = np.sqrt(6.0 / (fi + fo))
        off, length = layout[f"W{i}"]
        vals[off:off + length] = rng.uniform(-a, a, length)
    return ParamVector(vals, layout)


def forward_graph(spec: NetworkSpec, theta, batch) -> Tensor:
    """Differentiable forward pass; `theta` and `batch` may be Tensors or arrays."""
    t = theta if isinstance(theta, Tensor) else Tensor(_param_values(theta), op="theta")
    if t.data.size != spec.param_count:
        raise ValueError(f"expected {spec.param_count} parameters, got {t.data.size}")
    x = as_tensor(batch)
    if x.data.ndim != 2 or x.data.shape[1] != spec.input_dim:
        raise ValueError(f"batch must be n x {spec.input_dim}, got {x.data.shape}")
    layout = spec.layout()
    shapes = spec.layer_shapes()
    last = len(shapes) - 1
    for i, (fi, fo) in enumerate(shapes):
        off_w, len_w = layout[f"W{i}"]
        off_b, len_b = layout[f"b{i}"]
        w = t.segment(off_w, len_w).reshape(fi, fo)
        b = t.segment(off_b, len_b)
        x = x @ w + b
        if i < last:
            if spec.activation == "tanh":
                x = x.tanh()
            elif spec.activation == "relu":
                x = x.relu()
            else:
                x = x.leaky_relu(spec.leaky_slope)
        elif spec.output_head == "sigmoid":
            x = x.sigmoid()
    return x


def forward(spec: NetworkSpec, params: ParamVector, batch) -> np.ndarray:
    """Plain forward evaluation, returning an n x output_dim array."""
    return mlp_forward(spec, params, batch)[0]


# -- the fused kernel ----------------------------------------------------------
#
# ``mlp_forward``/``mlp_backward`` evaluate the same layers as ``forward_graph``
# with plain numpy and no per-op graph, so a value and gradient cost a few
# matrix products; ``objectives.output_grads`` gives dV/d(outputs) in closed
# form, so a healthy step builds no Tensor at all.  The graph path is their
# reference oracle only, never run in their place.  Failures keep the graph's
# names all the same: the kernel checks every pre-activation and names a failed
# check by the op the graph would have stopped at, ``output_grads`` runs the
# objective on leaf Tensors once its closed form is non-finite (and only then)
# so the objective's own op names the failure, and ``finite_value_and_grad``
# names whatever else is non-finite in a value and gradient 'backward'.


class MlpWorkspace:
    """Buffers for ``mlp_forward``/``mlp_backward`` on one spec and row count.

    One buffer per layer pre-activation (activated in place), one boolean
    buffer per layer for the gates and the entrywise finite check, one gate
    buffer per hidden leaky-ReLU layer, and the backward pass's two work
    buffers and row of ones, made by the first backward pass so that
    forward-only calls never map them.
    """

    def __init__(self, spec: NetworkSpec, n: int):
        shapes = spec.layer_shapes()
        leaky = spec.activation == "leaky_relu"
        self.pre = [np.empty((n, fo)) for _, fo in shapes]
        self.masks = [np.empty((n, fo), dtype=bool) for _, fo in shapes]
        self.gates = [np.empty((n, fo)) if leaky else None for _, fo in shapes[:-1]]
        self.bufs = self.ones = None


def mlp_forward(spec: NetworkSpec, theta, batch, work: MlpWorkspace = None):
    """Forward pass on plain arrays: (n x output_dim outputs, cache for ``mlp_backward``).

    With ``work`` (built for this spec and n rows) the outputs and the cache
    alias its buffers until the next call on it; without, fresh buffers are
    used.  Raises NonFiniteError when a pre-activation is non-finite, which
    also catches a matmul overflow that a saturating activation would hide,
    naming the op at which ``forward_graph`` would have stopped.

    A layer's check is one reduction, the sum of its squared pre-activations
    (a BLAS dot, which raises no floating-point warning): it is non-finite
    whenever an entry is, and only then does the entrywise check run.
    """
    vals = _param_values(theta)
    if vals.size != spec.param_count:
        raise ValueError(f"expected {spec.param_count} parameters, got {vals.size}")
    x = np.asarray(batch, dtype=np.float64)
    if x.ndim != 2 or x.shape[1] != spec.input_dim:
        raise ValueError(f"batch must be n x {spec.input_dim}, got {x.shape}")
    if work is None:
        work = MlpWorkspace(spec, x.shape[0])
    shapes = spec.layer_shapes()
    last = len(shapes) - 1
    inputs, gates = [], []
    off = 0
    # every large array lives in the workspace, so a reused one allocates, and
    # page-faults, nothing of the batch's size; the arithmetic is the graph's
    for i, (fi, fo) in enumerate(shapes):
        w = vals[off:off + fi * fo].reshape(fi, fo)
        b = vals[off + fi * fo:off + fi * fo + fo]
        off += fi * fo + fo
        z, mask = work.pre[i], work.masks[i]
        np.matmul(x, w, out=z)
        z += b
        if not math.isfinite(np.vdot(z, z)) and not np.isfinite(z, out=mask).all():
            raise NonFiniteError(_failed_op(spec, vals, x, w, i))
        inputs.append(x)
        if i < last:
            if spec.activation == "tanh":
                gates.append(None)  # the backward pass uses 1 - tanh^2 of the output
                x = np.tanh(z, out=z)
            elif spec.activation == "relu":
                gates.append(np.greater(z, 0.0, out=mask))
                x = np.maximum(z, 0.0, out=z)
            else:
                # where(z > 0, 1, slope): exactly 1.0 and leaky_slope
                gate = work.gates[i]
                np.greater(z, 0.0, out=mask)
                gate.fill(spec.leaky_slope)
                np.putmask(gate, mask, 1.0)
                gates.append(gate)
                x = np.multiply(z, gate, out=z)
        elif spec.output_head == "sigmoid":
            x = _sigmoid(z)
        else:
            x = z
    return x, (inputs, gates, x, work)


def mlp_backward(spec: NetworkSpec, theta, cache, grad_out, input_grad: bool = True):
    """Backward pass of ``mlp_forward``: (dL/dtheta, dL/dbatch) given dL/doutputs.

    dL/dtheta is a fresh array; dL/dbatch aliases the forward's workspace.
    With ``input_grad=False`` the pass stops before layer 0's input gradient
    and returns None in its place.
    """
    vals = _param_values(theta)
    inputs, gates, out, work = cache
    g = np.asarray(grad_out, dtype=np.float64)
    if spec.output_head == "sigmoid":
        g = g * out * (1.0 - out)
    grad = np.empty(spec.param_count)
    n = g.shape[0]
    shapes = spec.layer_shapes()
    # two work buffers, used in turn for the next gradient and as scratch
    if work.bufs is None:
        width = max(fi for fi, _ in shapes)
        work.bufs = (np.empty(n * width), np.empty(n * width))
        work.ones = np.ones(n)
    bufs = work.bufs
    off = spec.param_count
    for i in range(len(shapes) - 1, -1, -1):
        fi, fo = shapes[i]
        off -= fi * fo + fo
        np.matmul(inputs[i].T, g, out=grad[off:off + fi * fo].reshape(fi, fo))
        np.matmul(work.ones, g, out=grad[off + fi * fo:off + fi * fo + fo])
        if i == 0 and not input_grad:
            return grad, None
        w = vals[off:off + fi * fo].reshape(fi, fo)
        nxt = bufs[i % 2][:n * fi].reshape(n, fi)
        if fo > 1:
            np.matmul(g, w.T, out=nxt)
        else:
            # one output unit: an outer product, faster by broadcasting
            np.multiply(g, w.T, out=nxt)
        g = nxt
        if i > 0:
            if gates[i - 1] is None:
                scratch = bufs[(i + 1) % 2][:n * fi].reshape(n, fi)
                np.multiply(inputs[i], inputs[i], out=scratch)
                g *= np.subtract(1.0, scratch, out=scratch)
            else:
                g *= gates[i - 1]
    return grad, g


def _failed_op(spec: NetworkSpec, vals, x, w, i: int) -> str:
    """The op of ``forward_graph`` that fails first when layer i's pre-activation
    x @ w + b is non-finite; worked out only once that check has failed."""
    if not np.isfinite(vals).all():
        return "theta"
    if not np.isfinite(x).all():
        return "leaf" if i == 0 else spec.activation
    return "add" if np.isfinite(x @ w).all() else "matmul"


def finite_value_and_grad(value, grad):
    """(value, grad) when both are finite, else NonFiniteError('backward').

    The kernel and the objective's leaf-graph replay name the forward ops, so
    what is non-finite only here came from the backward pass.
    """
    if not (math.isfinite(value) and np.isfinite(grad).all()):
        raise NonFiniteError("backward")
    return value, grad


# -- input gradients -----------------------------------------------------------


def input_grad_batch(spec: NetworkSpec, params: ParamVector, batch, h: float) -> np.ndarray:
    """Gradient of the scalar network output w.r.t. its input, by central
    differences, for every row of a batch (n x input_dim array)."""
    rows = stencil_rows(spec, batch, h)
    out = forward(spec, params, rows).reshape(spec.input_dim, 2, -1)
    return central_difference(out[:, 0], out[:, 1], h).T


def input_grad_columns(spec: NetworkSpec, theta, batch, h: float):
    """Graph version of ``input_grad_batch``: one n x 1 Tensor per input coordinate.

    Both evaluate the same stencil rows in one forward pass and apply the same
    ``central_difference``, so their entries agree bit for bit.
    """
    rows = stencil_rows(spec, batch, h)
    n = rows.shape[0] // (2 * spec.input_dim)
    out = forward_graph(spec, theta, rows).reshape(rows.shape[0])
    return [central_difference(out.segment(2 * j * n, n).reshape(n, 1),
                               out.segment((2 * j + 1) * n, n).reshape(n, 1), h)
            for j in range(spec.input_dim)]


def stencil_rows(spec: NetworkSpec, batch, h: float) -> np.ndarray:
    """The central-difference stencil of a batch, stacked for one forward pass.

    Rows come in 2 * input_dim blocks of n: x + h e_0, x - h e_0, x + h e_1, ...
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if spec.output_dim != 1:
        raise ValueError("input gradients need a scalar-output network")
    batch = np.asarray(batch, dtype=np.float64)
    return np.vstack([block for shift in h * np.eye(spec.input_dim)
                      for block in (batch + shift, batch - shift)])


def central_difference(up, down, h: float):
    """(up - down) / 2h, on arrays or Tensors alike; the one stencil scaling."""
    return (up - down) * (1.0 / (2.0 * h))

"""Tiny fully-connected networks over flat parameter vectors."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .rng import Rng

_ACTIVATIONS = ("tanh", "relu", "leaky_relu")
_HEADS = ("linear", "sigmoid")


class NonFiniteError(FloatingPointError):
    """An operation produced nan or inf values."""

    def __init__(self, op: str):
        super().__init__(f"non-finite values produced by op '{op}'")
        self.op = op


def _param_values(params) -> np.ndarray:
    vals = getattr(params, "values", params)
    return np.asarray(vals, dtype=np.float64)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    # numerically stable logistic on plain arrays: exp(-|x|) never overflows,
    # and each branch computes what the masked two-sided formula would;
    # min(x, -x) is -|x| that keeps the sign bit of a nan, as that formula does
    ex = np.exp(np.minimum(x, -x))
    return np.where(x >= 0, 1.0 / (1.0 + ex), ex / (1.0 + ex))


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
        # the parameter layout, once per spec; plain attributes rather than
        # dataclass fields, so equality, hashing and repr ignore them
        dims = (self.input_dim, *self.hidden_widths, self.output_dim)
        layers, offset = [], 0
        for fi, fo in zip(dims, dims[1:]):
            bias = offset + fi * fo
            layers.append((fi, fo, slice(offset, bias), slice(bias, bias + fo)))
            offset = bias + fo
        object.__setattr__(self, "_layers", tuple(layers))
        object.__setattr__(self, "_shapes", tuple((fi, fo) for fi, fo, _, _ in layers))
        object.__setattr__(self, "_param_count", offset)

    def layers(self) -> tuple:
        """(fan_in, fan_out, weight slice, bias slice) per layer, input to
        output: the one layout of the flat parameter vector, W0, b0, W1, ...
        in turn, each W row-major fan_in x fan_out."""
        return self._layers

    def layer_shapes(self) -> tuple:
        """(fan_in, fan_out) per layer, input to output."""
        return self._shapes

    @property
    def param_count(self) -> int:
        return self._param_count


@dataclass(frozen=True, eq=False)
class ParamVector:
    """Immutable flat parameter store: a finite, read-only copy of its values,
    laid out as its network's ``NetworkSpec.layers()`` says.  Two vectors are
    equal when their values are, and equal vectors hash alike.

    It is what a ``GanState``, and so a checkpoint, holds; the loops that move
    parameters (training updates, searches, inner ascents) move plain arrays.
    """

    values: np.ndarray

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64).ravel()
        if not np.isfinite(vals).all():
            raise ValueError("parameters must be finite")
        vals.flags.writeable = False
        object.__setattr__(self, "values", vals)

    def __len__(self):
        return self.values.size

    def __eq__(self, other):
        if not isinstance(other, ParamVector):
            return NotImplemented
        return np.array_equal(self.values, other.values)

    def __hash__(self):
        # the values are finite, so equal ones have equal bytes but for the
        # sign of a zero, which adding +0.0 clears
        return hash((self.values + 0.0).tobytes())


def init_network(spec: NetworkSpec, rng: Rng) -> ParamVector:
    """Uniform Glorot-style init: W ~ U(-a, a) with a = sqrt(6/(fan_in+fan_out)); zero biases."""
    vals = np.zeros(spec.param_count)
    for fi, fo, weight, _ in spec.layers():
        a = np.sqrt(6.0 / (fi + fo))
        vals[weight] = rng.uniform(-a, a, fi * fo)
    return ParamVector(vals)


def forward_graph(spec: NetworkSpec, theta, batch):
    """Differentiable forward pass, a ``Tensor``; `theta` and `batch` may be
    Tensors or arrays.  The reference oracle of ``mlp_forward``; the engine
    loads on its first call."""
    from .engine import Tensor, as_tensor

    t = theta if isinstance(theta, Tensor) else Tensor(_param_values(theta), op="theta")
    if t.data.size != spec.param_count:
        raise ValueError(f"expected {spec.param_count} parameters, got {t.data.size}")
    x = as_tensor(batch)
    if x.data.ndim != 2 or x.data.shape[1] != spec.input_dim:
        raise ValueError(f"batch must be n x {spec.input_dim}, got {x.data.shape}")
    layers = spec.layers()
    last = len(layers) - 1
    for i, (fi, fo, weight, bias) in enumerate(layers):
        w = t.segment(weight.start, fi * fo).reshape(fi, fo)
        b = t.segment(bias.start, fo)
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


def forward(spec: NetworkSpec, params, batch, work=None) -> np.ndarray:
    """Plain forward evaluation, returning an n x output_dim array; with an
    ``MlpWorkspace`` it aliases the workspace, as ``mlp_forward``'s outputs do."""
    return mlp_forward(spec, params, batch, work)[0]


# -- the fused kernel ----------------------------------------------------------
#
# ``mlp_forward``/``mlp_backward`` evaluate the same layers as ``forward_graph``
# with plain numpy and no per-op graph, so a value and gradient cost a few
# matrix products; ``objectives.output_grads`` gives dV/d(outputs) in closed
# form, so a healthy step builds no Tensor at all.  The graph path is their
# reference oracle only, never run in their place, and the engine it builds on
# is not loaded until one is called.  Failures keep the graph's names all the
# same: the kernel checks every pre-activation and names a failed check by the
# op the graph would have stopped at, ``output_grads`` runs the objective on
# leaf Tensors once its closed form is non-finite (and only then) so the
# objective's own op names the failure, and ``finite_value_and_grad`` names
# whatever else is non-finite in a value and gradient 'backward'.


class MlpWorkspace:
    """Buffers for ``mlp_forward``/``mlp_backward`` on one spec.

    One buffer per layer pre-activation, activated in place; a boolean mask
    per hidden layer whose activation gates through one (ReLU, leaky ReLU)
    and a float gate per hidden leaky-ReLU layer; and the backward pass's
    one work buffer, of rows x the widest fan-in, and row of ones, made by
    the first backward pass so that forward-only calls never map them.  The
    backward pass writes each hidden layer's gradient into that layer's
    spent activation buffer, so it needs no buffer per layer of its own.
    The buffers hold ``rows`` rows: a call on fewer runs on their leading
    rows, and a call on more replaces them all by buffers of its size.

    A workspace belongs to one loop (a training run, an estimator search)
    and dies with it; the outputs of a call alias it until the next call
    on it, so two results that must stay live need two workspaces.  A
    forward pass's cache serves one backward pass, run before the next
    forward pass on the workspace; ``live`` is the token of the one cache
    that may still serve it.
    """

    def __init__(self, spec: NetworkSpec):
        self.spec = spec
        self.rows = -1  # no buffers yet, not even for an empty batch
        self.pre = self.masks = self.gates = self.buf = self.ones = None
        self.live = None

    def fit(self, n: int):
        """Make room for n rows, building the buffers when they hold fewer."""
        if n <= self.rows:
            return
        # the held buffers go first, so the new ones do not add to them
        self.pre = self.masks = self.gates = self.buf = self.ones = None
        activation = self.spec.activation
        widths = [fo for _, fo in self.spec.layer_shapes()]
        self.pre = [np.empty((n, fo)) for fo in widths]
        self.masks = [None if activation == "tanh" else np.empty((n, fo), dtype=bool)
                      for fo in widths[:-1]]
        self.gates = [np.empty((n, fo)) if activation == "leaky_relu" else None
                      for fo in widths[:-1]]
        self.rows = n

    @property
    def nbytes(self) -> int:
        """Bytes of the buffers held."""
        held = [*(self.pre or ()), *(self.masks or ()), *(self.gates or ()), self.buf, self.ones]
        return sum(a.nbytes for a in held if a is not None)


def mlp_forward(spec: NetworkSpec, theta, batch, work: MlpWorkspace = None):
    """Forward pass on plain arrays: (n x output_dim outputs, cache for ``mlp_backward``).

    With ``work`` (a workspace of this spec) the outputs and the cache alias
    its buffers until the next call on it; without, fresh buffers are used.
    The cache serves one backward pass.
    Raises NonFiniteError when a pre-activation is non-finite, which also
    catches a matmul overflow that a saturating activation would hide,
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
    n = x.shape[0]
    if work is None:
        work = MlpWorkspace(spec)
    work.fit(n)
    # this pass overwrites the activations that an earlier cache holds
    work.live = token = object()
    layers = spec.layers()
    last = len(layers) - 1
    inputs, gates = [], []
    # every large array lives in the workspace, so a reused one allocates, and
    # page-faults, nothing of the batch's size; the arithmetic is the graph's
    for i, (fi, fo, weight, bias) in enumerate(layers):
        w, b = vals[weight].reshape(fi, fo), vals[bias]
        z = work.pre[i][:n]
        np.matmul(x, w, out=z)
        z += b
        if not math.isfinite(np.vdot(z, z)) and not np.isfinite(z).all():
            raise NonFiniteError(_failed_op(spec, vals, x, w, i))
        inputs.append(x)
        if i < last:
            if spec.activation == "tanh":
                gates.append(None)  # the backward pass uses 1 - tanh^2 of the output
                x = np.tanh(z, out=z)
            elif spec.activation == "relu":
                gates.append(np.greater(z, 0.0, out=work.masks[i][:n]))
                x = np.maximum(z, 0.0, out=z)
            else:
                gate = _leaky_gate(z, spec.leaky_slope, work.masks[i][:n], work.gates[i][:n])
                gates.append(gate)
                x = np.multiply(z, gate, out=z)
        elif spec.output_head == "sigmoid":
            x = _sigmoid(z)
        else:
            x = z
    return x, (inputs, gates, x, work, token)


def _leaky_gate(z, slope: float, mask, gate):
    """where(z > 0, 1, slope) written into ``gate``, with ``mask`` left holding
    z > 0: exactly 1.0 and ``slope`` for every finite slope but -0.0 (whose
    gate entries are +0.0).  Arithmetic on the mask builds it without a
    per-entry branch, which random sign patterns would mispredict."""
    np.greater(z, 0.0, out=mask)
    np.logical_not(mask, out=gate)
    gate *= slope
    gate += mask
    return gate


def mlp_backward(spec: NetworkSpec, theta, cache, grad_out, input_grad: bool = True):
    """Backward pass of ``mlp_forward``: (dL/dtheta, dL/dbatch) given dL/doutputs.

    dL/dtheta is a fresh array; dL/dbatch aliases the forward's workspace.
    With ``input_grad=False`` the pass stops before layer 0's input gradient
    and returns None in its place.

    The pass consumes its cache: once a hidden layer's weight gradient has
    read that layer's input activations, their buffer takes the gradient
    the pass carries on with, so only the outputs stay intact.  A cache that
    a backward pass already consumed, or that a later forward pass on its
    workspace replaced, raises ValueError.
    """
    vals = _param_values(theta)
    inputs, gates, out, work, token = cache
    if token is not work.live:
        raise ValueError("this cache was consumed by a backward pass or replaced by a "
                         "later forward pass on its workspace")
    work.live = None
    g = np.asarray(grad_out, dtype=np.float64)
    if spec.output_head == "sigmoid":
        g = g * out * (1.0 - out)
    grad = np.empty(spec.param_count)
    n = g.shape[0]
    layers = spec.layers()
    if work.buf is None:
        work.buf = np.empty(work.rows * max(fi for fi, _ in spec.layer_shapes()))
        work.ones = np.ones(work.rows)
    ones = work.ones[:n]
    for i in range(len(layers) - 1, -1, -1):
        fi, fo, weight, bias = layers[i]
        np.matmul(inputs[i].T, g, out=grad[weight].reshape(fi, fo))
        np.matmul(ones, g, out=grad[bias])
        if i == 0 and not input_grad:
            return grad, None
        w = vals[weight].reshape(fi, fo)
        # g @ w.T goes into the spent activations when a gate follows, and
        # into the work buffer for layer 0 and for tanh, whose derivative
        # 1 - x^2 is built in the activations' own buffer
        gated = i > 0 and gates[i - 1] is not None
        nxt = inputs[i] if gated else work.buf[:n * fi].reshape(n, fi)
        if fo > 1:
            np.matmul(g, w.T, out=nxt)
        else:
            # one output unit: an outer product, faster by broadcasting
            np.multiply(g, w.T, out=nxt)
        if i == 0:
            return grad, nxt
        if gated:
            g = nxt
            g *= gates[i - 1]
        else:
            # (1 - x^2) * nxt: IEEE products commute, so these are the bytes
            # of nxt * (1 - x^2)
            g = inputs[i]
            np.multiply(g, g, out=g)
            np.subtract(1.0, g, out=g)
            g *= nxt


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


def input_grad_batch(spec: NetworkSpec, params, batch, h: float, work=None) -> np.ndarray:
    """Gradient of the scalar network output w.r.t. its input, by central
    differences, for every row of a batch (n x input_dim array); a fresh
    array, whether or not its forward pass runs on the ``MlpWorkspace`` ``work``."""
    rows = stencil_rows(spec, batch, h)
    out = forward(spec, params, rows, work).reshape(spec.input_dim, 2, -1)
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

"""Tiny fully-connected networks over flat parameter vectors."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .engine import Tensor, _param_values, as_tensor
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

    def layer_shapes(self):
        dims = (self.input_dim, *self.hidden_widths, self.output_dim)
        return [(dims[i], dims[i + 1]) for i in range(len(dims) - 1)]

    @property
    def param_count(self) -> int:
        return sum(fi * fo + fo for fi, fo in self.layer_shapes())

    def layout(self) -> dict:
        """Segment name -> (offset, length) for the flat parameter vector."""
        out, offset = {}, 0
        for i, (fi, fo) in enumerate(self.layer_shapes()):
            out[f"W{i}"] = (offset, fi * fo)
            offset += fi * fo
            out[f"b{i}"] = (offset, fo)
            offset += fo
        return out


@dataclass(frozen=True)
class ParamVector:
    """Immutable flat parameter store with a named segment layout."""

    values: np.ndarray
    layout: dict = field(compare=False)

    def __post_init__(self):
        vals = np.array(self.values, dtype=np.float64).ravel()
        if not np.all(np.isfinite(vals)):
            raise ValueError("parameters must be finite")
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
        return ParamVector(values, self.layout)

    def segment(self, name: str) -> np.ndarray:
        off, length = self.layout[name]
        return self.values[off:off + length]


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
    return forward_graph(spec, params, np.asarray(batch, dtype=np.float64)).data


def input_grad_batch(spec: NetworkSpec, params: ParamVector, batch, h: float) -> np.ndarray:
    """Gradient of the scalar network output w.r.t. its input, by central
    differences, for every row of a batch (n x input_dim array)."""
    return np.hstack([(up.data - down.data) / (2.0 * h)
                      for up, down in _stencil(spec, params, batch, h)])


def input_grad_columns(spec: NetworkSpec, theta, batch, h: float):
    """Graph version of ``input_grad_batch``: one n x 1 Tensor per input coordinate.

    It scales by the reciprocal where ``input_grad_batch`` divides, so the two
    can differ in the last bit; each keeps the arithmetic that the gap
    estimates were pinned with.
    """
    return [(up - down) * (1.0 / (2.0 * h)) for up, down in _stencil(spec, theta, batch, h)]


def _stencil(spec: NetworkSpec, theta, batch, h: float):
    """Forward outputs at x + h e_j and x - h e_j for each input coordinate j.

    Built purely from forward evaluations, so with a parameter Tensor the
    outputs stay differentiable w.r.t. the parameters.
    """
    if h <= 0:
        raise ValueError("h must be positive")
    if spec.output_dim != 1:
        raise ValueError("input gradients need a scalar-output network")
    batch = np.asarray(batch, dtype=np.float64)
    return [(forward_graph(spec, theta, batch + shift), forward_graph(spec, theta, batch - shift))
            for shift in h * np.eye(spec.input_dim)]

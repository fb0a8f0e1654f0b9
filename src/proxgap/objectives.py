"""Game objectives with a single sign convention (D maximizes V, G minimizes V),
their values and parameter gradients through the fused kernel, and the
f-divergence conjugate machinery.

Each objective has one formula, ``objective_from_outputs``, and next to it
its value and its derivative with respect to the discriminator's outputs in
plain numpy (``output_grads``), written op for op as the graph engine's
backward pass over that formula, so the two agree bit for bit.  The leaf
graph runs only to name a failure.

The discriminator's gradient has one source, ``penalized_step_fn``, the
proximal objective's per-step V - lam * dist^2; at lam = 0 it is V itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .diffcore import (
    MlpWorkspace,
    NetworkSpec,
    ParamVector,
    Tensor,
    exp,
    finite_value_and_grad,
    forward,
    forward_graph,
    input_grad_batch,
    input_grad_columns,
    log,
    mlp_backward,
    mlp_forward,
    softplus,
)
from .diffcore.engine import _sigmoid
from .diffcore.network import central_difference, stencil_rows

# D outputs are clamped into [EPS_LOG, 1 - EPS_LOG] before logs so a saturated
# discriminator yields a large-but-finite value instead of -inf.
EPS_LOG = 1e-7


@dataclass(frozen=True)
class FGanFamily:
    """A convex f with f(1)=0, its Fenchel conjugate, and the map taking raw
    discriminator outputs into Dom(f*).

    ``f`` and ``f_prime`` operate on plain arrays; ``f_star`` and
    ``output_map`` are written against the dispatching math helpers so they
    build graphs when handed Tensors.  ``f_star_vjp(x, g)`` and
    ``output_map_vjp(v, g)`` are their derivatives on plain arrays, an
    upstream gradient g times f*'(x) or output_map'(v), computed as the
    engine's backward pass computes them, op for op.
    """

    name: str
    f: Callable
    f_prime: Callable
    f_star: Callable
    output_map: Callable
    f_star_vjp: Callable
    output_map_vjp: Callable


def _js_f(t):
    return t * np.log(t) - (t + 1.0) * np.log(0.5 * (t + 1.0))


def _pearson_f_star_vjp(x, g):
    # x feeds x * x (twice) and the final add; the add's share arrives first
    g_sq = g * 0.25
    return (g + g_sq * x) + g_sq * x


def _js_f_star_vjp(x, g):
    e = np.exp(x)
    return -(-g / (2.0 - e)) * e


FGAN_FAMILIES = {
    "kl": FGanFamily(
        "kl",
        f=lambda t: t * np.log(t),
        f_prime=lambda t: np.log(t) + 1.0,
        f_star=lambda x: exp(x - 1.0),
        output_map=lambda v: v,
        f_star_vjp=lambda x, g: g * np.exp(x - 1.0),
        output_map_vjp=lambda v, g: g,
    ),
    "reverse_kl": FGanFamily(
        "reverse_kl",
        f=lambda t: -np.log(t),
        f_prime=lambda t: -1.0 / t,
        f_star=lambda x: -1.0 - log(-x),
        output_map=lambda v: -exp(v),
        f_star_vjp=lambda x, g: -(-g / -x),
        output_map_vjp=lambda v, g: -g * np.exp(v),
    ),
    "pearson_chi2": FGanFamily(
        "pearson_chi2",
        f=lambda t: (t - 1.0) ** 2,
        f_prime=lambda t: 2.0 * (t - 1.0),
        f_star=lambda x: x * x * 0.25 + x,
        output_map=lambda v: v,
        f_star_vjp=_pearson_f_star_vjp,
        output_map_vjp=lambda v, g: g,
    ),
    "js_scaled": FGanFamily(
        "js_scaled",
        f=_js_f,
        f_prime=lambda t: np.log(2.0 * t / (t + 1.0)),
        f_star=lambda x: -log(2.0 - exp(x)),
        output_map=lambda v: np.log(2.0) - softplus(-v),
        f_star_vjp=_js_f_star_vjp,
        output_map_vjp=lambda v, g: -(-g * _sigmoid(-v)),
    ),
}


@dataclass(frozen=True)
class Classic:
    """log D(x) + log(1 - D(G(z))) with a probabilistic discriminator."""


@dataclass(frozen=True)
class WassersteinClip:
    """E D(x) - E D(G(z)) with the discriminator confined to a weight box."""

    clip: float = 0.01

    def __post_init__(self):
        if self.clip <= 0:
            raise ValueError("clip bound must be positive")


@dataclass(frozen=True)
class FGan:
    """E T(x) - E f*(T(G(z))) with T = output_map(raw discriminator output)."""

    family: FGanFamily


ObjectiveKind = Union[Classic, WassersteinClip, FGan]


class ClipBoxError(ValueError):
    """Discriminator parameters are outside the Wasserstein weight box."""


@dataclass(frozen=True)
class GanState:
    """One game configuration: both architectures, both parameter vectors, the objective."""

    d_spec: NetworkSpec
    g_spec: NetworkSpec
    theta_d: ParamVector
    theta_g: ParamVector
    objective: ObjectiveKind

    def __post_init__(self):
        if self.g_spec.output_dim != self.d_spec.input_dim:
            raise ValueError("generator output dimension must match data dimension")
        if self.d_spec.output_dim != 1:
            raise ValueError("discriminator must have a scalar output")
        want = "sigmoid" if isinstance(self.objective, Classic) else "linear"
        if self.d_spec.output_head != want:
            raise ValueError(f"{type(self.objective).__name__} requires a {want} head")
        if len(self.theta_d) != self.d_spec.param_count:
            raise ValueError("theta_d does not fit d_spec")
        if len(self.theta_g) != self.g_spec.param_count:
            raise ValueError("theta_g does not fit g_spec")

    @property
    def latent_dim(self) -> int:
        return self.g_spec.input_dim

    def with_params(self, theta_d=None, theta_g=None) -> "GanState":
        return GanState(self.d_spec, self.g_spec,
                        theta_d if theta_d is not None else self.theta_d,
                        theta_g if theta_g is not None else self.theta_g,
                        self.objective)


def check_clip_box(objective, theta_d):
    if not isinstance(objective, WassersteinClip):
        return
    vals = theta_d.data if isinstance(theta_d, Tensor) else np.asarray(
        getattr(theta_d, "values", theta_d))
    if np.abs(vals).max() > objective.clip + 1e-12:
        raise ClipBoxError("discriminator parameters outside the clip box")


def objective_from_outputs(objective: ObjectiveKind, d_real: Tensor, d_fake: Tensor) -> Tensor:
    """V as a scalar Tensor from the discriminator's outputs on real and generated
    points: leaf Tensors over kernel outputs, or the oracle's ``forward_graph`` nodes.

    The one formula of each objective; ``_outputs_value_and_grads`` is its
    value and backward pass on plain arrays."""
    if isinstance(objective, Classic):
        pr = d_real.clamp(EPS_LOG, 1.0 - EPS_LOG)
        pf = d_fake.clamp(EPS_LOG, 1.0 - EPS_LOG)
        return pr.log().mean() + (1.0 - pf).log().mean()
    if isinstance(objective, WassersteinClip):
        return d_real.mean() - d_fake.mean()
    fam = objective.family
    t_real = fam.output_map(d_real)
    t_fake = fam.output_map(d_fake)
    return t_real.mean() - fam.f_star(t_fake).mean()


def _outputs_value_and_grads(objective: ObjectiveKind, d_real, d_fake):
    """(V, dV/d_real, dV/d_fake) on plain n x 1 arrays: ``objective_from_outputs``
    and the engine's backward pass over it, op for op, so all three carry the
    graph's bits.  A gradient block may be a scalar that broadcasts over its rows.

    Each mean's backward hands its rows 1/n (-1/n on the subtracted side);
    each op then maps its upstream g as the engine does: a clamp by its
    in-range mask, a log as g / x, a subtraction from a constant as -g.
    """
    n, m = d_real.size, d_fake.size
    if isinstance(objective, Classic):
        hi = 1.0 - EPS_LOG
        pr = d_real.clip(EPS_LOG, hi)
        qf = 1.0 - d_fake.clip(EPS_LOG, hi)
        value = _mean(np.log(pr)) + _mean(np.log(qf))
        return (value, ((1.0 / n) / pr) * ((d_real >= EPS_LOG) & (d_real <= hi)),
                (-((1.0 / m) / qf)) * ((d_fake >= EPS_LOG) & (d_fake <= hi)))
    if isinstance(objective, WassersteinClip):
        return _mean(d_real) - _mean(d_fake), 1.0 / n, -1.0 / m
    fam = objective.family
    t_fake = fam.output_map(d_fake)
    value = _mean(fam.output_map(d_real)) - _mean(fam.f_star(t_fake))
    return (value, fam.output_map_vjp(d_real, 1.0 / n),
            fam.output_map_vjp(d_fake, fam.f_star_vjp(t_fake, -1.0 / m)))


def _mean(x):
    # the value ``x.mean()`` returns, without its Python-level wrapper
    return np.add.reduce(x, axis=None) / x.size


def value_graph(state: GanState, theta_d, theta_g, real_batch, latent_batch):
    """Monte-Carlo V as a graph node; either parameter argument may be a Tensor.

    The reference oracle for ``eval_objective`` and ``value_and_grad_d/g``.
    """
    real_batch, latent_batch = _batches(real_batch, latent_batch)
    check_clip_box(state.objective, theta_d)
    fake = forward_graph(state.g_spec, theta_g, latent_batch)
    d_real = forward_graph(state.d_spec, theta_d, real_batch)
    d_fake = forward_graph(state.d_spec, theta_d, fake)
    return objective_from_outputs(state.objective, d_real, d_fake)


def _sobolev_graph(d_spec, theta: Tensor, anchor_grads: np.ndarray, x_batch, h: float):
    """Graph version of the Sobolev distance with the anchor side precomputed."""
    return _sobolev_sum(input_grad_columns(d_spec, theta, x_batch, h), anchor_grads)


def _batches(real_batch, latent_batch):
    real_batch = np.asarray(real_batch, dtype=np.float64)
    latent_batch = np.asarray(latent_batch, dtype=np.float64)
    if real_batch.shape[0] == 0 or latent_batch.shape[0] == 0:
        raise ValueError("batches must be non-empty")
    return real_batch, latent_batch


def eval_objective(state: GanState, real_batch, latent_batch) -> float:
    """Monte-Carlo estimate of V at the state's current parameters."""
    real, latent = _batches(real_batch, latent_batch)
    check_clip_box(state.objective, state.theta_d)
    fake = forward(state.g_spec, state.theta_g, latent)
    out = forward(state.d_spec, state.theta_d, np.vstack([real, fake]))
    return output_grads(state.objective, out, real.shape[0])[0]


def output_grads(objective: ObjectiveKind, outputs: np.ndarray, n_real: int):
    """(V, dV/doutputs) for discriminator outputs stacked as [real rows; fake rows].

    Closed form on plain arrays (``_outputs_value_and_grads``).  Only when the
    value or a gradient entry is non-finite does ``objective_from_outputs``
    run on two leaf Tensors: it raises NonFiniteError naming the objective's
    failed op, or hands on its own non-finite gradient for the caller's
    ``finite_value_and_grad`` to name 'backward'.
    """
    d_real, d_fake = outputs[:n_real], outputs[n_real:]
    with np.errstate(all="ignore"):
        value, g_real, g_fake = _outputs_value_and_grads(objective, d_real, d_fake)
    grad = np.empty_like(outputs)
    grad[:n_real], grad[n_real:] = g_real, g_fake
    if math.isfinite(value) and np.isfinite(grad).all():
        return float(value), grad
    d_real, d_fake = Tensor(d_real), Tensor(d_fake)
    v = objective_from_outputs(objective, d_real, d_fake)
    v.backward()
    return v.item(), np.vstack([d_real.grad, d_fake.grad])


def penalized_step_fn(state, anchor, theta_g, real, latent, lam, h):
    """(value, gradient) of V(theta, theta_g) - lam * dist^2(theta, anchor) on one
    batch as a function of the discriminator copy theta, dist^2 being the mean
    squared input-gradient difference over the real rows (Sobolev distance).

    The generator runs once, here; each call runs one fused forward and one
    backward over the real, the generated and, when lam > 0, the 2 * dim
    stencil rows stacked.  ``objective_from_outputs`` minus ``_sobolev_graph``
    is its graph oracle, whose op names its failures carry.  At lam = 0 it is
    V, and ``anchor`` and ``h`` are unused.  Callers check the clip box.
    """
    real, latent = _batches(real, latent)
    spec = state.d_spec
    fake = forward(state.g_spec, theta_g, latent)
    n, n_obj = real.shape[0], real.shape[0] + fake.shape[0]
    rows = [real, fake]
    if lam > 0:
        anchor_grads = input_grad_batch(spec, anchor, real, h)
        rows.append(stencil_rows(spec, real, h))
    rows = np.vstack(rows)
    # the stacked row count is fixed, so every call reuses one workspace
    work = MlpWorkspace(spec, rows.shape[0])

    def value_and_grad(theta):
        out, cache = mlp_forward(spec, theta, rows, work)
        value, grad_out = output_grads(state.objective, out[:n_obj], n)
        if lam > 0:
            # the stencil outputs as (coordinate, +/- shift, row)
            stencil = out[n_obj:, 0].reshape(spec.input_dim, 2, n)
            columns = central_difference(stencil[:, 0], stencil[:, 1], h)[:, :, None]
            penalized = value - lam * _sobolev_sum(columns, anchor_grads)
            if not np.isfinite(penalized):  # a leaf-Tensor replay raises the oracle's op
                value - lam * _sobolev_sum([central_difference(Tensor(up[:, None]),
                                                               Tensor(down[:, None]), h)
                                            for up, down in stencil], anchor_grads)
            value = penalized
            # d/dcolumn_j of -lam * mean_i (column_j - anchor_j)^2, through the
            # stencil scaling to the + and - outputs
            diff = columns[:, :, 0] - anchor_grads.T
            d_col = 2.0 * ((-lam / n) * diff) * (1.0 / (2.0 * h))
            grad_out = np.vstack([grad_out, np.stack([d_col, -d_col], axis=1).reshape(-1, 1)])
        return finite_value_and_grad(
            float(value), mlp_backward(spec, theta, cache, grad_out, input_grad=False)[0])

    return value_and_grad


def _sobolev_sum(columns, anchor_grads):
    """sum_j mean_i (column_j - anchor_grads[:, j])^2 over n x 1 input-gradient
    columns; the one formula of the Sobolev distance, on arrays or Tensors."""
    total = None
    for j, col in enumerate(columns):
        diff = col - anchor_grads[:, j:j + 1]
        term = (diff * diff).mean()
        total = term if total is None else total + term
    return total


def value_and_grad_d(state, theta_d: ParamVector, theta_g: ParamVector,
                     real_batch, latent_batch):
    """(V, dV/dtheta_d); the generator side is treated as a constant.

    The penalized step at lam = 0; the clip box is checked after the generator runs."""
    step = penalized_step_fn(state, theta_d, theta_g, real_batch, latent_batch, 0.0, None)
    check_clip_box(state.objective, theta_d)
    return step(theta_d)


def value_and_grad_g(state, theta_d: ParamVector, theta_g: ParamVector,
                     real_batch, latent_batch):
    """(V, dV/dtheta_g); the discriminator side is treated as a constant.

    The gradient reaches the generator through the discriminator's input
    gradient on the generated rows.
    """
    real, latent = _batches(real_batch, latent_batch)
    check_clip_box(state.objective, theta_d)
    fake, g_cache = mlp_forward(state.g_spec, theta_g, latent)
    out, d_cache = mlp_forward(state.d_spec, theta_d, np.vstack([real, fake]))
    v, grad_out = output_grads(state.objective, out, real.shape[0])
    grad_rows = mlp_backward(state.d_spec, theta_d, d_cache, grad_out)[1]
    return finite_value_and_grad(
        v, mlp_backward(state.g_spec, theta_g, g_cache, grad_rows[real.shape[0]:],
                        input_grad=False)[0])


def fenchel_identity_residual(family: FGanFamily, t: float) -> float:
    """|f*(f'(t)) - (t f'(t) - f(t))|; zero for an exact conjugate pair."""
    t = float(t)
    if t <= 0:
        raise ValueError("t must be inside the positive domain of f")
    slope = family.f_prime(t)
    return abs(float(family.f_star(slope)) - (t * slope - family.f(t)))


def enforce_constraint(objective, theta_d: ParamVector) -> ParamVector:
    """Project the discriminator into the weight box when the objective demands one."""
    if not isinstance(objective, WassersteinClip):
        return theta_d
    c = objective.clip
    return theta_d.with_values(np.minimum(np.maximum(theta_d.values, -c), c))

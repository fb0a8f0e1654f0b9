"""Game objectives with a single sign convention (D maximizes V, G minimizes V),
the f-divergence conjugate machinery, and closed-form optimal-discriminator helpers."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Union

import numpy as np

from .diffcore import (
    NetworkSpec,
    ParamVector,
    Tensor,
    exp,
    forward,
    forward_graph,
    log,
    softplus,
)

# D outputs are clamped into [EPS_LOG, 1 - EPS_LOG] before logs so a saturated
# discriminator yields a large-but-finite value instead of -inf.
EPS_LOG = 1e-7


@dataclass(frozen=True)
class FGanFamily:
    """A convex f with f(1)=0, its Fenchel conjugate, and the map taking raw
    discriminator outputs into Dom(f*).

    ``f`` and ``f_prime`` operate on plain arrays; ``f_star`` and
    ``output_map`` are written against the dispatching math helpers so they
    build graphs when handed Tensors.
    """

    name: str
    f: Callable
    f_prime: Callable
    f_star: Callable
    output_map: Callable


def _js_f(t):
    return t * np.log(t) - (t + 1.0) * np.log(0.5 * (t + 1.0))


FGAN_FAMILIES = {
    "kl": FGanFamily(
        "kl",
        f=lambda t: t * np.log(t),
        f_prime=lambda t: np.log(t) + 1.0,
        f_star=lambda x: exp(x - 1.0),
        output_map=lambda v: v,
    ),
    "reverse_kl": FGanFamily(
        "reverse_kl",
        f=lambda t: -np.log(t),
        f_prime=lambda t: -1.0 / t,
        f_star=lambda x: -1.0 - log(-x),
        output_map=lambda v: -exp(v),
    ),
    "pearson_chi2": FGanFamily(
        "pearson_chi2",
        f=lambda t: (t - 1.0) ** 2,
        f_prime=lambda t: 2.0 * (t - 1.0),
        f_star=lambda x: x * x * 0.25 + x,
        output_map=lambda v: v,
    ),
    "js_scaled": FGanFamily(
        "js_scaled",
        f=_js_f,
        f_prime=lambda t: np.log(2.0 * t / (t + 1.0)),
        f_star=lambda x: -log(2.0 - exp(x)),
        output_map=lambda v: np.log(2.0) - softplus(-v),
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
    if np.max(np.abs(vals)) > objective.clip + 1e-12:
        raise ClipBoxError("discriminator parameters outside the clip box")


def objective_from_outputs(objective: ObjectiveKind, d_real, d_fake):
    """V from the discriminator's outputs on real and generated points.

    Works on Tensors (differentiable) and plain arrays alike; callers decide
    which side of the game carries gradients by what they pass in.
    """
    if isinstance(objective, Classic):
        pr = d_real.clamp(EPS_LOG, 1.0 - EPS_LOG) if isinstance(d_real, Tensor) \
            else np.clip(d_real, EPS_LOG, 1.0 - EPS_LOG)
        pf = d_fake.clamp(EPS_LOG, 1.0 - EPS_LOG) if isinstance(d_fake, Tensor) \
            else np.clip(d_fake, EPS_LOG, 1.0 - EPS_LOG)
        return _mean(log(pr)) + _mean(log(1.0 - pf))
    if isinstance(objective, WassersteinClip):
        return _mean(d_real) - _mean(d_fake)
    fam = objective.family
    t_real = fam.output_map(d_real)
    t_fake = fam.output_map(d_fake)
    return _mean(t_real) - _mean(fam.f_star(t_fake))


def _mean(x):
    return x.mean() if isinstance(x, Tensor) else float(np.mean(x))


def value_graph(state: GanState, theta_d, theta_g, real_batch, latent_batch):
    """Monte-Carlo V as a graph node; either parameter argument may be a Tensor."""
    real_batch = np.asarray(real_batch, dtype=np.float64)
    latent_batch = np.asarray(latent_batch, dtype=np.float64)
    if real_batch.shape[0] == 0 or latent_batch.shape[0] == 0:
        raise ValueError("batches must be non-empty")
    check_clip_box(state.objective, theta_d)
    fake = forward_graph(state.g_spec, theta_g, latent_batch)
    d_real = forward_graph(state.d_spec, theta_d, real_batch)
    d_fake = forward_graph(state.d_spec, theta_d, fake)
    return objective_from_outputs(state.objective, d_real, d_fake)


def eval_objective(state: GanState, real_batch, latent_batch) -> float:
    """Monte-Carlo estimate of V at the state's current parameters."""
    return value_graph(state, state.theta_d, state.theta_g,
                       real_batch, latent_batch).item()


def value_and_grad_d(state, theta_d: ParamVector, theta_g: ParamVector,
                     real_batch, latent_batch):
    """(V, dV/dtheta_d); the generator side is treated as a constant."""
    fake = forward(state.g_spec, theta_g, np.asarray(latent_batch, dtype=np.float64))
    check_clip_box(state.objective, theta_d)
    t = Tensor(theta_d.values, op="theta_d")
    d_real = forward_graph(state.d_spec, t, np.asarray(real_batch, dtype=np.float64))
    d_fake = forward_graph(state.d_spec, t, fake)
    v = objective_from_outputs(state.objective, d_real, d_fake)
    v.backward()
    grad = t.grad if t.grad is not None else np.zeros_like(t.data)
    return v.item(), grad.copy()


def value_and_grad_g(state, theta_d: ParamVector, theta_g: ParamVector,
                     real_batch, latent_batch):
    """(V, dV/dtheta_g); the discriminator side is treated as a constant."""
    t = Tensor(theta_g.values, op="theta_g")
    v = value_graph(state, theta_d, t, real_batch, latent_batch)
    v.backward()
    grad = t.grad if t.grad is not None else np.zeros_like(t.data)
    return v.item(), grad.copy()


def optimal_classic_discriminator(p_r: float, p_g: float) -> float:
    """Pointwise maximizer of the probabilistic objective given both densities."""
    if p_r + p_g <= 0:
        raise ValueError("at least one density must be positive")
    return p_r / (p_r + p_g)


def fenchel_identity_residual(family: FGanFamily, t: float) -> float:
    """|f*(f'(t)) - (t f'(t) - f(t))|; zero for an exact conjugate pair."""
    t = float(t)
    if t <= 0:
        raise ValueError("t must be inside the positive domain of f")
    slope = family.f_prime(t)
    return abs(float(family.f_star(slope)) - (t * slope - family.f(t)))


def conjugate_from_grid(family: FGanFamily, x: float, t_grid) -> float:
    """Brute-force sup_t {x t - f(t)} on a grid; the oracle for f_star."""
    t_grid = np.asarray(t_grid, dtype=np.float64)
    return float(np.max(x * t_grid - family.f(t_grid)))


def enforce_constraint(objective, theta_d: ParamVector) -> ParamVector:
    """Project the discriminator into the weight box when the objective demands one."""
    if not isinstance(objective, WassersteinClip):
        return theta_d
    c = objective.clip
    return theta_d.with_values(np.clip(theta_d.values, -c, c))

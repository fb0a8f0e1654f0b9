"""Evidence probes for non-Nash convergence: unilateral generator deviation
and Hessian-spectrum indefiniteness checks.

Probes are pure observers; they clone whatever they perturb and never touch
the configuration they are given.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .diffcore import (
    MlpWorkspace,
    Rng,
    adam_init,
    adam_step,
    finite_value_and_grad,
    forward,
    hvp,
    mlp_backward,
    mlp_forward,
    top_k_eigenvalues,
)
from .distributions import DataSplits
from .gapmetrics import ToyGameState
from .objectives import (
    GanState,
    check_clip_box,
    eval_objective,
    output_grads,
    value_and_grad_g,
)
from .oracles import jsd_from_samples, toy_value, toy_value_and_grad

GENERATOR = "generator"
DISCRIMINATOR = "discriminator"

# Fixed probe batch size drawn from the head of the evaluation split.
PROBE_BATCH = 2048


class TracePoint(NamedTuple):
    step: int
    value: float
    divergence: float | None


@dataclass(frozen=True)
class DeviationTrace:
    """Objective value (and sample divergence, when data exists) along a
    unilateral generator descent."""

    points: tuple

    def __post_init__(self):
        steps = [p.step for p in self.points]
        if steps != sorted(set(steps)):
            raise ValueError("step indices must be strictly increasing")
        for p in self.points:
            if not np.isfinite(p.value):
                raise ValueError("trace values must be finite")
            if p.divergence is not None and not np.isfinite(p.divergence):
                raise ValueError("trace divergences must be finite")

    @property
    def values(self):
        return np.array([p.value for p in self.points])


@dataclass(frozen=True)
class SpectrumReport:
    """Leading Hessian eigenvalues of the objective w.r.t. one agent's parameters."""

    eigenvalues: tuple
    agent: str
    nash_consistent: bool
    tolerance: float
    converged: tuple

    def __post_init__(self):
        if _nash_consistent(self.agent, self.eigenvalues, self.tolerance) != self.nash_consistent:
            raise ValueError("nash_consistent flag contradicts the eigenvalues")


def _nash_consistent(agent: str, eigenvalues, tol: float) -> bool:
    """The local Nash sign pattern at tolerance tol: V convex in G, concave in D."""
    lams = np.array(eigenvalues)
    return bool(np.all(lams >= -tol) if agent == GENERATOR else np.all(lams <= tol))


def unilateral_deviation(state, splits: DataSplits | None, steps: int, lr: float,
                         eval_every: int, rng: Rng, bins: int = 16) -> DeviationTrace:
    """Descend the generator with the discriminator frozen, tracing V.

    For GAN states the trace also records the histogram divergence between
    held-out real samples and fresh generator output; the binning box is the
    real-data extent widened by 1 and stays fixed along the trace.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if not (np.isfinite(lr) and lr > 0):  # a negative rate would ascend
        raise ValueError(f"lr must be positive and finite, got {lr}")
    is_gan = isinstance(state, GanState)
    if is_gan:
        if splits is None:
            raise ValueError("GAN deviation requires data splits")
        eval_real = splits.s_c
        eval_latent = rng.child(0).normal((eval_real.shape[0], state.latent_dim))
        box = [(eval_real[:, j].min() - 1.0, eval_real[:, j].max() + 1.0)
               for j in range(eval_real.shape[1])]

        def eval_point(theta_g):
            v = eval_objective(state.with_params(theta_g=theta_g), eval_real, eval_latent)
            fake = forward(state.g_spec, theta_g, eval_latent)
            return v, jsd_from_samples(eval_real, fake, bins=bins, box=box)

        g = state.theta_g
    elif isinstance(state, ToyGameState):
        def eval_point(g_vec):
            return toy_value(state.game, state.d, g_vec), None

        g = state.g.copy()
    else:
        raise TypeError(f"cannot probe {type(state).__name__}")

    points = []
    v0, div0 = eval_point(g)
    points.append(TracePoint(0, v0, div0))
    adam = adam_init(len(g), lr)
    for step in range(1, steps + 1):
        if is_gan:
            idx = rng.integers(0, splits.s_a.shape[0], min(128, splits.s_a.shape[0]))
            latent = rng.normal((len(idx), state.latent_dim))
            _, grad = value_and_grad_g(state, state.theta_d, g, splits.s_a[idx], latent)
        else:
            grad = toy_value_and_grad(state.game, state.d, g, "g")[1]
        g, adam = adam_step(g, grad, adam)
        if not is_gan:
            g = state.game.clip_g(g)
        if eval_every > 0 and (step % eval_every == 0 or step == steps):
            v, div = eval_point(g)
            points.append(TracePoint(step, v, div))
    return DeviationTrace(tuple(points))


def hessian_spectrum_probe(state, splits: DataSplits | None, agent: str, k: int,
                           rng: Rng, tol: float = 1e-3) -> SpectrumReport:
    """Top-k eigenvalues (by magnitude) of the objective's Hessian w.r.t. one agent.

    At a pure Nash point the objective is locally concave in the
    discriminator and convex in the generator, so ``nash_consistent`` checks
    the corresponding sign pattern at tolerance ``tol``.  The Hessian-vector
    product is a central difference of the agent's exact gradient with step h,
    so a Ritz pair's relative residual cannot fall much below h^2; block
    Lanczos stops at a residual of 100 h^2, or after 2000 products.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if agent not in (GENERATOR, DISCRIMINATOR):
        raise ValueError(f"unknown agent {agent!r}")
    if isinstance(state, GanState):
        grad_fn, theta = _gan_agent_grad(state, splits, agent, rng)
    elif isinstance(state, ToyGameState):
        grad_fn, theta = _toy_agent_grad(state, agent)
    else:
        raise TypeError(f"cannot probe {type(state).__name__}")
    h = 1e-4 * (1.0 + np.linalg.norm(theta))
    result = top_k_eigenvalues(lambda v: hvp(grad_fn, theta, v, h),
                               dim=theta.size, k=k, max_iters=2000,
                               tol=100.0 * h * h, rng=rng.child(1))
    return SpectrumReport(result.values, agent, _nash_consistent(agent, result.values, tol),
                          tol, result.converged)


def _gan_agent_grad(state: GanState, splits, agent, rng: Rng):
    """(theta -> the agent's kernel gradient of V on the probe batch, the agent's
    parameter array); the other agent stays frozen, so the discriminator's
    generated rows are computed once."""
    if splits is None:
        raise ValueError("GAN probes require data splits")
    if state.d_spec.activation != "tanh" or state.g_spec.activation != "tanh":
        raise ValueError("spectrum probes need twice-differentiable (tanh) activations")
    n = min(PROBE_BATCH, splits.s_c.shape[0])
    real = splits.s_c[:n]
    latent = rng.child(0).normal((n, state.latent_dim))
    # the box is checked once, at the state, never at theta_d +/- h v: a
    # clipped critic sits on the box edge, which those perturbations cross
    check_clip_box(state.objective, state.theta_d)
    if agent == GENERATOR:
        return (lambda theta_g: value_and_grad_g(state, state.theta_d, theta_g,
                                                 real, latent)[1]), state.theta_g.values

    rows = np.vstack([real, forward(state.g_spec, state.theta_g, latent)])
    work = MlpWorkspace(state.d_spec, rows.shape[0])

    def grad_d(theta_d):
        out, cache = mlp_forward(state.d_spec, theta_d, rows, work)
        value, grad_out = output_grads(state.objective, out, n)
        return finite_value_and_grad(
            value, mlp_backward(state.d_spec, theta_d, cache, grad_out)[0])[1]

    return grad_d, state.theta_d.values


def _toy_agent_grad(state: ToyGameState, agent):
    # the stacked central-difference toy gradient, exact for the shipped polynomial games
    if agent == GENERATOR:
        return (lambda g: toy_value_and_grad(state.game, state.d, g, "g")[1]), state.g
    return (lambda d: toy_value_and_grad(state.game, d, state.g, "d")[1]), state.d

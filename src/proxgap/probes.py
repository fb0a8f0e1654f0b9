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
    Rng,
    Tensor,
    adam_init,
    adam_step,
    forward,
    forward_graph,
    hvp,
    top_k_eigenvalues,
)
from .distributions import DataSplits
from .gapmetrics import ToyGameState
from .objectives import (
    GanState,
    check_clip_box,
    eval_objective,
    objective_from_outputs,
    value_and_grad_g,
    value_graph,
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
        lams = np.array(self.eigenvalues)
        if self.agent == GENERATOR:
            expect = bool(np.all(lams >= -self.tolerance))
        else:
            expect = bool(np.all(lams <= self.tolerance))
        if expect != self.nash_consistent:
            raise ValueError("nash_consistent flag contradicts the eigenvalues")


def unilateral_deviation(state, splits: DataSplits | None, steps: int, lr: float,
                         eval_every: int, rng: Rng, bins: int = 16) -> DeviationTrace:
    """Descend the generator with the discriminator frozen, tracing V.

    For GAN states the trace also records the histogram divergence between
    held-out real samples and fresh generator output; the binning box is the
    real-data extent widened by 1 and stays fixed along the trace.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
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
        n_params = len(g)
    elif isinstance(state, ToyGameState):
        def eval_point(g_vec):
            return toy_value(state.game, state.d, g_vec), None

        g = state.g.copy()
        n_params = g.size
    else:
        raise TypeError(f"cannot probe {type(state).__name__}")

    points = []
    v0, div0 = eval_point(g)
    points.append(TracePoint(0, v0, div0))
    adam = adam_init(n_params, lr)
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
                           rng: Rng, tol: float = 1e-3, max_iters: int = 2000,
                           eig_tol: float = 1e-8) -> SpectrumReport:
    """Top-k eigenvalues (by magnitude) of the objective's Hessian w.r.t. one agent.

    At a pure Nash point the objective is locally concave in the
    discriminator and convex in the generator, so ``nash_consistent`` checks
    the corresponding sign pattern at tolerance ``tol``.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if agent not in (GENERATOR, DISCRIMINATOR):
        raise ValueError(f"unknown agent {agent!r}")
    if isinstance(state, GanState):
        loss, params = _gan_agent_loss(state, splits, agent, rng)
    elif isinstance(state, ToyGameState):
        loss, params = _toy_agent_loss(state, agent)
    else:
        raise TypeError(f"cannot probe {type(state).__name__}")
    theta = np.asarray(getattr(params, "values", params), dtype=np.float64)
    h = 1e-4 * (1.0 + np.linalg.norm(theta))
    result = top_k_eigenvalues(lambda v: hvp(loss, params, v, h),
                               dim=theta.size, k=k, max_iters=max_iters,
                               tol=eig_tol, rng=rng.child(1))
    lams = np.array(result.values)
    if agent == GENERATOR:
        consistent = bool(np.all(lams >= -tol))
    else:
        consistent = bool(np.all(lams <= tol))
    return SpectrumReport(tuple(result.values), agent, consistent, tol,
                          tuple(result.converged))


def _gan_agent_loss(state: GanState, splits, agent, rng: Rng):
    if splits is None:
        raise ValueError("GAN probes require data splits")
    if state.d_spec.activation != "tanh" or state.g_spec.activation != "tanh":
        raise ValueError("spectrum probes need twice-differentiable (tanh) activations")
    n = min(PROBE_BATCH, splits.s_c.shape[0])
    real = splits.s_c[:n]
    latent = rng.child(0).normal((n, state.latent_dim))
    check_clip_box(state.objective, state.theta_d)
    if agent == GENERATOR:
        def loss(theta_g):
            return value_graph(state, state.theta_d, theta_g, real, latent)

        return loss, state.theta_g

    fake = forward(state.g_spec, state.theta_g, latent)

    def loss(theta_d):
        d_real = forward_graph(state.d_spec, theta_d, real)
        d_fake = forward_graph(state.d_spec, theta_d, fake)
        return objective_from_outputs(state.objective, d_real, d_fake)

    return loss, state.theta_d


def _toy_agent_loss(state: ToyGameState, agent):
    # the game value as a custom-gradient node backed by the central-difference
    # oracle; exact for the shipped polynomial games
    if agent == GENERATOR:
        value_and_grad = lambda vec: toy_value_and_grad(state.game, state.d, vec, "g")
        params = state.g.copy()
    else:
        value_and_grad = lambda vec: toy_value_and_grad(state.game, vec, state.g, "d")
        params = state.d.copy()

    def loss(theta: Tensor):
        value, grad = value_and_grad(theta.data)
        return Tensor(value, (theta,), lambda g: (float(g) * grad,), "toy_value")

    return loss, params

"""Evidence probes for non-Nash convergence: unilateral generator deviation
and Hessian-spectrum indefiniteness checks.

Probes are pure observers; they clone whatever they perturb and never touch
the configuration they are given.  They are built from the gap estimators'
parts in :mod:`proxgap.gapmetrics`, for toy games and GANs alike: the game
operations of ``_ops_for`` give both players' gradients, and the deviation
trace walks the iterates of the estimators' one Adam search, ``_adam_search``.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .diffcore import Rng, forward, hvp, top_k_eigenvalues
from .distributions import DataSplits, draw_minibatch
from .gapmetrics import _adam_search, _ops_for
from .objectives import GanState, check_clip_box
from .oracles import hist_jsd

GENERATOR = "generator"
DISCRIMINATOR = "discriminator"

# Fixed probe batch size drawn from the head of the evaluation split.
PROBE_BATCH = 2048
# Rows per deviation step, drawn with replacement from the training split.
DEVIATION_BATCH = 128
# Eigenvalue tolerance of the local Nash sign pattern.
NASH_TOL = 1e-3


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
    converged: tuple

    tolerance = NASH_TOL

    @property
    def nash_consistent(self) -> bool:
        """The local Nash sign pattern at ``tolerance``: V convex in G, concave in D."""
        lams = np.array(self.eigenvalues)
        tol = self.tolerance
        return bool(np.all(lams >= -tol) if self.agent == GENERATOR else np.all(lams <= tol))


def unilateral_deviation(state, splits: DataSplits | None, steps: int, lr: float,
                         eval_every: int, rng: Rng, bins: int = 16) -> DeviationTrace:
    """Descend the generator with the discriminator frozen, tracing V.

    The descent is the estimators' Adam search on the generator's gradient;
    a GAN step draws its minibatch from the training split.  V is recorded at
    the start, every `eval_every` steps and at the last step, or at the start
    only, with no step taken, when `eval_every` is 0.  For GAN states the
    trace also records ``oracles.hist_jsd`` between held-out real samples and
    fresh generator output, the histogram divergence ``metrics.csv`` logs.
    """
    if steps < 0:
        raise ValueError("steps must be nonnegative")
    if eval_every < 0:
        raise ValueError(f"eval_every must be nonnegative, got {eval_every}")
    if not (np.isfinite(lr) and lr > 0):  # a negative rate would ascend
        raise ValueError(f"lr must be positive and finite, got {lr}")
    ops = _ops_for(state, splits, rng)
    if isinstance(state, GanState):
        n = min(DEVIATION_BATCH, splits.s_a.shape[0])
        draw_batch = functools.partial(draw_minibatch, splits.s_a, n, state.latent_dim, rng)

        def divergence(theta_g):
            return hist_jsd(splits.s_c, forward(state.g_spec, theta_g, ops.eval_latent), bins)
    else:
        draw_batch, divergence = (lambda: None), (lambda g: None)

    iterates = _adam_search(ops.g0, ops.grad_g_fn(ops.d0), ops.project_g, draw_batch, lr,
                            steps if eval_every else 0)
    return DeviationTrace(tuple(
        TracePoint(step, ops.eval_value(ops.d0, g), divergence(g))
        for step, g in enumerate(iterates)
        if step == 0 or step == steps or step % eval_every == 0))


def hessian_spectrum_probe(state, splits: DataSplits | None, agent: str, k: int,
                           rng: Rng) -> SpectrumReport:
    """Top-k eigenvalues (by magnitude) of the objective's Hessian w.r.t. one agent.

    At a pure Nash point the objective is locally concave in the
    discriminator and convex in the generator, so ``nash_consistent`` checks
    the corresponding sign pattern at tolerance ``NASH_TOL``.  The Hessian-vector
    product is a central difference of the agent's exact gradient with step h,
    so a Ritz pair's relative residual cannot fall much below h^2; block
    Lanczos stops at a residual of 100 h^2, or after 2000 products.
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if agent not in (GENERATOR, DISCRIMINATOR):
        raise ValueError(f"unknown agent {agent!r}")
    grad_fn, theta = _agent_grad(state, splits, agent, rng)
    h = 1e-4 * (1.0 + np.linalg.norm(theta))
    result = top_k_eigenvalues(lambda v: hvp(grad_fn, theta, v, h),
                               dim=theta.size, k=k, max_iters=2000,
                               tol=100.0 * h * h, rng=rng.child(1))
    return SpectrumReport(result.values, agent, result.converged)


def _agent_grad(state, splits, agent, rng: Rng):
    """(theta -> the agent's gradient of V with the other agent frozen, the
    agent's parameter array), from the estimators' game operations on the
    probe batch (the head of the evaluation split; none for toy games).

    The generator's gradient is ``ops.grad_g_fn``.  The discriminator's is
    the gradient of ``ops.make_prox`` at lam = 0 (``objectives.penalized_step_fn``
    for GANs), built once on the fixed [real; generated] rows.  Both are
    handed on as arrays (a toy's are lists of floats).  The discriminator's
    checks no clip box: theta_d +/- h v crosses the box edge a clipped
    critic sits on, so the box is checked once, at the state.
    """
    ops = _ops_for(state, splits, rng)
    batch = None
    if isinstance(state, GanState):
        if state.d_spec.activation != "tanh" or state.g_spec.activation != "tanh":
            raise ValueError("spectrum probes need twice-differentiable (tanh) activations")
        check_clip_box(state.objective, state.theta_d)
        real, latent = ops.eval_batch
        batch = real[:PROBE_BATCH], latent[:PROBE_BATCH]
    if agent == GENERATOR:
        grad_g = ops.grad_g_fn(ops.d0)
        return (lambda g: np.asarray(grad_g(g, batch))), ops.g0
    grad_d = ops.make_prox(ops.d0, ops.g0, batch, 0.0)[0]
    return (lambda d: np.asarray(grad_d(d))), ops.d0

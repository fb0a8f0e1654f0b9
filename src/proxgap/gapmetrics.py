"""Gradient-based estimators for the worst-case discriminator value, the
penalized worst-case generator value, and the plain and proximal duality gaps.

The estimators run on full GAN states and on toy-game configurations through
one code path: toy games stand in wherever exhaustive grid search is feasible,
so every estimator can be checked against :mod:`proxgap.oracles`.

It holds the searches and the estimators only: values and gradients come
from :mod:`proxgap.objectives` (the discriminator's from ``penalized_step_fn``)
or, for toy games, from :mod:`proxgap.oracles`.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, replace

import numpy as np

from .diffcore import NonFiniteError, ParamVector, Rng, adam_init, adam_step
from .distributions import DataSplits, draw_minibatch
from .objectives import (
    GanBuffers,
    GanState,
    enforce_constraint,
    eval_objective,
    penalized_step_fn,
    value_and_grad_g,
)
from .oracles import ToyGame, clip_coord, toy_coords, toy_point, toy_stencil, toy_value

# Step-size guard for the penalized inner ascent: plain gradient ascent on
# V - lam * dist^2 is unstable once the step exceeds ~1/(curvature) ~ 1/(2*lam*S),
# so the step is capped at 1/(GUARD * lam).  Below the crossover the configured
# rate is used unchanged, which keeps the small-lam protocol intact.
STEP_GUARD = 25.0

# Revision of the estimates: bumped by any change that moves an estimate for the
# same state, splits, stream and config, so estimates stored under an older
# revision are recomputed instead of reused.
ESTIMATE_REVISION = 1

_EVAL_TAG = 0
_DW_TAG = 1
_GW_LAMBDA_TAG = 2
_GW_PLAIN_TAG = 3


class ProxDivergenceError(NonFiniteError):
    """The penalized inner ascent produced a non-finite objective: ``op`` names
    the op that failed and ``step`` the inner step it failed at."""

    def __init__(self, op: str, step: int):
        super().__init__(op)
        self.step = step

    def __str__(self):
        return f"penalized ascent diverged at inner step {self.step}: {super().__str__()}"

    def __reduce__(self):  # pickles as it was raised, so a worker process can send it
        return type(self), (self.op, self.step)


@dataclass(frozen=True)
class ProximalConfig:
    """The penalty weight, the budgets and the rates of gap estimation (lam=0.1,
    20 inner steps by default).  The Sobolev distance's stencil step is the
    constant ``objectives.SOBOLEV_H``.  A refused value raises ``ValueError``
    naming its field and the value."""

    lam: float = 0.1
    prox_steps: int = 20
    prox_lr: float = 0.05
    worst_iters: int = 40
    worst_lr: float = 5e-3
    batch_size: int = 128

    def __post_init__(self):
        for name, sign in (("lam", "nonnegative"), ("prox_lr", "positive"),
                           ("worst_lr", "positive")):
            value = getattr(self, name)
            if not np.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value}")
            if value < 0 or (value == 0 and sign == "positive"):
                raise ValueError(f"{name} must be {sign}, got {value}")
        for name, least in (("prox_steps", 1), ("worst_iters", 0), ("batch_size", 1)):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
                raise ValueError(f"{name} must be an integer, got {value!r}")
            if value < least:
                raise ValueError(f"{name} must be at least {least}, got {value}")


@dataclass(frozen=True)
class GapReport:
    """Both gap estimates for one checkpoint, with the config and the stream
    seed that produced them: the two are the estimates' whole identity."""

    v_dw: float
    v_gw_lambda: float
    v_gw_plain: float
    cfg: ProximalConfig
    seed: int

    @property
    def lam(self) -> float:
        return self.cfg.lam

    @property
    def dg_lambda(self) -> float:
        return self.v_dw - self.v_gw_lambda

    @property
    def dg_plain(self) -> float:
        return self.v_dw - self.v_gw_plain


@dataclass(frozen=True)
class ToyGameState:
    """A toy-game configuration in the shape the estimators expect: read-only
    float64 copies of both players, so the caller's arrays never alias them.
    A player that does not match the game's dimension, or is not finite,
    raises ``ValueError`` naming the player and its value."""

    game: ToyGame
    d: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        # read-only float64 copies of the game's dimensions, finite, as the grid oracles take them
        d, g = toy_point(self.game, (self.d, self.g))
        object.__setattr__(self, "d", d)
        object.__setattr__(self, "g", g)


# -- internal game operations ----------------------------------------------


class _GanOps:
    def __init__(self, state: GanState, splits: DataSplits, rng: Rng, eval_latent=None):
        if splits is None:
            raise ValueError("GAN states require data splits")
        self.state = state
        self.splits = splits
        self.rng = rng
        if eval_latent is None:
            eval_latent = _eval_latent(state, splits, rng)
        self.eval_latent = np.asarray(eval_latent, dtype=np.float64)
        self.eval_batch = splits.s_c, self.eval_latent
        # the state's read-only arrays: every iterate is a plain array
        self.d0 = state.theta_d.values
        self.g0 = state.theta_g.values
        objective = state.objective
        self.project_d = lambda theta_d: enforce_constraint(objective, theta_d)
        self.project_g = lambda theta_g: theta_g
        # the estimate's kernel buffers: every step of its search and its
        # held-out values reuse them
        self.buffers = GanBuffers(state)

    def draw_batch(self, size):
        return draw_minibatch(self.splits.s_b, size, self.state.latent_dim, self.rng)

    def ascend_d(self, theta_d, rate, grad):
        """The inner ascent's projected step: an array, as every iterate is."""
        return self.project_d(theta_d + rate * grad)

    def eval_value(self, theta_d, theta_g) -> float:
        held_out = self.state.with_params(ParamVector(theta_d), ParamVector(theta_g))
        return eval_objective(held_out, *self.eval_batch, self.buffers)

    # grad_g_fn(theta_d): (theta_g, batch) -> dV/dtheta_g, and
    # descent_d_fn(theta_g): (theta_d, batch) -> -dV/dtheta_d, against the
    # fixed opponent, built once per search
    def grad_g_fn(self, theta_d):
        return lambda theta_g, batch: value_and_grad_g(
            self.state, theta_d, theta_g, *batch, self.buffers)[1]

    def descent_d_fn(self, theta_g):
        # the penalized step at lam = 0, built on each batch
        return lambda theta_d, batch: -self.make_prox(theta_d, theta_g, batch, 0.0)[0](theta_d)

    # make_prox(anchor, g, batch, lam) -> (gradient, value) of V - lam *
    # dist^2(., anchor) on one batch, as functions of the discriminator
    def make_prox(self, anchor, theta_g, batch, lam):
        step_fn = penalized_step_fn(self.state, anchor, theta_g, *batch, lam, buffers=self.buffers)
        # the gradient keeps the value: its finiteness check names a diverged
        # step's op; the value alone stops before the backward pass
        return ((lambda theta_d: step_fn(theta_d)[1]),
                (lambda theta_d: step_fn(theta_d, backward=False)[0]))


class _ToyOps:
    """A toy game's operations, in Python floats: every search moves a list
    of floats, one per coordinate, after its start.  The projections are the
    game's own ``clip_d`` and ``clip_g``, and the inner ascent's projected
    step (``ascend_d``) clips with the same :func:`~proxgap.oracles.clip_coord`
    against ``game.d_box``; the gradients (``grad_g_fn``, ``descent_d_fn``
    and ``make_prox``'s) are the stencil's lists of floats, and
    ``adam_step`` takes a list gradient per coordinate.  ``d0`` and ``g0``
    are the state's read-only float64 players."""

    def __init__(self, state: ToyGameState):
        self.game = state.game
        self.eval_latent = None
        self.eval_batch = None
        self.d0, self.g0 = state.d, state.g
        self.project_d, self.project_g = state.game.clip_d, state.game.clip_g

    def draw_batch(self, size):
        return None

    def eval_value(self, d, g) -> float:
        return toy_value(self.game, d, g)

    def grad_g_fn(self, d):
        partials = toy_stencil(self.game, d, "g", self.g0.size)[0]
        return lambda g, batch: partials(g)

    def descent_d_fn(self, g):
        grad = self.make_prox(None, g, None, 0.0)[0]  # one stencil per search
        return lambda d, batch: [-s for s in grad(d)]

    def ascend_d(self, d, rate, grad):
        """d + rate * grad clipped to the d box, per coordinate in floats."""
        return [clip_coord(v + rate * s, lo, hi)
                for v, s, (lo, hi) in zip(toy_coords(d), grad, self.game.d_box)]

    def make_prox(self, anchor, g, batch, lam):
        # as on GANs, with the squared parameter distance as dist^2.  The inner
        # ascent reads the gradient alone, so it computes no value; the value
        # is the stencil's row 0.  The gradient is a list of floats.
        partials, value = toy_stencil(self.game, g, "d", self.d0.size)
        if lam <= 0:
            return partials, value
        coef = 2.0 * lam
        anchor_coords = anchor.tolist()

        def penalized_value(d):
            diff = d - anchor
            return value(d) - lam * float((diff * diff).sum())

        def penalized_grad(d):
            # the penalty coef * (d_j - anchor_j), in floats
            return [partial - coef * (d_j - anchor_j) for partial, d_j, anchor_j
                    in zip(partials(d), toy_coords(d), anchor_coords)]

        return penalized_grad, penalized_value


def _eval_latent(state, splits, rng: Rng):
    """The held-out latent batch that every estimate on a GAN state shares,
    drawn from `rng`'s evaluation child; None for a toy game."""
    if not isinstance(state, GanState):
        return None
    if splits is None:
        raise ValueError("GAN states require data splits")
    return rng.child(_EVAL_TAG).normal((splits.s_c.shape[0], state.latent_dim))


def _ops_for(state, splits, rng, eval_latent=None):
    if isinstance(state, GanState):
        return _GanOps(state, splits, rng, eval_latent)
    if isinstance(state, ToyGameState):
        return _ToyOps(state)
    raise TypeError(f"cannot estimate or probe {type(state).__name__}")


def _prox_step_size(prox_lr: float, lam: float) -> float:
    if lam <= 0:
        return prox_lr
    return min(prox_lr, 1.0 / (STEP_GUARD * lam))


def _prox_loop(grad_fn, anchor, ops, cfg: ProximalConfig):
    """Penalized inner maximization from the array `anchor`: yields the
    projected anchor (``ops.project_d``), then each of `prox_steps` projected
    ascent iterates, ``ops.ascend_d`` along `grad_fn`, the penalized
    objective's gradient.  A GAN iterate is an array of the anchor's length;
    a toy iterate, the projected anchor too, is a list of floats."""
    theta = ops.project_d(anchor)
    lr = _prox_step_size(cfg.prox_lr, cfg.lam)
    yield theta
    for j in range(cfg.prox_steps):
        try:
            grad = grad_fn(theta)
        except NonFiniteError as err:
            raise ProxDivergenceError(err.op, j) from err
        theta = ops.ascend_d(theta, lr, grad)
        yield theta


def _adam_search(start, descent_dir, project, draw_batch, lr: float, iters: int):
    """The one Adam search, for GANs and toys, from `start`: yields it, then
    each of `iters` projected Adam iterates, each step along
    `descent_dir(params, draw_batch())`.  A GAN's direction is an array and
    its iterates fresh arrays; a toy's direction is a list of floats, so
    ``adam_step`` runs per coordinate and every iterate after the start is a
    list of floats, whether the start is an array or a list."""
    params = start
    adam = adam_init(len(start), lr)
    yield params
    for _ in range(iters):
        params, adam = adam_step(params, descent_dir(params, draw_batch()), adam)
        params = project(params)
        yield params


def _last(iterates):
    """The last of a search's iterates, the others dropped as they come."""
    return deque(iterates, maxlen=1)[0]


def _worst_case(ops, start, descent_dir, project, cfg: ProximalConfig):
    """The last iterate of the estimators' search: `worst_iters` steps at
    `worst_lr` on fresh search-split minibatches."""
    return _last(_adam_search(start, descent_dir, project,
                              lambda: ops.draw_batch(cfg.batch_size),
                              cfg.worst_lr, cfg.worst_iters))


# -- the estimators ----------------------------------------------------------


def estimate_v_dw(state, splits, cfg: ProximalConfig, rng: Rng, eval_latent=None) -> float:
    """Worst-case discriminator value: ascend a copy of theta_d, evaluate held out.

    The search runs `worst_iters` Adam steps on minibatches of the search
    split; the returned value is V on the evaluation split with the fixed
    evaluation latent batch, at the searched or the projected starting
    discriminator, whichever is larger (the start is a candidate too).
    """
    ops = _ops_for(state, splits, rng, eval_latent)
    start = ops.project_d(ops.d0)
    d = _worst_case(ops, start, ops.descent_d_fn(ops.g0), ops.project_d, cfg)
    return max(ops.eval_value(d, ops.g0), ops.eval_value(start, ops.g0))


def estimate_v_gw_lambda(state, splits, cfg: ProximalConfig, rng: Rng,
                         eval_latent=None) -> float:
    """Penalized worst-case generator value.

    Each iteration re-runs the penalized inner ascent anchored at the
    original theta_d against the current generator copy, then takes one
    descent step on V at the inner maximizer (the gradient of the penalized
    objective w.r.t. the generator).  The final value is the penalized
    objective on the evaluation split.
    """
    ops = _ops_for(state, splits, rng, eval_latent)

    def descent_dir(g, batch):
        grad_fn = ops.make_prox(ops.d0, g, batch, cfg.lam)[0]
        d_star = _last(_prox_loop(grad_fn, ops.d0, ops, cfg))
        return ops.grad_g_fn(d_star)(g, batch)

    g = _worst_case(ops, ops.g0, descent_dir, ops.project_g, cfg)
    grad_fn, value_fn = ops.make_prox(ops.d0, g, ops.eval_batch, cfg.lam)
    return value_fn(_last(_prox_loop(grad_fn, ops.d0, ops, cfg)))


def estimate_v_gw_plain(state, splits, cfg: ProximalConfig, rng: Rng,
                        eval_latent=None) -> float:
    """Plain worst-case generator value: descend a copy of theta_g against the
    frozen discriminator, evaluate held out."""
    ops = _ops_for(state, splits, rng, eval_latent)
    g = _worst_case(ops, ops.g0, ops.grad_g_fn(ops.d0), ops.project_g, cfg)
    return ops.eval_value(ops.d0, g)


def _gap_reports(state, splits, cfg: ProximalConfig, lams, rng: Rng,
                 known: GapReport | None = None):
    """One GapReport per lambda in `lams`, each under `cfg` at that lambda.

    v_dw and v_gw_plain do not depend on lam, so they are estimated once and
    shared; v_gw_lambda is estimated once per distinct lam.  Every estimate
    draws from its own child stream of `rng` and all share one evaluation
    latent batch, so each report equals the one a single-lambda call would give.

    `known`, when given, was computed on the same state and splits: its v_dw
    and v_gw_plain, and its v_gw_lambda at its own lam, are taken instead of
    estimated again.  It must come from `rng`'s stream under `cfg` at some lam.
    """
    if known is not None and (known.seed != rng.seed
                              or replace(known.cfg, lam=cfg.lam) != cfg):
        raise ValueError("known gap report comes from another stream or budget")
    eval_latent = _eval_latent(state, splits, rng)
    v_dw = known.v_dw if known is not None else estimate_v_dw(
        state, splits, cfg, rng.child(_DW_TAG), eval_latent)
    v_gw_lambdas = {known.lam: known.v_gw_lambda} if known is not None else {}
    for lam in lams:
        if lam not in v_gw_lambdas:
            v_gw_lambdas[lam] = estimate_v_gw_lambda(
                state, splits, replace(cfg, lam=lam), rng.child(_GW_LAMBDA_TAG), eval_latent)
    v_gw_plain = known.v_gw_plain if known is not None else estimate_v_gw_plain(
        state, splits, cfg, rng.child(_GW_PLAIN_TAG), eval_latent)
    return [GapReport(v_dw, v_gw_lambdas[lam], v_gw_plain, replace(cfg, lam=lam), rng.seed)
            for lam in lams]


def duality_gap(state, splits, cfg: ProximalConfig, rng: Rng,
                known: GapReport | None = None) -> GapReport:
    """Both duality gaps at one configuration, sharing one evaluation latent batch.

    `known` is a report to reuse, as in `_gap_reports`.
    """
    return _gap_reports(state, splits, cfg, [cfg.lam], rng, known)[0]


def lambda_sweep(state, splits, lambdas, cfg: ProximalConfig, rng: Rng,
                 known: GapReport | None = None):
    """Gap estimates per lambda with shared seeds, ordered by lambda.

    Each row equals ``duality_gap`` at that lambda; the lambda-independent
    v_dw and v_gw_plain are estimated once for the whole sweep, or taken
    from `known` as in `_gap_reports`.
    """
    lams = sorted(float(x) for x in lambdas)
    if not lams:
        raise ValueError("lambda list must be non-empty")
    return list(zip(lams, _gap_reports(state, splits, cfg, lams, rng, known)))

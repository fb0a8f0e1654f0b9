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
    GanState,
    enforce_constraint,
    eval_objective,
    penalized_step_fn,
    value_and_grad_g,
)
from .oracles import ToyGame, toy_stencil, toy_value

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


class ProxDivergenceError(RuntimeError):
    """The penalized inner ascent produced a non-finite objective."""


@dataclass(frozen=True)
class ProximalConfig:
    """Budgets and rates for gap estimation (lam=0.1, 20 inner steps by default)."""

    lam: float = 0.1
    prox_steps: int = 20
    prox_lr: float = 0.05
    worst_iters: int = 40
    worst_lr: float = 5e-3
    sobolev_h: float = 1e-3
    batch_size: int = 128

    def __post_init__(self):
        if not np.isfinite([self.lam, self.prox_lr, self.worst_lr, self.sobolev_h]).all():
            raise ValueError("lam, prox_lr, worst_lr and sobolev_h must be finite")
        if self.lam < 0:
            raise ValueError("lam must be nonnegative")
        if self.prox_steps < 1 or self.worst_iters < 0 or self.batch_size < 1:
            raise ValueError("iteration budgets must be positive")
        if self.prox_lr <= 0 or self.worst_lr <= 0 or self.sobolev_h <= 0:
            raise ValueError("rates and steps must be positive")


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
    """A toy-game configuration in the shape the estimators expect."""

    game: ToyGame
    d: np.ndarray
    g: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "d", np.asarray(self.d, dtype=np.float64).ravel())
        object.__setattr__(self, "g", np.asarray(self.g, dtype=np.float64).ravel())
        if self.d.size != self.game.d_dim or self.g.size != self.game.g_dim:
            raise ValueError("configuration does not match the game's dimensions")


# -- internal game operations ----------------------------------------------


class _GanOps:
    def __init__(self, state: GanState, splits: DataSplits, rng: Rng, eval_latent=None):
        if splits is None:
            raise ValueError("GAN states require data splits")
        self.state = state
        self.splits = splits
        self.rng = rng
        if eval_latent is None:
            eval_latent = rng.child(_EVAL_TAG).normal(
                (splits.s_c.shape[0], state.latent_dim))
        self.eval_latent = np.asarray(eval_latent, dtype=np.float64)
        self.eval_batch = splits.s_c, self.eval_latent
        self.d0 = state.theta_d
        self.g0 = state.theta_g
        objective = state.objective
        self.project_d = lambda theta_d: enforce_constraint(objective, theta_d)
        self.project_g = lambda theta_g: theta_g

    def draw_batch(self, size):
        return draw_minibatch(self.splits.s_b, size, self.state.latent_dim, self.rng)

    def eval_value(self, theta_d, theta_g) -> float:
        return eval_objective(self.state.with_params(theta_d, theta_g), *self.eval_batch)

    # grad_g_fn(theta_d) and grad_d_fn(theta_g): (params, batch) -> dV/dparams
    # against the fixed opponent, built once per search
    def grad_g_fn(self, theta_d):
        return lambda theta_g, batch: value_and_grad_g(
            self.state, theta_d, theta_g, *batch)[1]

    def grad_d_fn(self, theta_g):
        # the penalized step at lam = 0, built on each batch
        return lambda theta_d, batch: self.make_prox(
            theta_d, theta_g, batch, 0.0, None)[0](theta_d)

    # make_prox(...) -> (gradient, value) of V - lam * dist^2(., anchor) on one
    # batch, as functions of the discriminator
    def make_prox(self, anchor, theta_g, batch, lam, h):
        step_fn = penalized_step_fn(self.state, anchor, theta_g, *batch, lam, h)
        # the gradient keeps the value: its finiteness check names a diverged step's op
        return (lambda theta_d: step_fn(theta_d)[1]), (lambda theta_d: step_fn(theta_d)[0])


class _ToyOps:
    def __init__(self, state: ToyGameState):
        self.game = state.game
        self.eval_latent = None
        self.eval_batch = None
        self.d0 = state.d.copy()
        self.g0 = state.g.copy()
        self.project_d = state.game.clip_d
        self.project_g = state.game.clip_g

    def draw_batch(self, size):
        return None

    def eval_value(self, d, g) -> float:
        return toy_value(self.game, d, g)

    def grad_g_fn(self, d):
        stencil = toy_stencil(self.game, d, "g", self.g0.size)
        return lambda g, batch: stencil(g)[1]

    def grad_d_fn(self, g):
        grad = self.make_prox(None, g, None, 0.0, None)[0]  # one stencil per search
        return lambda d, batch: grad(d)

    def make_prox(self, anchor, g, batch, lam, h):
        # the inner ascent reads the gradient alone, so it computes no value;
        # the value is the stencil's row 0
        stencil = toy_stencil(self.game, g, "d", self.d0.size)
        if lam <= 0:
            return (lambda d: stencil(d)[1]), (lambda d: float(stencil(d)[0]))
        coef = 2.0 * lam

        def value(d):
            diff = d - anchor
            return float(stencil(d)[0]) - lam * float((diff * diff).sum())

        return (lambda d: stencil(d)[1] - coef * (d - anchor)), value


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


def _prox_loop(grad_fn, anchor, project, cfg: ProximalConfig):
    """Penalized inner maximization: yields the projected anchor, then each of
    `prox_steps` projected ascent iterates along `grad_fn`, the penalized
    objective's gradient."""
    theta = project(anchor)
    lr = _prox_step_size(cfg.prox_lr, cfg.lam)
    # GAN iterates are ParamVectors of one layout, toy iterates plain arrays
    as_params = theta.with_values if isinstance(theta, ParamVector) else None
    yield theta
    for j in range(cfg.prox_steps):
        try:
            grad = grad_fn(theta)
        except NonFiniteError as err:
            raise ProxDivergenceError(
                f"penalized ascent diverged at inner step {j}: {err}") from err
        theta = project(theta + lr * grad if as_params is None
                        else as_params(theta.values + lr * grad))
        yield theta


def _adam_search(start, descent_dir, project, draw_batch, lr: float, iters: int):
    """The one Adam search: yields `start`, then each of `iters` projected Adam
    iterates, each step along `descent_dir(params, draw_batch())`."""
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
    grad_d = ops.grad_d_fn(ops.g0)
    d = _worst_case(ops, start, lambda d, batch: -grad_d(d, batch), ops.project_d, cfg)
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
        grad_fn = ops.make_prox(ops.d0, g, batch, cfg.lam, cfg.sobolev_h)[0]
        d_star = _last(_prox_loop(grad_fn, ops.d0, ops.project_d, cfg))
        return ops.grad_g_fn(d_star)(g, batch)

    g = _worst_case(ops, ops.g0, descent_dir, ops.project_g, cfg)
    grad_fn, value_fn = ops.make_prox(ops.d0, g, ops.eval_batch, cfg.lam, cfg.sobolev_h)
    return value_fn(_last(_prox_loop(grad_fn, ops.d0, ops.project_d, cfg)))


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
    eval_latent = _ops_for(state, splits, rng).eval_latent
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

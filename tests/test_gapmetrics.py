import ast
import functools
import inspect
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from dataclasses import fields, replace

from proxgap import gapmetrics, objectives, probes
from proxgap.diffcore import (
    MlpWorkspace,
    NetworkSpec,
    NonFiniteError,
    ParamVector,
    Rng,
    init_network,
    input_grad_batch,
)
from proxgap.diffcore.engine import Tensor
from proxgap.diffcore.network import input_grad_columns
from proxgap.distributions import GaussianMixture, make_splits
from proxgap.gapmetrics import (
    GapReport,
    ProxDivergenceError,
    ProximalConfig,
    ToyGameState,
    duality_gap,
    estimate_v_dw,
    estimate_v_gw_lambda,
    estimate_v_gw_plain,
    lambda_sweep,
    _last,
    _prox_loop,
)
from proxgap.objectives import (
    Classic,
    ClipBoxError,
    GanState,
    WassersteinClip,
    enforce_constraint,
    eval_objective,
    penalized_step_fn,
    _sobolev_sum,
)
from proxgap.oracles import (
    GridSpec,
    ToyGame,
    bilinear,
    concave_quadratic,
    grid_dg,
    grid_dg_lambda,
    grid_v_lambda,
    shipped_games,
)

from proxgap.probes import unilateral_deviation
from toy_grads import stacked_toy_value_and_grad, toy_value_and_grad

TOY_CFG = ProximalConfig(lam=0.1, prox_steps=20, prox_lr=0.5,
                         worst_iters=400, worst_lr=0.02, batch_size=1)


def _perfect_fit_setup(seed=42):
    """Single-mode target and a linear generator that reproduces it exactly."""
    mu = np.array([0.5, -0.25])
    sigma = 0.8
    dist = GaussianMixture([1.0], [mu], [[sigma ** 2, sigma ** 2]])
    g_spec = NetworkSpec(2, (), 2)
    theta_g = ParamVector(np.array([sigma, 0.0, 0.0, sigma, mu[0], mu[1]]))
    rng = Rng(seed)
    splits = make_splits(dist, 2000, 500, 500, rng.child(1))
    return g_spec, theta_g, splits, rng


# -- sobolev distance ----------------------------------------------------


def sobolev_dist_sq(d_spec, theta_1, theta_2, x_batch, h):
    """Mean squared input-gradient difference over the batch: the squared
    function distance (1/n) sum_i ||grad_x D_1(x_i) - grad_x D_2(x_i)||^2 that
    the penalized step's penalty computes, between two whole discriminators."""
    x_batch = np.asarray(x_batch, dtype=np.float64)
    if x_batch.shape[0] == 0:
        raise ValueError("batch must be non-empty")
    g1 = input_grad_batch(d_spec, theta_1, x_batch, h)
    g2 = input_grad_batch(d_spec, theta_2, x_batch, h)
    return float(_sobolev_sum(g1.T[:, :, None], g2))


def test_sobolev_zero_for_identical_parameters():
    spec = NetworkSpec(2, (6,), 1)
    params = init_network(spec, Rng(0))
    batch = Rng(1).normal((16, 2))
    assert sobolev_dist_sq(spec, params, params, batch, 1e-3) == 0.0


def test_sobolev_linear_closed_form():
    spec = NetworkSpec(2, (), 1)
    w1, w2 = np.array([0.7, -0.4]), np.array([-0.1, 0.9])
    p1 = ParamVector(np.append(w1, 0.3))
    p2 = ParamVector(np.append(w2, -1.0))
    batch = Rng(2).normal((8, 2))
    val = sobolev_dist_sq(spec, p1, p2, batch, 1e-3)
    assert val == pytest.approx(float(np.sum((w1 - w2) ** 2)), abs=1e-9)


def test_sobolev_symmetric():
    spec = NetworkSpec(2, (5,), 1, activation="tanh")
    p1 = init_network(spec, Rng(3))
    p2 = init_network(spec, Rng(4))
    batch = Rng(5).normal((12, 2))
    a = sobolev_dist_sq(spec, p1, p2, batch, 1e-3)
    b = sobolev_dist_sq(spec, p2, p1, batch, 1e-3)
    assert a == pytest.approx(b, abs=1e-12)


def test_sobolev_rejects_empty_batch():
    spec = NetworkSpec(2, (), 1)
    p = init_network(spec, Rng(0))
    with pytest.raises(ValueError):
        sobolev_dist_sq(spec, p, p, np.zeros((0, 2)), 1e-3)


def test_batch_input_grads_match_the_graph_stencil_columns():
    # one stencil and one scaling: both evaluate the same stacked stencil rows
    # and apply the same central difference, so they agree bit for bit
    spec = NetworkSpec(2, (6, 6), 1)
    params = init_network(spec, Rng(0))
    for rows in (1, 7, 64):
        batch = Rng(10).normal((rows, 2))
        stacked = np.hstack([col.data for col in input_grad_columns(spec, params, batch, 1e-4)])
        np.testing.assert_array_equal(input_grad_batch(spec, params, batch, 1e-4), stacked)


def test_sobolev_graph_matches_sobolev_dist_sq():
    spec = NetworkSpec(2, (5,), 1, activation="tanh")
    p1 = init_network(spec, Rng(3))
    p2 = init_network(spec, Rng(4))
    batch = Rng(5).normal((12, 2))
    anchor_grads = input_grad_batch(spec, p2, batch, 1e-3)
    graph = _sobolev_sum(input_grad_columns(spec, Tensor(p1.values), batch, 1e-3),
                         anchor_grads).item()
    assert graph == pytest.approx(sobolev_dist_sq(spec, p1, p2, batch, 1e-3), abs=1e-14)


# -- the penalized inner ascent -------------------------------------------


def _small_classic_state(seed=7):
    d_spec = NetworkSpec(2, (8,), 1, output_head="sigmoid")
    g_spec = NetworkSpec(2, (8,), 2)
    rng = Rng(seed)
    return GanState(d_spec, g_spec, init_network(d_spec, rng.child(0)),
                    init_network(g_spec, rng.child(1)), Classic())


def _gan_steps(project):
    """A GAN's inner-ascent operations with the projection `project`: the
    loop's anchor projection and ``_GanOps.ascend_d``'s projected step."""
    ops = SimpleNamespace(project_d=project)
    ops.ascend_d = functools.partial(gapmetrics._GanOps.ascend_d, ops)
    return ops


def _prox_opt(state, real, latent, cfg):
    """Inner ascent anchored at the state's discriminator: (final params, penalized value)."""
    step_fn = penalized_step_fn(state, state.theta_d, state.theta_g, real, latent, cfg.lam)
    theta = _last(_prox_loop(lambda theta: step_fn(theta)[1], state.theta_d.values,
                             _gan_steps(lambda theta: enforce_constraint(state.objective, theta)),
                             cfg))
    return theta, step_fn(theta)[0]


def test_prox_opt_huge_lambda_pins_anchor():
    state = _small_classic_state()
    rng = Rng(8)
    real, latent = rng.normal((64, 2)), rng.normal((64, 2))
    v_anchor = eval_objective(state, real, latent)
    cfg = ProximalConfig(lam=1e9, prox_steps=20, prox_lr=0.05)
    theta, v_lam = _prox_opt(state, real, latent, cfg)
    assert np.max(np.abs(theta - state.theta_d.values)) < 1e-4
    assert v_lam == pytest.approx(v_anchor, abs=1e-4)


def test_prox_opt_zero_lambda_is_plain_ascent():
    state = _small_classic_state()
    rng = Rng(9)
    real, latent = rng.normal((64, 2)), rng.normal((64, 2))
    v_anchor = eval_objective(state, real, latent)
    cfg = ProximalConfig(lam=0.0, prox_steps=50, prox_lr=0.5)
    _, v = _prox_opt(state, real, latent, cfg)
    assert v > v_anchor  # unpenalized ascent improves on the anchor value


def test_prox_opt_reclips_wasserstein():
    d_spec = NetworkSpec(2, (8,), 1)
    g_spec = NetworkSpec(2, (8,), 2)
    rng = Rng(10)
    wgan = WassersteinClip(0.01)
    theta_d = ParamVector(enforce_constraint(wgan, init_network(d_spec, rng.child(0)).values))
    state = GanState(d_spec, g_spec, theta_d, init_network(g_spec, rng.child(1)), wgan)
    real, latent = rng.normal((32, 2)), rng.normal((32, 2))
    cfg = ProximalConfig(lam=0.0, prox_steps=30, prox_lr=0.5)
    theta, _ = _prox_opt(state, real, latent, cfg)
    assert np.max(np.abs(theta)) <= 0.01 + 1e-15


def test_prox_loop_hands_the_step_only_iterates_inside_the_clip_box():
    # the fused prox step checks no clip box; the loop projects every iterate,
    # an anchor outside the box included, before handing it to the step
    d_spec = NetworkSpec(2, (8,), 1)
    g_spec = NetworkSpec(2, (8,), 2)
    rng = Rng(16)
    wgan = WassersteinClip(0.01)
    anchor = init_network(d_spec, rng.child(0)).values
    state = GanState(d_spec, g_spec, ParamVector(enforce_constraint(wgan, anchor)),
                     init_network(g_spec, rng.child(1)), wgan)
    real, latent = rng.normal((32, 2)), rng.normal((32, 2))
    cfg = ProximalConfig(lam=0.1, prox_steps=25, prox_lr=0.5)
    step_fn = penalized_step_fn(state, anchor, state.theta_g, real, latent, cfg.lam)
    seen = []

    def recording(theta):
        seen.append(theta)
        return step_fn(theta)[1]

    _last(_prox_loop(recording, anchor, _gan_steps(lambda theta: enforce_constraint(wgan, theta)),
                     cfg))
    assert np.max(np.abs(anchor)) > 0.01
    assert len(seen) == cfg.prox_steps
    assert max(np.max(np.abs(vals)) for vals in seen) <= 0.01
    # the steps do push against the box: later iterates sit on its edge
    assert np.mean(np.abs(seen[-1]) == 0.01) > 0.25


def test_gan_searches_move_plain_float64_arrays(monkeypatch):
    # the inner ascent, the Adam search and the deviation probe's search all
    # move float64 arrays on a GAN state, clipped critic or not
    dist = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    splits = make_splits(dist, 200, 100, 100, Rng(17))
    cfg = ProximalConfig(lam=0.1, prox_steps=4)
    seen = []
    adam_search = gapmetrics._adam_search

    def recording(*args):
        for params in adam_search(*args):
            seen.append(("deviation", params))
            yield params

    monkeypatch.setattr(probes, "_adam_search", recording)
    for state in _classic_and_clipped_states():
        ops = gapmetrics._ops_for(state, splits, Rng(18))
        batch = ops.draw_batch(32)
        grad_fn = ops.make_prox(ops.d0, ops.g0, batch, cfg.lam)[0]
        seen += [("prox", d) for d in _prox_loop(grad_fn, ops.d0, ops, cfg)]
        seen += [("adam", g) for g in gapmetrics._adam_search(
            ops.g0, ops.grad_g_fn(ops.d0), ops.project_g, lambda: batch, 0.01, 3)]
        unilateral_deviation(state, splits, steps=3, lr=0.01, eval_every=1, rng=Rng(19))
        for kind, size, count in (("prox", len(state.theta_d), cfg.prox_steps + 1),
                                  ("adam", len(state.theta_g), 4),
                                  ("deviation", len(state.theta_g), 4)):
            iterates = [params for name, params in seen if name == kind]
            assert len(iterates) == count, kind
            for params in iterates:
                assert type(params) is np.ndarray and params.dtype == np.float64, kind
                assert params.shape == (size,), kind
        seen.clear()


def test_adam_search_yields_the_start_and_every_projected_iterate():
    game = bilinear()
    draws = []

    def draw_batch():
        draws.append(len(draws))
        return None

    start = np.array([0.9])
    iterates = list(gapmetrics._adam_search(
        start, lambda g, batch: -np.ones(1), game.clip_g, draw_batch, 0.5, 6))
    assert len(iterates) == 7 and iterates[0] is start and len(draws) == 6
    assert all(game.clip_g(g) == g for g in iterates)
    assert iterates[-1] == 1.0 and iterates[1] == 1.0  # clipped on the first step


def test_prox_loop_yields_the_projected_anchor_and_every_projected_iterate():
    game = concave_quadratic()
    cfg = replace(TOY_CFG, prox_steps=7)
    lr = gapmetrics._prox_step_size(cfg.prox_lr, cfg.lam)
    anchor = np.array([1.6])  # outside the box: the first iterate is its projection
    ops = gapmetrics._ops_for(ToyGameState(game, anchor, [0.0]), None, None)
    iterates = list(_prox_loop(lambda d: [0.25 - v for v in np.asarray(d).tolist()],
                               anchor, ops, cfg))
    assert len(iterates) == cfg.prox_steps + 1
    assert _hex(iterates[0]) == _hex(game.clip_d(anchor))
    for before, after in zip(iterates, iterates[1:]):
        before = np.asarray(before)
        assert _hex(after) == _hex(game.clip_d(before + lr * (0.25 - before)))


@pytest.mark.parametrize("j", [0, 3])
def test_prox_loop_names_the_diverging_inner_step_when_consumed(j):
    game = concave_quadratic()
    calls = []

    def diverging(d):
        calls.append(d)
        if len(calls) > j:
            raise NonFiniteError("exp")
        return [-v for v in np.asarray(d).tolist()]

    cfg = replace(TOY_CFG, prox_steps=6)
    ops = gapmetrics._ops_for(ToyGameState(game, [0.5], [0.0]), None, None)
    loop = _prox_loop(diverging, np.array([0.5]), ops, cfg)
    assert calls == []  # nothing runs until the iterates are read
    seen = []
    with pytest.raises(ProxDivergenceError, match=f"inner step {j}: ") as err:
        for d in loop:
            seen.append(d)
    assert len(seen) == j + 1 and len(calls) == j + 1
    assert err.value.__cause__.op == "exp"


def test_a_toy_value_that_raises_is_named_value():
    # Python floats raise where numpy gives inf or nan; the estimators name the
    # value as they name a network's op, and the inner ascent names its step
    singular = ToyGame("singular", lambda d, g: d[0] * g[0] / (d[0] + g[0]),
                       ((-1.0, 1.0),), ((-1.0, 1.0),))
    cfg = ProximalConfig(worst_iters=40, batch_size=1)
    with pytest.raises(NonFiniteError) as err:
        duality_gap(ToyGameState(singular, [0.5], [-0.5]), None, cfg, Rng(1))
    assert err.value.op == "value" and isinstance(err.value.__cause__, ZeroDivisionError)
    pole = 0.5 + 1e-6  # the stencil's +h row at d = 0.5
    at_pole = ToyGame("pole", lambda d, g: 1.0 / (d[0] - pole) + d[0] * g[0],
                      ((-1.0, 1.0),), ((-1.0, 1.0),))
    with pytest.raises(ProxDivergenceError, match="inner step 0: ") as err:
        estimate_v_gw_lambda(ToyGameState(at_pole, [0.5], [0.2]), None, cfg, Rng(1))
    assert isinstance(err.value.__cause__, NonFiniteError)
    assert err.value.__cause__.op == "value"
    assert isinstance(err.value.__cause__.__cause__, ZeroDivisionError)


def _classic_and_clipped_states():
    wgan = WassersteinClip(0.01)
    rng = Rng(31)
    g_spec = NetworkSpec(2, (8,), 2)
    for objective, head in ((Classic(), "sigmoid"), (wgan, "linear")):
        d_spec = NetworkSpec(2, (8,), 1, output_head=head)
        theta_d = ParamVector(enforce_constraint(objective,
                                                 init_network(d_spec, rng.child(0)).values))
        yield GanState(d_spec, g_spec, theta_d, init_network(g_spec, rng.child(1)), objective)


@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_gan_make_prox_gives_the_penalized_steps_bytes(lam):
    dist = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    splits = make_splits(dist, 200, 100, 100, Rng(32))
    for state in _classic_and_clipped_states():
        ops = gapmetrics._ops_for(state, splits, Rng(33))
        g = state.theta_g.values + 0.1
        moved = ops.project_d(state.theta_d.values * 1.5 + 0.003)
        for batch in (ops.eval_batch, ops.draw_batch(32)):
            grad_fn, value_fn = ops.make_prox(state.theta_d, g, batch, lam)
            step_fn = penalized_step_fn(state, state.theta_d, g, *batch, lam)
            for theta in (state.theta_d, moved):
                value, grad = step_fn(theta)
                assert _hex(value_fn(theta)) == _hex(value), state.objective
                assert _hex(grad_fn(theta)) == _hex(grad), state.objective


def test_v_gw_lambda_builds_each_penalized_step_once(monkeypatch):
    # one build per outer step for its inner ascent, and one on the eval batch
    # whose gradient and value both come from it
    state = _small_classic_state()
    dist = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    splits = make_splits(dist, 200, 100, 100, Rng(34))
    cfg = ProximalConfig(worst_iters=4, prox_steps=3, batch_size=32)
    want = estimate_v_gw_lambda(state, splits, cfg, Rng(35))
    on_eval = []
    build = gapmetrics.penalized_step_fn

    def counting(state, anchor, theta_g, real, latent, lam, *, buffers=None):
        on_eval.append(real is splits.s_c)
        return build(state, anchor, theta_g, real, latent, lam, buffers=buffers)

    monkeypatch.setattr(gapmetrics, "penalized_step_fn", counting)
    assert _hex(estimate_v_gw_lambda(state, splits, cfg, Rng(35))) == _hex(want)
    assert len(on_eval) == cfg.worst_iters + 1
    assert on_eval.count(True) == 1 and on_eval[-1]


def test_v_gw_lambda_final_value_runs_no_backward_pass(monkeypatch):
    # the inner ascent on the eval batch takes prox_steps gradients; the value
    # at its last iterate stops before the backward pass
    state = _small_classic_state()
    dist = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    splits = make_splits(dist, 200, 100, 100, Rng(34))
    cfg = ProximalConfig(worst_iters=4, prox_steps=3, batch_size=32)
    want = estimate_v_gw_lambda(state, splits, cfg, Rng(35))
    rows, backward = [], objectives.mlp_backward

    def counting(spec, theta, cache, grad_out, input_grad=True):
        rows.append(len(grad_out))
        return backward(spec, theta, cache, grad_out, input_grad)

    monkeypatch.setattr(objectives, "mlp_backward", counting)
    assert _hex(estimate_v_gw_lambda(state, splits, cfg, Rng(35))) == _hex(want)
    n_c = splits.s_c.shape[0]
    assert rows.count((2 + 2 * state.d_spec.input_dim) * n_c) == cfg.prox_steps


def test_each_gan_estimate_builds_two_workspaces_and_its_held_out_values_none(monkeypatch):
    # an estimate's search, its final ascent and its held-out values all run
    # on one workspace per network, grown to the evaluation split
    state, splits, cfg = _small_gan_setup()
    want = duality_gap(state, splits, cfg, Rng(36))
    built, phase, held_out = [], [None], []
    init = MlpWorkspace.__init__

    def building(work, spec):
        init(work, spec)
        built.append((phase[0], spec))

    def scoped(name, fn):
        def run(*args, **kwargs):
            outer, phase[0] = phase[0], name
            try:
                return fn(*args, **kwargs)
            finally:
                phase[0] = outer
        return run

    monkeypatch.setattr(MlpWorkspace, "__init__", building)
    names = ("estimate_v_dw", "estimate_v_gw_lambda", "estimate_v_gw_plain")
    for name in names:
        monkeypatch.setattr(gapmetrics, name, scoped(name, getattr(gapmetrics, name)))
    eval_value = gapmetrics._GanOps.eval_value
    monkeypatch.setattr(gapmetrics._GanOps, "eval_value",
                        lambda ops, *args: held_out.append(phase[0])
                        or scoped("held_out", eval_value)(ops, *args))
    assert duality_gap(state, splits, cfg, Rng(36)) == want
    assert held_out == ["estimate_v_dw", "estimate_v_dw", "estimate_v_gw_plain"]
    for name in names:
        specs = [spec for where, spec in built if where == name]
        assert sorted(specs, key=repr) == sorted([state.g_spec, state.d_spec], key=repr)
    assert "held_out" not in [where for where, _ in built]


def test_a_gap_report_builds_workspaces_only_for_the_estimates_it_runs(monkeypatch):
    # the shared evaluation latent is drawn without building an estimate's ops,
    # so only the estimates run build workspaces: two each, one per network
    state, splits, cfg = _small_gan_setup()
    want = duality_gap(state, splits, cfg, Rng(36))
    sweep = lambda_sweep(state, splits, [0.0, 0.1, 10.0], cfg, Rng(36))
    built = []
    init = MlpWorkspace.__init__
    monkeypatch.setattr(MlpWorkspace, "__init__",
                        lambda work, spec: built.append(spec) or init(work, spec))
    assert duality_gap(state, splits, cfg, Rng(36)) == want and len(built) == 6
    built.clear()
    assert duality_gap(state, splits, cfg, Rng(36), known=want) == want and built == []
    built.clear()
    assert lambda_sweep(state, splits, [0.0, 0.1, 10.0], cfg, Rng(36)) == sweep
    assert len(built) == 10
    with pytest.raises(ValueError, match="require data splits"):
        duality_gap(state, None, cfg, Rng(36), known=want)


def test_v_gw_plain_without_search_steps_still_checks_the_clip_box():
    # with no search step no generator gradient checks the critic, so the
    # held-out value is the one to refuse a critic outside the weight box
    state = next(state for state in _classic_and_clipped_states()
                 if isinstance(state.objective, WassersteinClip))
    outside = state.with_params(theta_d=ParamVector(
        state.theta_d.values + 2 * state.objective.clip))
    dist = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    splits = make_splits(dist, 200, 100, 100, Rng(37))
    cfg = ProximalConfig(worst_iters=0, batch_size=32)
    estimate_v_gw_plain(state, splits, cfg, Rng(38))
    with pytest.raises(ClipBoxError):
        estimate_v_gw_plain(outside, splits, cfg, Rng(38))


def test_toy_step_at_zero_lambda_is_the_toy_gradient():
    # the v_dw search ascends along this step, as it once did along the toy gradient
    rng = np.random.default_rng(7)
    for game in shipped_games():
        d0 = np.array([rng.uniform(lo, hi) for lo, hi in game.d_box])
        g = np.array([rng.uniform(lo, hi) for lo, hi in game.g_box])
        ops = gapmetrics._ops_for(ToyGameState(game, d0, g), None, Rng(0))
        grad_fn, value_fn = ops.make_prox(d0, g, None, 0.0)
        for d in (d0, d0 - 0.25, d0 + 0.5):
            value, grad = value_fn(d), np.array(grad_fn(d))
            want_value, want_grad = toy_value_and_grad(game, d, g, "d")
            assert np.float64(value).tobytes() == np.float64(want_value).tobytes()
            assert grad.tobytes() == want_grad.tobytes(), game.name


def test_gapmetrics_holds_only_the_searches_and_estimators():
    # every value and gradient comes from objectives or oracles
    banned = {"mlp_forward", "mlp_backward", "MlpWorkspace", "forward", "output_grads",
              "finite_value_and_grad", "stencil_rows", "central_difference",
              "input_grad_batch", "input_grad_columns", "Tensor", "value_and_grad_d"}
    tree = ast.parse(inspect.getsource(gapmetrics))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not banned & names
    assert not [name for name in banned if hasattr(gapmetrics, name)]
    ops_classes = (gapmetrics._GanOps, gapmetrics._ToyOps)
    assert not [cls for cls in ops_classes if hasattr(cls, "v_grad_d")]
    # one penalized-objective constructor per game kind, and both searches yield
    assert all("make_prox" in vars(cls) for cls in ops_classes)
    assert not [(cls.__name__, name) for cls in ops_classes
                for name in ("make_prox_step", "make_prox_grad") if hasattr(cls, name)]
    assert inspect.isgeneratorfunction(gapmetrics._prox_loop)
    assert inspect.isgeneratorfunction(gapmetrics._adam_search)
    # the game operations own the inner ascent's projected step: the loop
    # takes it from them and adds or scales nothing of its own
    assert all("ascend_d" in vars(cls) for cls in ops_classes)
    loop = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == "_prox_loop")
    assert not [node for node in ast.walk(loop) if isinstance(node, ast.BinOp)]
    assert [node.func.attr for node in ast.walk(loop) if isinstance(node, ast.Call)
            and isinstance(node.func, ast.Attribute)] == ["project_d", "ascend_d"]
    # the toy stencil is built in two places only, and the toy penalty's
    # value and gradient each take d - anchor once, the gradient per
    # coordinate in floats
    stencil_calls = []
    for top in tree.body:
        scopes = ([(f"{top.name}.{getattr(node, 'name', '')}", node) for node in top.body]
                  if isinstance(top, ast.ClassDef) else [(getattr(top, "name", ""), top)])
        stencil_calls += [owner for owner, scope in scopes for node in ast.walk(scope)
                          if isinstance(node, ast.Call)
                          and getattr(node.func, "id", None) == "toy_stencil"]
    assert stencil_calls == ["_ToyOps.grad_g_fn", "_ToyOps.make_prox"]
    anchor_diffs = [node for node in ast.walk(tree) if isinstance(node, ast.BinOp)
                    and isinstance(node.op, ast.Sub) and isinstance(node.right, ast.Name)
                    and node.right.id in ("anchor", "anchor_j")]
    assert len(anchor_diffs) == 2


# -- the toy inner step, pinned to its former formula ------------------------
#
# The toy inner ascent once rebuilt its stencil on every step, computed the
# penalized value the loop discards and updated through a type check.  These
# are the former step, stencil and loop; the step and the estimates must keep
# their bytes.


def _reference_toy_step(game, anchor, g, lam):
    """The toy penalized step as it was: value and gradient on every step."""
    if lam <= 0:
        return lambda d: stacked_toy_value_and_grad(game, d, g, "d")

    def value_and_grad(d):
        value, grad = stacked_toy_value_and_grad(game, d, g, "d")
        diff = d - anchor
        return value - lam * float((diff * diff).sum()), grad - 2.0 * lam * diff

    return value_and_grad


def _reference_prox_iterates(step_fn, anchor, project, cfg):
    """The inner ascent as it was, every projected iterate kept."""
    theta = project(anchor)
    lr = gapmetrics._prox_step_size(cfg.prox_lr, cfg.lam)
    iterates = [theta]
    for _ in range(cfg.prox_steps):
        _, grad = step_fn(theta)
        theta = project(theta + lr * grad)
        iterates.append(theta)
    return iterates


def _pin_games():
    yield from shipped_games()
    # the concave quadratic on a 3-D d box, each d coordinate against g's one
    yield ToyGame("concave_quadratic_3d",
                  lambda d, g: sum(2.0 * d_j * g[0] - d_j * d_j for d_j in d),
                  ((-1.0, 1.0), (-0.5, 2.0), (-2.0, 0.5)), ((-1.0, 1.0),))
    # values that ignore one player come back as one row for that player's stencil
    yield ToyGame("g_only", lambda d, g: g[0] * g[0], ((-1.0, 1.0),) * 2,
                  ((-1.0, 1.0),))
    yield ToyGame("d_only", lambda d, g: d[0] * d[0] - d[0], ((-1.0, 1.0),),
                  ((-1.0, 1.0),) * 2)


def _hex(x):
    return np.asarray(x, dtype=np.float64).tobytes().hex()


@pytest.mark.parametrize("lam", [0.0, 0.1, 1e6])
def test_toy_inner_ascent_keeps_the_former_bytes(lam):
    # 6 games x 5 configurations, whose anchors may lie outside the box; at
    # lam > 0 the step is STEP_GUARD's cap, down to 4e-8 at lam = 1e6
    cfg = replace(TOY_CFG, lam=lam, prox_steps=12, worst_iters=5)
    assert gapmetrics._prox_step_size(cfg.prox_lr, lam) == (
        cfg.prox_lr if lam == 0 else 1.0 / (gapmetrics.STEP_GUARD * lam))
    rng = np.random.default_rng(15)
    configs = 0
    for game in _pin_games():
        for _ in range(5):
            d, g = ([rng.uniform(lo - 0.5, hi + 0.5) for lo, hi in box]
                    for box in (game.d_box, game.g_box))
            state = ToyGameState(game, d, g)
            ops = gapmetrics._ops_for(state, None, Rng(0))
            for wrt in "dg":
                got = toy_value_and_grad(game, state.d, state.g, wrt)
                want = stacked_toy_value_and_grad(game, state.d, state.g, wrt)
                assert [_hex(v) for v in got] == [_hex(v) for v in want], (game.name, wrt)
            search_grads = (ops.grad_d_fn(ops.g0)(ops.d0, None),
                            ops.grad_g_fn(ops.d0)(ops.g0, None))
            assert [_hex(v) for v in search_grads] == [
                _hex(stacked_toy_value_and_grad(game, state.d, state.g, wrt)[1])
                for wrt in "dg"], game.name
            grad, value = ops.make_prox(ops.d0, ops.g0, None, lam)
            want_step = _reference_toy_step(game, ops.d0, ops.g0, lam)
            for d in (game.clip_d(ops.d0), ops.d0, ops.d0 - 0.3, ops.d0 + 0.7):
                got_value, want_value = value(d), want_step(d)
                assert isinstance(got_value, float)
                assert _hex(got_value) == _hex(want_value[0]), game.name
                assert _hex(grad(d)) == _hex(want_value[1]), game.name
            iterates = list(_prox_loop(grad, ops.d0, ops, cfg))
            want = _reference_prox_iterates(want_step, ops.d0, game.clip_d, cfg)
            assert [_hex(d) for d in iterates] == [_hex(d) for d in want], game.name
            # after the projected anchor, an iterate is a list of Python floats
            assert [[type(v) for v in d] for d in iterates[1:] if type(d) is list] == \
                [[float] * game.d_dim] * cfg.prox_steps, game.name
            configs += 1
            got = duality_gap(state, None, cfg, Rng(configs))
            with pytest.MonkeyPatch.context() as mp:  # the former step and stencil
                mp.setattr(gapmetrics._ToyOps, "grad_g_fn",
                           lambda ops, d: lambda g, batch:
                           stacked_toy_value_and_grad(ops.game, d, g, "g")[1])
                mp.setattr(gapmetrics._ToyOps, "grad_d_fn",
                           lambda ops, g: lambda d, batch:
                           stacked_toy_value_and_grad(ops.game, d, g, "d")[1])
                mp.setattr(gapmetrics._ToyOps, "make_prox",
                           lambda ops, anchor, g, batch, lam: (
                               lambda d: _reference_toy_step(ops.game, anchor, g, lam)(d)[1],
                               lambda d: _reference_toy_step(ops.game, anchor, g, lam)(d)[0]))
                want = duality_gap(state, None, cfg, Rng(configs))
            fields = ("v_dw", "v_gw_lambda", "v_gw_plain", "lam", "seed", "dg_lambda", "dg_plain")
            assert [float(getattr(got, f)).hex() for f in fields] == \
                [float(getattr(want, f)).hex() for f in fields], game.name
            assert got.cfg == want.cfg == cfg, game.name
    assert configs == 30


# (game, point) -> float.hex of v_dw, v_gw_plain and v_gw_lambda at each of
# _PINNED_LAMBDAS, as the stacked numpy stencil gave them
_PINNED_POINTS = (([0.3], [-0.2]), ([-0.0], [0.0]), ([0.0], [-0.0]), ([-1.0], [1.0]))
_PINNED_LAMBDAS = (0.0, 0.1, 1e6)
_PINNED_REPORTS = {
    ("bilinear", 0): ("0x1.99999773d834fp-4", "-0x1.333332a9cb1a1p-2",
                      ("0x1.4b5f5543e8b8ep-12", "-0x1.31441900703afp-7", "-0x1.333320aff4842p-2")),
    ("bilinear", 1): ("0x0.0p+0", "0x0.0p+0", ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0")),
    ("bilinear", 2): ("0x0.0p+0", "0x0.0p+0", ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0")),
    ("bilinear", 3): ("-0x1.99999aac9818ep-3", "-0x1.0000000000000p+0",
                      ("0x1.99999aac9818ep-3", "-0x1.9822c9c712505p-4", "-0x1.fffff7e8fa563p-1")),
    ("concave_quadratic", 0): ("0x1.3a4f98aa56cebp-5", "-0x1.6147adcfcc849p-1",
                               ("0x1.aa09ba3476a11p-12", "-0x1.223438107dac5p-7",
                                "-0x1.614773881bbb5p-1")),
    ("concave_quadratic", 1): ("0x0.0p+0", "0x0.0p+0", ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0")),
    ("concave_quadratic", 2): ("0x0.0p+0", "0x0.0p+0", ("0x0.0p+0", "0x0.0p+0", "0x0.0p+0")),
    ("concave_quadratic", 3): ("-0x1.12a04e8a020a4p-1", "-0x1.8000000000000p+1",
                               ("0x1.64d020ab15476p-4", "-0x1.ea83d0f3ab2f8p-5",
                                "-0x1.7fffdfa3eb31fp+1")),
    ("saddle_shift", 0): ("0x1.1eb851eb851ebp-3", "0x0.0p+0",
                          ("0x1.219669f7650e2p-15", "0x1.ffc1e98f00260p-11",
                           "0x1.8854f0d87b5c4p-36")),
    ("saddle_shift", 1): ("0x1.99999886bccb1p-3", "-0x1.70a3d680cc716p-2",
                          ("0x1.a22e80e978bf7p-7", "-0x1.2ceb9940c011ep-7",
                           "-0x1.70a3bd6875e8bp-2")),
    ("saddle_shift", 2): ("0x1.99999886bccb1p-3", "-0x1.70a3d680cc716p-2",
                          ("0x1.a22e80e978bf7p-7", "-0x1.2ceb9940c011ep-7",
                           "-0x1.70a3bd6875e8bp-2")),
    ("saddle_shift", 3): ("-0x1.666666ab31f34p-1", "-0x1.d1eb851eb851ep+0",
                          ("0x1.ae147b6ac70bcp-2", "0x1.47ae1d12d7220p-6",
                           "-0x1.d1eb7d311e4a2p+0")),
}


def test_toy_duality_gap_reports_keep_their_pinned_bytes():
    # the float stencil's reports equal those of the stacked numpy stencil,
    # signed zeros included: at the +-0 points a -0.0 value would show here
    cfg = replace(TOY_CFG, worst_iters=40)
    for game in shipped_games():
        for i, (d, g) in enumerate(_PINNED_POINTS):
            v_dw, v_gw_plain, v_gw_lambdas = _PINNED_REPORTS[game.name, i]
            for lam, v_gw_lambda in zip(_PINNED_LAMBDAS, v_gw_lambdas):
                report = duality_gap(ToyGameState(game, d, g), None, replace(cfg, lam=lam),
                                     Rng(17 + i))
                got = [float(x).hex() for x in (report.v_dw, report.v_gw_plain,
                                                report.v_gw_lambda)]
                assert got == [v_dw, v_gw_plain, v_gw_lambda], (game.name, i, lam)


def test_toy_searches_build_one_stencil_per_search(monkeypatch):
    # the opponent stays fixed through the v_dw and v_gw_plain searches, so
    # each builds its stencil once, not once per outer step
    builds = []
    real = gapmetrics.toy_stencil
    monkeypatch.setattr(gapmetrics, "toy_stencil",
                        lambda game, fixed, wrt, n: builds.append(wrt) or real(game, fixed, wrt, n))
    state = ToyGameState(bilinear(), np.array([0.3]), np.array([-0.2]))
    cfg = replace(TOY_CFG, worst_iters=40)
    estimate_v_dw(state, None, cfg, Rng(1))
    assert builds == ["d"]
    builds.clear()
    estimate_v_gw_plain(state, None, cfg, Rng(1))
    assert builds == ["g"]


def test_only_oracles_builds_the_toy_stencil():
    # one toy stencil: no other source module names its offsets or its step
    src = Path(gapmetrics.__file__).resolve().parent
    holders = []
    for path in sorted(src.rglob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
        names |= {alias.name for node in ast.walk(tree)
                  if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        if names & {"_stencil_offsets", "_TOY_FD_H"}:
            holders.append(path.relative_to(src).as_posix())
    assert holders == ["oracles.py"]


def test_toy_prox_value_matches_grid_oracle():
    # worst_iters=0 returns the penalized objective at the current configuration
    game = concave_quadratic()
    cfg = replace(TOY_CFG, worst_iters=0)
    rng = Rng(11)
    for lam in (0.0, 0.1, 1.0, 10.0):
        for i in range(3):
            d = np.array([rng.uniform(-1, 1, ())])
            g = np.array([rng.uniform(-1, 1, ())])
            est = estimate_v_gw_lambda(ToyGameState(game, d, g), None,
                                       replace(cfg, lam=lam), Rng(100 + i))
            oracle = grid_v_lambda(game, d, g, lam, GridSpec(401))
            assert est == pytest.approx(oracle, abs=1e-2)


# -- worst-case estimators --------------------------------------------------


def test_v_dw_classic_perfect_generator_near_minus_log4():
    g_spec, theta_g, splits, rng = _perfect_fit_setup()
    d_spec = NetworkSpec(2, (16,), 1, output_head="sigmoid")
    state = GanState(d_spec, g_spec, init_network(d_spec, rng.child(0)), theta_g, Classic())
    cfg = ProximalConfig(worst_iters=150, worst_lr=5e-3, batch_size=128)
    v = estimate_v_dw(state, splits, cfg, rng.child(2))
    assert v == pytest.approx(-np.log(4.0), abs=0.15)


def test_v_dw_wasserstein_floor():
    g_spec, theta_g, splits, rng = _perfect_fit_setup()
    d_spec = NetworkSpec(2, (16,), 1)
    wgan = WassersteinClip(0.01)
    theta_d = ParamVector(enforce_constraint(wgan, init_network(d_spec, rng.child(3)).values))
    state = GanState(d_spec, g_spec, theta_d, theta_g, wgan)
    cfg = ProximalConfig(worst_iters=150, worst_lr=5e-3, batch_size=128)
    v = estimate_v_dw(state, splits, cfg, rng.child(4))
    assert v >= -0.05


def test_estimators_with_zero_iterations_return_current_values():
    state = _small_classic_state()
    dist = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    splits = make_splits(dist, 200, 100, 100, Rng(12))
    cfg = ProximalConfig(worst_iters=0, batch_size=32)
    rng_seed = 77
    v_dw = estimate_v_dw(state, splits, cfg, Rng(rng_seed))
    v_plain = estimate_v_gw_plain(state, splits, cfg, Rng(rng_seed))
    eval_latent = Rng(rng_seed).child(0).normal((100, 2))
    direct = eval_objective(state, splits.s_c, eval_latent)
    assert v_dw == pytest.approx(direct, abs=1e-12)
    assert v_plain == pytest.approx(direct, abs=1e-12)
    # the penalized path computes the inner maximum even with no outer steps
    v_lam = estimate_v_gw_lambda(state, splits, cfg, Rng(rng_seed))
    assert v_lam >= direct - 1e-9


# The desk session of perfbench/workloads.py with worst_iters 6: on seeds 4
# and 15 the Adam search ends below the held-out value at its starting point.
_DESK_PAIRS = {
    "train.steps": 40, "train.checkpoint_every": 40, "train.ratio": 2,
    "train.batch": 256, "optim.lr_d": "1e-3", "optim.lr_g": "3e-4",
    "disc.hidden": "32 32", "gen.hidden": "32 32", "latent.dim": 4,
    "distribution.means": "-1.2 0; 1.2 0", "distribution.variances": "0.09 0.09; 0.09 0.09",
    "prox.lambda": 0.1, "prox.steps": 20, "prox.worst_iters": 6, "prox.worst_lr": "5e-3",
    "prox.batch": 128,
}


@pytest.mark.parametrize("seed", [4, 15])
def test_v_dw_never_below_the_unmoved_discriminator(tmp_path, seed):
    from proxgap.harness import config_from_pairs, gap_cmd, load_checkpoint, rebuild_splits, train
    from proxgap.harness.runner import _TAG_GAP

    pairs = {"seed": str(seed), "out": str(tmp_path / "run"),
             **{k: str(v) for k, v in _DESK_PAIRS.items()}}
    ckpt_path = train(config_from_pairs(pairs)) / "checkpoint_000040.npz"
    ckpt = load_checkpoint(ckpt_path)
    splits = rebuild_splits(ckpt.cfg)
    # gap_cmd's evaluation batch, drawn from the gap stream at the checkpoint step
    eval_latent = Rng(seed).child(_TAG_GAP, ckpt.step).child(gapmetrics._EVAL_TAG).normal(
        (splits.s_c.shape[0], ckpt.state.latent_dim))
    v0 = eval_objective(ckpt.state, splits.s_c, eval_latent)
    assert gap_cmd(ckpt_path).v_dw >= v0


def test_v_gw_plain_bilinear_corner():
    state = ToyGameState(bilinear(), np.array([1.0]), np.array([1.0]))
    v = estimate_v_gw_plain(state, None, TOY_CFG, Rng(13))
    assert v == pytest.approx(-1.0, abs=0.05)


def test_plain_never_exceeds_penalized_min_on_toys():
    rng = Rng(14)
    for game in shipped_games():
        for i in range(3):
            d = np.array([rng.uniform(*game.d_box[0], ())])
            g = np.array([rng.uniform(*game.g_box[0], ())])
            state = ToyGameState(game, d, g)
            plain = estimate_v_gw_plain(state, None, TOY_CFG, Rng(200 + i))
            lam = estimate_v_gw_lambda(state, None, TOY_CFG, Rng(200 + i))
            assert plain <= lam + 0.05


# -- duality_gap ------------------------------------------------------------


def test_report_arithmetic_is_exact():
    state = _small_classic_state()
    dist = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    splits = make_splits(dist, 200, 100, 100, Rng(15))
    cfg = ProximalConfig(worst_iters=5, batch_size=32)
    rep = duality_gap(state, splits, cfg, Rng(16))
    assert rep.dg_lambda == rep.v_dw - rep.v_gw_lambda
    assert rep.dg_plain == rep.v_dw - rep.v_gw_plain


def test_report_derives_its_gaps():
    # the gaps are the same subtractions the estimators once stored, computed
    # on read, and lam is read off the config; none of them can be passed in,
    # so they cannot disagree
    v_dw, v_gw_lambda, v_gw_plain = 0.1, np.float64(-0.7), -1.0 / 3.0
    cfg = ProximalConfig(lam=0.1, worst_iters=1, prox_steps=1)
    rep = GapReport(v_dw=v_dw, v_gw_lambda=v_gw_lambda, v_gw_plain=v_gw_plain, cfg=cfg, seed=0)
    assert _hex(rep.dg_lambda) == _hex(v_dw - v_gw_lambda)
    assert _hex(rep.dg_plain) == _hex(v_dw - v_gw_plain)
    assert type(rep.dg_lambda) is type(v_dw - v_gw_lambda)
    assert rep.lam == cfg.lam
    assert list(GapReport.__dataclass_fields__) == [
        "v_dw", "v_gw_lambda", "v_gw_plain", "cfg", "seed"]
    with pytest.raises(TypeError):
        GapReport(v_dw=1.0, v_gw_lambda=0.5, dg_lambda=0.4, v_gw_plain=0.5,
                  dg_plain=0.5, cfg=cfg, seed=0)
    with pytest.raises(TypeError):
        GapReport(v_dw=1.0, v_gw_lambda=0.5, v_gw_plain=0.5, cfg=cfg, seed=0, lam=0.1)
    with pytest.raises(AttributeError):
        rep.dg_lambda = 0.0
    with pytest.raises(AttributeError):
        rep.lam = 1.0


@pytest.mark.parametrize("game", shipped_games(), ids=lambda g: g.name)
def test_gradient_gaps_match_grid_oracle(game):
    rng = Rng(17)
    grid = GridSpec(401)
    for i in range(3):
        d = np.array([rng.uniform(*game.d_box[0], ())])
        g = np.array([rng.uniform(*game.g_box[0], ())])
        rep = duality_gap(ToyGameState(game, d, g), None, TOY_CFG, Rng(300 + i))
        assert rep.dg_plain == pytest.approx(grid_dg(game, (d, g), grid), abs=0.05)
        assert rep.dg_lambda == pytest.approx(
            grid_dg_lambda(game, (d, g), TOY_CFG.lam, grid), abs=0.05)


def test_lambda_sweep_singleton_and_order():
    state = ToyGameState(bilinear(), np.array([0.6]), np.array([-0.3]))
    single = lambda_sweep(state, None, [0.1], TOY_CFG, Rng(18))
    direct = duality_gap(state, None, TOY_CFG, Rng(18))
    assert len(single) == 1
    assert single[0][0] == 0.1
    assert single[0][1] == direct
    multi = lambda_sweep(state, None, [1.0, 0.01, 0.1], TOY_CFG, Rng(18))
    assert [lam for lam, _ in multi] == [0.01, 0.1, 1.0]
    # shared seeds: the lambda-independent side is identical across runs
    assert len({rep.v_dw for _, rep in multi}) == 1


def _small_gan_setup():
    state = _small_classic_state()
    dist = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    splits = make_splits(dist, 200, 100, 100, Rng(20))
    cfg = ProximalConfig(prox_steps=4, worst_iters=3, batch_size=32)
    return state, splits, cfg


def test_lambda_sweep_rows_equal_per_lambda_gaps():
    lams = [0.0, 0.1, 10.0]
    toy = ToyGameState(concave_quadratic(), np.array([0.4]), np.array([-0.2]))
    gan, splits, gan_cfg = _small_gan_setup()
    for state, data, cfg in ((toy, None, TOY_CFG), (gan, splits, gan_cfg)):
        rows = lambda_sweep(state, data, lams, cfg, Rng(21))
        assert [lam for lam, _ in rows] == lams
        for lam, report in rows:
            assert report == duality_gap(state, data, replace(cfg, lam=lam), Rng(21))


def test_a_known_report_gives_the_rows_of_a_recomputation():
    # reuse of a report estimated at another lambda on the same state, splits
    # and stream: every row equals the one estimated from scratch
    lams = [0.0, 0.1, 10.0]
    toy = ToyGameState(concave_quadratic(), np.array([0.4]), np.array([-0.2]))
    gan, splits, gan_cfg = _small_gan_setup()
    for state, data, cfg in ((toy, None, TOY_CFG), (gan, splits, gan_cfg)):
        for known_lam in (0.1, 1.0):
            known = duality_gap(state, data, replace(cfg, lam=known_lam), Rng(21))
            assert lambda_sweep(state, data, lams, cfg, Rng(21), known) == \
                lambda_sweep(state, data, lams, cfg, Rng(21))
            assert duality_gap(state, data, cfg, Rng(21), known) == \
                duality_gap(state, data, cfg, Rng(21))
        for other_rng, other_cfg in ((Rng(22), cfg), (Rng(21), replace(cfg, worst_iters=2))):
            with pytest.raises(ValueError, match="another stream or budget"):
                duality_gap(state, data, other_cfg, other_rng, known)


@pytest.mark.parametrize("field, value", [
    ("prox_lr", 0.1), ("worst_lr", 0.05), ("batch_size", 16),
])
def test_a_known_report_of_another_budget_is_refused(field, value):
    # a report's identity is its whole config but lam, and its stream: one
    # estimated under another rate or batch is not reused
    toy = ToyGameState(bilinear(), np.array([0.4]), np.array([-0.3]))
    gan, splits, gan_cfg = _small_gan_setup()
    for state, data, cfg in ((toy, None, replace(TOY_CFG, worst_iters=20)), (gan, splits, gan_cfg)):
        known = duality_gap(state, data, cfg, Rng(5))
        other = replace(cfg, **{field: value})
        with pytest.raises(ValueError, match="another stream or budget"):
            duality_gap(state, data, other, Rng(5), known)
        with pytest.raises(ValueError, match="another stream or budget"):
            lambda_sweep(state, data, [0.01, cfg.lam], other, Rng(5), known)
        # under the same config at another lambda the report is reused
        assert duality_gap(state, data, replace(cfg, lam=1.0), Rng(5), known) == \
            duality_gap(state, data, replace(cfg, lam=1.0), Rng(5))


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_search_whose_gradient_overflows_adam_fails_by_name():
    # 1e300 squares to inf in Adam's second moment, which would freeze that
    # coordinate on every later step; the search stops with a named failure
    steps = gapmetrics._adam_search(np.zeros(2), lambda params, batch: np.array([1e300, 1.0]),
                                    lambda params: params, lambda: None, 0.01, 3)
    assert np.array_equal(next(steps), np.zeros(2))
    with pytest.raises(NonFiniteError) as err:
        next(steps)
    assert err.value.op == "adam"
    # and so do the estimators' searches on a game that steep
    steep = ToyGameState(ToyGame("steep", lambda d, g: 1e300 * d[0] * g[0],
                                 ((-1.0, 1.0),), ((-1.0, 1.0),)), [0.5], [0.5])
    for estimate in (estimate_v_dw, estimate_v_gw_lambda, estimate_v_gw_plain):
        with pytest.raises(NonFiniteError) as err:
            estimate(steep, None, TOY_CFG, Rng(3))
        assert err.value.op == "adam", estimate.__name__
    with pytest.raises(NonFiniteError) as err:
        unilateral_deviation(steep, None, steps=5, lr=0.01, eval_every=1, rng=Rng(3))
    assert err.value.op == "adam"


def test_lambda_sweep_estimates_lambda_independent_terms_once(monkeypatch):
    calls = {}

    def counted(name):
        original = getattr(gapmetrics, name)

        def wrapper(*args, **kwargs):
            calls[name] = calls.get(name, 0) + 1
            return original(*args, **kwargs)

        monkeypatch.setattr(gapmetrics, name, wrapper)

    for name in ("estimate_v_dw", "estimate_v_gw_plain", "estimate_v_gw_lambda"):
        counted(name)
    state, splits, cfg = _small_gan_setup()
    lambda_sweep(state, splits, [0.01, 0.1, 1.0, 1e6], cfg, Rng(22))
    assert calls == {"estimate_v_dw": 1, "estimate_v_gw_plain": 1, "estimate_v_gw_lambda": 4}
    # a repeated lambda is estimated once, and each of its rows is duality_gap's
    calls.clear()
    toy = ToyGameState(concave_quadratic(), np.array([0.4]), np.array([-0.2]))
    rows = lambda_sweep(toy, None, [0.1, 0.1, 0.1], TOY_CFG, Rng(22))
    assert calls == {"estimate_v_dw": 1, "estimate_v_gw_plain": 1, "estimate_v_gw_lambda": 1}
    assert rows == [(0.1, duality_gap(toy, None, TOY_CFG, Rng(22)))] * 3


def test_lambda_sweep_rejects_empty():
    state = ToyGameState(bilinear(), np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        lambda_sweep(state, None, [], TOY_CFG, Rng(19))


def test_config_validation():
    with pytest.raises(ValueError):
        ProximalConfig(lam=-0.1)
    with pytest.raises(ValueError):
        ProximalConfig(prox_steps=0)
    with pytest.raises(ValueError):
        ProximalConfig(prox_lr=0.0)
    # budgets are integers: a float or a bool is refused, a numpy integer taken
    for field, value in (("prox_steps", 2.5), ("worst_iters", 3.5), ("batch_size", 32.0),
                         ("prox_steps", True), ("worst_iters", False), ("batch_size", "32")):
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            ProximalConfig(**{field: value})
    cfg = ProximalConfig(prox_steps=np.int64(3), worst_iters=np.int32(0),
                         batch_size=np.uint8(16))
    assert (cfg.prox_steps, cfg.worst_iters, cfg.batch_size) == (3, 0, 16)
    # each refusal names its field and value
    for field, value, message in (("prox_steps", 0, "prox_steps must be at least 1, got 0"),
                                  ("worst_iters", -1, "worst_iters must be at least 0, got -1"),
                                  ("batch_size", 0, "batch_size must be at least 1, got 0"),
                                  ("lam", -0.1, "lam must be nonnegative, got -0.1"),
                                  ("prox_lr", 0.0, "prox_lr must be positive, got 0.0"),
                                  ("worst_lr", -1.0, "worst_lr must be positive, got -1.0")):
        with pytest.raises(ValueError) as info:
            ProximalConfig(**{field: value})
        assert str(info.value) == message
    # the penalty weight, the budgets and the rates; the stencil step is a constant
    assert [f.name for f in fields(ProximalConfig)] == [
        "lam", "prox_steps", "prox_lr", "worst_iters", "worst_lr", "batch_size"]

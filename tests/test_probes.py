import numpy as np
import pytest

import ast
import inspect

from proxgap import probes
from proxgap.diffcore import (
    MlpWorkspace,
    NetworkSpec,
    ParamVector,
    Rng,
    adam_init,
    adam_step,
    finite_value_and_grad,
    forward,
    hvp,
    init_network,
    mlp_backward,
    mlp_forward,
)
from proxgap.diffcore.engine import grad_params
from proxgap.diffcore.network import forward_graph
from proxgap.distributions import GaussianMixture, make_splits
from proxgap.gapmetrics import ToyGameState
from proxgap.objectives import (
    Classic,
    GanState,
    WassersteinClip,
    enforce_constraint,
    eval_objective,
    objective_from_outputs,
    output_grads,
    value_and_grad_g,
    value_graph,
)
from proxgap.oracles import (
    ToyGame,
    bilinear,
    jsd_from_samples,
    shipped_games,
    toy_value,
)
from proxgap.probes import (
    DISCRIMINATOR,
    GENERATOR,
    NASH_TOL,
    PROBE_BATCH,
    DeviationTrace,
    SpectrumReport,
    TracePoint,
    _agent_grad,
    hessian_spectrum_probe,
    unilateral_deviation,
)

from toy_grads import toy_value_and_grad


def _quadratic_game(diag):
    """d is irrelevant; the generator loss is 0.5 g' diag(a) g."""
    a = np.asarray(diag, dtype=np.float64).tolist()
    return ToyGame("quadratic_probe",
                   lambda d, g: 0.5 * sum(a_j * g_j * g_j for a_j, g_j in zip(a, g)),
                   ((-1.0, 1.0),),
                   tuple((-5.0, 5.0) for _ in a))


def _gan_setup(seed=0):
    d_spec = NetworkSpec(2, (8,), 1, output_head="sigmoid", activation="tanh")
    g_spec = NetworkSpec(2, (8,), 2, activation="tanh")
    rng = Rng(seed)
    state = GanState(d_spec, g_spec, init_network(d_spec, rng.child(0)),
                     init_network(g_spec, rng.child(1)), Classic())
    dist = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    splits = make_splits(dist, 400, 200, 200, rng.child(2))
    return state, splits


def _clipped_setup(seed=14, n_eval=200):
    """A weight-clipped tanh critic on its box edge, with its data splits."""
    d_spec = NetworkSpec(2, (8,), 1, activation="tanh")
    g_spec = NetworkSpec(2, (8,), 2, activation="tanh")
    rng = Rng(seed)
    objective = WassersteinClip(0.05)
    theta_d = ParamVector(enforce_constraint(objective, init_network(d_spec, rng.child(0)).values))
    state = GanState(d_spec, g_spec, theta_d, init_network(g_spec, rng.child(1)), objective)
    dist = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    splits = make_splits(dist, 400, 200, n_eval, rng.child(2))
    assert np.mean(np.abs(theta_d.values) == objective.clip) > 0.5
    return state, splits


def _toy_states():
    rng = np.random.default_rng(3)
    quad = _quadratic_game([2.0, -1.0])
    for game in shipped_games() + (quad,):
        yield ToyGameState(game, [rng.uniform(lo, hi) for lo, hi in game.d_box],
                           [rng.uniform(lo, hi) for lo, hi in game.g_box])


# -- the probes' former machinery, kept as references ------------------------------
#
# The probes once ran their own Adam descent and built their own gradients;
# they now walk the estimators' search and use the estimators' game
# operations.  These are the former code paths, and the probes must keep
# their bytes.


def _reference_deviation(state, splits, steps, lr, eval_every, rng, bins=16):
    """The deviation probe's own Adam loop, as it was."""
    is_gan = isinstance(state, GanState)
    if is_gan:
        eval_real = splits.s_c
        eval_latent = rng.child(0).normal((eval_real.shape[0], state.latent_dim))
        box = [(eval_real[:, j].min() - 1.0, eval_real[:, j].max() + 1.0)
               for j in range(eval_real.shape[1])]

        def eval_point(theta_g):
            v = eval_objective(state.with_params(theta_g=ParamVector(theta_g)), eval_real,
                               eval_latent)
            fake = forward(state.g_spec, theta_g, eval_latent)
            return v, jsd_from_samples(eval_real, fake, bins=bins, box=box)

        g = state.theta_g.values
    else:
        def eval_point(g_vec):
            return toy_value(state.game, state.d, g_vec), None

        g = state.g.copy()
    points = [TracePoint(0, *eval_point(g))]
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
            g = g.clip(*np.array(state.game.g_box).T)
        if eval_every > 0 and (step % eval_every == 0 or step == steps):
            points.append(TracePoint(step, *eval_point(g)))
    return DeviationTrace(tuple(points))


def _reference_agent_grad(state, splits, agent, rng):
    """The spectrum probe's gradients, as they were: ``value_and_grad_g`` for the
    generator, and for the critic a hand-built kernel pass over the fixed
    [real; generated] rows in one workspace; the toy stencil for toy games."""
    if isinstance(state, ToyGameState):
        if agent == GENERATOR:
            return lambda g: toy_value_and_grad(state.game, state.d, g, "g")[1]
        return lambda d: toy_value_and_grad(state.game, d, state.g, "d")[1]
    n = min(PROBE_BATCH, splits.s_c.shape[0])
    real = splits.s_c[:n]
    latent = rng.child(0).normal((n, state.latent_dim))
    if agent == GENERATOR:
        return lambda theta_g: value_and_grad_g(state, state.theta_d, theta_g,
                                                real, latent)[1]
    rows = np.vstack([real, forward(state.g_spec, state.theta_g, latent)])
    work = MlpWorkspace(state.d_spec)

    def grad_d(theta_d):
        out, cache = mlp_forward(state.d_spec, theta_d, rows, work)
        value, grad_out = output_grads(state.objective, out, n)
        return finite_value_and_grad(
            value, mlp_backward(state.d_spec, theta_d, cache, grad_out)[0])[1]

    return grad_d


def _trace_bytes(trace):
    return [(p.step, np.float64(p.value).tobytes(),
             None if p.divergence is None else np.float64(p.divergence).tobytes())
            for p in trace.points]


def _gan_cases():
    yield "classic", *_gan_setup(seed=3)
    yield "classic-small-train", _gan_setup(seed=4)[0], make_splits(
        GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]]), 60, 40, 50, Rng(6))
    yield "clipped", *_clipped_setup()
    yield "clipped-long-eval", *_clipped_setup(seed=17, n_eval=PROBE_BATCH + 52)


@pytest.mark.parametrize("steps,eval_every", [(30, 7), (12, 0), (10, 10), (0, 3)])
def test_deviation_trace_keeps_the_former_loops_bytes(steps, eval_every):
    cases = list(_gan_cases()) + [(s.game.name, s, None) for s in _toy_states()]
    for name, state, splits in cases:
        lr = 1e-3 if splits is not None else 0.05
        got = unilateral_deviation(state, splits, steps, lr, eval_every, Rng(21))
        want = _reference_deviation(state, splits, steps, lr, eval_every, Rng(21))
        assert _trace_bytes(got) == _trace_bytes(want), name


@pytest.mark.parametrize("agent", [GENERATOR, DISCRIMINATOR])
def test_spectrum_gradients_keep_the_former_bytes(agent):
    cases = list(_gan_cases()) + [(s.game.name, s, None) for s in _toy_states()]
    for name, state, splits in cases:
        grad_fn, theta = _agent_grad(state, splits, agent, Rng(22))
        want_fn = _reference_agent_grad(state, splits, agent, Rng(22))
        directions = Rng(23).normal((3, theta.size))
        # theta and the points theta +/- h v at which hvp evaluates the gradient
        for point in [theta] + [theta + s * 1e-4 * v for v in directions for s in (1, -1)]:
            assert grad_fn(point).tobytes() == want_fn(point).tobytes(), (name, agent)
        h = 1e-4 * (1.0 + np.linalg.norm(theta))
        v = Rng(25).normal(theta.size)
        assert hvp(grad_fn, theta, v, h).tobytes() == hvp(want_fn, theta, v, h).tobytes()
    report = hessian_spectrum_probe(state, splits, agent, k=1, rng=Rng(24))
    assert report.tolerance == probes.NASH_TOL == 1e-3


def test_probes_hold_no_kernel_adam_or_toy_gradient_code():
    # the probes take gradients and the Adam search from gapmetrics
    banned = {"mlp_forward", "mlp_backward", "MlpWorkspace", "output_grads",
              "finite_value_and_grad", "adam_step", "toy_value_and_grad"}
    tree = ast.parse(inspect.getsource(probes))
    names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    names |= {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    names |= {alias.name for node in ast.walk(tree)
              if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
    assert not banned & names
    assert not [name for name in banned if hasattr(probes, name)]


# -- unilateral deviation ----------------------------------------------------


def test_deviation_zero_eval_interval_single_point():
    state = ToyGameState(bilinear(), np.array([0.5]), np.array([0.2]))
    trace = unilateral_deviation(state, None, steps=50, lr=0.05, eval_every=0, rng=Rng(1))
    assert len(trace.points) == 1
    assert trace.points[0].step == 0


def test_deviation_at_zero_eval_interval_takes_no_step(monkeypatch):
    # only the start is recorded, so no generator gradient is taken; the
    # trace keeps the former loop's bytes, which ran every step regardless.
    # Toy gradients are counted as calls of the toy stencil's partials, GAN
    # gradients as value_and_grad_g calls.
    from proxgap import gapmetrics
    calls = []
    real = gapmetrics.value_and_grad_g
    monkeypatch.setattr(gapmetrics, "value_and_grad_g",
                        lambda *a, **k: calls.append(1) or real(*a, **k))
    real_stencil = gapmetrics.toy_stencil

    def counting_stencil(*args):
        partials, value = real_stencil(*args)
        return (lambda x: calls.append(1) or partials(x)), value

    monkeypatch.setattr(gapmetrics, "toy_stencil", counting_stencil)
    toy = ToyGameState(bilinear(), np.array([0.8]), np.array([0.5]))
    gan, splits = _gan_setup()
    for state, data, lr in ((toy, None, 0.05), (gan, splits, 1e-3)):
        trace = unilateral_deviation(state, data, steps=200, lr=lr, eval_every=0, rng=Rng(4))
        assert not calls
        want = _reference_deviation(state, data, 200, lr, 0, Rng(4))
        assert _trace_bytes(trace) == _trace_bytes(want)
        calls.clear()
        unilateral_deviation(state, data, steps=200, lr=lr, eval_every=50, rng=Rng(4))
        assert len(calls) == 200
        calls.clear()


def test_deviation_zero_steps_single_point():
    state, splits = _gan_setup()
    trace = unilateral_deviation(state, splits, steps=0, lr=0.01, eval_every=5, rng=Rng(2))
    assert len(trace.points) == 1


def test_deviation_cannot_improve_at_toy_nash():
    state = ToyGameState(bilinear(), np.array([0.0]), np.array([0.0]))
    trace = unilateral_deviation(state, None, steps=100, lr=0.05, eval_every=10, rng=Rng(3))
    assert np.max(np.abs(trace.values - trace.values[0])) < 1e-3


def test_deviation_descends_away_from_non_nash():
    # movable generator against a frozen discriminator strictly lowers V
    state = ToyGameState(bilinear(), np.array([0.8]), np.array([0.5]))
    trace = unilateral_deviation(state, None, steps=200, lr=0.05, eval_every=50, rng=Rng(4))
    assert trace.points[-1].value < trace.points[0].value - 0.5


@pytest.mark.parametrize("lr", [-0.05, 0.0, float("nan"), float("inf"), float("-inf")])
def test_deviation_rejects_a_rate_that_cannot_descend(lr):
    # at lr = -0.05 the bilinear trace would climb from 0.25 to 0.5
    state = ToyGameState(bilinear(), np.array([0.5]), np.array([0.5]))
    with pytest.raises(ValueError, match="lr must be positive and finite"):
        unilateral_deviation(state, None, steps=50, lr=lr, eval_every=10, rng=Rng(4))
    trace = unilateral_deviation(state, None, steps=50, lr=0.05, eval_every=10, rng=Rng(4))
    assert trace.values[-1] < trace.values[0] == 0.25


def test_deviation_rejects_a_negative_eval_interval():
    state = ToyGameState(bilinear(), np.array([0.5]), np.array([0.5]))
    with pytest.raises(ValueError, match="eval_every must be nonnegative"):
        unilateral_deviation(state, None, steps=50, lr=0.05, eval_every=-3, rng=Rng(4))


def test_deviation_gan_records_divergence_and_is_pure():
    state, splits = _gan_setup()
    before_d = state.theta_d.values.copy()
    before_g = state.theta_g.values.copy()
    trace = unilateral_deviation(state, splits, steps=20, lr=0.01, eval_every=10, rng=Rng(5))
    assert np.array_equal(state.theta_d.values, before_d)
    assert np.array_equal(state.theta_g.values, before_g)
    assert all(p.divergence is not None for p in trace.points)
    assert all(np.isfinite(p.value) for p in trace.points)


def test_trace_validation():
    with pytest.raises(ValueError):
        DeviationTrace((TracePoint(0, 1.0, None), TracePoint(0, 2.0, None)))
    with pytest.raises(ValueError):
        DeviationTrace((TracePoint(0, np.nan, None),))


# -- hessian spectrum --------------------------------------------------------


def test_spectrum_constructed_saddle():
    state = ToyGameState(_quadratic_game([2.0, -1.0]), np.array([0.0]),
                         np.array([0.3, -0.2]))
    report = hessian_spectrum_probe(state, None, GENERATOR, k=2, rng=Rng(6))
    assert report.eigenvalues[0] == pytest.approx(2.0, abs=1e-3)
    assert report.eigenvalues[1] == pytest.approx(-1.0, abs=1e-3)
    assert report.nash_consistent is False


def test_spectrum_convex_quadratic_consistent():
    state = ToyGameState(_quadratic_game([2.0, 2.0]), np.array([0.0]),
                         np.array([0.3, -0.2]))
    report = hessian_spectrum_probe(state, None, GENERATOR, k=2, rng=Rng(7))
    assert np.allclose(report.eigenvalues, 2.0, atol=1e-3)
    assert report.nash_consistent is True


def test_spectrum_sees_a_doubled_curvature():
    # the top two eigenvalues are both 2, so the saddle direction is not among them
    state = ToyGameState(_quadratic_game([2.0, 2.0, -1.0]), np.array([0.0]),
                         np.array([0.3, -0.2, 0.1]))
    for seed in range(10, 20):
        report = hessian_spectrum_probe(state, None, GENERATOR, k=2, rng=Rng(seed))
        assert np.allclose(report.eigenvalues, 2.0, atol=1e-3)
        assert report.nash_consistent is True
        assert all(report.converged)


def test_spectrum_discriminator_sign_convention():
    # concave in d: eigenvalues negative -> consistent for the discriminator
    game = ToyGame("concave_d", lambda d, g: -d[0] * d[0],
                   ((-1.0, 1.0),), ((-1.0, 1.0),))
    state = ToyGameState(game, np.array([0.2]), np.array([0.0]))
    report = hessian_spectrum_probe(state, None, DISCRIMINATOR, k=1, rng=Rng(8))
    assert report.eigenvalues[0] == pytest.approx(-2.0, abs=1e-3)
    assert report.nash_consistent is True


def _graph_agent_grad(state, splits, agent, rng):
    """The graph oracle of ``probes._agent_grad``: ``grad_params`` over the
    objective's graph on the same probe batch, the other agent frozen."""
    n = min(PROBE_BATCH, splits.s_c.shape[0])
    real = splits.s_c[:n]
    latent = rng.child(0).normal((n, state.latent_dim))
    if agent == GENERATOR:
        return lambda th: grad_params(
            lambda t: value_graph(state, state.theta_d, t, real, latent), th)
    fake = forward(state.g_spec, state.theta_g, latent)
    # not value_graph: it checks the clip box, which theta_d +/- h v leaves
    return lambda th: grad_params(lambda t: objective_from_outputs(
        state.objective, forward_graph(state.d_spec, t, real),
        forward_graph(state.d_spec, t, fake)), th)


def _dense_oracle_hessian(state, splits, agent, rng):
    """The agent's Hessian, column by column, from the graph oracle's hvp at
    the probe's step h; symmetrized."""
    params = state.theta_g if agent == GENERATOR else state.theta_d
    h = 1e-4 * (1.0 + np.linalg.norm(params.values))
    grad_fn = _graph_agent_grad(state, splits, agent, rng)
    cols = np.array([hvp(grad_fn, params, e, h) for e in np.eye(len(params))])
    return 0.5 * (cols + cols.T)


def _top_by_magnitude(mat, k):
    dense = np.linalg.eigvalsh(mat)
    return dense[np.argsort(-np.abs(dense))][:k]


def test_spectrum_matches_dense_solver_on_small_net():
    state, splits = _gan_setup(seed=9)
    # the probe's kernel gradient is its graph oracle's to rounding
    grad_fn, theta = _agent_grad(state, splits, GENERATOR, Rng(10))
    oracle = _graph_agent_grad(state, splits, GENERATOR, Rng(10))(theta)
    assert np.linalg.norm(grad_fn(theta) - oracle) <= 1e-12 * np.linalg.norm(oracle)
    top = _top_by_magnitude(_dense_oracle_hessian(state, splits, GENERATOR, Rng(10)), 3)
    report = hessian_spectrum_probe(state, splits, GENERATOR, k=3, rng=Rng(10))
    assert np.allclose(report.eigenvalues, top, atol=1e-3)


def test_spectrum_of_a_clipped_critic_matches_the_graph_oracle():
    # a weight-clipped critic sits on its box edge, so theta_d +/- h v leaves
    # the box; the probe checks the box at the state only
    state, splits = _clipped_setup()
    report = hessian_spectrum_probe(state, splits, DISCRIMINATOR, k=3, rng=Rng(15))
    top = _top_by_magnitude(_dense_oracle_hessian(state, splits, DISCRIMINATOR, Rng(15)), 3)
    assert all(report.converged)
    np.testing.assert_allclose(report.eigenvalues, top, rtol=1e-6)


@pytest.mark.parametrize("agent", [GENERATOR, DISCRIMINATOR])
def test_spectrum_flags_converged_at_the_default_tolerance(agent):
    # a 1e-8 residual tolerance lies below the central difference's h^2 floor
    # here, and every flag reads False however long the iteration runs
    d_spec = NetworkSpec(2, (16, 16), 1, output_head="sigmoid", activation="tanh")
    g_spec = NetworkSpec(2, (16, 16), 2, activation="tanh")
    rng = Rng(0)
    state = GanState(d_spec, g_spec, init_network(d_spec, rng.child(0)),
                     init_network(g_spec, rng.child(1)), Classic())
    dist = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    splits = make_splits(dist, 400, 200, 200, rng.child(2))
    report = hessian_spectrum_probe(state, splits, agent, k=3, rng=Rng(1))
    assert all(report.converged)


def test_spectrum_requires_tanh():
    d_spec = NetworkSpec(2, (8,), 1, output_head="sigmoid", activation="relu")
    g_spec = NetworkSpec(2, (8,), 2, activation="tanh")
    rng = Rng(11)
    state = GanState(d_spec, g_spec, init_network(d_spec, rng.child(0)),
                     init_network(g_spec, rng.child(1)), Classic())
    dist = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    splits = make_splits(dist, 100, 50, 50, rng.child(2))
    with pytest.raises(ValueError):
        hessian_spectrum_probe(state, splits, GENERATOR, k=1, rng=Rng(12))


def test_spectrum_report_derives_its_flag_and_tolerance():
    # the flag is read off the eigenvalues at the one tolerance, so neither can
    # be passed in, and a report cannot contradict its eigenvalues
    assert list(SpectrumReport.__dataclass_fields__) == ["eigenvalues", "agent", "converged"]
    for agent, values, flag in [
        (GENERATOR, (-1.0,), False), (GENERATOR, (2.0, -NASH_TOL), True),
        (GENERATOR, (2.0, -2 * NASH_TOL), False), (DISCRIMINATOR, (-1.0, NASH_TOL), True),
        (DISCRIMINATOR, (-1.0, 2 * NASH_TOL), False),
    ]:
        report = SpectrumReport(values, agent, (True,) * len(values))
        assert report.nash_consistent is flag, (agent, values)
        assert report.tolerance == SpectrumReport.tolerance == NASH_TOL
    with pytest.raises(TypeError):
        SpectrumReport((-1.0,), GENERATOR, True, 1e-3, (True,))
    for name, value in (("nash_consistent", True), ("tolerance", 1.0)):
        with pytest.raises(TypeError):
            SpectrumReport((-1.0,), GENERATOR, (True,), **{name: value})
        with pytest.raises(AttributeError):
            setattr(report, name, value)


def test_spectrum_rejects_bad_agent():
    state = ToyGameState(bilinear(), np.array([0.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        hessian_spectrum_probe(state, None, "referee", k=1, rng=Rng(13))

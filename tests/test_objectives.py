import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxgap.diffcore import NetworkSpec, ParamVector, Rng, adam_init, adam_step, init_network
from proxgap.distributions import GaussianMixture, density
from proxgap.objectives import (
    FGAN_FAMILIES,
    Classic,
    ClipBoxError,
    FGan,
    GanState,
    WassersteinClip,
    enforce_constraint,
    eval_objective,
    fenchel_identity_residual,
    value_and_grad_d,
)
from proxgap.oracles import numeric_jsd


def _zero_params(spec):
    return ParamVector(np.zeros(spec.param_count))


def _state(objective, d_head="linear", d_params=None, g_params=None, seed=0):
    d_spec = NetworkSpec(2, (4,), 1, output_head=d_head)
    g_spec = NetworkSpec(2, (4,), 2)
    rng = Rng(seed)
    theta_d = d_params if d_params is not None else init_network(d_spec, rng.child(0))
    theta_g = g_params if g_params is not None else init_network(g_spec, rng.child(1))
    return GanState(d_spec, g_spec, theta_d, theta_g, objective)


def _batches(seed=0, n=32):
    rng = Rng(seed)
    return rng.normal((n, 2)), rng.normal((n, 2))


def test_classic_constant_half_discriminator():
    d_spec = NetworkSpec(2, (4,), 1, output_head="sigmoid")
    state = _state(Classic(), d_head="sigmoid", d_params=_zero_params(d_spec))
    real, latent = _batches()
    assert eval_objective(state, real, latent) == pytest.approx(-np.log(4.0), abs=1e-12)


def test_wasserstein_constant_discriminator_cancels():
    d_spec = NetworkSpec(2, (4,), 1)
    vals = np.zeros(d_spec.param_count)
    vals[d_spec.layers()[1][3]] = 0.005  # constant output inside the clip box
    state = _state(WassersteinClip(0.01), d_params=ParamVector(vals))
    real, latent = _batches()
    assert eval_objective(state, real, latent) == pytest.approx(0.0, abs=1e-12)


def test_wasserstein_requires_in_box_params():
    state = _state(WassersteinClip(0.0001))
    real, latent = _batches()
    with pytest.raises(ClipBoxError):
        eval_objective(state, real, latent)


def test_fgan_kl_constant_discriminator_formula():
    fam = FGAN_FAMILIES["kl"]
    d_spec = NetworkSpec(2, (4,), 1)
    state = _state(FGan(fam), d_params=_zero_params(d_spec))
    real, latent = _batches()
    # constant raw output 0: V = output_map(0) - f*(output_map(0))
    t0 = fam.output_map(0.0)
    expected = t0 - fam.f_star(t0)
    assert eval_objective(state, real, latent) == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-np.exp(-1.0))


@pytest.mark.parametrize("seed", range(10))
def test_one_adam_ascent_step_increases_classic_value(seed):
    state = _state(Classic(), d_head="sigmoid", seed=seed)
    real, latent = _batches(seed + 100)
    v0, grad = value_and_grad_d(state, state.theta_d, state.theta_g, real, latent)
    adam = adam_init(len(state.theta_d), lr=1e-3)
    new_d, _ = adam_step(state.theta_d.values, -grad, adam)
    v1 = eval_objective(state.with_params(theta_d=ParamVector(new_d)), real, latent)
    assert v1 > v0


def test_optimal_discriminator_attains_divergence_value():
    # plugging p_r/(p_r+p_g) into the classic integrand reproduces 2 JSD - log 4
    p = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    q = GaussianMixture([1.0], [[1.0, 0.5]], [[1.0, 1.0]])
    box = [(-7.0, 8.0), (-7.0, 7.5)]
    res = 401
    axes = [np.linspace(lo, hi, res) for lo, hi in box]
    mesh = np.meshgrid(*axes, indexing="ij")
    pts = np.stack([m.ravel() for m in mesh], axis=1)
    pr = density(p, pts)
    pg = density(q, pts)
    d_star = pr / (pr + pg)
    integrand = (pr * np.log(d_star) + pg * np.log(1.0 - d_star)).reshape(res, res)
    from scipy.integrate import trapezoid
    v_c = trapezoid(trapezoid(integrand, axes[1], axis=1), axes[0])
    jsd = numeric_jsd(lambda x: density(p, x), lambda x: density(q, x), box, res)
    assert v_c == pytest.approx(2.0 * jsd - np.log(4.0), abs=1e-4)


@pytest.mark.parametrize("name", sorted(FGAN_FAMILIES))
def test_fenchel_identity_on_log_grid(name):
    fam = FGAN_FAMILIES[name]
    for t in np.logspace(-1, 1, 50):
        assert fenchel_identity_residual(fam, t) < 1e-9


def test_fenchel_identity_examples():
    kl = FGAN_FAMILIES["kl"]
    assert kl.f_star(kl.f_prime(2.0)) == pytest.approx(2.0, abs=1e-9)
    for name, fam in FGAN_FAMILIES.items():
        assert fenchel_identity_residual(fam, 1.0) < 1e-9
        assert fam.f(1.0) == pytest.approx(0.0, abs=1e-12)


def conjugate_from_grid(family, x, t_grid):
    """Brute-force sup_t {x t - f(t)} on a grid; the oracle for f_star."""
    t_grid = np.asarray(t_grid, dtype=np.float64)
    return float(np.max(x * t_grid - family.f(t_grid)))


@pytest.mark.parametrize("name", sorted(FGAN_FAMILIES))
def test_conjugate_matches_grid_supremum(name):
    fam = FGAN_FAMILIES[name]
    t_grid = np.linspace(1e-4, 60.0, 400_001)
    for raw in (-2.0, -0.5, 0.0, 0.5, 1.5):
        x = float(fam.output_map(raw))
        grid_val = conjugate_from_grid(fam, x, t_grid)
        assert float(fam.f_star(x)) == pytest.approx(grid_val, abs=5e-4)
        assert float(fam.f_star(x)) >= grid_val - 1e-9  # sup is never exceeded by the grid


def test_classic_is_fgan_special_case():
    # with the JS-generating f, V_f at the mapped optimal discriminator
    # equals V_c at the classic optimal discriminator plus log 4
    fam = FGAN_FAMILIES["js_scaled"]
    p = GaussianMixture([1.0], [[0.5]], [[0.8]])
    q = GaussianMixture([1.0], [[-0.5]], [[1.2]])
    xs = np.linspace(-8.0, 8.0, 4001)
    pr = density(p, xs[:, None])
    pg = density(q, xs[:, None])
    d_star = pr / (pr + pg)
    t_star = fam.f_prime(pr / pg)  # the mapped optimal discriminator
    from scipy.integrate import trapezoid
    v_c = trapezoid(pr * np.log(d_star) + pg * np.log(1.0 - d_star), xs)
    v_f = trapezoid(pr * t_star - pg * np.asarray(fam.f_star(t_star)), xs)
    assert v_f == pytest.approx(v_c + np.log(4.0), abs=1e-4)


def test_enforce_constraint_behaviour():
    wgan = WassersteinClip(0.01)
    theta_d = _state(wgan).theta_d.values
    clipped = enforce_constraint(wgan, theta_d)
    assert np.max(np.abs(clipped)) <= 0.01
    again = enforce_constraint(wgan, clipped)
    assert np.array_equal(clipped, again)
    in_box = enforce_constraint(wgan, clipped)
    assert np.array_equal(in_box, clipped)
    classic = _state(Classic(), d_head="sigmoid").theta_d.values
    assert enforce_constraint(Classic(), classic) is classic


def test_state_head_validation():
    d_spec = NetworkSpec(2, (4,), 1, output_head="linear")
    g_spec = NetworkSpec(2, (4,), 2)
    rng = Rng(0)
    with pytest.raises(ValueError):
        GanState(d_spec, g_spec, init_network(d_spec, rng),
                 init_network(g_spec, rng), Classic())


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_eval_invariant_to_row_order(seed):
    state = _state(Classic(), d_head="sigmoid")
    rng = Rng(seed)
    real, latent = rng.normal((16, 2)), rng.normal((16, 2))
    perm_r, perm_l = rng.permutation(16), rng.permutation(16)
    a = eval_objective(state, real, latent)
    b = eval_objective(state, real[perm_r], latent[perm_l])
    assert a == pytest.approx(b, abs=1e-12)


def test_empty_batches_rejected():
    state = _state(Classic(), d_head="sigmoid")
    with pytest.raises(ValueError):
        eval_objective(state, np.zeros((0, 2)), np.zeros((4, 2)))

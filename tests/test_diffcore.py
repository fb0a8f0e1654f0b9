import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxgap.diffcore import (
    NetworkSpec,
    Rng,
    adam_init,
    adam_step,
    forward,
    forward_graph,
    hvp,
    init_network,
    input_grad_batch,
    top_k_eigenvalues,
)
from proxgap.diffcore.network import ParamVector
from proxgap.objectives import WassersteinClip, enforce_constraint


# -- NetworkSpec / init ------------------------------------------------


def test_zero_hidden_linear_has_three_params_and_zero_bias():
    spec = NetworkSpec(2, (), 1)
    assert spec.param_count == 3
    params = init_network(spec, Rng(0))
    assert params.segment("b0") == pytest.approx([0.0])


def test_param_count_2_16_16_1():
    spec = NetworkSpec(2, (16, 16), 1, activation="tanh")
    assert spec.param_count == 337


def test_same_seed_same_params():
    spec = NetworkSpec(3, (5, 4), 2)
    a = init_network(spec, Rng(99))
    b = init_network(spec, Rng(99))
    assert np.array_equal(a.values, b.values)


def test_init_bounds_follow_fan_in_out():
    spec = NetworkSpec(2, (16,), 1)
    params = init_network(spec, Rng(3))
    w0 = params.segment("W0")
    assert np.max(np.abs(w0)) <= np.sqrt(6.0 / 18.0)


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        NetworkSpec(0, (4,), 1)
    with pytest.raises(ValueError):
        NetworkSpec(2, (4,), 1, activation="gelu")
    with pytest.raises(ValueError):
        NetworkSpec(2, (4,), 1, output_head="softmax")


def test_param_vector_immutable_and_finite():
    pv = ParamVector(np.array([1.0, 2.0]), {"w": (0, 2)})
    with pytest.raises(ValueError):
        pv.values[0] = 5.0
    with pytest.raises(ValueError):
        ParamVector(np.array([np.inf]), {"w": (0, 1)})


# -- forward -----------------------------------------------------------


def test_forward_linear_dot_product():
    spec = NetworkSpec(2, (), 1)
    pv = ParamVector(np.array([1.0, 2.0, 0.0]), spec.layout())
    out = forward(spec, pv, np.array([[3.0, 4.0]]))
    assert out[0, 0] == pytest.approx(11.0)


def test_forward_sigmoid_zero_params_is_half():
    spec = NetworkSpec(3, (4,), 1, output_head="sigmoid")
    pv = ParamVector(np.zeros(spec.param_count), spec.layout())
    out = forward(spec, pv, np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0]]))
    assert np.allclose(out, 0.5)


def test_forward_shape_mismatch_errors():
    spec = NetworkSpec(2, (), 1)
    pv = ParamVector(np.zeros(3), spec.layout())
    with pytest.raises(ValueError):
        forward(spec, pv, np.ones((4, 3)))


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_forward_rows_independent(seed):
    rng = Rng(seed)
    spec = NetworkSpec(2, (6,), 1, activation="tanh")
    params = init_network(spec, rng)
    batch = rng.normal((8, 2))
    perm = rng.permutation(8)
    out = forward(spec, params, batch)
    out_perm = forward(spec, params, batch[perm])
    assert np.allclose(out[perm], out_perm)


# -- input gradients (one-row batches) ------------------------------------


def test_input_grad_linear_returns_weights():
    spec = NetworkSpec(3, (), 1)
    w = np.array([0.5, -1.5, 2.0])
    pv = ParamVector(np.append(w, 0.3), spec.layout())
    g = input_grad_batch(spec, pv, np.array([[0.1, 0.2, 0.3]]), h=1e-4)[0]
    assert np.allclose(g, w, atol=1e-9)


def test_input_grad_constant_network_is_zero():
    spec = NetworkSpec(2, (), 1)
    pv = ParamVector(np.array([0.0, 0.0, 4.2]), spec.layout())
    g = input_grad_batch(spec, pv, np.array([[1.0, -1.0]]), h=1e-4)[0]
    assert np.allclose(g, 0.0)


def test_input_grad_sigmoid_head_quarter_slope():
    # D(x) = sigmoid(x1): weight (1, 0), zero bias, sigmoid head
    spec = NetworkSpec(2, (), 1, output_head="sigmoid")
    pv = ParamVector(np.array([1.0, 0.0, 0.0]), spec.layout())
    g = input_grad_batch(spec, pv, np.array([[0.0, 0.7]]), h=1e-4)[0]
    assert g[0] == pytest.approx(0.25, abs=1e-6)
    assert g[1] == pytest.approx(0.0, abs=1e-9)


def test_input_grad_rejects_bad_step_and_vector_output():
    spec = NetworkSpec(2, (), 1)
    pv = ParamVector(np.array([1.0, 0.0, 0.0]), spec.layout())
    with pytest.raises(ValueError):
        input_grad_batch(spec, pv, np.zeros((1, 2)), h=0.0)
    wide = NetworkSpec(2, (), 2)
    with pytest.raises(ValueError):
        input_grad_batch(wide, init_network(wide, Rng(0)), np.zeros((1, 2)), h=1e-4)


# -- adam / clip -------------------------------------------------------


def test_adam_first_step_moves_by_lr():
    pv = ParamVector(np.array([1.0]), {"w": (0, 1)})
    state = adam_init(1, lr=0.1)
    new, state = adam_step(pv, np.array([2.0]), state)
    assert new.values[0] == pytest.approx(0.9, abs=1e-6)
    assert state.t == 1


def test_adam_zero_gradient_never_moves():
    pv = ParamVector(np.array([0.3, -0.7]), {"w": (0, 2)})
    state = adam_init(2, lr=0.5)
    for _ in range(10):
        pv, state = adam_step(pv, np.zeros(2), state)
    assert np.allclose(pv.values, [0.3, -0.7])


def test_adam_deterministic_trajectories():
    def run():
        pv = ParamVector(np.array([1.0]), {"w": (0, 1)})
        state = adam_init(1, lr=0.05)
        trace = []
        for _ in range(20):
            grad = 2.0 * pv.values
            pv, state = adam_step(pv, grad, state)
            trace.append(pv.values[0])
        return trace

    assert run() == run()


def test_clip_values_from_protocol():
    pv = ParamVector(np.array([0.05, -0.005]), {"w": (0, 2)})
    clipped = enforce_constraint(WassersteinClip(0.01), pv)
    assert clipped.values[0] == pytest.approx(0.01)
    assert clipped.values[1] == pytest.approx(-0.005)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
       st.floats(0.001, 5.0))
def test_clip_idempotent_and_projection(vals, c):
    pv = ParamVector(np.array(vals), {"w": (0, len(vals))})
    once = enforce_constraint(WassersteinClip(c), pv)
    twice = enforce_constraint(WassersteinClip(c), once)
    assert np.array_equal(once.values, twice.values)
    # projection: no box point is closer, coordinate by coordinate
    inside = np.clip(np.array(vals), -c, c)
    assert np.all(np.abs(once.values - pv.values) <= np.abs(inside - pv.values) + 1e-12)


def test_clip_requires_positive_bound():
    # the box is carried by the objective, which rejects a non-positive bound
    with pytest.raises(ValueError):
        WassersteinClip(0.0)


# -- hvp / eigenvalues -------------------------------------------------


def _quadratic_loss(a):
    a = np.asarray(a, dtype=np.float64)

    def loss(theta):
        return (theta * theta * (0.5 * a)).sum()

    return loss


def test_hvp_diagonal_quadratic():
    pv = ParamVector(np.array([0.3, -0.2]), {"w": (0, 2)})
    out = hvp(_quadratic_loss([2.0, -1.0]), pv, np.array([1.0, 1.0]), h=1e-4)
    assert np.allclose(out, [2.0, -1.0], atol=1e-8)


def test_hvp_rejects_tiny_direction():
    pv = ParamVector(np.array([0.0]), {"w": (0, 1)})
    with pytest.raises(ValueError):
        hvp(_quadratic_loss([1.0]), pv, np.array([1e-12]), h=1e-4)


@pytest.mark.parametrize("seed", range(3))
def test_hvp_symmetry_on_tanh_nets(seed):
    rng = Rng(seed)
    spec = NetworkSpec(2, (6,), 1, activation="tanh")
    params = init_network(spec, rng)
    batch = rng.normal((6, 2))

    def loss(theta):
        out = forward_graph(spec, theta, batch)
        return (out * out).mean()

    u = rng.normal(spec.param_count)
    v = rng.normal(spec.param_count)
    hu = hvp(loss, params, u, h=1e-4)
    hv = hvp(loss, params, v, h=1e-4)
    asym = abs(u @ hv - v @ hu)
    assert asym < 1e-5 * np.linalg.norm(u) * np.linalg.norm(v)


def _matrix_op(mat):
    mat = np.asarray(mat, dtype=np.float64)
    return lambda v: mat @ v


def test_top_k_diagonal():
    res = top_k_eigenvalues(_matrix_op(np.diag([2.0, -1.0])), dim=2, k=2, rng=Rng(0))
    assert res.values[0] == pytest.approx(2.0, abs=1e-3)
    assert res.values[1] == pytest.approx(-1.0, abs=1e-3)
    assert res.all_converged()


def test_top_k_identity():
    res = top_k_eigenvalues(_matrix_op(np.eye(3)), dim=3, k=1, rng=Rng(1))
    assert res.values[0] == pytest.approx(1.0, abs=1e-6)


def test_top_k_matches_dense_solver():
    rng = Rng(7)
    a = rng.normal((10, 10))
    sym = 0.5 * (a + a.T)
    res = top_k_eigenvalues(_matrix_op(sym), dim=10, k=3, max_iters=5000, rng=Rng(2))
    dense = np.linalg.eigvalsh(sym)
    dense = dense[np.argsort(-np.abs(dense))][:3]
    assert np.allclose(res.values, dense, atol=1e-3)


def test_top_k_zero_operator_flags_breakdown():
    res = top_k_eigenvalues(_matrix_op(np.zeros((3, 3))), dim=3, k=1, rng=Rng(3))
    assert res.values[0] == 0.0
    assert not res.converged[0]


def test_top_k_requires_k_within_dim():
    with pytest.raises(ValueError):
        top_k_eigenvalues(_matrix_op(np.eye(2)), dim=2, k=3, rng=Rng(0))


# -- rng ---------------------------------------------------------------


def test_rng_same_seed_same_stream():
    a = Rng(1234).normal((4, 3))
    b = Rng(1234).normal((4, 3))
    assert np.array_equal(a, b)


def test_rng_children_are_stable_and_distinct():
    root = Rng(5)
    _ = root.normal(10)  # consuming the parent must not affect children
    c1 = root.child(1).normal(4)
    c2 = root.child(2).normal(4)
    again = Rng(5).child(1).normal(4)
    assert np.array_equal(c1, again)
    assert not np.array_equal(c1, c2)


def test_rng_state_roundtrip():
    rng = Rng(11)
    rng.normal(3)
    saved = rng.state
    a = rng.normal(5)
    rng2 = Rng(11)
    rng2.state = saved
    assert np.array_equal(a, rng2.normal(5))

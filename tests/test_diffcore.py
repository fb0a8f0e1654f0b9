import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from proxgap.diffcore import (
    AdamState,
    NetworkSpec,
    Rng,
    adam_init,
    adam_step,
    forward,
    hvp,
    init_network,
    input_grad_batch,
    top_k_eigenvalues,
)
from proxgap.diffcore import NonFiniteError, optim
from proxgap.diffcore.engine import grad_params
from proxgap.diffcore.network import ParamVector, forward_graph
from proxgap.gapmetrics import ToyGameState, _ops_for
from proxgap.objectives import GanState, WassersteinClip, enforce_constraint
from proxgap.oracles import ToyGame


# -- NetworkSpec / init ------------------------------------------------


def test_zero_hidden_linear_has_three_params_and_zero_bias():
    spec = NetworkSpec(2, (), 1)
    assert spec.param_count == 3
    params = init_network(spec, Rng(0))
    assert params.values[spec.layers()[0][3]] == pytest.approx([0.0])


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
    w0 = params.values[spec.layers()[0][2]]
    assert np.max(np.abs(w0)) <= np.sqrt(6.0 / 18.0)


@pytest.mark.parametrize("hidden", [(), (3,), (4, 5)], ids=["0", "1", "2"])
@pytest.mark.parametrize("out", [1, 2])
def test_layers_tile_the_parameter_vector_in_order(hidden, out):
    spec = NetworkSpec(2, hidden, out)
    dims = (2, *hidden, out)
    assert len(spec.layers()) == len(dims) - 1
    positions, covered = range(spec.param_count), []
    for (fi, fo, weight, bias), shape in zip(spec.layers(), zip(dims, dims[1:])):
        assert (fi, fo) == shape
        assert len(positions[weight]) == fi * fo and len(positions[bias]) == fo
        covered += [*positions[weight], *positions[bias]]  # W0, b0, W1, ...
    assert covered == list(positions)
    assert spec.layer_shapes() == tuple((fi, fo) for fi, fo, _, _ in spec.layers())


def _former_init(spec, rng):
    """The former init_network recipe: Glorot weights at offsets looked up by
    name in a W{i}/b{i} -> (offset, length) layout, zero biases."""
    layout, offset = {}, 0
    for i, (fi, fo) in enumerate(spec.layer_shapes()):
        layout[f"W{i}"] = (offset, fi * fo)
        offset += fi * fo
        layout[f"b{i}"] = (offset, fo)
        offset += fo
    vals = np.zeros(spec.param_count)
    for i, (fi, fo) in enumerate(spec.layer_shapes()):
        a = np.sqrt(6.0 / (fi + fo))
        off, length = layout[f"W{i}"]
        vals[off:off + length] = rng.uniform(-a, a, length)
    return vals


@pytest.mark.parametrize("spec", [NetworkSpec(2, (), 1), NetworkSpec(3, (5,), 2),
                                  NetworkSpec(2, (16, 16), 1, activation="leaky_relu"),
                                  NetworkSpec(4, (7, 3, 6), 2, output_head="sigmoid")],
                         ids=lambda spec: "-".join(map(str, (spec.input_dim, *spec.hidden_widths,
                                                             spec.output_dim))))
@pytest.mark.parametrize("seed", [0, 7, 2 ** 40 + 3])
def test_init_network_keeps_the_former_recipes_bytes(spec, seed):
    assert init_network(spec, Rng(seed)).values.tobytes() == _former_init(spec, Rng(seed)).tobytes()


def test_invalid_specs_rejected():
    with pytest.raises(ValueError):
        NetworkSpec(0, (4,), 1)
    with pytest.raises(ValueError):
        NetworkSpec(2, (4,), 1, activation="gelu")
    with pytest.raises(ValueError):
        NetworkSpec(2, (4,), 1, output_head="softmax")


def test_param_vector_immutable_and_finite():
    pv = ParamVector(np.array([1.0, 2.0]))
    with pytest.raises(ValueError):
        pv.values[0] = 5.0
    for bad in ([np.inf], [np.nan, 1.0], [1.0, -np.inf]):
        with pytest.raises(ValueError, match="^parameters must be finite$"):
            ParamVector(np.array(bad))
    # the vector holds a flat, read-only copy of what it was built from
    source = np.array([[3.0], [-4.0]])
    new = ParamVector(source)
    assert new.values.shape == (2,) and new.values.tobytes() == np.array([3.0, -4.0]).tobytes()
    with pytest.raises(ValueError):
        new.values[0] = 5.0
    source[0, 0] = 7.0
    assert new.values[0] == 3.0 and source.flags.writeable


def test_param_vectors_and_gan_states_compare_by_value():
    a, b = ParamVector(np.array([1.0, 2.0])), ParamVector([1.0, 2.0])
    assert a == b and not a != b and hash(a) == hash(b)
    flat = ParamVector(np.array([[1.0], [2.0]]))
    assert flat == a and hash(flat) == hash(a)
    # equal values, zeros of either sign included, give equal vectors and hashes
    zeros, signed = ParamVector([0.0, -0.0]), ParamVector([-0.0, 0.0])
    assert zeros == signed and hash(zeros) == hash(signed)
    for other in (ParamVector([1.0, 3.0]), ParamVector([1.0]), ParamVector([1.0, 2.0, 0.0])):
        assert a != other and not a == other
    assert a != [1.0, 2.0] and a != (1.0, 2.0)
    assert len({a, b, ParamVector([2.0, 1.0])}) == 2
    # a GanState compares and hashes through its parameter vectors
    d_spec, g_spec = NetworkSpec(2, (3,), 1), NetworkSpec(1, (), 2)
    theta_d, theta_g = init_network(d_spec, Rng(0)), init_network(g_spec, Rng(1))
    state = GanState(d_spec, g_spec, theta_d, theta_g, WassersteinClip(0.5))
    same = GanState(d_spec, g_spec, ParamVector(theta_d.values.copy()),
                    ParamVector(theta_g.values.copy()), WassersteinClip(0.5))
    assert state == same and hash(state) == hash(same)
    moved = state.with_params(theta_g=ParamVector(theta_g.values + 1.0))
    assert state != moved and state != state.with_params(theta_d=init_network(d_spec, Rng(2)))


# -- forward -----------------------------------------------------------


def test_forward_linear_dot_product():
    spec = NetworkSpec(2, (), 1)
    pv = ParamVector(np.array([1.0, 2.0, 0.0]))
    out = forward(spec, pv, np.array([[3.0, 4.0]]))
    assert out[0, 0] == pytest.approx(11.0)


def test_forward_sigmoid_zero_params_is_half():
    spec = NetworkSpec(3, (4,), 1, output_head="sigmoid")
    pv = ParamVector(np.zeros(spec.param_count))
    out = forward(spec, pv, np.array([[1.0, -2.0, 0.5], [0.0, 0.0, 0.0]]))
    assert np.allclose(out, 0.5)


def test_forward_shape_mismatch_errors():
    spec = NetworkSpec(2, (), 1)
    pv = ParamVector(np.zeros(3))
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
    pv = ParamVector(np.append(w, 0.3))
    g = input_grad_batch(spec, pv, np.array([[0.1, 0.2, 0.3]]), h=1e-4)[0]
    assert np.allclose(g, w, atol=1e-9)


def test_input_grad_constant_network_is_zero():
    spec = NetworkSpec(2, (), 1)
    pv = ParamVector(np.array([0.0, 0.0, 4.2]))
    g = input_grad_batch(spec, pv, np.array([[1.0, -1.0]]), h=1e-4)[0]
    assert np.allclose(g, 0.0)


def test_input_grad_sigmoid_head_quarter_slope():
    # D(x) = sigmoid(x1): weight (1, 0), zero bias, sigmoid head
    spec = NetworkSpec(2, (), 1, output_head="sigmoid")
    pv = ParamVector(np.array([1.0, 0.0, 0.0]))
    g = input_grad_batch(spec, pv, np.array([[0.0, 0.7]]), h=1e-4)[0]
    assert g[0] == pytest.approx(0.25, abs=1e-6)
    assert g[1] == pytest.approx(0.0, abs=1e-9)


def test_input_grad_rejects_bad_step_and_vector_output():
    spec = NetworkSpec(2, (), 1)
    pv = ParamVector(np.array([1.0, 0.0, 0.0]))
    with pytest.raises(ValueError):
        input_grad_batch(spec, pv, np.zeros((1, 2)), h=0.0)
    wide = NetworkSpec(2, (), 2)
    with pytest.raises(ValueError):
        input_grad_batch(wide, init_network(wide, Rng(0)), np.zeros((1, 2)), h=1e-4)


# -- adam / clip -------------------------------------------------------


def test_adam_first_step_moves_by_lr():
    theta = np.array([1.0])
    state = adam_init(1, lr=0.1)
    new, state = adam_step(theta, np.array([2.0]), state)
    assert new[0] == pytest.approx(0.9, abs=1e-6)
    assert state.t == 1


def test_adam_zero_gradient_never_moves():
    theta = np.array([0.3, -0.7])
    state = adam_init(2, lr=0.5)
    for _ in range(10):
        theta, state = adam_step(theta, np.zeros(2), state)
    assert np.allclose(theta, [0.3, -0.7])


def test_adam_deterministic_trajectories():
    def run():
        theta = np.array([1.0])
        state = adam_init(1, lr=0.05)
        trace = []
        for _ in range(20):
            grad = 2.0 * theta
            theta, state = adam_step(theta, grad, state)
            trace.append(theta[0])
        return trace

    assert run() == run()


def _textbook_adam(theta, grads, lr, beta1=0.9, beta2=0.999, eps=1e-8):
    """Bias-corrected Adam written out step by step, the oracle for adam_step."""
    m, v = np.zeros_like(theta), np.zeros_like(theta)
    for t, grad in enumerate(grads, start=1):
        m = beta1 * m + (1.0 - beta1) * grad
        v = beta2 * v + (1.0 - beta2) * grad * grad
        m_hat = m / (1.0 - beta1 ** t)
        v_hat = v / (1.0 - beta2 ** t)
        theta = theta - lr * m_hat / (np.sqrt(v_hat) + eps)
    return theta, m, v


@pytest.mark.parametrize("kind", ["array", "read_only", "list"])
def test_adam_step_carries_the_textbook_formulas_bytes(kind, monkeypatch):
    gen = np.random.default_rng(7)
    theta0 = gen.normal(0.0, 1.0, 5)
    grads = gen.normal(0.0, 1.0, (200, 5)) * 10.0 ** gen.integers(-6, 4, (200, 5))
    # a search starts from a state's read-only values, which no step writes;
    # a toy search's iterates and gradients are lists of floats
    params = {"array": theta0.copy, "read_only": lambda: ParamVector(theta0).values,
              "list": theta0.tolist}[kind]()
    start = params
    state = adam_init(5, lr=0.01, beta1=0.8, beta2=0.99)
    checks = []
    monkeypatch.setattr(AdamState, "__post_init__", lambda self: checks.append(self))
    for grad in grads:
        if kind == "list":
            params, state = adam_step(params, grad.tolist(), state)
            assert [type(x) for x in params + state.m + state.v] == [float] * 15
        else:
            params, state = adam_step(params, grad, state)
            assert type(params) is np.ndarray and params.flags.writeable
    assert np.asarray(start).tobytes() == theta0.tobytes()
    want, m, v = _textbook_adam(theta0, grads, 0.01, 0.8, 0.99)
    assert np.asarray(params).tobytes() == want.tobytes()
    assert np.asarray(state.m).tobytes() == m.tobytes()
    assert np.asarray(state.v).tobytes() == v.tobytes()
    assert (state.t, state.lr, state.beta1, state.beta2, optim.EPS) == (200, 0.01, 0.8, 0.99, 1e-8)
    assert checks == []  # a state adam_step derives is not checked again


def test_adam_step_on_floats_gives_the_array_paths_bytes_step_by_step():
    # a toy search's step, adam_step per coordinate and the float clip, against
    # the array step and ndarray.clip on the equal float64 arrays, over 1000
    # sequences: zero and signed-zero gradients and starts, gradients from
    # 1e-9 to 1e6, steps that land on a box bound
    gen = np.random.default_rng(31)
    boxes = ((-1.0, 1.0), (0.0, 0.5), (-2.0, -0.0), (-0.25, 3.0))
    pool = (0.0, -0.0, 1.0, -1.0, 0.5, -2.0, 3.0)
    landed = zero_grads = 0
    for seq in range(1000):
        dim = int(gen.integers(1, 4))
        box = tuple(boxes[i] for i in gen.integers(0, len(boxes), dim))
        game = ToyGame("adam", lambda d, g: d[0] * g[0], box, box)
        project = _ops_for(ToyGameState(game, np.zeros(dim), np.zeros(dim)), None, None).project_d
        lr = float(gen.choice([1e-3, 0.05, 0.5, 2.0]))
        betas = [(0.9, 0.999), (0.8, 0.99), (0.0, 0.5)][seq % 3]
        start = np.array([pool[i] if gen.random() < 0.5 else gen.uniform(-3.0, 3.0)
                          for i in gen.integers(0, len(pool), dim)])
        # a search starts from an array or from a list, and adam_init's zeros
        arrays, floats = start, (start if seq % 2 else start.tolist())
        state_a = state_f = adam_init(dim, lr, *betas)
        for _ in range(int(gen.integers(1, 13))):
            grad = (gen.normal(0.0, 1.0, dim) * 10.0 ** gen.integers(-9, 7, dim)).tolist()
            for j in np.flatnonzero(gen.random(dim) < 0.2):
                grad[j] = float(gen.choice([0.0, -0.0]))
            zero_grads += grad.count(0.0)
            arrays, state_a = adam_step(arrays, np.array(grad), state_a)
            floats, state_f = adam_step(floats, grad, state_f)
            assert [type(x) for x in floats + state_f.m + state_f.v] == [float] * (3 * dim)
            assert np.array(floats).tobytes() == arrays.tobytes(), seq
            assert np.array(state_f.m).tobytes() == state_a.m.tobytes(), seq
            assert np.array(state_f.v).tobytes() == state_a.v.tobytes(), seq
            arrays, floats = arrays.clip(*np.array(box).T), project(floats)
            assert np.array(floats).tobytes() == arrays.tobytes(), seq
            landed += sum(x in (lo, hi) for x, (lo, hi) in zip(floats, box))
    assert landed > 1000 and zero_grads > 1000


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, 1e200, -1e200, np.inf])
@pytest.mark.parametrize("path", ["array", "list"])
def test_adam_step_names_a_gradient_whose_square_is_not_finite(path, bad):
    grad = [0.5, bad, -0.0]
    state = adam_init(3, lr=0.1)
    params, grad = (np.zeros(3), np.array(grad)) if path == "array" else ([0.0] * 3, grad)
    with pytest.raises(NonFiniteError) as err:
        adam_step(params, grad, state)
    assert err.value.op == "adam"


@pytest.mark.parametrize("fields, match", [
    ({"t": -1}, "step counter"),
    ({"v": np.zeros(2)}, "equal length"),
    ({"m": np.zeros((3, 1))}, "equal length"),
    ({"v": np.array([0.0, -1e-300, 1.0])}, "nonnegative"),
    ({"beta1": 1.0}, "betas"),
    ({"beta2": -0.1}, "betas"),
    ({"m": np.array([0.0, np.nan, 1.0])}, "finite"),
    ({"v": np.array([0.0, np.inf, 1.0])}, "finite"),
    ({"m": np.array([-np.inf, 0.0, 1.0])}, "finite"),
])
def test_adam_state_built_by_a_caller_is_checked(fields, match):
    args = {"m": np.zeros(3), "v": np.zeros(3), "t": 0, "lr": 0.1} | fields
    with pytest.raises(ValueError, match=match):
        AdamState(**args)


def test_clip_values_from_protocol():
    theta = np.array([0.05, -0.005])
    clipped = enforce_constraint(WassersteinClip(0.01), theta)
    assert clipped[0] == pytest.approx(0.01)
    assert clipped[1] == pytest.approx(-0.005)


@settings(max_examples=50, deadline=None)
@given(st.lists(st.floats(-10, 10), min_size=1, max_size=8),
       st.floats(0.001, 5.0))
def test_clip_idempotent_and_projection(vals, c):
    theta = np.array(vals)
    once = enforce_constraint(WassersteinClip(c), theta)
    twice = enforce_constraint(WassersteinClip(c), once)
    assert np.array_equal(once, twice)
    # projection: no box point is closer, coordinate by coordinate
    inside = np.clip(np.array(vals), -c, c)
    assert np.all(np.abs(once - theta) <= np.abs(inside - theta) + 1e-12)


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
    pv = ParamVector(np.array([0.3, -0.2]))
    loss = _quadratic_loss([2.0, -1.0])
    out = hvp(lambda th: grad_params(loss, th), pv, np.array([1.0, 1.0]), h=1e-4)
    assert np.allclose(out, [2.0, -1.0], atol=1e-8)


def test_hvp_rejects_tiny_direction():
    pv = ParamVector(np.array([0.0]))
    with pytest.raises(ValueError):
        hvp(lambda th: grad_params(_quadratic_loss([1.0]), th), pv, np.array([1e-12]), h=1e-4)


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
    hu = hvp(lambda th: grad_params(loss, th), params, u, h=1e-4)
    hv = hvp(lambda th: grad_params(loss, th), params, v, h=1e-4)
    asym = abs(u @ hv - v @ hu)
    assert asym < 1e-5 * np.linalg.norm(u) * np.linalg.norm(v)


def _matrix_op(mat):
    mat = np.asarray(mat, dtype=np.float64)
    return lambda v: mat @ v


def test_top_k_diagonal():
    res = top_k_eigenvalues(_matrix_op(np.diag([2.0, -1.0])), dim=2, k=2, rng=Rng(0))
    assert res.values[0] == pytest.approx(2.0, abs=1e-3)
    assert res.values[1] == pytest.approx(-1.0, abs=1e-3)
    assert all(res.converged)


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


def _top_k_dense(mat, k):
    dense = np.linalg.eigh(mat)[0]
    return np.sort(dense[np.argsort(-np.abs(dense), kind="stable")][:k])


def test_top_k_separates_eigenvalues_of_opposite_sign():
    # equal magnitudes of opposite sign stall power iteration with deflation
    mat = np.diag([1.0, -1.0, 0.5, 0.1, 0.05])
    res = top_k_eigenvalues(_matrix_op(mat), dim=5, k=3, rng=Rng(4))
    np.testing.assert_allclose(np.sort(res.values), _top_k_dense(mat, 3), rtol=0, atol=1e-12)
    assert [abs(v) for v in res.values] == sorted((abs(v) for v in res.values), reverse=True)
    assert all(res.converged)


def test_top_k_random_symmetric_with_a_plus_minus_pair():
    rng = Rng(5)
    basis = np.linalg.qr(rng.normal((30, 30)))[0]
    spectrum = np.concatenate([[3.0, -3.0, 2.5], 0.5 * rng.uniform(-1.0, 1.0, 27)])
    mat = (basis * spectrum) @ basis.T
    mat = 0.5 * (mat + mat.T)
    res = top_k_eigenvalues(_matrix_op(mat), dim=30, k=3, rng=Rng(6))
    np.testing.assert_allclose(np.sort(res.values), _top_k_dense(mat, 3), rtol=0, atol=1e-10)
    assert all(res.converged)


def test_top_k_restarts_past_a_repeated_eigenvalue():
    # a random start's Krylov space under the identity closes after one step
    res = top_k_eigenvalues(_matrix_op(np.eye(4)), dim=4, k=3, rng=Rng(8))
    np.testing.assert_allclose(res.values, 1.0, rtol=0, atol=1e-12)
    assert all(res.converged)


def test_top_k_counts_a_doubled_eigenvalue_twice():
    # one start vector's Krylov space holds one copy of the doubled 1 and
    # closes after four steps, so single-vector Lanczos returns (1, 0.5, 0.1)
    mat = np.diag([1.0, 1.0, 0.5, 0.1, 0.05])
    res = top_k_eigenvalues(_matrix_op(mat), dim=5, k=3, rng=Rng(10))
    np.testing.assert_allclose(np.sort(res.values), _top_k_dense(mat, 3), rtol=0, atol=1e-12)
    assert all(res.converged)


def _rotated(spectrum, rng):
    basis = np.linalg.qr(rng.normal((len(spectrum), len(spectrum))))[0]
    mat = (basis * np.asarray(spectrum)) @ basis.T
    return 0.5 * (mat + mat.T)


@pytest.mark.parametrize("k", [2, 3])
def test_top_k_finds_a_doubled_top_eigenvalue_in_a_large_operator(k):
    # the top converges long before the Krylov space could close, so no
    # restart reveals the second copy
    rng = Rng(11)
    mat = _rotated(np.concatenate([[2.0, 2.0, -1.5, 1.2], rng.uniform(-0.5, 0.5, 196)]), rng)
    res = top_k_eigenvalues(_matrix_op(mat), dim=200, k=k, rng=Rng(12))
    np.testing.assert_allclose(np.sort(res.values), _top_k_dense(mat, k), rtol=0, atol=1e-10)
    assert all(res.converged)


def test_top_k_finds_a_tripled_eigenvalue_beyond_k():
    rng = Rng(13)
    mat = _rotated(np.concatenate([[-3.0, -3.0, -3.0, 1.8], rng.uniform(-0.5, 0.5, 196)]), rng)
    res = top_k_eigenvalues(_matrix_op(mat), dim=200, k=2, rng=Rng(14))
    np.testing.assert_allclose(res.values, -3.0, rtol=0, atol=1e-10)
    assert all(res.converged)


def test_top_k_flags_an_unmet_tolerance():
    mat = np.diag(np.linspace(1.0, 2.0, 40))
    res = top_k_eigenvalues(_matrix_op(mat), dim=40, k=2, max_iters=3, rng=Rng(9))
    assert not any(res.converged)


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

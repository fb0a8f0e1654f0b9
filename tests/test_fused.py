"""The fused numpy kernel against its oracle, the Tensor graph path.

Every fast path in the hot loop (``mlp_forward``/``mlp_backward``, the fused
``value_and_grad_d/g``, the fused penalized prox step) is pinned here to the
graph engine's value and reverse-mode gradient to 1e-12 relative, and the
kernel on a reused workspace to the kernel on fresh buffers bit for bit.  The
closed-form objective derivative (``output_grads``) is pinned to the
objective's leaf graph byte for byte.  The fast paths and the spectrum probe
never call a graph oracle (``forward_graph``, ``value_graph``,
``input_grad_columns``, ``grad_params``), and on healthy inputs they build no
Tensor at all.  To name a failure of the objective or of the Sobolev term they
replay only that term on leaf Tensors built from the kernel's outputs.
"""

import functools
import sys
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from proxgap.diffcore import (
    MlpWorkspace,
    NetworkSpec,
    NonFiniteError,
    ParamVector,
    Rng,
    finite_value_and_grad,
    forward,
    init_network,
    input_grad_batch,
    mlp_backward,
    mlp_forward,
)
from proxgap.diffcore.engine import Tensor, _param_values, _sigmoid, grad_params
from proxgap.diffcore.network import _failed_op, _leaky_gate, forward_graph, input_grad_columns
from proxgap.distributions import GaussianMixture, make_splits
from proxgap.gapmetrics import (
    ProxDivergenceError,
    ProximalConfig,
    ToyGameState,
    estimate_v_dw,
    _GanOps,
    _ops_for,
    _last,
    _prox_loop,
    _worst_case,
)
from proxgap.objectives import (
    EPS_LOG,
    FGAN_FAMILIES,
    Classic,
    ClipBoxError,
    FGan,
    GanState,
    WassersteinClip,
    check_clip_box,
    enforce_constraint,
    eval_objective,
    objective_from_outputs,
    output_grads,
    penalized_step_fn,
    value_and_grad_d,
    value_and_grad_g,
    value_graph,
    _sobolev_sum,
)
from proxgap.oracles import concave_quadratic, shipped_games
from proxgap.probes import DISCRIMINATOR, GENERATOR, _agent_grad, hessian_spectrum_probe

from toy_grads import toy_value_and_grad

TOL = 1e-12
ACTIVATIONS = ("tanh", "relu", "leaky_relu")
HEADS = ("linear", "sigmoid")
OBJECTIVES = ([("classic", Classic()), ("wgan_clip", WassersteinClip(0.05))]
              + [(f"fgan_{name}", FGan(fam)) for name, fam in FGAN_FAMILIES.items()])


def _rel(a, b) -> float:
    a, b = np.asarray(a, dtype=np.float64), np.asarray(b, dtype=np.float64)
    return float(np.linalg.norm(a - b) / max(np.linalg.norm(b), 1e-300))


def _random_spec(rng: Rng, activation: str, head: str) -> NetworkSpec:
    widths = tuple(int(rng.integers(2, 9)) for _ in range(int(rng.integers(0, 3))))
    return NetworkSpec(int(rng.integers(1, 4)), widths, int(rng.integers(1, 3)),
                       activation=activation, output_head=head, leaky_slope=0.2)


# -- the MLP kernel ----------------------------------------------------------


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("head", HEADS)
def test_kernel_matches_graph_forward_and_both_gradients(activation, head):
    rng = Rng(10 * ACTIVATIONS.index(activation) + HEADS.index(head))
    for trial in range(4):
        spec = _random_spec(rng.child(trial), activation, head)
        params = init_network(spec, rng.child(100 + trial))
        batch = rng.normal((int(rng.integers(1, 80)), spec.input_dim))
        weights = rng.normal((batch.shape[0], spec.output_dim))

        out, cache = mlp_forward(spec, params, batch)
        np.testing.assert_array_equal(out, forward_graph(spec, params, batch).data)
        grad_theta, grad_x = mlp_backward(spec, params, cache, weights)

        oracle_theta = grad_params(lambda t: (forward_graph(spec, t, batch) * weights).sum(),
                                   params)
        x = Tensor(batch)
        (forward_graph(spec, params, x) * weights).sum().backward()
        assert _rel(grad_theta, oracle_theta) <= TOL
        assert _rel(grad_x, x.grad) <= TOL


def test_kernel_rejects_what_the_graph_rejects():
    spec = NetworkSpec(2, (4,), 1)
    params = init_network(spec, Rng(0))
    with pytest.raises(ValueError):
        mlp_forward(spec, params.values[:-1], np.zeros((3, 2)))
    with pytest.raises(ValueError):
        mlp_forward(spec, params, np.zeros((3, 3)))


# -- the former kernel ---------------------------------------------------------
#
# The kernel once checked each layer entrywise, built the leaky-ReLU gate by
# filling it with the slope and setting 1.0 where the pre-activation is
# positive (a per-entry branch), copied each parameter gradient out of a
# temporary and always ran layer 0's input gradient.  That code is kept here
# as the byte reference.


class _ReferenceWorkspace:
    def __init__(self, spec: NetworkSpec, n: int):
        shapes = spec.layer_shapes()
        leaky = spec.activation == "leaky_relu"
        self.pre = [np.empty((n, fo)) for _, fo in shapes]
        self.masks = [np.empty((n, fo), dtype=bool) for _, fo in shapes]
        self.gates = [np.empty((n, fo)) if leaky else None for _, fo in shapes[:-1]]
        self.bufs = None


def _reference_mlp_forward(spec: NetworkSpec, theta, batch, work=None):
    vals = _param_values(theta)
    x = np.asarray(batch, dtype=np.float64)
    if work is None:
        work = _ReferenceWorkspace(spec, x.shape[0])
    shapes = spec.layer_shapes()
    last = len(shapes) - 1
    inputs, gates = [], []
    off = 0
    for i, (fi, fo) in enumerate(shapes):
        w = vals[off:off + fi * fo].reshape(fi, fo)
        b = vals[off + fi * fo:off + fi * fo + fo]
        off += fi * fo + fo
        z, mask = work.pre[i], work.masks[i]
        np.matmul(x, w, out=z)
        z += b
        if not np.isfinite(z, out=mask).all():
            raise NonFiniteError(_failed_op(spec, vals, x, w, i))
        inputs.append(x)
        if i < last:
            if spec.activation == "tanh":
                gates.append(None)
                x = np.tanh(z, out=z)
            elif spec.activation == "relu":
                gates.append(np.greater(z, 0.0, out=mask))
                x = np.maximum(z, 0.0, out=z)
            else:
                gate = work.gates[i]
                np.greater(z, 0.0, out=mask)
                gate.fill(spec.leaky_slope)
                np.putmask(gate, mask, 1.0)
                gates.append(gate)
                x = np.multiply(z, gate, out=z)
        elif spec.output_head == "sigmoid":
            x = _sigmoid(z)
        else:
            x = z
    return x, (inputs, gates, x, work)


def _reference_mlp_backward(spec: NetworkSpec, theta, cache, grad_out):
    vals = _param_values(theta)
    inputs, gates, out, work = cache
    g = np.asarray(grad_out, dtype=np.float64)
    if spec.output_head == "sigmoid":
        g = g * out * (1.0 - out)
    grad = np.empty(spec.param_count)
    n = g.shape[0]
    ones = np.ones(n)
    shapes = spec.layer_shapes()
    if work.bufs is None:
        width = max(fi for fi, _ in shapes)
        work.bufs = (np.empty(n * width), np.empty(n * width))
    bufs = work.bufs
    off = spec.param_count
    for i in range(len(shapes) - 1, -1, -1):
        fi, fo = shapes[i]
        off -= fi * fo + fo
        w = vals[off:off + fi * fo].reshape(fi, fo)
        grad[off:off + fi * fo] = (inputs[i].T @ g).ravel()
        grad[off + fi * fo:off + fi * fo + fo] = ones @ g
        nxt = bufs[i % 2][:n * fi].reshape(n, fi)
        if fo > 1:
            np.matmul(g, w.T, out=nxt)
        else:
            np.multiply(g, w.T, out=nxt)
        g = nxt
        if i > 0:
            if gates[i - 1] is None:
                scratch = bufs[(i + 1) % 2][:n * fi].reshape(n, fi)
                np.multiply(inputs[i], inputs[i], out=scratch)
                g *= np.subtract(1.0, scratch, out=scratch)
            else:
                g *= gates[i - 1]
    return grad, g


# leaky slopes, and the special pre-activations: the kernel's layer sums
# start from +0.0, so a zero row gives +0.0 and a row of +/-1e-310 gives
# subnormals of both signs; -0.0 reaches the gate only when handed to it
SLOPES = (0.2, 0.0, 1.0, 1.5, -0.3)
SPECIAL_ROWS = (0.0, 1e-310, -1e-310)
SPECIAL_PRE = (0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310, 2.2250738585072014e-308,
               -2.2250738585072014e-308, 1.0, -1.0)


def _with_special_rows(batch, trial):
    """`batch` with its first rows set to the special rows; a one-row batch
    takes the trial's special row, and keeps its random row on the last trial."""
    batch = batch.copy()
    if batch.shape[0] > 1:
        batch[:len(SPECIAL_ROWS)] = np.array(SPECIAL_ROWS)[:, None]
    elif trial < len(SPECIAL_ROWS):
        batch[:] = SPECIAL_ROWS[trial]
    return batch


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("head", HEADS)
@pytest.mark.parametrize("rows", [1, 64, 128, 768, 3000])
def test_kernel_keeps_the_former_kernels_bytes(activation, head, rows):
    rng = Rng(1000 * rows + 10 * ACTIVATIONS.index(activation) + HEADS.index(head))
    slopes = SLOPES if activation == "leaky_relu" else (0.2,)
    for slope in slopes:
        # a critic-like net with one output and a generator-like one with two
        specs = (NetworkSpec(2, (32, 32), 1, activation=activation, output_head=head,
                             leaky_slope=slope),
                 NetworkSpec(3, (32, 16), 2, activation=activation, output_head=head,
                             leaky_slope=slope + 0.1))
        for k, spec in enumerate(specs):
            work = MlpWorkspace(spec)
            for trial in range(4 if rows == 1 else 3):
                theta = init_network(spec, rng.child(k, trial, 0))
                batch = _with_special_rows(rng.child(k, trial, 1).normal((rows, spec.input_dim)),
                                           trial)
                weights = rng.child(k, trial, 2).normal((rows, spec.output_dim))
                want_out, want_cache = _reference_mlp_forward(spec, theta, batch)
                want_grad, want_grad_x = _reference_mlp_backward(spec, theta, want_cache,
                                                                 weights)
                # fresh buffers, then one workspace reused across the trials
                for buffers in (None, work):
                    out, cache = mlp_forward(spec, theta, batch, buffers)
                    assert out.tobytes() == want_out.tobytes()
                    for gate, want_gate in zip(cache[1], want_cache[1]):
                        assert (gate is None) == (want_gate is None)
                        assert gate is None or gate.tobytes() == want_gate.tobytes()
                    grad, grad_x = mlp_backward(spec, theta, cache, weights)
                    assert grad.tobytes() == want_grad.tobytes()
                    assert grad_x.tobytes() == want_grad_x.tobytes()
                    # the call that stops before layer 0's input gradient
                    out, cache = mlp_forward(spec, theta, batch, buffers)
                    grad, grad_x = mlp_backward(spec, theta, cache, weights, input_grad=False)
                    assert grad_x is None and grad.tobytes() == want_grad.tobytes()
        if activation == "leaky_relu":
            # the gate alone on +/-0, +/-subnormals and the normals next to them
            z = np.resize(np.array(SPECIAL_PRE), (rows, 32))
            mask, gate = np.empty(z.shape, dtype=bool), np.empty(z.shape)
            want = np.where(z > 0.0, 1.0, slope)
            assert _leaky_gate(z, slope, mask, gate).tobytes() == want.tobytes()
            assert mask.tobytes() == (z > 0.0).tobytes()


def test_leaky_gate_of_a_negative_zero_slope_is_positive_zero():
    # the one finite slope whose gate differs from where(z > 0, 1, slope):
    # the gate is (z <= 0) * slope + (z > 0), and -0.0 + 0.0 is +0.0
    z = np.array([[-1.0, 0.0, 2.0]])
    gate = _leaky_gate(z, -0.0, np.empty(z.shape, dtype=bool), np.empty(z.shape))
    assert gate.tobytes() == np.array([[0.0, 0.0, 1.0]]).tobytes()


def _held_arrays(work: MlpWorkspace) -> list:
    """Every array a workspace holds, found by walking its attributes."""
    found = []
    for value in vars(work).values():
        for item in (value if isinstance(value, (list, tuple)) else (value,)):
            if isinstance(item, np.ndarray):
                found.append(item)
    return found


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("rows", [1, 128, 3000])
def test_a_workspace_holds_its_pre_activations_one_work_buffer_and_its_ones(activation, rows):
    # tanh: the pre-activations, one work buffer of rows x the widest fan-in
    # and the row of ones; ReLU and leaky ReLU also a mask per hidden layer,
    # leaky ReLU a float gate per hidden layer too
    spec = NetworkSpec(3, (32, 16), 1, activation=activation)
    widths, hidden = 32 + 16 + 1, 32 + 16
    rng = Rng(rows)
    work = MlpWorkspace(spec)
    cache = mlp_forward(spec, init_network(spec, rng), rng.normal((rows, 3)), work)[1]
    forward_bytes = (8 * rows * widths
                     + (0 if activation == "tanh" else rows * hidden)
                     + (8 * rows * hidden if activation == "leaky_relu" else 0))
    assert sum(a.nbytes for a in _held_arrays(work)) == work.nbytes == forward_bytes
    mlp_backward(spec, init_network(spec, rng), cache, rng.normal((rows, 1)))
    held = _held_arrays(work)
    assert sum(a.nbytes for a in held) == work.nbytes == forward_bytes + 8 * rows * (32 + 1)
    assert sorted(a.shape for a in held if a.dtype == bool) == (
        [] if activation == "tanh" else [(rows, 16), (rows, 32)])
    assert [a.shape for a in held if a.ndim == 1] == [(rows * 32,), (rows,)]


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("head", HEADS)
@pytest.mark.parametrize("input_grad", [True, False])
def test_a_backward_pass_leaves_the_outputs_intact(activation, head, input_grad):
    spec = NetworkSpec(2, (32, 32), 2, activation=activation, output_head=head)
    rng = Rng(39)
    theta, batch = init_network(spec, rng), rng.normal((64, 2))
    work = MlpWorkspace(spec)
    out, cache = mlp_forward(spec, theta, batch, work)
    want = out.tobytes()
    assert want == _reference_mlp_forward(spec, theta, batch)[0].tobytes()
    mlp_backward(spec, theta, cache, rng.normal((64, 2)), input_grad=input_grad)
    assert out.tobytes() == want


@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_a_cache_serves_one_backward_pass(activation):
    # a backward pass writes its gradients into the cache's activations, so a
    # cache it consumed, or that a later forward pass on its workspace
    # replaced, is refused rather than giving wrong gradients
    spec = NetworkSpec(2, (8, 8), 1, activation=activation)
    rng = Rng(40)
    theta, batch, weights = init_network(spec, rng), rng.normal((10, 2)), rng.normal((10, 1))
    want = _reference_mlp_backward(spec, theta, _reference_mlp_forward(spec, theta, batch)[1],
                                   weights)[0]
    message = "consumed by a backward pass or replaced by a later forward pass"
    for buffers in (None, MlpWorkspace(spec)):
        for input_grad in (True, False):
            cache = mlp_forward(spec, theta, batch, buffers)[1]
            mlp_backward(spec, theta, cache, weights, input_grad=input_grad)
            with pytest.raises(ValueError, match=message):
                mlp_backward(spec, theta, cache, weights)
    work = MlpWorkspace(spec)
    stale = mlp_forward(spec, theta, batch, work)[1]
    fresh = mlp_forward(spec, theta, 2.0 * batch, work)[1]
    with pytest.raises(ValueError, match=message):
        mlp_backward(spec, theta, stale, weights)
    mlp_backward(spec, theta, fresh, weights)
    # a forward-only call, and a forward pass that fails part way, replace it too
    cache = mlp_forward(spec, theta, batch, work)[1]
    forward(spec, theta, batch, work)
    with pytest.raises(ValueError, match=message):
        mlp_backward(spec, theta, cache, weights)
    cache = mlp_forward(spec, theta, batch, work)[1]
    with pytest.raises(NonFiniteError):
        mlp_forward(spec, theta, np.vstack([batch[:9], [np.nan, 0.0]]), work)
    with pytest.raises(ValueError, match=message):
        mlp_backward(spec, theta, cache, weights)
    # the workspace serves the next forward and backward pass as a fresh one
    cache = mlp_forward(spec, theta, batch, work)[1]
    assert mlp_backward(spec, theta, cache, weights)[0].tobytes() == want.tobytes()


# -- objectives: value_and_grad_d/g and eval_objective -------------------------


def _state(objective, activation: str, seed: int) -> GanState:
    head = "sigmoid" if isinstance(objective, Classic) else "linear"
    d_spec = NetworkSpec(2, (7, 5), 1, activation=activation, output_head=head)
    g_spec = NetworkSpec(3, (6,), 2, activation=activation)
    rng = Rng(seed)
    theta_d = ParamVector(enforce_constraint(objective,
                                             init_network(d_spec, rng.child(0)).values))
    return GanState(d_spec, g_spec, theta_d, init_network(g_spec, rng.child(1)), objective)


@pytest.mark.parametrize("name,objective", OBJECTIVES, ids=[n for n, _ in OBJECTIVES])
@pytest.mark.parametrize("activation", ACTIVATIONS)
def test_value_and_grads_match_the_graph_path(name, objective, activation):
    state = _state(objective, activation, seed=len(name))
    rng = Rng(31)
    real, latent = rng.normal((40, 2)), rng.normal((33, 3))
    v_ref = value_graph(state, state.theta_d, state.theta_g, real, latent).item()
    oracles = ((value_and_grad_d, state.theta_d,
                lambda t: value_graph(state, t, state.theta_g, real, latent)),
               (value_and_grad_g, state.theta_g,
                lambda t: value_graph(state, state.theta_d, t, real, latent)))
    for fused, theta, oracle in oracles:
        v, grad = fused(state, state.theta_d, state.theta_g, real, latent)
        grad_ref = grad_params(oracle, theta)
        assert abs(v - v_ref) <= TOL * max(abs(v_ref), 1e-300)
        assert _rel(grad, grad_ref) <= TOL
    v_eval = eval_objective(state, real, latent)
    v_graph = value_graph(state, state.theta_d, state.theta_g, real, latent).item()
    assert abs(v_eval - v_graph) <= TOL * max(abs(v_graph), 1e-300)


def test_generator_gradient_goes_through_the_discriminator_input_gradient():
    # dV/dtheta_g by the chain rule: D's input gradient on the generated rows,
    # pushed through G's backward pass, equals the graph's end-to-end gradient
    state = _state(Classic(), "tanh", seed=5)
    rng = Rng(32)
    real, latent = rng.normal((24, 2)), rng.normal((24, 3))
    fake_t = Tensor(forward(state.g_spec, state.theta_g, latent))
    v = objective_from_outputs(state.objective, forward_graph(state.d_spec, state.theta_d, real),
                               forward_graph(state.d_spec, state.theta_d, fake_t))
    v.backward()
    _, g_cache = mlp_forward(state.g_spec, state.theta_g, latent)
    chained = mlp_backward(state.g_spec, state.theta_g, g_cache, fake_t.grad)[0]
    oracle = grad_params(lambda t: value_graph(state, state.theta_d, t, real, latent),
                         state.theta_g)
    assert _rel(chained, oracle) <= TOL
    assert _rel(value_and_grad_g(state, state.theta_d, state.theta_g, real, latent)[1],
                oracle) <= TOL


# -- the closed-form output derivative -----------------------------------------

ROW_COUNTS = [(1, 1), (7, 7), (64, 64), (500, 500), (1, 7), (64, 7), (500, 1), (7, 500)]
# sigmoid outputs at, just inside and just outside each clamp edge, and beyond
CLAMP_EDGES = np.array([EPS_LOG, np.nextafter(EPS_LOG, 1.0), np.nextafter(EPS_LOG, 0.0),
                        1.0 - EPS_LOG, np.nextafter(1.0 - EPS_LOG, 0.0),
                        np.nextafter(1.0 - EPS_LOG, 1.0), 0.0, 1.0, 1e-12, 1.0 - 1e-12])


def _leaf_graph(objective, outputs, n_real):
    """The oracle: ``objective_from_outputs`` on two leaf Tensors, then backward."""
    d_real, d_fake = Tensor(outputs[:n_real]), Tensor(outputs[n_real:])
    v = objective_from_outputs(objective, d_real, d_fake)
    v.backward()
    return v.item(), d_real.grad, d_fake.grad


def _outputs(objective, rows: int, rng: Rng, trial: int) -> np.ndarray:
    if not isinstance(objective, Classic):
        return 3.0 * rng.normal((rows, 1))
    out = rng.uniform(0.0, 1.0, (rows, 1))
    # every third row sits on an edge case; the trial shifts which, so one row sees them all
    picks = (np.arange(0, rows, 3) + trial) % CLAMP_EDGES.size
    out[::3, 0] = CLAMP_EDGES[picks]
    return out


@pytest.mark.parametrize("name,objective", OBJECTIVES, ids=[n for n, _ in OBJECTIVES])
@pytest.mark.parametrize("n_real,n_fake", ROW_COUNTS)
def test_closed_form_output_grads_carry_the_leaf_graphs_bytes(name, objective, n_real, n_fake):
    rng = Rng(100 * n_real + n_fake + len(name))
    for trial in range(CLAMP_EDGES.size):
        outputs = _outputs(objective, n_real + n_fake, rng.child(trial), trial)
        value, grad = output_grads(objective, outputs, n_real)
        ref_value, ref_real, ref_fake = _leaf_graph(objective, outputs, n_real)
        assert np.float64(value).tobytes() == np.float64(ref_value).tobytes()
        assert grad.shape == outputs.shape
        assert grad[:n_real].tobytes() == ref_real.tobytes()
        assert grad[n_real:].tobytes() == ref_fake.tobytes()


def _objective_overflows():
    """name -> (objective, finite outputs [real; fake], real rows, the op that overflows)."""
    fams = FGAN_FAMILIES
    return {
        "kl_exp": (FGan(fams["kl"]), [[0.0], [1000.0]], 1, "exp"),
        "reverse_kl_exp": (FGan(fams["reverse_kl"]), [[1000.0], [0.0]], 1, "exp"),
        "pearson_mul": (FGan(fams["pearson_chi2"]), [[0.0], [1e200]], 1, "mul"),
        # 2 - exp(log 2 - softplus(-40)) is 0 in floating point
        "js_log": (FGan(fams["js_scaled"]), [[0.0], [40.0]], 1, "log"),
        "wgan_mean": (WassersteinClip(0.05), [[1e308], [1e308], [0.0]], 2, "mean"),
    }


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("case", sorted(_objective_overflows()))
def test_closed_form_names_an_objective_overflow_as_the_leaf_graph(case):
    objective, outputs, n_real, op = _objective_overflows()[case]
    outputs = np.array(outputs)
    with pytest.raises(NonFiniteError) as graph_err:
        _leaf_graph(objective, outputs, n_real)
    with pytest.raises(NonFiniteError) as err:
        output_grads(objective, outputs, n_real)
    assert err.value.op == graph_err.value.op == op


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_nonfinite_output_gradient_is_handed_on_as_the_leaf_graph_gives_it():
    # reverse KL at a fake output of -745: exp underflows to 5e-324, so the
    # value stays finite while that row's (1/m) / 5e-324 overflows
    objective = FGan(FGAN_FAMILIES["reverse_kl"])
    outputs = np.array([[0.0], [-745.0]])
    value, grad = output_grads(objective, outputs, 1)
    ref_value, ref_real, ref_fake = _leaf_graph(objective, outputs, 1)
    assert np.isfinite(value) and not np.isfinite(grad).all()
    assert value == ref_value
    assert grad.tobytes() == np.vstack([ref_real, ref_fake]).tobytes()


# -- the fused penalized prox step ---------------------------------------------


@pytest.mark.parametrize("name,objective", OBJECTIVES, ids=[n for n, _ in OBJECTIVES])
@pytest.mark.parametrize("lam", [0.0, 0.1, 30.0])
def test_prox_step_matches_graph_objective_minus_sobolev_graph(name, objective, lam):
    state = _state(objective, "tanh", seed=7 + len(name))
    rng = Rng(33)
    real, latent = rng.normal((50, 2)), rng.normal((50, 3))
    h = 1e-3
    # evaluate away from the anchor so the penalty and its gradient are nonzero
    theta = enforce_constraint(objective,
                               state.theta_d.values + 0.01 * rng.normal(len(state.theta_d)))
    step_fn = penalized_step_fn(state, state.theta_d, state.theta_g, real, latent, lam)
    value, grad = step_fn(theta)

    fake = forward(state.g_spec, state.theta_g, latent)
    anchor_grads = input_grad_batch(state.d_spec, state.theta_d, real, h)

    def penalized(t):
        total = objective_from_outputs(objective, forward_graph(state.d_spec, t, real),
                                       forward_graph(state.d_spec, t, fake))
        if lam > 0:
            total = total - lam * _sobolev_sum(input_grad_columns(state.d_spec, t, real, h),
                                               anchor_grads)
        return total

    ref = penalized(Tensor(theta)).item()
    assert abs(value - ref) <= TOL * max(abs(ref), 1e-300)
    assert _rel(grad, grad_params(penalized, theta)) <= TOL


@pytest.mark.parametrize("name,objective", OBJECTIVES, ids=[n for n, _ in OBJECTIVES])
@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_a_value_only_step_keeps_the_values_bytes_without_a_backward_pass(monkeypatch, name,
                                                                         objective, lam):
    state = _state(objective, "leaky_relu", seed=3 + len(name))
    rng = Rng(36)
    real, latent = rng.normal((40, 2)), rng.normal((40, 3))
    step_fn = penalized_step_fn(state, state.theta_d, state.theta_g, real, latent, lam)
    thetas = [enforce_constraint(
        objective, state.theta_d.values + 0.01 * rng.child(k).normal(len(state.theta_d)))
        for k in range(3)]
    want = [step_fn(theta)[0] for theta in thetas]

    def no_backward(*args, **kwargs):
        raise AssertionError("a value-only call ran the backward pass")

    monkeypatch.setattr(sys.modules["proxgap.objectives"], "mlp_backward", no_backward)
    for theta, value in zip(thetas, want):
        got, grad = step_fn(theta, backward=False)
        assert grad is None and np.float64(got).tobytes() == np.float64(value).tobytes()


# -- one discriminator step -----------------------------------------------------
#
# value_and_grad_d once ran its own kernel pass, and the estimators' v_dw search
# ascended along it through a per-game ``v_grad_d``; both now take the
# penalized step at lam = 0.  The former code paths are kept here as references.


def _reference_value_and_grad_d(state, theta_d, theta_g, real_batch, latent_batch):
    """value_and_grad_d as it was: a kernel pass of its own over [real; generated]."""
    real = np.asarray(real_batch, dtype=np.float64)
    latent = np.asarray(latent_batch, dtype=np.float64)
    fake = forward(state.g_spec, theta_g, latent)
    check_clip_box(state.objective, theta_d)
    out, cache = mlp_forward(state.d_spec, theta_d, np.vstack([real, fake]))
    v, grad_out = output_grads(state.objective, out, real.shape[0])
    return finite_value_and_grad(v, mlp_backward(state.d_spec, theta_d, cache, grad_out)[0])


def _reference_v_dw(state, splits, cfg, rng):
    """estimate_v_dw as it was: the search ascends along v_grad_d, which was
    ``value_and_grad_d`` for GANs and the toy stencil gradient for toy games."""
    ops = _ops_for(state, splits, rng)

    def v_grad_d(d, g, batch):
        if isinstance(state, ToyGameState):
            return toy_value_and_grad(state.game, d, g, "d")
        return _reference_value_and_grad_d(state, d, g, *batch)

    start = ops.project_d(ops.d0)
    d = _worst_case(ops, start, lambda d, batch: -v_grad_d(d, ops.g0, batch)[1],
                    ops.project_d, cfg)
    return max(ops.eval_value(d, ops.g0), ops.eval_value(start, ops.g0))


ONE_STEP_OBJECTIVES = [("classic", Classic()), ("wgan_clip_edge", WassersteinClip(0.01)),
                       ("fgan_kl", FGan(FGAN_FAMILIES["kl"]))]


@pytest.mark.parametrize("name,objective", ONE_STEP_OBJECTIVES,
                         ids=[n for n, _ in ONE_STEP_OBJECTIVES])
def test_value_and_grad_d_keeps_its_former_bytes(name, objective):
    state = _state(objective, "tanh", seed=40 + len(name))
    if isinstance(objective, WassersteinClip):  # the critic sits on its box edge
        assert np.mean(np.abs(state.theta_d.values) == objective.clip) > 0.5
    rng = Rng(41)
    real, latent = rng.normal((30, 2)), rng.normal((24, 3))
    for theta_d in [state.theta_d, *_thetas(state, rng, 3)]:
        got = value_and_grad_d(state, theta_d, state.theta_g, real, latent)
        want = _reference_value_and_grad_d(state, theta_d, state.theta_g, real, latent)
        assert np.float64(got[0]).tobytes() == np.float64(want[0]).tobytes()
        assert got[1].tobytes() == want[1].tobytes()


@pytest.mark.parametrize("name,objective", ONE_STEP_OBJECTIVES,
                         ids=[n for n, _ in ONE_STEP_OBJECTIVES])
def test_v_dw_search_keeps_its_former_bytes(name, objective):
    state = _state(objective, "tanh", seed=50 + len(name))
    dist = GaussianMixture([0.5, 0.5], [[1.0, 0.0], [-1.0, 0.5]], [[0.3, 0.3], [0.2, 0.4]])
    splits = make_splits(dist, 200, 150, 120, Rng(51))
    cfg = ProximalConfig(worst_iters=25, worst_lr=0.02, batch_size=32)
    got = estimate_v_dw(state, splits, cfg, Rng(52))
    assert np.float64(got).tobytes() == np.float64(_reference_v_dw(state, splits, cfg,
                                                                  Rng(52))).tobytes()


def test_toy_v_dw_search_keeps_its_former_bytes():
    cfg = ProximalConfig(worst_iters=60, worst_lr=0.02, batch_size=1)
    rng = np.random.default_rng(5)
    for game in shipped_games():
        state = ToyGameState(game, [rng.uniform(lo, hi) for lo, hi in game.d_box],
                             [rng.uniform(lo, hi) for lo, hi in game.g_box])
        got = estimate_v_dw(state, None, cfg, Rng(0))
        assert np.float64(got).tobytes() == np.float64(
            _reference_v_dw(state, None, cfg, Rng(0))).tobytes(), game.name


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_value_and_grad_d_checks_the_box_after_the_generator():
    state = _state(WassersteinClip(0.01), "tanh", seed=60)
    rng = Rng(61)
    real, latent = rng.normal((10, 2)), rng.normal((10, 3))
    outside = ParamVector(state.theta_d.values * 2.0)
    with pytest.raises(ClipBoxError):
        value_and_grad_d(state, outside, state.theta_g, real, latent)
    # a generator whose first matmul overflows is named before the box is checked
    huge_g = ParamVector(np.full(len(state.theta_g), 1e308))
    with pytest.raises(NonFiniteError, match="matmul"):
        value_and_grad_d(state, outside, huge_g, np.abs(real), np.abs(latent) + 1.0)


# -- the finite check and the op names -----------------------------------------


def _gan_steps(project):
    """A GAN's inner-ascent operations with the projection `project`: the
    loop's anchor projection and ``_GanOps.ascend_d``'s projected step."""
    ops = SimpleNamespace(project_d=project)
    ops.ascend_d = functools.partial(_GanOps.ascend_d, ops)
    return ops


def _overflow_setup():
    state = _state(Classic(), "tanh", seed=9)
    rng = Rng(34)
    # positive inputs against all-1e308 weights overflow the first matmul;
    # tanh would saturate the inf to a finite 1 if nothing checked it
    real, latent = np.abs(rng.normal((16, 2))) + 1.0, rng.normal((16, 3))
    huge = ParamVector(np.full(len(state.theta_d), 1e308))
    return state, real, latent, huge


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_kernel_catches_an_overflow_that_tanh_hides():
    state, real, _, huge = _overflow_setup()
    with pytest.raises(NonFiniteError):
        mlp_forward(state.d_spec, huge, real)
    with pytest.raises(NonFiniteError) as err:
        forward(state.d_spec, huge, real)
    assert err.value.op == "matmul"
    # finite pre-activations whose sum, and sum of squares, overflow pass the
    # layer's check: a linear output layer of +-1e308 entries, and a tanh
    # layer of 1e308 entries that a finite output layer follows
    linear = NetworkSpec(1, (), 1)
    tanh = NetworkSpec(1, (2,), 1)
    for spec, theta, batch in (
            (linear, np.array([1e308, 0.0]), np.array([[1.0], [1.0], [-1.0], [1.0]])),
            (tanh, np.array([1e308, 1e308, 0.0, 0.0, 0.5, -0.25, 0.0]), np.ones((3, 1)))):
        fo = spec.layer_shapes()[0][1]
        pre = batch * theta[:fo] + theta[fo:2 * fo]  # layer 0 of a one-input net
        with np.errstate(over="ignore"):
            assert np.isfinite(pre).all() and np.isinf(pre.sum())
        want = _reference_mlp_forward(spec, theta, batch)[0]
        for work in (None, MlpWorkspace(spec)):
            out = mlp_forward(spec, theta, batch, work)[0]
            assert out.tobytes() == want.tobytes()
            np.testing.assert_array_equal(out, forward_graph(spec, theta, batch).data)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("lam", [0.0, 0.1])
def test_overflowing_weights_raise_prox_divergence_named_by_the_graph(lam):
    state, real, latent, huge = _overflow_setup()
    with pytest.raises(NonFiniteError) as graph_err:
        grad_params(lambda t: value_graph(state, t, state.theta_g, real, latent), huge)

    step_fn = penalized_step_fn(state, state.theta_d, state.theta_g, real, latent, lam)
    # the first projection keeps the anchor, the second lands on the huge weights
    landing = iter([state.theta_d.values, huge.values])
    cfg = ProximalConfig(lam=lam, prox_steps=3)
    with pytest.raises(ProxDivergenceError, match="inner step 1") as err:
        _last(_prox_loop(lambda theta: step_fn(theta)[1], state.theta_d.values,
                         _gan_steps(lambda theta: next(landing)), cfg))
    assert isinstance(err.value.__cause__, NonFiniteError)
    assert err.value.__cause__.op == graph_err.value.op == "matmul"
    # the value alone names the forward's failure as the full step does
    with pytest.raises(NonFiniteError) as err:
        step_fn(huge, backward=False)
    assert err.value.op == "matmul"


def test_a_stencil_step_passed_to_the_penalized_step_is_refused():
    # the step is objectives.SOBOLEV_H and buffers is keyword-only, so a stale
    # positional step (or a None) cannot bind to the buffers
    state = _state(Classic(), "tanh", seed=5)
    real, latent = Rng(37).normal((8, 2)), Rng(38).normal((8, 3))
    for step in (1e-3, None):
        with pytest.raises(TypeError):
            penalized_step_fn(state, state.theta_d, state.theta_g, real, latent, 0.1, step)


def _kl_overflow_state():
    state = _state(FGan(FGAN_FAMILIES["kl"]), "relu", seed=11)
    return state.with_params(ParamVector(np.full(len(state.theta_d), 10.0)),
                             ParamVector(np.ones(len(state.theta_g))))


def test_nonfinite_objective_value_is_named_by_the_graph():
    # finite network outputs can still overflow inside the objective (here the
    # KL conjugate's exp); the objective's leaf graph names the objective's op
    state = _kl_overflow_state()
    real, latent = np.full((8, 2), 30.0), np.full((8, 3), 30.0)
    with pytest.raises(NonFiniteError) as graph_err:
        value_graph(state, state.theta_d, state.theta_g, real, latent)
    for fused in (value_and_grad_d, value_and_grad_g):
        with pytest.raises(NonFiniteError) as err:
            fused(state, state.theta_d, state.theta_g, real, latent)
        assert err.value.op == graph_err.value.op == "exp"
    with pytest.raises(NonFiniteError) as err:
        eval_objective(state, real, latent)
    assert err.value.op == "exp"
    for lam in (0.0, 0.1):
        step_fn = penalized_step_fn(state, state.theta_d, state.theta_g, real, latent, lam)
        for backward in (True, False):
            with pytest.raises(NonFiniteError) as err:
                step_fn(state.theta_d, backward=backward)
            assert err.value.op == "exp"


def _failure_cases():
    """Case -> (op, spec, theta values, batch) whose forward pass fails at that op.

    The cases named after an op alone fail across a row or a layer; the others
    hold one non-finite entry, or an inf/-inf pair whose plain sum is nan, in
    the pre-activation the kernel checks."""
    tanh = NetworkSpec(2, (4,), 1)
    theta = init_network(tanh, Rng(0)).values
    ones = np.ones((3, 2))
    nan_theta = theta.copy()
    nan_theta[-1] = np.nan  # the output bias: layer 0 still runs
    linear = NetworkSpec(1, (), 1)  # one layer: W0 then b0
    wide = NetworkSpec(1, (), 2)
    # a slope above 1 takes a finite -1e308 pre-activation to -inf
    steep = NetworkSpec(1, (1,), 1, activation="leaky_relu", leaky_slope=10.0)
    return {
        "leaf": ("leaf", tanh, theta, np.array([[0.0, 1.0], [np.nan, 0.0], [1.0, 1.0]])),
        "matmul": ("matmul", tanh, np.full(theta.size, 1e308), ones + 1.0),
        "add": ("add", linear, np.array([1.5e308, 1.5e308]), np.ones((3, 1))),
        "theta": ("theta", tanh, nan_theta, ones),
        "leaky_relu": ("leaky_relu", steep, np.array([-1e308, 0.0, 1.0, 0.0]), np.ones((3, 1))),
        # [1, nan, 2]
        "leaf_lone_nan": ("leaf", linear, np.array([1.0, 0.0]), np.array([[1.0], [np.nan], [2.0]])),
        # [1e308, inf, -1e308]
        "matmul_lone_inf": ("matmul", linear, np.array([1e308, 0.0]),
                            np.array([[1.0], [10.0], [-1.0]])),
        # [inf, -inf]
        "matmul_inf_pair": ("matmul", linear, np.array([1e308, 0.0]), np.array([[10.0], [-10.0]])),
        # [inf, 1.5e308, 0]
        "add_lone_inf": ("add", linear, np.array([1.5e308, 1.5e308]),
                         np.array([[1.0], [0.0], [-1.0]])),
        # [[inf, -inf]]
        "add_inf_pair": ("add", wide, np.array([1.5e308, -1.5e308, 1.5e308, -1.5e308]),
                         np.ones((1, 1))),
        # a tanh net's output layer, which has no mask: four tanh(2) times 1e308
        "matmul_after_tanh": ("matmul", tanh, np.r_[np.ones(8), np.zeros(4), np.full(4, 1e308),
                                                    0.0], ones),
        # tanh(2) * 1e308 + 1e308
        "add_after_tanh": ("add", tanh, np.r_[np.ones(8), np.zeros(4), 1e308, np.zeros(3),
                                              1e308], ones),
    }


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("case", sorted(_failure_cases()))
def test_kernel_names_the_op_that_forward_graph_names(case):
    op, spec, theta, batch = _failure_cases()[case]
    with pytest.raises(NonFiniteError) as graph_err:
        forward_graph(spec, theta, batch)
    with pytest.raises(NonFiniteError) as former_err:
        _reference_mlp_forward(spec, theta, batch)
    with pytest.raises(NonFiniteError) as err:
        mlp_forward(spec, theta, batch)
    with pytest.raises(NonFiniteError) as work_err:
        mlp_forward(spec, theta, batch, MlpWorkspace(spec))
    assert err.value.op == work_err.value.op == graph_err.value.op == former_err.value.op == op
    if op != "theta":  # a ParamVector cannot hold a non-finite value
        with pytest.raises(NonFiniteError) as err:
            forward(spec, ParamVector(theta), batch)
        assert err.value.op == op


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_nonfinite_gradient_past_a_finite_forward_is_named_backward():
    # tiny first-layer weights keep the forward finite; the backward pass then
    # multiplies 1e10 inputs by a 1e308 output weight
    d_spec = NetworkSpec(1, (1,), 1)
    g_spec = NetworkSpec(1, (), 1)
    theta_d = ParamVector(np.array([1e-300, 0.0, 1e308, 0.0]))
    theta_g = ParamVector(np.array([1.0, 0.0]))
    state = GanState(d_spec, g_spec, theta_d, theta_g, FGan(FGAN_FAMILIES["pearson_chi2"]))
    real, latent = np.full((4, 1), 1e10), np.full((4, 1), 1e10)
    assert np.isfinite(eval_objective(state, real, latent))
    for fused in (value_and_grad_d, value_and_grad_g):
        with pytest.raises(NonFiniteError) as err:
            fused(state, theta_d, theta_g, real, latent)
        assert err.value.op == "backward"
    # a value-only step stops before the backward pass, so it names nothing
    step_fn = penalized_step_fn(state, theta_d, theta_g, real, latent, 0.0)
    assert np.isfinite(step_fn(theta_d, backward=False)[0])


def _sobolev_overflow_case():
    """A linear critic whose objective stays finite at weight 1e305 while the
    Sobolev penalty against a zero-weight anchor squares 1e305."""
    spec = NetworkSpec(1, (), 1)
    state = GanState(spec, NetworkSpec(1, (), 1), ParamVector([0.0, 0.0]),
                     ParamVector([1.0, 0.0]), WassersteinClip(1e306))
    real, latent = np.linspace(-1.0, 1.0, 8)[:, None], np.linspace(0.0, 1.0, 8)[:, None]
    step_fn = penalized_step_fn(state, state.theta_d, state.theta_g, real, latent, 0.1)
    return state, real, latent, step_fn, ParamVector([1e305, 0.0])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_sobolev_penalty_overflow_is_named_by_the_graph():
    state, real, latent, step_fn, theta = _sobolev_overflow_case()
    fake = forward(state.g_spec, state.theta_g, latent)
    anchor_grads = input_grad_batch(state.d_spec, state.theta_d, real, 1e-3)

    def penalized(t):
        value = objective_from_outputs(state.objective, forward_graph(state.d_spec, t, real),
                                       forward_graph(state.d_spec, t, fake))
        return value - 0.1 * _sobolev_sum(input_grad_columns(state.d_spec, t, real, 1e-3),
                                          anchor_grads)

    assert np.isfinite(eval_objective(state.with_params(theta), real, latent))
    with pytest.raises(NonFiniteError) as graph_err:
        grad_params(penalized, theta)
    for backward in (True, False):
        with pytest.raises(NonFiniteError) as err:
            step_fn(theta, backward=backward)
        assert err.value.op == graph_err.value.op == "mul"


def test_value_graph_checks_the_box_of_a_tensor_discriminator():
    state = _state(WassersteinClip(0.01), "tanh", seed=60)
    rng = Rng(61)
    real, latent = rng.normal((10, 2)), rng.normal((10, 3))
    inside = Tensor(state.theta_d.values)
    assert value_graph(state, inside, state.theta_g, real, latent).item() == pytest.approx(
        eval_objective(state, real, latent), rel=TOL)
    for outside in (state.theta_d.values * 2.0, Tensor(state.theta_d.values * 2.0)):
        with pytest.raises(ClipBoxError):
            value_graph(state, outside, state.theta_g, real, latent)


# -- no graph replay -------------------------------------------------------------


def test_the_diffcore_package_exports_no_graph_oracle():
    import proxgap.diffcore as diffcore
    from proxgap import objectives

    oracle = {"Tensor", "grad_params", "finite_diff_grad", "exp", "log", "softplus",
              "forward_graph", "input_grad_columns"}
    assert not oracle & (set(diffcore.__all__) | set(vars(diffcore)))
    assert not hasattr(objectives, "_sobolev_graph")

GRAPH_ORACLES = ("forward_graph", "value_graph", "input_grad_columns", "grad_params")


def _forbid_graph_oracles(monkeypatch):
    """Make each graph oracle raise in every proxgap module that holds it."""

    def replayed(*args, **kwargs):
        raise AssertionError("a fast path called a graph oracle")

    patched = set()
    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("proxgap"):
            continue
        for name in GRAPH_ORACLES:
            if callable(getattr(module, name, None)):
                monkeypatch.setattr(module, name, replayed)
                patched.add(name)
    assert patched == set(GRAPH_ORACLES)


def _fast_paths(state, real, latent, theta_d):
    """Every call that used to replay through the graph, at discriminator theta_d,
    as name -> thunk; the prox step is anchored at the state's discriminator."""
    step_fn = penalized_step_fn(state, state.theta_d, state.theta_g, real, latent, 0.1)
    theta_g = state.theta_g
    return {
        "forward": lambda: forward(state.d_spec, theta_d, real),
        "eval_objective": lambda: eval_objective(state.with_params(theta_d), real, latent),
        "value_and_grad_d": lambda: value_and_grad_d(state, theta_d, theta_g, real, latent),
        "value_and_grad_g": lambda: value_and_grad_g(state, theta_d, theta_g, real, latent),
        "prox_step": lambda: step_fn(theta_d),
    }


def _flat(result):
    parts = result if isinstance(result, tuple) else (result,)
    return [np.asarray(part) for part in parts]


def test_fast_paths_return_their_values_without_the_graph(monkeypatch):
    state = _state(Classic(), "tanh", seed=13)
    rng = Rng(38)
    real, latent = rng.normal((20, 2)), rng.normal((20, 3))
    paths = _fast_paths(state, real, latent, state.theta_d)
    expected = {name: _flat(call()) for name, call in paths.items()}
    _forbid_graph_oracles(monkeypatch)
    for name, call in _fast_paths(state, real, latent, state.theta_d).items():
        for got, want in zip(_flat(call()), expected[name]):
            np.testing.assert_array_equal(got, want, err_msg=name)


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_fast_paths_name_failures_without_the_graph(monkeypatch):
    _forbid_graph_oracles(monkeypatch)
    state, real, latent, huge = _overflow_setup()
    for name, call in _fast_paths(state, real, latent, huge).items():
        with pytest.raises(NonFiniteError) as err:
            call()
        assert err.value.op == "matmul", name
    step_fn = penalized_step_fn(state, state.theta_d, state.theta_g, real, latent, 0.1)
    landing = iter([state.theta_d.values, huge.values])
    with pytest.raises(ProxDivergenceError, match="inner step 1") as err:
        _last(_prox_loop(lambda theta: step_fn(theta)[1], state.theta_d.values,
                         _gan_steps(lambda theta: next(landing)),
                         ProximalConfig(lam=0.1, prox_steps=3)))
    assert err.value.__cause__.op == "matmul"

    kl = _kl_overflow_state()
    real, latent = np.full((8, 2), 30.0), np.full((8, 3), 30.0)
    for name, call in _fast_paths(kl, real, latent, kl.theta_d).items():
        if name == "forward":  # the network outputs are finite; the objective overflows
            continue
        with pytest.raises(NonFiniteError) as err:
            call()
        assert err.value.op == "exp", name

    _, _, _, step_fn, theta = _sobolev_overflow_case()
    with pytest.raises(NonFiniteError) as err:
        step_fn(theta)
    assert err.value.op == "mul"


@pytest.mark.parametrize("agent", [GENERATOR, DISCRIMINATOR])
def test_spectrum_probe_runs_without_the_graph(monkeypatch, agent):
    dist = GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]])
    cases = ((_state(Classic(), "tanh", seed=13), make_splits(dist, 200, 100, 100, Rng(39)), 2),
             (ToyGameState(concave_quadratic(), [0.3], [-0.2]), None, 1))
    expected = [hessian_spectrum_probe(state, splits, agent, k, Rng(40))
                for state, splits, k in cases]
    _forbid_graph_oracles(monkeypatch)
    for (state, splits, k), want in zip(cases, expected):
        assert hessian_spectrum_probe(state, splits, agent, k, Rng(40)) == want


def _forbid_tensors(monkeypatch):
    """Make constructing a Tensor raise, whichever proxgap module asks."""

    def built(*args, **kwargs):
        raise AssertionError("a healthy path built a Tensor")

    monkeypatch.setattr(Tensor, "__init__", built)


@pytest.mark.parametrize("name,objective", OBJECTIVES, ids=[n for n, _ in OBJECTIVES])
def test_healthy_paths_build_no_tensor(monkeypatch, name, objective):
    state = _state(objective, "tanh", seed=14 + len(name))
    rng = Rng(41)
    real, latent = rng.normal((20, 2)), rng.normal((17, 3))
    outputs = forward(state.d_spec, state.theta_d,
                      np.vstack([real, forward(state.g_spec, state.theta_g, latent)]))
    splits = make_splits(GaussianMixture([1.0], [[0.0, 0.0]], [[1.0, 1.0]]),
                         200, 100, 100, Rng(39))

    def paths():
        calls = _fast_paths(state, real, latent, state.theta_d)
        calls["output_grads"] = lambda: output_grads(objective, outputs, real.shape[0])
        calls["spectrum_grad_d"] = lambda: _agent_grad(
            state, splits, DISCRIMINATOR, Rng(40))[0](state.theta_d.values)
        return calls

    expected = {name: _flat(call()) for name, call in paths().items()}
    _forbid_tensors(monkeypatch)
    with pytest.raises(AssertionError, match="built a Tensor"):
        Tensor(np.zeros(1))
    for name, call in paths().items():
        got = _flat(call())
        assert len(got) == len(expected[name])
        for part, want in zip(got, expected[name]):
            assert part.tobytes() == want.tobytes(), name


# -- the reused workspace --------------------------------------------------------


def _thetas(state, rng: Rng, count: int):
    for j in range(count):
        yield enforce_constraint(
            state.objective, state.theta_d.values + 0.05 * rng.child(j).normal(len(state.theta_d)))


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("objective", [Classic(), WassersteinClip(0.05)],
                         ids=["sigmoid_head", "linear_head"])
@pytest.mark.parametrize("n", [7, 40])
def test_reused_workspace_matches_fresh_allocation_bit_for_bit(activation, objective, n):
    state = _state(objective, activation, seed=n)
    rng = Rng(35)
    real, latent = rng.normal((n, 2)), rng.normal((n, 3))
    step_fn = penalized_step_fn(state, state.theta_d, state.theta_g, real, latent, 0.1)
    rows = rng.normal((3 * n, 2))
    weights = rng.normal((3 * n, 1))
    work = MlpWorkspace(state.d_spec)
    for theta in _thetas(state, rng.child(1), 20):
        # the step function's own workspace against a fresh step function
        value, grad = step_fn(theta)
        fresh_value, fresh_grad = penalized_step_fn(state, state.theta_d, state.theta_g,
                                                    real, latent, 0.1)(theta)
        assert value == fresh_value
        np.testing.assert_array_equal(grad, fresh_grad)
        # and the kernel on a workspace against the kernel with fresh buffers
        out, cache = mlp_forward(state.d_spec, theta, rows, work)
        np.testing.assert_array_equal(out, mlp_forward(state.d_spec, theta, rows)[0])
        grads = mlp_backward(state.d_spec, theta, cache, weights)
        fresh = mlp_backward(state.d_spec, theta,
                             mlp_forward(state.d_spec, theta, rows)[1], weights)
        np.testing.assert_array_equal(grads[0], fresh[0])
        np.testing.assert_array_equal(grads[1], fresh[1])


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("head", HEADS)
def test_one_workspace_on_changing_row_counts_keeps_the_bytes_of_fresh_ones(activation, head):
    # one workspace grows to its largest batch and serves smaller ones from
    # its leading rows, its backward buffers and row of ones included; a
    # forward-only call opens the run, so those follow the forward's rows
    spec = NetworkSpec(2, (32, 16), 1, activation=activation, output_head=head)
    rng = Rng(38)
    work = MlpWorkspace(spec)
    mlp_forward(spec, init_network(spec, rng), rng.normal((50, 2)), work)
    for k, rows in enumerate((7, 40, 7, 3000, 40)):
        theta = init_network(spec, rng.child(k, 0))
        batch = rng.child(k, 1).normal((rows, 2))
        weights = rng.child(k, 2).normal((rows, 1))
        got, want = [], []
        for buffers, results in ((work, got), (MlpWorkspace(spec), want)):
            out, cache = mlp_forward(spec, theta, batch, buffers)
            results.append(out.tobytes())
            results.extend(g.tobytes() for g in mlp_backward(spec, theta, cache, weights))
        assert got == want
        assert work.rows == max((50, 7, 40, 7, 3000, 40)[:k + 2])


def test_returned_gradients_survive_later_steps():
    state = _state(Classic(), "leaky_relu", seed=12)
    rng = Rng(36)
    real, latent = rng.normal((30, 2)), rng.normal((30, 3))
    step_fn = penalized_step_fn(state, state.theta_d, state.theta_g, real, latent, 0.1)
    thetas = list(_thetas(state, rng, 4))
    value, grad = step_fn(thetas[0])
    kept = grad.copy()
    for theta in thetas[1:]:
        step_fn(theta)
    np.testing.assert_array_equal(grad, kept)
    again = step_fn(thetas[0])
    assert again[0] == value
    np.testing.assert_array_equal(again[1], kept)
    assert again[1] is not grad


def test_repeated_eval_steps_allocate_less_than_one_activation_array():
    # the desk discriminator on a 500-row evaluation split: 3000 stacked rows
    d_spec = NetworkSpec(2, (32, 32), 1, activation="tanh", output_head="sigmoid")
    g_spec = NetworkSpec(4, (32, 32), 2, activation="tanh")
    rng = Rng(37)
    state = GanState(d_spec, g_spec, init_network(d_spec, rng.child(0)),
                     init_network(g_spec, rng.child(1)), Classic())
    real, latent = rng.normal((500, 2)), rng.normal((500, 4))
    step_fn = penalized_step_fn(state, state.theta_d, state.theta_g, real, latent, 0.1)
    step_fn(state.theta_d)  # the first backward pass makes the work buffers
    tracemalloc.start()
    try:
        for _ in range(5):
            step_fn(state.theta_d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 3000 * 32 * 8


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_overflow_on_a_reused_workspace_is_named_and_leaves_it_usable():
    state, real, latent, huge = _overflow_setup()
    step_fn = penalized_step_fn(state, state.theta_d, state.theta_g, real, latent, 0.1)
    value, grad = step_fn(state.theta_d)
    with pytest.raises(NonFiniteError) as err:
        step_fn(huge)
    assert err.value.op == "matmul"
    again = step_fn(state.theta_d)
    assert again[0] == value
    np.testing.assert_array_equal(again[1], grad)

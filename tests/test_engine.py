import numpy as np
import pytest

from proxgap.diffcore import (
    NetworkSpec,
    NonFiniteError,
    ParamVector,
    Rng,
    Tensor,
    finite_diff_grad,
    forward_graph,
    grad_params,
    init_network,
)
from proxgap.diffcore.engine import _sigmoid


def test_add_mul_backward():
    x = Tensor(2.0)
    y = Tensor(3.0)
    z = x * y + x
    z.backward()
    assert z.item() == 8.0
    assert x.grad == pytest.approx(4.0)
    assert y.grad == pytest.approx(2.0)


def test_shared_subgraph_accumulates():
    x = Tensor(2.0)
    y = Tensor(-4.0)
    q = (x + y) * (x + 1.0)
    q.backward()
    assert x.grad == pytest.approx(1.0)
    assert y.grad == pytest.approx(3.0)


def test_bias_broadcast_gradient():
    w = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor(np.array([0.5, -0.5]))
    x = Tensor(np.array([[1.0, 1.0], [2.0, 0.0], [0.0, 3.0]]))
    out = ((x @ w + b) ** 2).sum()
    out.backward()
    # bias gradient sums over the batch dimension
    pre = x.data @ w.data + b.data
    assert np.allclose(b.grad, 2.0 * pre.sum(axis=0))
    assert np.allclose(w.grad, x.data.T @ (2.0 * pre))


def test_division_and_pow():
    a = Tensor(3.0)
    b = Tensor(4.0)
    out = a / b + b ** 2
    out.backward()
    assert a.grad == pytest.approx(0.25)
    assert b.grad == pytest.approx(-3.0 / 16.0 + 8.0)


def test_log_of_negative_raises_named_error():
    t = Tensor(np.array([-1.0]))
    with pytest.raises(NonFiniteError) as err:
        t.log()
    assert "log" in str(err.value)


def test_exp_overflow_raises():
    with pytest.raises(NonFiniteError):
        Tensor(np.array([1000.0])).exp()


def test_clamp_blocks_gradient_outside():
    x = Tensor(np.array([-2.0, 0.5, 2.0]))
    out = x.clamp(0.0, 1.0).sum()
    out.backward()
    assert np.allclose(x.grad, [0.0, 1.0, 0.0])


def test_grad_params_quadratic():
    pv = ParamVector(np.array([3.0]), {"w": (0, 1)})
    grad = grad_params(lambda t: (t * t).sum(), pv)
    assert grad == pytest.approx([6.0])


def test_grad_params_constant_loss_is_zero():
    pv = ParamVector(np.array([1.0, -2.0]), {"w": (0, 2)})
    grad = grad_params(lambda t: Tensor(5.0) + t.sum() * 0.0, pv)
    assert np.allclose(grad, 0.0)


def test_finite_diff_quadratic_and_linear():
    pv = ParamVector(np.array([3.0]), {"w": (0, 1)})
    g = finite_diff_grad(lambda t: (t * t).sum(), pv, h=1e-5)
    assert g == pytest.approx([6.0], abs=1e-8)
    a = np.array([2.0, -1.0, 0.5])
    pv3 = ParamVector(np.zeros(3), {"w": (0, 3)})
    g3 = finite_diff_grad(lambda t: (t * a).sum(), pv3, h=1e-5)
    assert np.allclose(g3, a)


def _mse_loss(spec, batch, target):
    def loss(theta):
        pred = forward_graph(spec, theta, batch)
        diff = pred - target
        return (diff * diff).mean()

    return loss


@pytest.mark.parametrize("seed", range(5))
def test_reverse_mode_matches_finite_differences(seed):
    rng = Rng(seed)
    spec = NetworkSpec(2, (8,), 1, activation="tanh")
    params = init_network(spec, rng)
    batch = rng.normal((4, 2))
    target = rng.normal((4, 1))
    loss = _mse_loss(spec, batch, target)
    exact = grad_params(loss, params)
    approx = finite_diff_grad(loss, params, h=1e-5)
    rel = np.linalg.norm(exact - approx) / max(np.linalg.norm(exact), 1e-12)
    assert rel < 1e-4


def test_segment_reshape_roundtrip():
    t = Tensor(np.arange(6.0))
    m = t.segment(2, 4).reshape(2, 2)
    out = (m * m).sum()
    out.backward()
    expected = np.zeros(6)
    expected[2:] = 2.0 * np.arange(2.0, 6.0)
    assert np.allclose(t.grad, expected)


def test_backward_requires_scalar():
    with pytest.raises(ValueError):
        Tensor(np.ones(3)).backward()


def _masked_sigmoid(x):
    # the two-sided masked formula the logistic used before; the oracle
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_is_bit_identical_to_the_masked_formula():
    rng = Rng(40)
    special = np.array([0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan, 5e-324, -5e-324,
                        36.0, -36.0, 709.0, -709.0, 745.0, -745.0, 1e3, -1e3])
    for x in (special, rng.normal((64, 3)), 1e3 * rng.uniform(-1.0, 1.0, 4096),
              np.array(-2.5)):
        got = _sigmoid(x)
        want = _masked_sigmoid(x)
        assert got.shape == want.shape
        assert np.array_equal(got, want, equal_nan=True)
        # the same bits, down to the sign of zeros and nans
        assert np.array_equal(got.view(np.uint64), want.view(np.uint64))

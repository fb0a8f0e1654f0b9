"""Differentiation core walkthrough: exact gradients against the
finite-difference oracle, Adam updates, and Hessian eigenvalues by
matrix-free block Lanczos iteration."""

import numpy as np

from proxgap.diffcore import (
    NetworkSpec,
    Rng,
    adam_init,
    adam_step,
    forward,
    hvp,
    init_network,
    top_k_eigenvalues,
)
from proxgap.diffcore.engine import finite_diff_grad, grad_params
from proxgap.diffcore.network import forward_graph

rng = Rng(0)

print("=" * 60)
print("1. reverse-mode gradients vs central differences")
print("=" * 60)
spec = NetworkSpec(2, (16, 16), 1, activation="tanh")
print(f"network 2-16-16-1 (tanh): {spec.param_count} parameters")
params = init_network(spec, rng.child(1)).values  # a flat float64 array
batch = rng.normal((8, 2))
target = rng.normal((8, 1))


def mse(theta):
    diff = forward_graph(spec, theta, batch) - target
    return (diff * diff).mean()


exact = grad_params(mse, params)
approx = finite_diff_grad(mse, params, h=1e-5)
rel = np.linalg.norm(exact - approx) / np.linalg.norm(exact)
print(f"relative error between the two routes: {rel:.2e}")

print()
print("=" * 60)
print("2. a few Adam steps shrink the loss")
print("=" * 60)
state = adam_init(spec.param_count, lr=0.01)
theta = params
for step in range(1, 51):
    grad = grad_params(mse, theta)
    theta, state = adam_step(theta, grad, state)
    if step % 10 == 0:
        mse_val = float(np.mean((forward(spec, theta, batch) - target) ** 2))
        print(f"  step {step:3d}: mse {mse_val:.4f}")

print()
print("=" * 60)
print("3. leading Hessian eigenvalues without forming the Hessian")
print("=" * 60)
h = 1e-4 * (1.0 + np.linalg.norm(theta))
result = top_k_eigenvalues(lambda v: hvp(lambda th: grad_params(mse, th), theta, v, h),
                           dim=spec.param_count, k=4, rng=rng.child(2))
print("block Lanczos    :", [f"{v:+.4f}" for v in result.values])

# cross-check on an explicit symmetric matrix
a = rng.child(3).normal((12, 12))
sym = 0.5 * (a + a.T)
dense = np.linalg.eigvalsh(sym)
dense = dense[np.argsort(-np.abs(dense))][:4]
est = top_k_eigenvalues(lambda v: sym @ v, dim=12, k=4,
                        max_iters=5000, rng=rng.child(4))
print("explicit 12x12  :", [f"{v:+.4f}" for v in est.values])
print("dense solver    :", [f"{v:+.4f}" for v in dense])

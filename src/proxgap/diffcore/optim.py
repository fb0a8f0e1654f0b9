"""Adam updates for parameter vectors."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .network import ParamVector


@dataclass(frozen=True)
class AdamState:
    m: np.ndarray
    v: np.ndarray
    t: int
    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8

    def __post_init__(self):
        if self.t < 0:
            raise ValueError("step counter must be nonnegative")
        if self.m.shape != self.v.shape:
            raise ValueError("moment vectors must have equal length")
        if np.any(self.v < 0):
            raise ValueError("second moments must be nonnegative")


def adam_init(n_params: int, lr: float, beta1: float = 0.9, beta2: float = 0.999,
              eps: float = 1e-8) -> AdamState:
    return AdamState(np.zeros(n_params), np.zeros(n_params), 0, lr, beta1, beta2, eps)


def adam_step(params, grad, state: AdamState):
    """One bias-corrected Adam step in the direction that reduces the loss.

    Returns ``(new_params, new_state)``; accepts a ParamVector or a plain
    array and returns the same kind.
    """
    vals = params.values if isinstance(params, ParamVector) else np.asarray(params, dtype=np.float64)
    grad = np.asarray(grad, dtype=np.float64)
    if grad.shape != vals.shape:
        raise ValueError("gradient length does not match parameters")
    t = state.t + 1
    m = state.beta1 * state.m + (1.0 - state.beta1) * grad
    v = state.beta2 * state.v + (1.0 - state.beta2) * grad * grad
    m_hat = m / (1.0 - state.beta1 ** t)
    v_hat = v / (1.0 - state.beta2 ** t)
    new_vals = vals - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    new_state = AdamState(m, v, t, state.lr, state.beta1, state.beta2, state.eps)
    if isinstance(params, ParamVector):
        return params.with_values(new_vals), new_state
    return new_vals, new_state

